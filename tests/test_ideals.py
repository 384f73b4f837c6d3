import itertools
import random

import pytest

import oracles
from ringlab import (InvariantViolation, ModuleHom, RightIdeal, RingMismatchError,
                     SearchBudgetExceeded, all_right_ideals,
                     common_complement_idempotent, direct_complements, element_to_obj,
                     graph_module, hom_search, ideal_intersect, ideal_sum,
                     is_direct_pair, is_ssp, iter_homs, make_triangular_ring, make_zmod,
                     parse_element, parse_ring_spec, principal,
                     reconstruct_common_complement, right_annihilator,
                     summand_idempotent, summands_isomorphic)
from ringlab import ideals
from ringlab.ideals import identity_hom, subgroup_sum
from ringlab.rings import bits


def members(I):
    return set(I.members)


def hom_from_dict(A, B, mapping):
    """The ModuleHom of a dict over A's members, in ascending member order."""
    return ModuleHom(A, B, tuple(mapping[s] for s in A.sorted_members))


# -- principal ideals and annihilators --------------------------------------------

def test_principal_zero_and_one(z6):
    assert members(principal(z6, 0)) == {0}
    assert members(principal(z6, 1)) == set(range(6))


def test_principal_3_in_z6(z6):
    assert oracles.zmod_principal(6, 3) == {0, 3}
    assert members(principal(z6, 3)) == {0, 3}
    assert principal(z6, 3).generators == (3,)


def test_annihilator_extremes(z6):
    assert members(right_annihilator(z6, 0)) == set(range(6))
    assert members(right_annihilator(z6, 1)) == {0}


def test_annihilator_2_in_z6(z6):
    assert oracles.zmod_annihilator(6, 2) == {0, 3}
    assert members(right_annihilator(z6, 2)) == {0, 3}


def test_annihilator_is_closed(t2z3, m2z2):
    for ring in (t2z3, m2z2):
        for a in range(ring.size):
            I = right_annihilator(ring, a)
            RightIdeal.from_members(ring, I.members)  # closure re-check


# -- sums and intersections ---------------------------------------------------------

def test_sum_with_zero_is_identity(z6):
    A = principal(z6, 2)
    assert ideal_sum(A, RightIdeal.zero_ideal(z6)) == A


def test_peirce_sum_is_whole_ring(z6, m2z2, t2z3):
    for ring in (z6, m2z2, t2z3):
        for e in ring.idempotent_list:
            total = ideal_sum(principal(ring, e), principal(ring, ring.one_minus(e)))
            assert total.is_full()


def test_sum_2_and_3_in_z6(z6):
    assert {(2 * r + 3 * s) % 6 for r in range(6) for s in range(6)} == set(range(6))
    assert ideal_sum(principal(z6, 2), principal(z6, 3)).is_full()


def test_sum_concatenates_generators(z6):
    s = ideal_sum(principal(z6, 2), principal(z6, 3))
    assert s.generators == (2, 3)


def test_intersect_self(z6):
    A = principal(z6, 2)
    assert ideal_intersect(A, A) == A


def test_intersect_special_clean_pair(z6):
    # the decomposition 3 = 4 + 5 needs 3R meet 4R = 0
    assert members(ideal_intersect(principal(z6, 3), principal(z6, 4))) == {0}


def test_intersect_sets(z6):
    A = RightIdeal.from_members(z6, {0, 2, 4})
    B = RightIdeal.from_members(z6, {0, 3})
    assert members(ideal_intersect(A, B)) == {0}


def test_ring_mismatch_raises(z6, z4):
    with pytest.raises(RingMismatchError):
        ideal_sum(principal(z6, 2), principal(z4, 2))


# -- summand detection and complements ------------------------------------------------

def test_summand_idempotent_zero_and_full(z6):
    assert summand_idempotent(RightIdeal.zero_ideal(z6)) == 0
    assert summand_idempotent(RightIdeal.full_ideal(z6)) == 1


def test_summand_idempotent_of_03_is_3(z6):
    assert 3 * 3 % 6 == 3 and {3 * r % 6 for r in range(6)} == {0, 3}
    assert summand_idempotent(RightIdeal.from_members(z6, {0, 3})) == 3


def test_summand_idempotent_absent(z4):
    # {0, 2} is an ideal of Z4 but not a summand
    assert summand_idempotent(RightIdeal.from_members(z4, {0, 2})) is None


def test_complements_of_zero(z6):
    comps = direct_complements(RightIdeal.zero_ideal(z6))
    assert comps == [RightIdeal.full_ideal(z6)]


def test_complements_contain_peirce(m2z2, t2z3):
    for ring in (m2z2, t2z3):
        for e in ring.idempotent_list:
            eR = principal(ring, e)
            comp = principal(ring, ring.one_minus(e))
            assert comp in direct_complements(eR)


def test_complements_of_03_in_z6(z6):
    comps = direct_complements(RightIdeal.from_members(z6, {0, 3}))
    assert [members(c) for c in comps] == [{0, 2, 4}]


def test_complements_empty_for_non_summand(z4):
    assert direct_complements(RightIdeal.from_members(z4, {0, 2})) == []


def test_all_right_ideals_z6_matches_subset_oracle(z6):
    expect = oracles.subsets_right_ideals(z6.add_table, z6.mul_table, z6.zero, z6.size)
    assert expect == {frozenset({0}), frozenset({0, 3}), frozenset({0, 2, 4}),
                      frozenset(range(6))}
    assert {I.members for I in all_right_ideals(z6)} == expect


def test_all_right_ideals_t2z2_matches_subset_oracle():
    ring = make_triangular_ring(2, make_zmod(2))
    expect = oracles.subsets_right_ideals(ring.add_table, ring.mul_table,
                                          ring.zero, ring.size)
    assert {I.members for I in all_right_ideals(ring)} == expect


@pytest.mark.parametrize("spec", ["Zn:12", "T2:Zn:3", "M2:Zn:2", "prod:Zn:2+Zn:4"])
def test_subgroup_sum_is_the_additive_closure_of_the_union(spec):
    ring = parse_ring_spec(spec)
    masks = [I.mask for I in all_right_ideals(ring)] + list(set(ring.right_masks))
    for p in masks:
        for q in masks:
            sum_mask = subgroup_sum(ring, bits(p), bits(q))
            assert sum_mask == oracles.additive_closure_fixpoint(ring, p | q)


# -- lattice laws (exhaustive on small rings) ------------------------------------------

@pytest.fixture(scope="module")
def small_lattices():
    rings = [parse_ring_spec("Zn:8"), parse_ring_spec("Zn:12"),
             make_triangular_ring(2, make_zmod(2))]
    return [(ring, all_right_ideals(ring)) for ring in rings]


def test_lattice_ops_commutative(small_lattices):
    for ring, ideals in small_lattices:
        for A, B in itertools.combinations(ideals, 2):
            assert ideal_sum(A, B) == ideal_sum(B, A)
            assert ideal_intersect(A, B) == ideal_intersect(B, A)


def test_lattice_ops_idempotent(small_lattices):
    for ring, ideals in small_lattices:
        for A in ideals:
            assert ideal_sum(A, A) == A
            assert ideal_intersect(A, A) == A


def test_lattice_ops_associative(small_lattices):
    for ring, ideals in small_lattices:
        for A, B, C in itertools.combinations(ideals, 3):
            assert ideal_sum(ideal_sum(A, B), C) == ideal_sum(A, ideal_sum(B, C))
            assert ideal_intersect(ideal_intersect(A, B), C) == \
                ideal_intersect(A, ideal_intersect(B, C))


def test_summand_intersections_on_ssp_rings(catalog_rings):
    # wherever the summand-sum property holds, summand intersections must
    # again be summands (exhaustive over idempotent pairs)
    for ring in catalog_rings.values():
        if not is_ssp(ring).holds:
            continue
        for e in ring.idempotent_list:
            for f in ring.idempotent_list:
                meet = ideal_intersect(principal(ring, e), principal(ring, f))
                assert summand_idempotent(meet) is not None


# -- homomorphism search ----------------------------------------------------------------

def test_hom_search_contains_identity(z6):
    A = principal(z6, 3)
    homs = hom_search(A, A, require_iso=True)
    assert identity_hom(A).images in [h.images for h in homs]


def test_hom_search_counts_in_z6(z6):
    A = RightIdeal.from_members(z6, {0, 3})
    B = RightIdeal.from_members(z6, {0, 2, 4})
    assert len(hom_search(A, A)) == 2          # zero map and identity
    assert len(hom_search(A, B)) == 1          # only the zero map
    assert hom_search(A, B, require_iso=True) == []


def test_hom_search_results_are_valid(m2z2):
    e = m2z2.idempotent_list[2]
    A = principal(m2z2, e)
    B = principal(m2z2, m2z2.one_minus(e))
    for h in hom_search(A, B):
        h.validate()


def test_hom_search_budget(m2z2, monkeypatch):
    A = RightIdeal.full_ideal(m2z2)
    big = ideal_sum(A, A)  # two generators over a 16-element target
    monkeypatch.setattr(ideals, "HOM_SEARCH_CANDIDATE_LIMIT", 10)
    with pytest.raises(SearchBudgetExceeded):
        hom_search(big, A)
    search = iter_homs(big, A)
    with pytest.raises(SearchBudgetExceeded):
        next(search)


@pytest.mark.parametrize("spec", ["M2:Zn:2", "M2:Zn:3", "Zn:12"])
def test_the_first_map_iter_homs_yields_is_the_least_one(spec):
    lattice = all_right_ideals(parse_ring_spec(spec))
    for A in lattice:
        for B in lattice:
            isos = hom_search(A, B, require_iso=True)
            first = next(iter_homs(A, B, True), None)
            if not isos:
                assert first is None, (A, B)
                continue
            assert (first.source, first.target, first.images) == \
                (isos[0].source, isos[0].target, isos[0].images), (A, B)
            assert [h.images for h in hom_search(A, B, True, limit=1)] == [first.images]


def test_hom_search_zero_source(z6):
    Z = RightIdeal.zero_ideal(z6)
    homs = hom_search(Z, principal(z6, 2))
    assert len(homs) == 1 and homs[0].images == (0,)
    assert hom_search(Z, principal(z6, 2), require_iso=True) == []
    assert len(hom_search(Z, Z, require_iso=True)) == 1


def test_two_element_certificate_matches_hom_search(z6, m2z2):
    ring = m2z2
    ids = ring.idempotent_list
    for e in ids:
        for f in ids:
            cert = summands_isomorphic(ring, e, f)
            isos = hom_search(principal(ring, e), principal(ring, f), require_iso=True)
            assert (cert is not None) == bool(isos), (e, f)
            if cert is not None:
                u, v = cert
                assert ring.mul(u, v) == e and ring.mul(v, u) == f


# -- homomorphism kernels against the closure and the loop ---------------------------


def closure_search(A, B, require_iso=False):
    """hom_search's enumeration, extended by the reference closure; each map
    as its images over A's ascending members."""
    if require_iso and len(A) != len(B):
        return []
    found = []
    for images in itertools.product(B.sorted_members, repeat=len(A.generators)):
        mapping = oracles.hom_extension_closure(A.ring, A.generators, images, A.members)
        if mapping is not None and (not require_iso or set(mapping.values()) == B.members):
            found.append(tuple(mapping[s] for s in A.sorted_members))
    return found


def assert_search_matches_closure(A, B):
    for require_iso in (False, True):
        got = [h.images for h in hom_search(A, B, require_iso=require_iso)]
        assert got == closure_search(A, B, require_iso), (A, B, require_iso)


@pytest.mark.parametrize("spec", ["Zn:6", "M2:Zn:2", "T2:Zn:3"])
def test_hom_search_matches_the_closure_on_every_ideal_pair(spec):
    ideals = all_right_ideals(parse_ring_spec(spec))
    for A in ideals:
        for B in ideals:
            assert_search_matches_closure(A, B)


def test_hom_search_matches_the_closure_on_concatenated_generators(m2z2, t2z3):
    # ideal_sum concatenates generator lists, so these sources carry
    # redundant and repeated generators that the extension must reconcile
    for ring in (m2z2, t2z3):
        summands = [principal(ring, e) for e in ring.idempotent_list[1:4]]
        targets = summands + [RightIdeal.zero_ideal(ring)]
        for P in summands:
            for Q in summands:
                A = ideal_sum(P, Q)
                assert len(A.generators) == 2
                for B in targets + [A]:
                    assert_search_matches_closure(A, B)


def test_hom_search_finds_nothing_from_generators_that_do_not_span(z6):
    A = RightIdeal(z6, (1 << 6) - 1, (2,))   # all of Z6, but 2 spans {0, 2, 4}
    assert closure_search(A, A) == []
    assert hom_search(A, A) == []


def validate_message(check, hom):
    try:
        check(hom)
    except InvariantViolation as exc:
        return str(exc)
    return None


def assert_validate_matches_loop(hom, prefix):
    message = validate_message(ModuleHom.validate, hom)
    assert message == validate_message(oracles.module_hom_validate_loop, hom)
    assert message.startswith(prefix), message


def test_validate_reports_the_loops_first_failure(m2z2, t2z3):
    ring = parse_ring_spec("T2:Zn:2")
    column = RightIdeal.from_members(ring, {0, 1, 2, 3})   # [[0,b],[0,c]]
    assert len(column.generators) == 2
    row = principal(ring, parse_element(ring, "[[1,0],[0,0]]"))
    x, y = (parse_element(ring, m) for m in ("[[0,1],[0,0]]", "[[0,0],[0,1]]"))
    # R acts on the column ideal through c alone, so every map fixing 0 is
    # equivariant; this one sends x, y and x + y all to x
    collapse = hom_from_dict(column, column, {0: 0, x: x, y: x, ring.add(x, y): x})
    assert_validate_matches_loop(collapse, "map is not additive")
    # swapping the two entries of a first row is additive but not equivariant
    swap = {s: parse_element(ring, str([list(reversed(element_to_obj(ring, s)[0])), [0, 0]]))
            for s in row.sorted_members}
    assert_validate_matches_loop(hom_from_dict(row, row, swap), "map is not right-equivariant")
    partial = list(identity_hom(column).images)
    del partial[column.sorted_members.index(y)]
    assert_validate_matches_loop(ModuleHom(column, column, tuple(partial)),
                                 "map is not total on its source")
    assert_validate_matches_loop(ModuleHom(column, row, identity_hom(column).images),
                                 "map image escapes its target")
    for stray in (-1, ring.size):  # not element indices at all
        images = identity_hom(column).images[:-1] + (stray,)
        assert_validate_matches_loop(ModuleHom(column, RightIdeal.full_ideal(ring), images),
                                     "map image escapes its target")
    # random maps fixing 0 between ideals fail in later rows, of both kinds
    rng = random.Random(5)
    kinds = set()
    for ring in (m2z2, t2z3):
        ideals = all_right_ideals(ring)
        for A in ideals:
            for B in ideals:
                for _ in range(3):
                    images = [rng.choice(B.sorted_members) for s in A.sorted_members]
                    images[A.sorted_members.index(ring.zero)] = ring.zero
                    hom = ModuleHom(A, B, tuple(images))
                    message = validate_message(ModuleHom.validate, hom)
                    assert message == validate_message(oracles.module_hom_validate_loop, hom)
                    kinds.add(message and message.split(" at (")[0])
    assert kinds == {None, "map is not additive", "map is not right-equivariant"}


# -- common complements -------------------------------------------------------------------

def test_common_complement_with_self(z6):
    A = RightIdeal.from_members(z6, {0, 3})
    e, h = common_complement_idempotent(A, A)
    assert e == summand_idempotent(A) == 3
    assert (h.source.sorted_members, h.images) == ((0, 3), (0, 3))


def test_common_complement_zero_ideals(z6):
    Z = RightIdeal.zero_ideal(z6)
    e, h = common_complement_idempotent(Z, Z)
    assert e == 0 and (h.source.sorted_members, h.images) == ((0,), (0,))


def test_common_complement_roundtrip_exhaustive(m2z2, t2z3):
    # both directions: an idempotent witness exists exactly when the two
    # summands share a complement, and (1-e)R then complements both
    for ring in (m2z2, t2z3):
        summands = []
        seen = set()
        for e in ring.idempotent_list:
            I = principal(ring, e)
            if I.members not in seen:
                seen.add(I.members)
                summands.append(I)
        for A in summands:
            comps_a = set(direct_complements(A))
            for B in summands:
                shared = comps_a & set(direct_complements(B))
                found = common_complement_idempotent(A, B)
                assert (found is not None) == bool(shared), (A, B)
                if found is not None:
                    e, h = found
                    h.validate()
                    assert h.is_bijective()
                    W = reconstruct_common_complement(e, A, B)
                    assert is_direct_pair(A, W) and is_direct_pair(B, W)


def test_reconstruct_rejects_bad_idempotent(z6):
    A = RightIdeal.from_members(z6, {0, 3})
    B = RightIdeal.from_members(z6, {0, 2, 4})
    with pytest.raises(InvariantViolation):
        reconstruct_common_complement(3, A, B)  # (1-3)R = 4R complements A only


# -- graph modules -----------------------------------------------------------------------

def test_graph_of_zero_map(z6):
    Z = RightIdeal.zero_ideal(z6)
    assert members(graph_module(ModuleHom(Z, Z, (0,)))) == {0}


def test_graph_of_identity_is_doubling(z6):
    A = RightIdeal.from_members(z6, {0, 2, 4})
    G = graph_module(identity_hom(A))
    assert members(G) == {z6.add(x, x) for x in A.members}


def test_graph_rejects_non_equivariant_map(z6):
    # total but not equivariant: its graph {0, 4} is not closed under
    # right multiplication
    A = RightIdeal.from_members(z6, {0, 2, 4})
    bad = hom_from_dict(A, A, {0: 0, 2: 2, 4: 0})
    with pytest.raises(InvariantViolation):
        graph_module(bad)


def test_graph_rejects_partial_map(z6):
    A = RightIdeal.from_members(z6, {0, 2, 4})
    partial = ModuleHom(A, A, (0, 2))  # one image short: 4 has none
    with pytest.raises(InvariantViolation, match="map is not total on its source"):
        graph_module(partial)


def test_every_returned_ideal_is_closed(catalog_rings):
    # also: every principal ideal, its summand idempotent and its complements
    # against a plain scan of the frozenset principal ideals
    for ring in catalog_rings.values():
        sets, zero_only = ring.right_principal_sets, frozenset({ring.zero})
        summands = {}
        for e in ring.idempotent_list:
            summands.setdefault(sets[e], e)
        for a in range(ring.size):
            for I in (principal(ring, a), right_annihilator(ring, a)):
                RightIdeal.from_members(ring, I.members)
            aR = principal(ring, a)
            assert aR.members == sets[a] and len(aR) == len(sets[a])
            assert [x for x in ring.elements() if x in aR] == sorted(sets[a])
            assert summand_idempotent(aR) == summands.get(sets[a])
            assert [(C.members, C.generators) for C in direct_complements(aR)] == \
                [(S, (f,)) for S, f in summands.items()
                 if S & sets[a] == zero_only and len(S) * len(sets[a]) == ring.size]


# -- serialization -------------------------------------------------------------------------

def test_ideal_json(z6):
    blob = principal(z6, 3).to_json()
    assert blob == {"ring": "Zn:6", "generators": [3], "members": [0, 3]}


def test_hom_json(z6):
    A = principal(z6, 3)
    blob = identity_hom(A).to_json()
    assert blob["pairs"] == [[0, 0], [3, 3]]
    assert blob["source"]["members"] == [0, 3]
