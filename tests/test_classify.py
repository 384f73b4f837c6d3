import gc
import json
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ringlab import (SUITE_NAMES, Verdict, default_catalog, direct_sum_cancellation,
                     has_stable_range_1, idem_condition_annihilator,
                     idem_condition_right_sided, idem_sr_condition, ideal_sum,
                     is_abelian, is_clean, is_ic, is_sip, is_ssp, make_matrix_ring,
                     make_zmod, parse_ring_spec, principal, product_regular_condition,
                     regular_elements, ring_profile, right_sided_certificate,
                     special_clean_witnesses, summand_idempotent, theorem_suite,
                     unimodular_matrix, unit_regular_witness)
from ringlab import catalog, classify, rings
from ringlab.classify import (PRODUCT_ARITY_BOUND, _first_failure, _product_levels,
                              special_clean_flags)
from ringlab.cli import _hunt_candidates, run_hunt
from ringlab.elements import regularity_table, unit_regularity_table
from ringlab.rings import (FiniteRing, from_factors, make_opposite, make_product,
                           summand_partners)


# -- individual predicates -------------------------------------------------------

def test_ssp_on_commutative_and_regular_rings(catalog_rings):
    for spec in ("Zn:1", "Zn:4", "Zn:6", "Zn:12", "prod:Zn:2+Zn:3",
                 "M2:Zn:2", "M2:Zn:3"):
        assert is_ssp(catalog_rings[spec]).holds, spec


def test_ssp_fails_on_triangular_z3(t2z3):
    v = is_ssp(t2z3)
    assert v.holds is False
    # replay the counterexample: that idempotent pair's sum is not a summand
    e, f = v.witness["idempotents"]
    total = ideal_sum(principal(t2z3, e), principal(t2z3, f))
    assert summand_idempotent(total) is None


def test_sip_z6_and_m2z2(z6, m2z2):
    assert is_sip(z6).holds
    assert is_sip(m2z2).holds


def test_ssp_implies_sip_on_catalog(catalog_rings):
    for spec, ring in catalog_rings.items():
        if is_ssp(ring).holds:
            assert is_sip(ring).holds, spec


def test_ic_everywhere_in_catalog(catalog_rings):
    # all catalog rings are finite, hence stable range one, hence IC
    for spec, ring in catalog_rings.items():
        assert is_ic(ring).holds, spec


def test_sr1_holds_on_catalog(catalog_rings):
    for spec, ring in catalog_rings.items():
        assert has_stable_range_1(ring).holds, spec


def test_sr1_zero_ring():
    assert has_stable_range_1(make_zmod(1)).holds


def test_sr1_implies_ic_on_catalog(catalog_rings):
    for ring in catalog_rings.values():
        if has_stable_range_1(ring).holds:
            assert is_ic(ring).holds


def test_abelian_verdicts(z6, t2z3, m2z2):
    assert is_abelian(z6).holds
    v = is_abelian(t2z3)
    assert v.holds is False
    e, r = v.witness["idempotent"], v.witness["element"]
    assert t2z3.mul(e, r) != t2z3.mul(r, e)
    assert is_abelian(m2z2).holds is False


def test_unimodular_matrix_against_oracle(z6):
    U = unimodular_matrix(z6)
    for a in range(6):
        for b in range(6):
            assert bool(U[a, b]) == oracles.zmod_unimodular(6, a, b)


def test_unimodular_matrix_noncommutative_oracle(m2z2):
    # direct double scan, independent of the left-ideal class grouping
    U = unimodular_matrix(m2z2)
    n = m2z2.size
    for a in range(0, n, 3):
        for b in range(0, n, 3):
            expect = any(m2z2.add(m2z2.mul(r, a), m2z2.mul(s, b)) == m2z2.one
                         for r in range(n) for s in range(n))
            assert bool(U[a, b]) == expect


# -- class-level pair kernels against the per-pair scans -------------------------

# the annihilator variant fails on exactly these rings of the list below, so
# they cover the witness path of the idempotent-condition kernel
ANNIHILATOR_FAILS = {"T2:Zn:2", "T2:Zn:3", "T2:Zn:4", "T3:Zn:2", "op:T2:Zn:3", "op:T2:Zn:4"}


@pytest.mark.parametrize("spec", [e.spec for e in default_catalog()]
                         + ["op:M2:Zn:2", "T2:Zn:2", "T2:Zn:4", "T3:Zn:2", "op:T2:Zn:4"])
def test_pair_kernels_match_the_pair_scans(spec):
    ring = parse_ring_spec(spec)
    assert np.array_equal(unimodular_matrix(ring), oracles.unimodular_table(ring))
    assert has_stable_range_1(ring) == oracles.stable_range_1_scan(ring)
    assert idem_sr_condition(ring) == oracles.idem_sr_scan(ring)
    ann = idem_condition_annihilator(ring)
    assert ann == oracles.idem_annihilator_scan(ring)
    assert ann.holds is (spec not in ANNIHILATOR_FAILS)
    right = idem_condition_right_sided(ring)
    expected = oracles.idem_sr_scan(make_opposite(ring))
    assert (right.holds, right.witness, right.checked) == \
        (expected.holds, expected.witness, expected.checked)


@pytest.mark.parametrize("spec", [e.spec for e in default_catalog()]
                         + ["op:M2:Zn:2", "T2:Zn:2", "T2:Zn:4", "T3:Zn:2", "op:T2:Zn:4"])
def test_right_unimodular_matrix_matches_the_pair_scan(spec):
    ring = parse_ring_spec(spec)
    right = unimodular_matrix(ring, "right")
    assert np.array_equal(right, oracles.right_unimodular_table(ring))
    assert np.array_equal(right, unimodular_matrix(make_opposite(ring)))


@pytest.mark.parametrize("spec", ["M2:Zn:4", "T2:Zn:3", "T3:Zn:2", "op:T2:Zn:4"])
def test_right_sided_scan_witness_matches_the_opposite_ring(spec):
    # over every right-unimodular pair, regular or not, the scan fails at the
    # first a without a complement, so this covers the right-sided witness path
    ring = parse_ring_spec(spec)
    pairs = unimodular_matrix(ring, "right")
    verdict = classify._completion_verdict(ring, pairs, "right")
    cells = [(a, b) for a in ring.elements() for b in ring.elements() if pairs[a, b]]
    assert verdict.holds is False
    assert verdict == oracles._idem_scan(make_opposite(ring), cells)


@pytest.mark.parametrize("spec", [e.spec for e in default_catalog()
                                  if parse_ring_spec(e.spec).is_commutative])
def test_commutative_right_sided_verdict_skips_the_opposite_ring(spec, monkeypatch):
    ring = parse_ring_spec(spec)
    via_opposite = idem_sr_condition(make_opposite(ring))
    expected = Verdict(via_opposite.holds, via_opposite.witness, via_opposite.checked,
                       note="computed on the opposite ring; indices are shared with the original")
    idem_sr_condition(ring)

    def no_scan(*_, **__):
        raise AssertionError("a commutative ring reuses its left-sided verdict")

    monkeypatch.setattr(classify, "completion_table", no_scan)
    assert idem_condition_right_sided.__wrapped__(ring) == expected


@pytest.mark.parametrize("spec", [e.spec for e in default_catalog()])
def test_no_profile_or_suite_builds_the_opposite_ring(spec, monkeypatch):
    live = parse_ring_spec(spec)
    # a copy with an empty memo, so every verdict is computed afresh
    ring = FiniteRing(spec=live.spec, add_table=live.add_table, mul_table=live.mul_table,
                      zero=live.zero, one=live.one, form=live.form)

    def no_opposite(ring):
        raise AssertionError("a verdict built the opposite ring")

    for name, module in list(sys.modules.items()):
        if (name == "ringlab" or name.startswith("ringlab.")) and \
                getattr(module, "make_opposite", None) is make_opposite:
            monkeypatch.setattr(module, "make_opposite", no_opposite)
    assert ring_profile(ring) == ring_profile(live)
    for name in SUITE_NAMES:
        assert theorem_suite(ring, name) == theorem_suite(live, name)


# rings of the summand test below whose verdicts fail, covering both witness paths
# (the ssp witnesses of the last five start at e = 1, 2 and 4, so the failing
# row is not always the first idempotent)
SSP_FAILS = {"T2:Zn:2", "T2:Zn:3", "T2:Zn:4", "T3:Zn:2", "op:T2:Zn:3", "op:T2:Zn:4", "M2:Zn:4",
             "T2:Zn:5", "T2:Zn:6", "T2:Zn:8", "prod:T2:Zn:2+Zn:2", "op:T3:Zn:2"}
SIP_FAILS = {"T2:Zn:4", "op:T2:Zn:4", "M2:Zn:4", "T2:Zn:8"}


@pytest.mark.parametrize("spec", [e.spec for e in default_catalog()]
                         + ["T2:Zn:2", "T2:Zn:4", "T3:Zn:2", "op:T2:Zn:4", "M2:Zn:4", "M3:Zn:2",
                            "T2:Zn:5", "T2:Zn:6", "T2:Zn:8", "prod:T2:Zn:2+Zn:2", "op:T3:Zn:2"])
def test_summand_kernels_match_the_frozenset_scans(spec):
    ring = parse_ring_spec(spec)
    ssp, sip = is_ssp(ring), is_sip(ring)
    assert ssp == oracles.ssp_scan(ring)
    assert sip == oracles.sip_scan(ring)
    assert ssp.holds is (spec not in SSP_FAILS)
    assert sip.holds is (spec not in SIP_FAILS)


def test_ssp_that_holds_builds_no_summand_bitsets():
    ring = make_matrix_ring(2, make_zmod(3))
    assert is_ssp(ring).holds
    assert "right_masks" not in vars(ring) and "summand_table" not in vars(ring)


def test_first_failure_counts_the_cells_scanned():
    U = np.array([[1, 0, 1, 1],
                  [0, 1, 1, 1],
                  [1, 1, 0, 1]], dtype=bool)
    ok = np.ones_like(U)
    ok[0, 1] = False  # not a pair: never a failure
    ok[1, 2] = False  # first failure, in the middle of a row
    ok[2, 3] = False
    # scanned: (0,0) (0,2) (0,3) (1,1) (1,2)
    assert _first_failure(U, ok) == ((1, 2), 5)
    ok[1, 2] = ok[2, 3] = True
    assert _first_failure(U, ok) == (None, 9)


@pytest.mark.parametrize("spec, sr1_checked, idem_sr_checked", [
    ("M3:Zn:2", 234360, 234360),
    ("M2:Zn:5", 386880, 386880),
    ("T2:Zn:9", 419904, 181440),
    ("M2:Zn:4", 53760, 26688),
])
def test_larger_rungs_counts_and_theorem_canaries(spec, sr1_checked, idem_sr_checked):
    ring = parse_ring_spec(spec)
    # finite rings have stable range one (Bass), hence IC, and are clean
    # (Camillo-Yu)
    sr1 = has_stable_range_1(ring)
    assert sr1.holds and sr1.checked == sr1_checked
    assert idem_sr_condition(ring).checked == idem_sr_checked
    assert is_ic(ring).holds
    assert all(is_clean(ring, a) is not None for a in ring.elements())


def _holds_and_checked(spec):
    profile = ring_profile(parse_ring_spec(spec))
    return {key: (v["holds"], v["checked"]) if isinstance(v, dict) else v
            for key, v in profile.items() if key not in ("ring", "size")}


@pytest.mark.parametrize("spec, same_as", [
    ("prod:Zn:2+Zn:3", "Zn:6"),
    ("M1:Zn:6", "Zn:6"),
    ("T1:Zn:6", "Zn:6"),
    ("op:op:T2:Zn:3", "T2:Zn:3"),
    ("op:op:T3:Zn:2", "T3:Zn:2"),
    ("op:op:M2:Zn:2", "M2:Zn:2"),
    ("op:Zn:12", "Zn:12"),
    ("op:prod:Zn:2+Zn:4", "prod:Zn:2+Zn:4"),
])
def test_isomorphic_constructions_have_equal_profiles(spec, same_as):
    assert _holds_and_checked(spec) == _holds_and_checked(same_as)


# -- the idempotent unimodular conditions ---------------------------------------

def test_idem_sr_condition_z6(z6):
    v = idem_sr_condition(z6)
    assert v.holds and v.checked > 0


def test_idem_sr_matches_ic_on_ssp_rings(catalog_rings):
    for spec, ring in catalog_rings.items():
        if is_ssp(ring).holds:
            assert idem_sr_condition(ring).holds == is_ic(ring).holds, spec


def test_sided_variants_on_commutative(z6):
    ann, right = idem_condition_annihilator(z6), idem_condition_right_sided(z6)
    assert ann.holds and right.holds


def test_sided_variants_on_m2z2(m2z2):
    ann, right = idem_condition_annihilator(m2z2), idem_condition_right_sided(m2z2)
    assert ann.holds and right.holds


def test_annihilator_variant_trivial_pair(z6):
    # a = b = 1 has trivial annihilators; e = 0 satisfies the conclusion
    ann = idem_condition_annihilator(z6)
    assert ann.holds
    assert "hypothesis_wider_than_unimodular" in ann.extra


def test_right_sided_certificate_translates(m2z2, z6):
    for ring in (z6, m2z2):
        regs = regular_elements(ring)
        op_U = unimodular_matrix(parse_ring_spec(f"op:{ring.spec}"))
        checked = 0
        for a in regs:
            for b in regs:
                if not op_U[a, b]:  # aR + bR = R in the original ring
                    continue
                e = right_sided_certificate(ring, a, b)
                assert e is not None, (ring.spec, a, b)
                # verify directly in the original ring
                assert ring.add(a, ring.mul(b, e)) in ring.units
                Ra = ring.left_principal_sets[a]
                Re = ring.left_principal_sets[e]
                assert Ra & Re == frozenset({ring.zero})
                assert len(Ra) * len(Re) == ring.size
                checked += 1
        assert checked > 0


# -- products of regular elements -------------------------------------------------

def test_product_condition_t2z3_fails_with_fixture_pair(t2z3):
    from ringlab import parse_element
    v = product_regular_condition(t2z3, 2)
    assert v.holds is False
    # the reported witness replays to a failure
    prod = v.witness["product"]
    f1, f2 = v.witness["factors"]
    assert t2z3.mul(f1, f2) == prod
    assert unit_regular_witness(t2z3, prod) is None
    # and the named idempotent pair is also a failing product of regulars
    e = parse_element(t2z3, "[[1,1],[0,0]]")
    f = parse_element(t2z3, "[[0,1],[0,1]]")
    assert unit_regular_witness(t2z3, t2z3.mul(e, f)) is None
    assert v.extra["products_special_clean"] is False


def test_product_condition_m2z2(m2z2):
    v = product_regular_condition(m2z2, 2)
    assert v.holds and v.extra["products_special_clean"]


def test_product_condition_z6_all_arities(z6):
    for k in (2, 3, 4):
        v = product_regular_condition(z6, k)
        assert v.holds and v.extra["products_special_clean"]


def test_product_condition_arity_bounds(z6):
    with pytest.raises(ValueError):
        product_regular_condition(z6, 1)
    with pytest.raises(ValueError):
        product_regular_condition(z6, 5)


def _level_maps(levels):
    """The arrays of _product_levels as the loop's value -> predecessor dicts."""
    reached, pred_p, pred_c = levels[0]
    assert pred_p is None and pred_c is None
    maps = [{int(v): None for v in np.flatnonzero(reached)}]
    for reached, pred_p, pred_c in levels[1:]:
        assert (pred_p[~reached] == -1).all() and (pred_c[~reached] == -1).all()
        maps.append({int(v): (int(pred_p[v]), int(pred_c[v]))
                     for v in np.flatnonzero(reached)})
    return maps


def _assert_levels_match_the_loop(ring):
    # the loop's levels for arity k are the first k levels of its arity-4 run
    regs = regular_elements(ring)
    expected = oracles.product_levels_loop(ring, PRODUCT_ARITY_BOUND, regs)
    for arity in range(2, PRODUCT_ARITY_BOUND + 1):
        assert _level_maps(_product_levels(ring, arity, regs)) == expected[:arity], arity
    everything = list(range(ring.size))
    assert _level_maps(_product_levels(ring, 2, np.arange(ring.size))) == \
        oracles.product_levels_loop(ring, 2, everything)


@pytest.mark.parametrize("spec", [e.spec for e in default_catalog()]
                         + ["M3:Zn:2", "M2:Zn:5", "T2:Zn:9", "op:T2:Zn:4"])
def test_product_levels_match_the_loop(spec):
    _assert_levels_match_the_loop(parse_ring_spec(spec))


@settings(max_examples=30, deadline=None)
@given(st.one_of(st.integers(min_value=1, max_value=64).map(lambda n: f"Zn:{n}"),
                 st.integers(min_value=1, max_value=5).map(lambda n: f"T2:Zn:{n}")))
def test_product_levels_match_the_loop_on_modular_and_triangular_rings(spec):
    _assert_levels_match_the_loop(parse_ring_spec(spec))


def test_product_witness_is_deterministic(t2z3):
    a = product_regular_condition(t2z3, 2)
    b = product_regular_condition.__wrapped__(t2z3, 2)  # bypass the memo
    assert a.witness == b.witness


# -- direct-sum cancellation -------------------------------------------------------

def test_cancellation_trivial_on_z2():
    z2 = make_zmod(2)
    v = direct_sum_cancellation(z2)
    assert v.holds and v.checked == 4  # ({0},R),(R,{0}) give 2x2 ordered pairs


def test_cancellation_matches_ic(z6, t2z3, m2z3):
    for ring in (z6, t2z3, m2z3):
        assert direct_sum_cancellation(ring).holds == is_ic(ring).holds


def test_cancellation_skips_above_bound(monkeypatch):
    # a fresh ring: the session z6 already holds the unbounded verdict
    monkeypatch.setattr(classify, "CANCELLATION_SIZE_BOUND", 4)
    v = direct_sum_cancellation(make_zmod(6))
    assert v.holds is None
    assert "skipped" in v.note


# -- profiles and suites -------------------------------------------------------------

def test_ring_profile_json_roundtrip(t2z3):
    blob = ring_profile(t2z3)
    assert blob["ring"] == "T2:Zn:3"
    assert blob["ssp"]["holds"] is False
    assert blob["ic"]["holds"] is True
    assert blob["sr1"]["holds"] is True
    assert blob["unit_regular"] is False
    json.dumps(blob)


def test_unknown_suite_rejected(z6):
    with pytest.raises(ValueError):
        theorem_suite(z6, "T9.9")


def test_suite_report_schema(z6):
    rep = theorem_suite(z6, "T2.4")
    for key in ("result", "ring", "hypothesis_met", "conditions", "equivalent",
                "witnesses"):
        assert key in rep
    assert rep["result"] == "T2.4" and rep["ring"] == "Zn:6"
    json.dumps(rep)


def test_zero_ring_all_suites_trivially_true():
    z1 = make_zmod(1)
    for name in SUITE_NAMES:
        rep = theorem_suite(z1, name)
        assert all(v for v in rep["conditions"].values()), name
        assert rep["equivalent"] is True


def test_t29_on_triangular_all_false_but_equivalent(t2z3):
    rep = theorem_suite(t2z3, "T2.9")
    assert rep["conditions"] == {"1": False, "2": False, "3": False}
    assert rep["equivalent"] is True


def test_t24_not_applicable_without_hypothesis(t2z3):
    rep = theorem_suite(t2z3, "T2.4")
    assert rep["hypothesis_met"] is False
    assert rep["equivalent"] is None
    # conditions still reported
    assert set(rep["conditions"]) == {"1", "2", "3"}


@pytest.mark.parametrize("spec", [e.spec for e in default_catalog()] + [
    "T2:Zn:4", "op:T2:Zn:4", "M2:Zn:4", "prod:T2:Zn:2+Zn:2", "T3:Zn:2", "Zn:1"])
def test_suites_match_the_suite_by_cases_reference(spec):
    # M2:Zn:4 has 256 elements, so its L2.3 is skipped
    ring = parse_ring_spec(spec)
    for name in SUITE_NAMES:
        got, want = theorem_suite(ring, name), oracles.theorem_suite_by_cases(ring, name)
        assert got == want, name
        # table and csv print the witnesses in insertion order
        assert list(got["witnesses"]) == list(want["witnesses"]), name


def test_c26_links_unit_regularity_and_special_cleanness(catalog_rings):
    for spec, ring in catalog_rings.items():
        rep = theorem_suite(ring, "C2.6")
        assert rep["equivalent"] is True, spec


def test_c210_literal_flag_reported(z4):
    rep = theorem_suite(z4, "C2.10")
    assert rep["literal_all_products_special_clean"] is False
    w = rep["witnesses"]["literal"]
    # the literal-reading witness is a product that is not even regular
    assert special_clean_witnesses(z4, w["product"]) == []


def test_witness_replay_ssp_and_abelian(t2z3):
    # negative verdicts must replay through the element/ideal layers
    sspw = is_ssp(t2z3).witness["idempotents"]
    assert all(t2z3.is_idempotent(e) for e in sspw)
    abel = is_abelian(t2z3).witness
    e, r = abel["idempotent"], abel["element"]
    assert t2z3.mul(e, r) != t2z3.mul(r, e)


# -- the summand-partner kernel and the per-ring memo ------------------------------

def _frozenset_partners(ring, sets, a):
    """Reference scan: idempotents e with S(a) meet S(e) = 0, and those whose
    S(e) is moreover a direct complement of S(a)."""
    zero_only = frozenset({ring.zero})
    disjoint = [e for e in ring.idempotent_list if sets[a] & sets[e] == zero_only]
    complements = [e for e in disjoint if len(sets[a]) * len(sets[e]) == ring.size]
    return disjoint, complements


@pytest.mark.parametrize("spec", [e.spec for e in default_catalog()] + ["op:M2:Zn:2"])
def test_summand_partner_kernel_matches_frozenset_scan(spec):
    ring = parse_ring_spec(spec)
    for side, sets in (("right", ring.right_principal_sets),
                       ("left", ring.left_principal_sets)):
        partners = summand_partners(ring, side)
        for a in ring.elements():
            assert list(partners[a]) == _frozenset_partners(ring, sets, a)[1]

    flags = special_clean_flags(ring)
    for a in ring.elements():
        disjoint, _ = _frozenset_partners(ring, ring.right_principal_sets, a)
        special = [e for e in disjoint if ring.sub(a, e) in ring.units]
        assert [d.idem for d in special_clean_witnesses(ring, a)] == special
        assert flags[a] == bool(special)
        clean = is_clean(ring, a)
        if clean is not None:
            assert clean.special == (clean.idem in disjoint)

        _, left_complements = _frozenset_partners(ring, ring.left_principal_sets, a)
        for b in ring.elements():
            expected = next((e for e in left_complements
                             if ring.add(a, ring.mul(b, e)) in ring.units), None)
            assert right_sided_certificate(ring, a, b) == expected


@pytest.mark.parametrize("spec", _hunt_candidates(128) + [
    "op:T2:Zn:4", "T3:Zn:3", "T2:M2:Zn:2", "M2:T2:Zn:2", "op:M2:Zn:4"])
def test_theorem_backed_masks_match_their_definitions(spec):
    ring = parse_ring_spec(spec)
    mask, least = oracles.unit_regularity_axa(ring)
    assert np.array_equal(unit_regularity_table(ring), mask)
    assert [unit_regular_witness(ring, a) for a in ring.elements()] == \
        [None if u < 0 else u for u in least.tolist()]
    assert np.array_equal(special_clean_flags(ring), oracles.disjoint_special_clean_flags(ring))
    ring_profile(ring)
    n = ring.size
    assert not [v for v in ring._memo.values() if isinstance(v, np.ndarray)
                and v.dtype.kind == "i" and v.shape == (n, n)]


def test_ring_and_its_memo_are_freed_together():
    # T2:Zn:2 is held by no fixture, so once this test lets go of it the ring
    # must be freed together with every table and verdict in its memo
    ring = parse_ring_spec("T2:Zn:2")
    ring_profile(ring)
    for name in SUITE_NAMES:
        theorem_suite(ring, name)
    ref = weakref.ref(ring)
    del ring
    gc.collect()
    assert ref() is None


# -- products answered from their factors ----------------------------------------------

MULTI_FACTOR_PRODUCTS = [
    "prod:Zn:2+Zn:3+Zn:4", "prod:Zn:2+Zn:2+Zn:2+Zn:2", "prod:M2:Zn:2+T2:Zn:2+Zn:3",
    "prod:op:T2:Zn:3+Zn:1+M2:Zn:2", "prod:Zn:1+T2:Zn:2+op:T2:Zn:2+Zn:2",
    "prod:T2:Zn:3+Zn:4+op:T2:Zn:2", "prod:Zn:1", "prod:Zn:1+Zn:1", "prod:Zn:5+Zn:1"]


def same_array(got, want):
    return (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


@pytest.mark.parametrize("spec", [s for s in _hunt_candidates(256) if s.startswith("prod:")]
                         + MULTI_FACTOR_PRODUCTS)
def test_product_arrays_match_their_whole_table_oracles(spec, monkeypatch):
    monkeypatch.setattr(rings, "FROM_FACTORS_ABOVE", 0)  # every product, however small
    ring = make_product(list(parse_ring_spec(spec).form[1]))  # a fresh memo
    assert from_factors(ring)
    neg, inverse, idempotents = ring.neg_table, ring.unit_inverse, ring.idempotent_list
    (mask, least), unit_regular = regularity_table(ring), unit_regularity_table(ring)
    P = classify._complement_products(ring)
    assert "add_table" not in vars(ring) and "mul_table" not in vars(ring)
    want_mask, want_least = oracles.regularity_by_axa_gather(ring)
    assert same_array(neg, oracles.neg_by_table(ring))
    assert same_array(inverse, oracles.unit_inverse_by_table(ring))
    assert idempotents == oracles.idempotents_by_diagonal(ring)
    assert same_array(mask, want_mask) and same_array(least, want_least)
    assert same_array(unit_regular, oracles.unit_regularity_by_products(ring))
    assert np.array_equal(P, oracles.complement_products_by_gather(ring))


@pytest.mark.parametrize("spec", ["prod:Zn:12+Zn:10", "prod:M2:Zn:2+Zn:6+Zn:1"])
def test_a_product_builds_its_tables_only_when_they_are_read(spec):
    factors = list(parse_ring_spec(spec).form[1])
    ring = make_product(factors)
    assert ring.size > rings.FROM_FACTORS_ABOVE
    assert is_ic(ring).holds and is_ssp(ring).holds
    assert "add_table" not in vars(ring) and "mul_table" not in vars(ring)
    want = oracles.product_tables_by_weights(factors)
    assert same_array(ring.add_table, want.add_table)
    assert same_array(ring.mul_table, want.mul_table)
    assert not ring.add_table.flags.writeable and not ring.mul_table.flags.writeable


def test_a_small_product_reads_its_own_tables():
    ring = make_product([make_zmod(8), make_zmod(8)])
    assert ring.size == rings.FROM_FACTORS_ABOVE and not from_factors(ring)
    assert is_ic(ring).holds and "mul_table" in vars(ring)


def test_hunt_shares_its_factors_and_keeps_no_ring(monkeypatch):
    # a cache of its own, so rings that other tests keep alive are not reused
    monkeypatch.setattr(catalog, "_RING_CACHE", weakref.WeakValueDictionary())
    built, zmods = [], []
    for name in ("make_zmod", "make_matrix_ring", "make_triangular_ring", "make_product",
                 "make_opposite"):
        def counted(*args, _make=getattr(catalog, name), _name=name):
            ring = _make(*args)
            built.append(weakref.ref(ring))
            if _name == "make_zmod":
                zmods.append(args[0])
            return ring
        monkeypatch.setattr(catalog, name, counted)
    assert run_hunt("ic&!ssp", 64)["candidates_examined"] == 150
    specs = _hunt_candidates(64)
    rows = {s.split("+")[0] for s in specs if s.startswith("prod:")}
    # each spec builds at most one new Zn:n, and a row's first product one more;
    # building each product's two factors afresh took 231
    assert len(zmods) <= len(specs) + len(rows) < 231
    gc.collect()
    assert built and all(ref() is None for ref in built)
