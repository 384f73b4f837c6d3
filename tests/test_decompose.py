import dataclasses
import json

import pytest

from ringlab import (SUITE_NAMES, HypothesisViolation, InvariantViolation, ModuleHom,
                     RightIdeal, all_right_ideals, classify_element, element_from_obj,
                     idempotent_witness_set, is_ic, is_ssp, make_matrix_ring,
                     make_triangular_ring, make_zmod, parse_ring_spec, regular_elements,
                     ring_profile, solve_unimodular,
                     special_clean_decompose, special_clean_witnesses, theorem_suite,
                     unimodular_matrix, unique_special_clean_abelian,
                     unit_inverse_from_special_clean, verify_trace)


def test_degenerate_pair_of_ones(z6):
    t = solve_unimodular(z6, 1, 1)
    assert t.e == 0 and t.unit == 1
    assert t.K.is_zero() and t.C.is_zero()
    assert verify_trace(t)["all_passed"]


def test_z6_worked_example(z6):
    t = solve_unimodular(z6, 3, 5)
    assert t.e == 4
    assert t.unit == 5
    assert sorted(t.I.members) == [0, 3]
    assert sorted(t.C.members) == [0, 2, 4]
    assert verify_trace(t)["all_passed"]


def test_trace_is_deterministic(z6, m2z2):
    for ring, a, b in ((z6, 3, 5), (m2z2, 3, m2z2.one)):
        t1 = solve_unimodular(ring, a, b)
        t2 = solve_unimodular(ring, a, b)
        assert t1.to_json() == t2.to_json()


def test_trace_json_schema(z6):
    t = solve_unimodular(z6, 3, 5)
    blob = t.to_json()
    assert blob["trace_version"] == 1
    for key in ("ring", "inputs", "reflexive_inverse", "kernel", "coimage", "image",
                "cokernel", "kernel_image_under_b", "summand_idempotent_f",
                "intersection_complement_L", "half_isomorphism", "graph_E",
                "outer_complement_F", "projection_idempotent_e", "unit",
                "kernel_equals_cokernel", "notes"):
        assert key in blob, key
    json.dumps(blob)


def test_rejects_non_regular_input(z4):
    with pytest.raises(HypothesisViolation):
        solve_unimodular(z4, 2, 1)
    with pytest.raises(HypothesisViolation):
        solve_unimodular(z4, 1, 2)


def test_rejects_non_unimodular_pair(z6):
    # 2 and 2 are both regular mod 6, but R2 + R2 = {0, 2, 4}
    with pytest.raises(HypothesisViolation):
        solve_unimodular(z6, 2, 2)


def test_exhaustive_m2z2_with_oracle(m2z2):
    U = unimodular_matrix(m2z2)
    regs = regular_elements(m2z2)
    ran = 0
    for a in regs:
        for b in regs:
            if not U[a, b]:
                continue
            t = solve_unimodular(m2z2, a, b)
            rep = verify_trace(t)
            assert rep["all_passed"], (a, b, rep)
            oracle = idempotent_witness_set(m2z2, a, b)
            assert oracle, (a, b)
            assert t.e in oracle
            ran += 1
    assert ran == 210


def test_oracle_empty_exactly_when_hypotheses_fail(z6):
    # on this catalog ring the construction succeeds for every valid pair,
    # and the brute-force set is nonempty exactly there
    U = unimodular_matrix(z6)
    regs = set(regular_elements(z6))
    for a in range(6):
        for b in range(6):
            valid = a in regs and b in regs and U[a, b]
            witnesses = idempotent_witness_set(z6, a, b)
            if valid:
                t = solve_unimodular(z6, a, b)
                assert witnesses and t.e in witnesses


def test_special_clean_decompose_unit(z6):
    d = special_clean_decompose(z6, 5)
    assert (d.idem, d.unit) == (0, 5)


def test_special_clean_decompose_z6_example(z6):
    d = special_clean_decompose(z6, 3)
    assert (d.idem, d.unit) == (4, 5)
    assert special_clean_witnesses(z6, 3) == [d]


def test_special_clean_decompose_all_of_m2z3(m2z3):
    for a in regular_elements(m2z3):
        d = special_clean_decompose(m2z3, a)
        assert d in special_clean_witnesses(m2z3, a)
        assert m2z3.add(d.idem, d.unit) == a


def test_unique_special_clean_on_zn():
    for n in (4, 6, 9):
        ring = make_zmod(n)
        for a in regular_elements(ring):
            d = unique_special_clean_abelian(ring, a)
            assert special_clean_witnesses(ring, a) == [d]


def test_unique_special_clean_of_idempotent(z6):
    d = unique_special_clean_abelian(z6, 4)
    assert special_clean_witnesses(z6, 4) == [d]


def test_unique_special_clean_of_one(z6):
    d = unique_special_clean_abelian(z6, 1)
    assert (d.idem, d.unit) == (0, 1)


def test_unique_special_clean_rejects_nonabelian(m2z2):
    with pytest.raises(HypothesisViolation):
        unique_special_clean_abelian(m2z2, m2z2.one)


def test_unique_special_clean_rejects_nonregular(z4):
    with pytest.raises(HypothesisViolation):
        unique_special_clean_abelian(z4, 2)


def test_verify_trace_negative_controls(z6):
    t = solve_unimodular(z6, 3, 5)
    tampered = dataclasses.replace(t, e=5)  # 5 is not idempotent
    rep = verify_trace(tampered)
    assert not rep["all_passed"]
    assert rep["checks"]["e_idempotent"] is False

    tampered = dataclasses.replace(t, unit=2)
    rep = verify_trace(tampered)
    assert not rep["all_passed"]
    assert rep["checks"]["unit_value"] is False

    tampered = dataclasses.replace(t, x=5)
    rep = verify_trace(tampered)
    assert not rep["all_passed"]
    assert rep["checks"]["reflexive_inverse"] is False


def test_decomposition_validates_through_derivation(z6, m2z2):
    from ringlab import unit_inverse_from_special_clean
    for ring in (z6, m2z2):
        for a in regular_elements(ring):
            d = special_clean_decompose(ring, a)
            u_inv = unit_inverse_from_special_clean(ring, d)
            assert ring.mul(ring.mul(a, u_inv), a) == a


def test_kernel_cokernel_flag_matches_sets(m2z2):
    seen_distinct = False
    U = unimodular_matrix(m2z2)
    regs = regular_elements(m2z2)
    for a in regs[:8]:
        for b in regs[:8]:
            if not U[a, b]:
                continue
            t = solve_unimodular(m2z2, a, b)
            assert t.kernel_equals_cokernel == (t.K.members == t.C.members)
            if not t.kernel_equals_cokernel:
                seen_distinct = True
    assert seen_distinct  # the flag is informative on a noncommutative ring


def test_kernel_copy_isomorphic_to_cokernel(z6, m2z2, t2z3):
    # in every completed run the pushed kernel and the cokernel admit a
    # module isomorphism, found by direct enumeration
    from ringlab import hom_search
    cases = [(z6, 3, 5), (z6, 4, 5), (m2z2, 3, m2z2.one), (m2z2, 4, 7)]
    for ring, a, b in cases:
        if not unimodular_matrix(ring)[a, b]:
            continue
        t = solve_unimodular(ring, a, b)
        assert hom_search(t.bK, t.C, require_iso=True), (ring.spec, a, b)


def test_direct_sum_certificates(m2z2):
    t = solve_unimodular(m2z2, 3, m2z2.one)
    rep = verify_trace(t)
    for name in ("kernel_coimage_split", "cokernel_image_split",
                 "common_complement", "image_projection_split"):
        assert rep["checks"][name], name


def test_no_command_path_builds_the_frozenset_ideals():
    # fresh rings from the constructors: parse_ring_spec may hand back a ring
    # whose frozensets a reference test already built
    m2 = make_matrix_ring(2, make_zmod(2))
    rings = (m2, make_triangular_ring(2, make_zmod(3)))
    for ring in rings:
        ring_profile(ring)
        for name in SUITE_NAMES:
            theorem_suite(ring, name)
        for a in ring.elements():
            classify_element(ring, a)
        all_right_ideals(ring)
    assert is_ssp(m2).holds and is_ic(m2).holds
    for a, b in (([[1, 1], [0, 0]], [[1, 0], [0, 1]]), ([[1, 0], [0, 0]], [[0, 0], [0, 1]])):
        trace = solve_unimodular(m2, element_from_obj(m2, a), element_from_obj(m2, b))
        assert verify_trace(trace)["all_passed"]
        trace.to_json()
        fields = [getattr(trace, f.name) for f in dataclasses.fields(trace)]
        ideals = [v for v in fields if isinstance(v, RightIdeal)]
        ideals += [trace.phi.source, trace.phi.target]
        assert len(ideals) == 10
        for ideal in ideals:
            assert "members" not in vars(ideal)
    for a in regular_elements(m2):
        unit_inverse_from_special_clean(m2, special_clean_decompose(m2, a))
    for ring in rings:
        assert "right_principal_sets" not in vars(ring)
        assert "left_principal_sets" not in vars(ring)
        assert "units" not in vars(ring)


# -- the ring's lattice memo ------------------------------------------------------


def regular_unimodular_pairs(ring):
    U = unimodular_matrix(ring)
    regs = regular_elements(ring)
    return [(a, b) for a in regs for b in regs if U[a, b]]


def lattice_entries(ring):
    """Memo entries of the ideals module's per-ring lattice functions."""
    return sum(1 for fn, *_ in ring._memo if fn.__module__ == "ringlab.ideals")


@pytest.mark.parametrize("spec", ["M2:Zn:2", "M2:Zn:3", "Zn:12"])
def test_a_warm_memo_gives_the_traces_of_a_fresh_ring(spec):
    ring = parse_ring_spec(spec)
    for a, b in regular_unimodular_pairs(ring):
        warm = solve_unimodular(ring, a, b)
        fresh_ring = dataclasses.replace(ring)  # same tables, empty memo
        assert fresh_ring is not ring and not fresh_ring._memo
        fresh = solve_unimodular(fresh_ring, a, b)
        assert warm.to_json() == fresh.to_json(), (spec, a, b)
        assert verify_trace(warm) == verify_trace(fresh), (spec, a, b)


def test_the_lattice_memo_stays_bounded(m2z3):
    ring = dataclasses.replace(m2z3)
    R = len(all_right_ideals(m2z3))
    bound = 2 * R + R ** 2 + ring.size  # members and generators, sums, annihilators
    for a, b in regular_unimodular_pairs(ring):
        assert verify_trace(solve_unimodular(ring, a, b))["all_passed"]
        assert lattice_entries(ring) <= bound, (a, b)
    keys = set(ring._memo)
    for _ in range(2):  # a failed closure check memoises nothing, so it fails again
        with pytest.raises(InvariantViolation):
            RightIdeal.from_members(ring, [ring.zero, ring.one])
    assert set(ring._memo) == keys


def test_verify_trace_catches_tampering_with_a_warm_memo(m2z3):
    a = element_from_obj(m2z3, [[0, 1], [0, 0]])
    t = solve_unimodular(m2z3, a, m2z3.minus_one())
    assert verify_trace(t)["all_passed"]  # warms the memo on every lattice value
    assert t.K != t.C and t.L.is_full()
    zero_map = ModuleHom(t.phi.source, t.phi.target, (m2z3.zero,) * len(t.phi.source))
    swaps = {"K": (t.C, "kernel_ideal"),
             "C": (t.K, "cokernel_ideal"),
             "bK": (t.C, "bK_ideal"),
             "L": (RightIdeal.zero_ideal(m2z3), "L_complements_overlap"),
             "E": (t.K, "graph_ideal"),
             "F": (RightIdeal.full_ideal(m2z3), "F_complements_sum"),
             "phi": (zero_map, "phi_isomorphism_between_halves")}
    for field, (wrong, check) in swaps.items():
        rep = verify_trace(dataclasses.replace(t, **{field: wrong}))
        assert rep["checks"][check] is False, field
        assert not rep["all_passed"], field
