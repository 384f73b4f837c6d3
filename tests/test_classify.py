import gc
import json
import weakref

import pytest

import oracles
from ringlab import (SUITE_NAMES, default_catalog, direct_sum_cancellation,
                     has_stable_range_1, idem_condition_annihilator,
                     idem_condition_right_sided, idem_sr_condition, idempotents, ideal_sum,
                     is_abelian, is_clean, is_ic, is_sip, is_ssp, make_zmod,
                     parse_ring_spec, principal, product_regular_condition,
                     regular_elements, ring_profile, right_sided_certificate,
                     sided_condition_variants, special_clean_witnesses,
                     summand_idempotent, theorem_suite, unimodular_matrix,
                     unit_regular_witness)
from ringlab.classify import special_clean_flags
from ringlab.rings import summand_partners


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


# -- the idempotent unimodular conditions ---------------------------------------

def test_idem_sr_condition_z6(z6):
    v = idem_sr_condition(z6)
    assert v.holds and v.checked > 0


def test_idem_sr_matches_ic_on_ssp_rings(catalog_rings):
    for spec, ring in catalog_rings.items():
        if is_ssp(ring).holds:
            assert idem_sr_condition(ring).holds == is_ic(ring).holds, spec


def test_sided_variants_on_commutative(z6):
    ann, right = sided_condition_variants(z6)
    assert ann.holds and right.holds


def test_sided_variants_on_m2z2(m2z2):
    ann, right = sided_condition_variants(m2z2)
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


def test_cancellation_skips_above_bound(z6):
    v = direct_sum_cancellation(z6, max_size=4)
    assert v.holds is None
    assert "skipped" in v.note


# -- profiles and suites -------------------------------------------------------------

def test_ring_profile_json_roundtrip(t2z3):
    prof = ring_profile(t2z3)
    blob = prof.to_json()
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
            assert tuple(map(list, partners[a])) == _frozenset_partners(ring, sets, a)

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


def test_ring_and_its_memo_are_freed_together():
    # T2:Zn:2 is held by no fixture; R2.5 also builds the opposite ring, whose
    # form refers back to this one
    ring = parse_ring_spec("T2:Zn:2")
    ring_profile(ring)
    for name in SUITE_NAMES:
        theorem_suite(ring, name)
    ref = weakref.ref(ring)
    del ring
    gc.collect()
    assert ref() is None
