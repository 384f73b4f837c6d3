import json

import numpy as np
import pytest

import oracles
from ringlab import (CleanDecomposition, HypothesisViolation, InvariantViolation,
                     classify_element, is_clean, make_zmod,
                     parse_element, parse_ring_spec, regular_elements, regular_witness,
                     special_clean_witnesses, unit_inverse_from_special_clean,
                     unit_regular_witness)
from ringlab.cli import _hunt_candidates
from ringlab.elements import regularity_table


def test_regular_witness_zero(z6):
    assert regular_witness(z6, 0) == 0


def test_regular_witness_absent_for_2_mod_4(z4):
    assert 2 not in oracles.zmod_regulars(4)
    assert regular_witness(z4, 2) is None


def test_regular_witness_absent_for_triangular_product(t2z3):
    e = parse_element(t2z3, "[[1,1],[0,0]]")
    f = parse_element(t2z3, "[[0,1],[0,1]]")
    assert regular_witness(t2z3, t2z3.mul(e, f)) is None


def test_regular_witness_is_reflexive_everywhere(catalog_rings):
    for ring in catalog_rings.values():
        for a in regular_elements(ring):
            x = regular_witness(ring, a)
            assert ring.mul(ring.mul(a, x), a) == a
            assert ring.mul(ring.mul(x, a), x) == x


@pytest.mark.parametrize("spec", _hunt_candidates(64) + [
    "op:T2:Zn:4", "T3:Zn:3", "M2:T2:Zn:2", "Zn:1"])
def test_blocked_regularity_table_matches_the_whole_gather(spec, monkeypatch):
    ring = parse_ring_spec(spec)
    want_mask, want_least = oracles.regularity_by_axa_gather(ring)
    mask, least = regularity_table(ring)
    assert np.array_equal(mask, want_mask)
    assert (least.dtype, least.tolist()) == (want_least.dtype, want_least.tolist())
    # blocks of 7 rows, so that most rings end in a shorter block
    monkeypatch.setattr("ringlab.elements._BLOCK_CELLS", 7 * ring.size)
    mask, least = regularity_table.__wrapped__(ring)
    assert np.array_equal(mask, want_mask)
    assert (least.dtype, least.tolist()) == (want_least.dtype, want_least.tolist())


def test_unit_regular_witness_of_one(z6):
    assert unit_regular_witness(z6, 1) == 1


def test_unit_regular_witness_3_in_z6(z6):
    # 3*1*3 = 9 = 3 mod 6, so the least unit witness is 1
    assert unit_regular_witness(z6, 3) == 1


def test_every_regular_in_m2z2_unit_regular(m2z2):
    assert oracles.mat_all_unit_regular(2, 2)
    for a in regular_elements(m2z2):
        u = unit_regular_witness(m2z2, a)
        assert u is not None
        assert ring_check(m2z2, a, u)


def ring_check(ring, a, u):
    return ring.mul(ring.mul(a, u), a) == a and u in ring.units


def test_unit_witness_soundness(catalog_rings):
    for ring in catalog_rings.values():
        for a in range(ring.size):
            u = unit_regular_witness(ring, a)
            if u is not None:
                assert ring_check(ring, a, u)


# -- special clean decompositions -------------------------------------------------

def test_units_are_special_clean_with_zero_idempotent(z6, m2z2):
    for ring in (z6, m2z2):
        for u in sorted(ring.units):
            ws = special_clean_witnesses(ring, u)
            assert CleanDecomposition(u, ring.zero, u, True) in ws


def test_special_clean_3_in_z6_unique(z6):
    # exhaustive scan mod 6: 3 = 4 + 5 with 3*Z6 meet 4*Z6 = {0}
    found = []
    for e in oracles.zmod_idempotents(6):
        u = (3 - e) % 6
        if u in oracles.zmod_units(6):
            if oracles.zmod_principal(6, 3) & oracles.zmod_principal(6, e) == {0}:
                found.append((e, u))
    assert found == [(4, 5)]
    assert special_clean_witnesses(z6, 3) == [CleanDecomposition(3, 4, 5, True)]


def test_triangular_product_not_special_clean(t2z3):
    e = parse_element(t2z3, "[[1,1],[0,0]]")
    f = parse_element(t2z3, "[[0,1],[0,1]]")
    assert special_clean_witnesses(t2z3, t2z3.mul(e, f)) == []


def test_witness_order_is_by_idempotent_index(m2z3):
    for a in range(0, m2z3.size, 7):
        ws = special_clean_witnesses(m2z3, a)
        assert [w.idem for w in ws] == sorted(w.idem for w in ws)


# -- the derivation from special clean to unit-regular ------------------------------

def test_derivation_for_unit_decomposition(z6):
    d = CleanDecomposition(5, 0, 5, True)
    u_inv = unit_inverse_from_special_clean(z6, d)
    assert u_inv == 5
    assert z6.mul(z6.mul(5, u_inv), 5) == 5


def test_derivation_z6_example(z6):
    d = CleanDecomposition(3, 4, 5, True)
    u_inv = unit_inverse_from_special_clean(z6, d)
    assert u_inv == 5
    assert (3 * 5 * 3) % 6 == 3


def test_derivation_replays_on_all_catalog_witnesses(catalog_rings):
    for ring in catalog_rings.values():
        for a in range(ring.size):
            for d in special_clean_witnesses(ring, a):
                u_inv = unit_inverse_from_special_clean(ring, d)
                assert ring.mul(ring.mul(a, u_inv), a) == a


def test_derivation_rejects_malformed(z6):
    with pytest.raises(HypothesisViolation):
        unit_inverse_from_special_clean(z6, CleanDecomposition(3, 4, 5, False))
    with pytest.raises(InvariantViolation):
        unit_inverse_from_special_clean(z6, CleanDecomposition(3, 2, 1, True))


def test_special_clean_implies_unit_regular(catalog_rings):
    for ring in catalog_rings.values():
        for a in range(ring.size):
            if special_clean_witnesses(ring, a):
                assert unit_regular_witness(ring, a) is not None


# -- plain cleanness -----------------------------------------------------------------

def test_clean_zero_in_z2():
    z2 = make_zmod(2)
    d = is_clean(z2, 0)
    assert (d.idem, d.unit) == (1, 1)


def test_clean_one(z6):
    d = is_clean(z6, 1)
    assert (d.idem, d.unit) == (0, 1)


def test_clean_status_of_triangular_product(t2z3):
    # scan over all idempotent/unit pairs of the 27-element ring
    e = parse_element(t2z3, "[[1,1],[0,0]]")
    f = parse_element(t2z3, "[[0,1],[0,1]]")
    ef = t2z3.mul(e, f)
    oracle_clean = any(t2z3.sub(ef, i) in t2z3.units for i in t2z3.idempotent_list)
    d = is_clean(t2z3, ef)
    assert (d is not None) == oracle_clean
    if d is not None:
        assert t2z3.is_idempotent(d.idem) and d.unit in t2z3.units
        assert t2z3.add(d.idem, d.unit) == ef
        assert not d.special  # it would be special clean otherwise


def test_special_implies_clean(catalog_rings):
    for ring in catalog_rings.values():
        for a in range(ring.size):
            if special_clean_witnesses(ring, a):
                assert is_clean(ring, a) is not None


def test_idempotents_are_regular(catalog_rings):
    for ring in catalog_rings.values():
        for e in ring.idempotent_list:
            assert ring.mul(ring.mul(e, e), e) == e
            assert regular_witness(ring, e) is not None


# -- classification records ------------------------------------------------------------

def test_classify_element_record(z6):
    rec = classify_element(z6, 3)
    assert rec["element"] == 3
    assert rec["regular"] and rec["unit_regular"] and rec["clean"] and rec["special_clean"]
    assert rec["witnesses"]["special_clean"] == [
        {"element": 3, "idempotent": 4, "unit": 5, "special": True}]
    json.dumps(rec)  # JSON-serializable


def test_classify_element_negative_record(z4):
    rec = classify_element(z4, 2)
    assert not rec["regular"] and not rec["unit_regular"]
    assert not rec["special_clean"]
    assert rec["clean"]  # 2 = 1 + 1 mod 4
    json.dumps(rec)
