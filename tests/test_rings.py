import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ringlab import (CapacityError, element_from_obj,
                     element_repr, element_to_obj, make_matrix_ring,
                     make_opposite, make_product, make_triangular_ring, make_zmod,
                     parse_element, parse_ring_spec)
from ringlab.rings import FiniteRing, decode, encode


def same_table(got, want):
    return (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


# -- modular rings ---------------------------------------------------------------

def test_zero_ring():
    r = make_zmod(1)
    assert r.size == 1
    assert r.zero == r.one == 0
    r.validate()


def test_zmod_rejects_zero_modulus():
    with pytest.raises(ValueError):
        make_zmod(0)


def test_zmod_error_names_the_modulus():
    with pytest.raises(ValueError, match=r"\(got -3\)"):
        make_zmod(-3)


def test_zmod_tables_match_the_int64_outer_tables():
    for n in range(1, 65):
        ring = make_zmod(n)
        r = np.arange(n, dtype=np.int64)
        assert same_table(ring.add_table, (np.add.outer(r, r) % n).astype(np.int32))
        assert same_table(ring.mul_table, (np.multiply.outer(r, r) % n).astype(np.int32))
        assert ring.one == 1 % n


def test_z6_every_element_regular(z6):
    # oracle: brute-force a = a*x*a over plain integers mod 6
    assert oracles.zmod_regulars(6) == set(range(6))
    for a in range(6):
        assert any(z6.mul(z6.mul(a, x), a) == a for x in range(6))


def test_z4_regulars_exactly_0_1_3(z4):
    assert oracles.zmod_regulars(4) == {0, 1, 3}
    hits = {a for a in range(4) if any(z4.mul(z4.mul(a, x), a) == a for x in range(4))}
    assert hits == {0, 1, 3}


def test_units_z6(z6):
    assert oracles.zmod_units(6) == {1, 5}
    assert z6.units == frozenset({1, 5})
    assert z6.unit_inverse[5] == 5 and z6.unit_inverse[1] == 1


def test_units_zero_ring():
    r = make_zmod(1)
    assert r.units == frozenset({0})


def test_units_m2z2_has_6_elements(m2z2):
    assert len(oracles.mat_units(2, 2)) == 6
    assert len(m2z2.units) == 6


def test_units_closed_under_mul_and_inverse(z6, m2z2, t2z3):
    for ring in (z6, m2z2, t2z3):
        u = ring.units
        for a in u:
            assert int(ring.unit_inverse[a]) in u
            for b in u:
                assert ring.mul(a, b) in u


def test_unit_inverse_matches_the_pair_scan(catalog_rings):
    extra = [parse_ring_spec(s) for s in ("Zn:1", "T2:Zn:4", "M2:Zn:4", "op:T2:Zn:4")]
    for ring in [*catalog_rings.values(), *extra]:
        inverses = oracles.two_sided_inverses(ring)
        expected = [inverses.get(u, -1) for u in range(ring.size)]
        assert ring.unit_inverse.dtype == np.int32, ring.spec
        assert ring.unit_inverse.tolist() == expected, ring.spec
        assert ring.unit_flags.tolist() == [v >= 0 for v in expected], ring.spec
        assert ring.units == frozenset(inverses), ring.spec


def test_idempotents_z6(z6):
    assert oracles.zmod_idempotents(6) == {0, 1, 3, 4}
    assert list(z6.idempotent_list) == [0, 1, 3, 4]


def test_idempotents_contain_zero_and_one(catalog_rings):
    for ring in catalog_rings.values():
        ids = set(ring.idempotent_list)
        assert ring.zero in ids and ring.one in ids


def test_t2z3_contains_named_idempotents(t2z3):
    e = parse_element(t2z3, "[[1,1],[0,0]]")
    f = parse_element(t2z3, "[[0,1],[0,1]]")
    assert e in t2z3.idempotent_list
    assert f in t2z3.idempotent_list


# -- matrix, triangular, product, opposite ----------------------------------------

def test_matrix_ring_1x1_is_base():
    z5 = make_zmod(5)
    m1 = make_matrix_ring(1, z5)
    assert np.array_equal(m1.add_table, z5.add_table)
    assert np.array_equal(m1.mul_table, z5.mul_table)
    assert m1.spec == "M1:Zn:5"


def test_m2z2_all_unit_regular(m2z2):
    assert oracles.mat_all_unit_regular(2, 2)
    us = m2z2.units
    for a in range(m2z2.size):
        assert any(m2z2.mul(m2z2.mul(a, u), a) == a for u in us)


def test_m2z3_identity_maps_to_one(m2z3):
    assert m2z3.size == 81
    ident = parse_element(m2z3, "[[1,0],[0,1]]")
    assert ident == m2z3.one


def test_matrix_tables_match_tuple_oracle():
    ring = make_matrix_ring(2, make_zmod(3))
    elems = oracles.mat_all(3, 2)
    # spot-check a deterministic sample of products against tuple arithmetic
    for i in range(0, 81, 7):
        for j in range(0, 81, 11):
            expect = oracles.mat_mul(elems[i], elems[j], 3, 2)
            assert elems[ring.mul(i, j)] == expect
            expect = oracles.mat_add(elems[i], elems[j], 3)
            assert elems[ring.add(i, j)] == expect


@pytest.mark.parametrize("spec, kind, k, base", [
    ("M2:Zn:3", "matrix", 2, "Zn:3"), ("T2:Zn:4", "triangular", 2, "Zn:4"),
    ("M1:Zn:6", "matrix", 1, "Zn:6"), ("T1:Zn:5", "triangular", 1, "Zn:5"),
    ("T3:Zn:3", "triangular", 3, "Zn:3"), ("M2:T2:Zn:2", "matrix", 2, "T2:Zn:2"),
    ("T2:M2:Zn:2", "triangular", 2, "M2:Zn:2")])
def test_matrix_shape_tables_match_the_digit_arrays(spec, kind, k, base):
    ring = parse_ring_spec(spec)
    base = parse_ring_spec(base)
    add, mul = oracles.matrix_shape_tables_by_digits(kind, k, base)
    assert same_table(ring.add_table, add) and same_table(ring.mul_table, mul)
    elements = np.arange(ring.size)
    assert (mul[ring.one] == elements).all() and (mul[:, ring.one] == elements).all()


def test_triangular_z3_has_27_elements(t2z3):
    assert t2z3.size == 27
    t2z3.validate()


def test_triangular_1x1_is_base():
    z7 = make_zmod(7)
    t1 = make_triangular_ring(1, z7)
    assert np.array_equal(t1.mul_table, z7.mul_table)


def test_triangular_z2_closed_under_multiplication():
    ring = make_triangular_ring(2, make_zmod(2))
    assert ring.size == 8
    for i in range(8):
        for j in range(8):
            rows = element_to_obj(ring, ring.mul(i, j))
            assert rows[1][0] == 0


def test_product_same_regular_count_as_z6(z6):
    prod = make_product([make_zmod(2), make_zmod(3)])
    count = lambda ring: sum(
        1 for a in range(ring.size)
        if any(ring.mul(ring.mul(a, x), a) == a for x in range(ring.size)))
    assert len(oracles.zmod_regulars(6)) == count(prod) == count(z6) == 6


def test_product_single_factor_is_identity(z6):
    prod = make_product([z6])
    assert np.array_equal(prod.add_table, z6.add_table)
    assert np.array_equal(prod.mul_table, z6.mul_table)


@pytest.mark.parametrize("spec", [
    "prod:Zn:2+Zn:3", "prod:Zn:2+Zn:3+Zn:5", "prod:Zn:4+M2:Zn:2", "prod:Zn:64+Zn:64",
    "prod:Zn:4+Zn:60", "prod:Zn:32+Zn:32", "prod:Zn:16+Zn:256", "prod:Zn:8+Zn:8+Zn:8",
    "prod:Zn:2+Zn:3+Zn:5+Zn:7", "prod:T2:Zn:2+op:T2:Zn:3", "prod:Zn:1+Zn:6",
    "prod:Zn:6+Zn:1+Zn:2"])
def test_product_tables_match_the_weighted_sums(spec):
    ring = parse_ring_spec(spec)
    want = oracles.product_tables_by_weights(list(ring.form[1]))
    assert same_table(ring.add_table, want.add_table)
    assert same_table(ring.mul_table, want.mul_table)
    assert ring.one == want.one
    for table in (ring.add_table, ring.mul_table):
        assert table.dtype == np.int32
        assert table.flags.c_contiguous and not table.flags.writeable


@pytest.mark.parametrize("spec", ["Zn:3", "prod:Zn:2+Zn:3"])
def test_an_attribute_error_keeps_its_own_message(spec, monkeypatch):
    # the hook that builds a product's tables must not swallow a property's
    # AttributeError or the message of a missing attribute
    def broken(ring):
        raise AttributeError("raised inside the property")

    monkeypatch.setattr(FiniteRing, "broken", property(broken), raising=False)
    ring = parse_ring_spec(spec)
    with pytest.raises(AttributeError, match="raised inside the property"):
        ring.broken
    with pytest.raises(AttributeError, match="has no attribute 'absent'"):
        ring.absent


def test_product_z2_z2_has_4_idempotents():
    # oracle: solve e^2 = e componentwise; both components of Z_2 are idempotent
    assert {(a, b) for a in oracles.zmod_idempotents(2)
            for b in oracles.zmod_idempotents(2)} == {(0, 0), (0, 1), (1, 0), (1, 1)}
    ring = make_product([make_zmod(2), make_zmod(2)])
    assert len(ring.idempotent_list) == 4


def test_opposite_of_commutative_is_identity(z6):
    op = make_opposite(z6)
    assert np.array_equal(op.mul_table, z6.mul_table)


def test_opposite_is_involution(t2z3):
    opop = make_opposite(make_opposite(t2z3))
    assert np.array_equal(opop.mul_table, t2z3.mul_table)
    assert np.array_equal(opop.add_table, t2z3.add_table)


def test_opposite_reverses_products(t2z3):
    op = make_opposite(t2z3)
    e = parse_element(t2z3, "[[1,1],[0,0]]")
    f = parse_element(t2z3, "[[0,1],[0,1]]")
    assert op.mul(f, e) == t2z3.mul(e, f)


def test_commutative_constructions_have_symmetric_mul(catalog_rings):
    for spec in ("Zn:6", "Zn:12", "prod:Zn:2+Zn:3"):
        ring = catalog_rings[spec]
        assert ring.is_commutative


# -- table validation and capacity --------------------------------------------------

def test_validate_all_catalog_rings(catalog_rings):
    for ring in catalog_rings.values():
        ring.validate()


def test_validate_rejects_broken_identity(z6):
    tables = z6.mul_table.copy()
    tables[1, 2] = 3  # 1*2 must stay 2
    broken = FiniteRing(spec="broken", add_table=z6.add_table.copy(),
                        mul_table=tables, zero=0, one=1, form=("zmod", 6))
    with pytest.raises(ValueError):
        broken.validate()


def test_validate_rejects_broken_distributivity():
    z4 = make_zmod(4)
    tables = z4.mul_table.copy()
    tables[2, 3] = 1  # breaks 2*(1+2) = 2*1 + 2*2
    broken = FiniteRing(spec="broken", add_table=z4.add_table.copy(),
                        mul_table=tables, zero=0, one=1, form=("zmod", 4))
    with pytest.raises(ValueError):
        broken.validate()


def test_capacity_error_names_size():
    with pytest.raises(CapacityError) as exc:
        make_matrix_ring(2, make_zmod(9))
    assert exc.value.would_be_size == 9 ** 4
    with pytest.raises(CapacityError):
        make_product([make_zmod(100), make_zmod(100)])


def test_tables_are_read_only(z6):
    with pytest.raises(ValueError):
        z6.mul_table[0, 0] = 1


# -- element literals ------------------------------------------------------------------

def test_literal_roundtrip(t2z3, m2z2):
    prod = parse_ring_spec("prod:Zn:2+Zn:3")
    for ring in (t2z3, m2z2, prod):
        for idx in range(0, ring.size, 5):
            text = element_repr(ring, idx)
            assert parse_element(ring, text) == idx


@pytest.mark.parametrize("spec", ["M2:Zn:3", "T2:Zn:4", "prod:Zn:2+Zn:3+Zn:5",
                                  "M2:T2:Zn:2", "op:T2:Zn:3"])
def test_every_element_round_trips_through_its_literal(spec):
    ring = parse_ring_spec(spec)
    assert all(element_from_obj(ring, element_to_obj(ring, i)) == i for i in range(ring.size))


def test_encode_and_decode_are_inverse():
    radices = [3, 1, 4, 2]
    index = np.arange(24, dtype=np.int32)
    digits = decode(radices, index)
    assert all(d.dtype == np.int32 for d in digits)
    assert [d.tolist() for d in digits] == [list(t) for t in zip(*itertools.product(
        range(3), range(1), range(4), range(2)))]
    back = encode(radices, iter(digits))
    assert back.dtype == np.int32 and back.tolist() == index.tolist()
    for i in range(24):
        assert encode(radices, decode(radices, i)) == i
        assert decode(radices, i) == [int(d[i]) for d in digits]
    assert encode([5], [3]) == 3 and decode([], 0) == [] and encode([], []) == 0


def test_literal_negative_entries_reduce(z6, t2z3):
    assert parse_element(z6, "-1") == 5
    assert parse_element(t2z3, "[[0,-1],[0,0]]") == parse_element(t2z3, "[[0,2],[0,0]]")


def test_literal_rejects_lower_triangular_junk(t2z3):
    from ringlab import LiteralParseError
    with pytest.raises(LiteralParseError):
        parse_element(t2z3, "[[1,0],[1,1]]")


def test_minus_one_in_characteristic_two(m2z2):
    assert m2z2.minus_one() == m2z2.one


# -- property tests -------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=40))
def test_zmod_tables_always_valid(n):
    make_zmod(n).validate()


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3))
def test_product_tables_always_valid(ns):
    make_product([make_zmod(n) for n in ns]).validate()


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=1, max_value=5))
def test_opposite_tables_always_valid(n):
    make_opposite(make_triangular_ring(2, make_zmod(n))).validate()


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=24), st.data())
def test_element_obj_roundtrip_zmod(n, data):
    ring = make_zmod(n)
    idx = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert element_from_obj(ring, element_to_obj(ring, idx)) == idx
