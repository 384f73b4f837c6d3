"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and holding to its stated runtime bound. Everything here is exact; there are
no numeric tolerances anywhere."""

import contextlib
import json
import time

from ringlab import (default_catalog, direct_sum_cancellation, idem_condition_annihilator,
                     idem_condition_right_sided, idempotent_witness_set, is_ic, is_ssp,
                     parse_element, parse_ring_spec, product_regular_condition,
                     regular_elements, regular_witness, right_sided_certificate,
                     ring_unit_regular, solve_unimodular, special_clean_witnesses,
                     theorem_suite, unimodular_matrix, unit_inverse_from_special_clean,
                     unit_regular_witness, verify_trace)
from ringlab.classify import special_clean_flags
from ringlab.cli import main
from ringlab.reports import strip_timing

CATALOG = [entry.spec for entry in default_catalog()]


@contextlib.contextmanager
def criterion(name, bound_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL  {name}  ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE PASS  {name}  ({elapsed:.2f}s, bound {bound_s}s)")
    assert elapsed < bound_s, f"{name} exceeded its {bound_s}s runtime bound"


def rings():
    return [parse_ring_spec(spec) for spec in CATALOG]


def test_criterion_1_triangular_fixture_exact():
    with criterion("1: triangular Z3 fixture reproduced bit-exactly", 5):
        ring = parse_ring_spec("T2:Zn:3")
        e = parse_element(ring, "[[1,1],[0,0]]")
        f = parse_element(ring, "[[0,1],[0,1]]")
        assert ring.is_idempotent(e) and ring.is_idempotent(f)
        assert regular_witness(ring, e) is not None
        assert regular_witness(ring, f) is not None
        ef = ring.mul(e, f)
        assert ef == parse_element(ring, "[[0,2],[0,0]]")
        assert regular_witness(ring, ef) is None
        sandwich = {ring.mul(ring.mul(ef, r), ef) for r in range(ring.size)}
        assert sandwich == {ring.zero}
        assert special_clean_witnesses(ring, ef) == []
        from ringlab import has_stable_range_1
        assert has_stable_range_1(ring).holds is True


def test_criterion_2_special_clean_yields_unit_inner_inverse():
    with criterion("2: special clean forces a unit inner inverse, everywhere", 60):
        for ring in rings():
            for a in range(ring.size):
                witnesses = special_clean_witnesses(ring, a)
                if not witnesses:
                    continue
                assert unit_regular_witness(ring, a) is not None, (ring.spec, a)
                for d in witnesses:
                    u_inv = unit_inverse_from_special_clean(ring, d)
                    assert ring.mul(ring.mul(a, u_inv), a) == a, (ring.spec, a)


def test_criterion_3_equivalence_on_summand_sum_rings():
    with criterion("3: the three-way equivalence holds on summand-sum rings", 600):
        must_be_ssp = {"Zn:1", "Zn:2", "Zn:3", "Zn:4", "Zn:6", "Zn:8", "Zn:9",
                       "Zn:12", "M2:Zn:2", "M2:Zn:3", "prod:Zn:2+Zn:3"}
        ssp_seen = set()
        for ring in rings():
            if not is_ssp(ring).holds:
                continue
            ssp_seen.add(ring.spec)
            rep = theorem_suite(ring, "T2.4")
            assert rep["hypothesis_met"] is True
            assert len(set(rep["conditions"].values())) == 1, (ring.spec, rep)
            assert rep["equivalent"] is True
        assert must_be_ssp <= ssp_seen


def test_criterion_4_construction_matches_oracle():
    with criterion("4: construction succeeds and lands in the oracle set", 300):
        for spec in ("M2:Zn:2", "Zn:4", "Zn:6", "Zn:8", "Zn:9", "Zn:12"):
            ring = parse_ring_spec(spec)
            regs = regular_elements(ring)
            U = unimodular_matrix(ring)
            pairs = 0
            for a in regs:
                for b in regs:
                    if not U[a, b]:
                        continue
                    trace = solve_unimodular(ring, a, b)
                    report = verify_trace(trace)
                    assert report["all_passed"], (spec, a, b, report)
                    oracle = idempotent_witness_set(ring, a, b)
                    assert oracle and trace.e in oracle, (spec, a, b)
                    pairs += 1
            assert pairs > 0, spec


def test_criterion_5_product_suites_with_negative_case():
    with criterion("5: product conditions agree at all arities, with the "
                   "triangular counterexample", 600):
        for ring in rings():
            both = bool(is_ssp(ring).holds and is_ic(ring).holds)
            verdicts = {k: product_regular_condition(ring, k) for k in (2, 3, 4)}
            for k, v in verdicts.items():
                assert v.holds == both, (ring.spec, k)
                assert v.extra["products_special_clean"] == both, (ring.spec, k)
            rep = theorem_suite(ring, "T2.9")
            assert rep["equivalent"] is True, ring.spec
            rep = theorem_suite(ring, "C2.10")
            assert rep["equivalent"] is True, ring.spec

        ring = parse_ring_spec("T2:Zn:3")
        v = product_regular_condition(ring, 2)
        assert v.holds is False
        w = v.witness
        prod = ring.mul(w["factors"][0], w["factors"][1])
        assert prod == w["product"]
        assert unit_regular_witness(ring, prod) is None
        e = parse_element(ring, "[[1,1],[0,0]]")
        f = parse_element(ring, "[[0,1],[0,1]]")
        assert unit_regular_witness(ring, ring.mul(e, f)) is None
        assert special_clean_witnesses(ring, ring.mul(e, f)) == []


def test_criterion_6_unit_regular_rings_are_special_clean():
    with criterion("6: in the exhaustively unit-regular matrix rings every "
                   "element is special clean", 300):
        for spec in ("M2:Zn:2", "M2:Zn:3"):
            ring = parse_ring_spec(spec)
            assert ring_unit_regular(ring), spec
            flags = special_clean_flags(ring)
            assert bool(flags.all()), spec


def test_criterion_7_uniqueness_over_modular_rings():
    with criterion("7: regular elements of Zn have exactly one special clean "
                   "decomposition", 10):
        for n in (4, 6, 8, 9, 12):
            ring = parse_ring_spec(f"Zn:{n}")
            for a in regular_elements(ring):
                assert len(special_clean_witnesses(ring, a)) == 1, (n, a)
        z6 = parse_ring_spec("Zn:6")
        ws = special_clean_witnesses(z6, 3)
        assert len(ws) == 1 and (ws[0].idem, ws[0].unit) == (4, 5)


def test_criterion_8_sided_variants_and_involution():
    with criterion("8: annihilator and right-sided variants hold, with "
                   "witnesses surviving the opposite-ring translation", 600):
        for ring in rings():
            if not (is_ssp(ring).holds and is_ic(ring).holds):
                continue
            ann, right = idem_condition_annihilator(ring), idem_condition_right_sided(ring)
            assert ann.holds is True, ring.spec
            assert right.holds is True, ring.spec

            # translate right-sided certificates back and re-check in the ring
            regs = regular_elements(ring)
            stride = 1 if ring.size <= 30 else 5
            op_U = unimodular_matrix(parse_ring_spec(f"op:{ring.spec}"))
            zero_only = frozenset({ring.zero})
            for a in regs[::stride]:
                for b in regs[::stride]:
                    if not op_U[a, b]:
                        continue
                    e = right_sided_certificate(ring, a, b)
                    assert e is not None, (ring.spec, a, b)
                    assert ring.add(a, ring.mul(b, e)) in ring.units
                    Ra, Re = ring.left_principal_sets[a], ring.left_principal_sets[e]
                    assert Ra & Re == zero_only
                    assert len(Ra) * len(Re) == ring.size


def test_criterion_9_cancellation_matches_internal_cancellation():
    with criterion("9: direct-sum cancellation agrees with the element-level "
                   "property on every catalog ring", 300):
        for ring in rings():
            assert ring.size <= 128
            v = direct_sum_cancellation(ring)
            assert v.holds is not None
            assert v.holds == is_ic(ring).holds, ring.spec


def test_criterion_10_reports_are_deterministic(capsys):
    with criterion("10: two full verify runs are byte-identical modulo timing", 300):
        assert main(["verify", "--suite", "all", "--format", "json", "--no-cache"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "--suite", "all", "--format", "json", "--no-cache"]) == 0
        second = capsys.readouterr().out
        a = json.dumps(strip_timing(json.loads(first)), sort_keys=True, indent=2)
        b = json.dumps(strip_timing(json.loads(second)), sort_keys=True, indent=2)
        assert a.encode("utf-8") == b.encode("utf-8")
