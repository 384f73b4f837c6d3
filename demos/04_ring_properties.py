"""Ring-level verdicts and the executable equivalence suites.

Every predicate scans exhaustively and returns a Verdict: positive answers
carry the number of cases checked, negative ones carry a replayable
counterexample. The suites evaluate each numbered condition of a named
equivalence independently, then check the expected pattern.
"""

import json

from ringlab import (SUITE_NAMES, has_stable_range_1, is_abelian, is_ic, is_sip,
                     is_ssp, parse_ring_spec, product_regular_condition, ring_profile,
                     theorem_suite)

for spec in ("Zn:6", "M2:Zn:2", "T2:Zn:3"):
    ring = parse_ring_spec(spec)
    print(f"== {spec} ==")
    print("  summand sums stay summands:  ", is_ssp(ring).holds)
    print("  summand meets stay summands: ", is_sip(ring).holds)
    print("  internal cancellation:       ", is_ic(ring).holds)
    print("  stable range one:            ", has_stable_range_1(ring).holds)
    print("  abelian (central idempotents):", is_abelian(ring).holds)

print("\nthe triangular ring fails summand-sum closure; the witness replays:")
t2 = parse_ring_spec("T2:Zn:3")
print(" ", is_ssp(t2).witness)

print("\nproducts of two regular elements in T2:Zn:3:")
v = product_regular_condition(t2, 2)
print("  all unit-regular?", v.holds, " counterexample:", v.witness)

print("\n== suites over M2:Zn:2 ==")
m2 = parse_ring_spec("M2:Zn:2")
for name in SUITE_NAMES:
    rep = theorem_suite(m2, name)
    print(f"  {name}: conditions {rep['conditions']}  equivalent: {rep['equivalent']}")

print("\n== one full profile as JSON ==")
print(json.dumps(ring_profile(parse_ring_spec("Zn:12")),
                 indent=2, sort_keys=True))
