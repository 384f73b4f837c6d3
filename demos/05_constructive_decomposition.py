"""The constructive route from a regular unimodular pair to an idempotent
and a unit, step by step.

For regular a, b with Ra + Rb = R (in a ring whose summands are closed under
sums and which has internal cancellation) the algorithm produces an
idempotent e with a + e*b invertible and aR (+) eR = R. Running it with
b = -1 turns any regular element into its special clean decomposition.
Every intermediate ideal and map lands in a trace that an independent
verifier replays from scratch.
"""

import json

from ringlab import (format_element, idempotent_witness_set, parse_ring_spec,
                     solve_unimodular, special_clean_decompose,
                     unique_special_clean_abelian, verify_trace)

z6 = parse_ring_spec("Zn:6")

print("== Z_6 with a = 3, b = -1 = 5 ==")
trace = solve_unimodular(z6, 3, 5)
print("reflexive inner inverse x:", trace.x)
print("kernel r(a) =", list(trace.K.sorted_members),
      " coimage =", list(trace.D.sorted_members))
print("image aR =", list(trace.I.sorted_members),
      " cokernel =", list(trace.C.sorted_members))
print("kernel pushed through b:", list(trace.bK.sorted_members),
      " summand idempotent f =", trace.f)
print("projection idempotent e =", trace.e, " unit a + e*b =", trace.unit)
print("so 3 =", trace.e, "+", z6.sub(3, trace.e), "is special clean")

report = verify_trace(trace)
print("independent replay of all", len(report["checks"]), "checks:",
      "PASS" if report["all_passed"] else "FAIL")

print("\nbrute-force witness set for comparison:",
      idempotent_witness_set(z6, 3, 5))

print("\n== a noncommutative run: M2:Zn:2 ==")
m2 = parse_ring_spec("M2:Zn:2")
a = 4  # [[0,1],[0,0]]
trace = solve_unimodular(m2, a, m2.one)
print("a =", format_element(m2, a), " b = identity")
print("kernel:", [format_element(m2, k) for k in trace.K.sorted_members])
print("cokernel:", [format_element(m2, c) for c in trace.C.sorted_members])
print("kernel equals cokernel as sets?", trace.kernel_equals_cokernel)
print("e =", format_element(m2, trace.e), " unit =", format_element(m2, trace.unit))
print("replay:", "PASS" if verify_trace(trace)["all_passed"] else "FAIL")

print("\n== special clean decompositions from the same machinery ==")
d = special_clean_decompose(z6, 4)
print("4 in Z_6 decomposes as", (d.idem, d.unit))
d = unique_special_clean_abelian(z6, 3)
print("and over an abelian ring the decomposition of 3 is unique:", (d.idem, d.unit))

print("\n== the trace serializes for replay ==")
blob = solve_unimodular(z6, 3, 5).to_json()
print(json.dumps({k: blob[k] for k in ("trace_version", "ring", "inputs",
                                       "projection_idempotent_e", "unit",
                                       "kernel_equals_cokernel")},
                 indent=2, sort_keys=True))
