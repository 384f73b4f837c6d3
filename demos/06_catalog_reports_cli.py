"""The ring catalog, verified tags, deterministic reports, and the CLI.

The default catalog holds the fixture rings every suite runs over; its
expected-property tags are recomputed on load rather than trusted. The same
machinery backs the command-line interface:

    ringlab classify  --ring T2:Zn:3 --format json
    ringlab decompose --ring Zn:6 --element 3
    ringlab verify    --suite all --format json
    ringlab hunt      --property 'ic&!ssp' --max-size 27

Exit code 0 means every assertion passed, 1 an assertion failure (the report
carries witnesses), 2 a usage or capacity error. RINGLAB_CACHE or --cache
points the result cache somewhere else; --no-cache disables it.
"""

import json

from ringlab import default_catalog, parse_ring_spec, ring_profile, verify_entry_tags
from ringlab.cli import run_hunt, run_verify
from ringlab.reports import strip_timing

print("== the default catalog, re-verified ==")
for entry in default_catalog():
    profile = ring_profile(parse_ring_spec(entry.spec))
    mismatches = verify_entry_tags(entry, profile)
    status = "ok" if not mismatches else f"MISMATCH {mismatches}"
    print(f"  {entry.spec:<16} tags: {' '.join(entry.tags):<42} {status}")

print("\n== one suite over the whole catalog ==")
section, ok = run_verify("T2.9")
for rep in section["suites"]:
    print(f"  {rep['ring']:<16} conditions {rep['conditions']}  "
          f"equivalent: {rep['equivalent']}")
print("overall:", section["status"])

print("\n== hunting for rings by property ==")
report = run_hunt("ic&!ssp", 27)
print(f"internal cancellation without summand-sum closure, size <= 27 "
      f"({report['candidates_examined']} candidates):")
for m in report["matches"]:
    print(f"  {m['spec']}  (size {m['size']})")

print("\n== reports are deterministic ==")
one, _ = run_verify("C2.6")
two, _ = run_verify("C2.6")
same = json.dumps(strip_timing(one), sort_keys=True) == \
    json.dumps(strip_timing(two), sort_keys=True)
print("two runs, identical bytes modulo timing:", same)
