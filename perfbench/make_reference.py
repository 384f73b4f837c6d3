"""Write perfbench/reference.json: the digest of every output the benchmark checks.

Usage: python3 perfbench/make_reference.py

Run it only when an answer is meant to change; a performance change must
leave every digest as it is. It records the digest (after
ringlab.reports.strip_timing) of each classify-ladder profile, of the hunt
match list, of the verify-catalog report, and of trace.to_json() for every
pair of the decompose pool. The pool is a fixed-seed sample of regular
unimodular pairs per ring; each benchmark run draws its pairs from it.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import tempfile

import common
import passes


def _cli_report(argv):
    _, code, out = passes.run_cli(argv)
    report = json.loads(out)
    if code != 0 or report["status"] != "pass":
        raise RuntimeError(f"ringlab {' '.join(argv)} did not pass (exit {code})")
    return report


def pair_pool(spec, minus_one, general, seed=common.POOL_SEED):
    """Distinct regular unimodular pairs (a, b) of one ring with their trace
    digests: `minus_one` pairs with b = -1, then `general` pairs with b != -1."""
    from ringlab import (parse_ring_spec, regular_elements, solve_unimodular,
                         unimodular_matrix, verify_trace)
    ring = parse_ring_spec(spec)
    regs = regular_elements(ring)
    U = unimodular_matrix(ring)
    rng = random.Random(f"{seed}:{spec}")
    chosen = [(a, ring.minus_one()) for a in rng.sample(regs, minus_one)]
    seen = set()
    while len(seen) < general:
        a, b = rng.choice(regs), rng.choice(regs)
        if U[a, b] and b != ring.minus_one() and (a, b) not in seen:
            seen.add((a, b))
            chosen.append((a, b))
    out = []
    for a, b in chosen:
        trace = solve_unimodular(ring, a, b)
        if not verify_trace(trace)["all_passed"]:
            raise RuntimeError(f"{spec}: the trace of ({a}, {b}) does not verify")
        out.append([a, b, common.digest(trace.to_json())])
    return {"b_minus_one": out[:minus_one], "general": out[minus_one:]}


def build_reference(ladder=common.LADDER, hunt_max_size=common.HUNT_MAX_SIZE,
                    catalog=None, pair_rings=common.PAIR_RINGS,
                    pool_minus_one=common.POOL_MINUS_ONE,
                    pool_general=common.POOL_GENERAL):
    common.import_ringlab()
    ref = {"classify": {}}
    for spec in ladder:
        report = _cli_report(["classify", "--ring", spec, "--no-cache", "--format", "json"])
        ref["classify"][spec] = common.digest(report["profiles"][0])
    report = _cli_report(["hunt", "--property", common.HUNT_PROPERTY, "--max-size",
                          str(hunt_max_size), "--no-cache", "--format", "json"])
    ref["hunt"] = common.digest(common.hunt_digest_view(report))
    work = tempfile.mkdtemp(dir=common.ensure_work_dir())
    try:
        catalog_path = f"{work}/catalog.json"
        passes.write_catalog(catalog_path, common.catalog_specs() if catalog is None else catalog)
        report = _cli_report(["verify", "--suite", "all", "--catalog", catalog_path,
                              "--no-cache", "--format", "json"])
    finally:
        shutil.rmtree(work)
    ref["verify"] = common.digest(common.verify_digest_view(report))
    ref["pairs"] = {spec: pair_pool(spec, pool_minus_one, pool_general) for spec in pair_rings}
    return ref


def main():
    ref = build_reference()
    with open(common.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        # one pool entry per line keeps diffs of this file readable
        text = json.dumps(ref, separators=(",", ":"), sort_keys=True)
        fh.write(text.replace("],[", "],\n[") + "\n")
    print(f"wrote {common.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
