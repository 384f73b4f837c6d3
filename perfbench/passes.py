"""One pass of a workload, run by run.py in a fresh process.

Usage: python3 perfbench/passes.py '<job json>'

The job names the workload, the stage ("pass", "setup", or for
verify-catalog "cold"/"warm"), the seed, the orchestrator's monotonic clock
reading taken just before it started this process, and scratch paths inside
the checkout. The process imports ringlab and generates the workload's
inputs (its set-up), then, unless the stage is "setup", times the workload's
commands and checks every output against the reference digests and the
theorem canaries. With "host_speed" true it samples the host's speed from
the end of set-up on (hostspeed.py) and reports the factors that scale its
times to the reference speed. With "traced" true the same pass runs with the
spans of spans.py installed and writes them to the job's "spans" file. Its
last stdout line is one JSON object.

Each pass gets a fresh process because ringlab memoises every derived table
and verdict on the ring objects (lru_cache(maxsize=None), cached_property,
the spec cache) and never frees them. Three classify-ladder passes in one
process, on a 2-core shared x86-64 VM, drifted from 11.9 s to 16.6 s and from
145 MB to 370 MB of resident memory; a fresh process starts from the state a
user's command starts from.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
from contextlib import nullcontext, redirect_stdout

import common
import hostspeed
import spans

# Clock of the timed commands; while it samples the host's speed (untraced
# end-to-end passes) its now() leaves the sampling time out.
HOST = hostspeed.HostSpeed()


def run_cli(argv):
    """Run `ringlab <argv>` in-process; returns (seconds, exit code, stdout)."""
    from ringlab.cli import main
    buf = io.StringIO()
    start = HOST.now()
    with redirect_stdout(buf):
        code = main(argv)
    return HOST.now() - start, code, buf.getvalue()


class Outcome:
    """Operations attempted and the reason each failed one failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, label, problems):
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")

    def as_json(self):
        return {"attempted": self.attempted, "failed": len(self.failures),
                "failures": self.failures[:20]}


def _report_problems(code, out):
    """The parsed JSON report of a command, and what is wrong with it."""
    if code != 0:
        return None, [f"exit code {code}"]
    try:
        report = json.loads(out)
    except ValueError as exc:
        return None, [f"output is not JSON: {exc}"]
    if report.get("status") != "pass":
        return report, [f"status {report.get('status')!r}"]
    return report, []


def canary(holds, where):
    """Every finite ring has stable range one (Bass 1964), and stable range
    one implies internal cancellation (Lam 2004). `holds` maps property
    names to verdicts; the ones it lacks are not checked."""
    return [f"{where}: {name} does not hold" for name in ("sr1", "ic")
            if name in holds and holds[name] is not True]


# -- workloads -----------------------------------------------------------------


def ladder_pass(rungs, reference):
    """`ringlab classify --no-cache --format json` on every rung."""
    outcome = Outcome()
    per_rung = {}
    for spec in rungs:
        try:
            seconds, code, out = run_cli(["classify", "--ring", spec, "--no-cache",
                                       "--format", "json"])
        except Exception as exc:  # a defect in the program: record it, go on
            outcome.check(spec, [f"raised {exc!r}"])
            continue
        per_rung[spec] = seconds
        report, problems = _report_problems(code, out)
        if report is not None and not problems:
            profile = report["profiles"][0]
            if common.digest(profile) != reference["classify"].get(spec):
                problems.append("profile digest differs from the reference")
            problems += canary({k: profile[k]["holds"] for k in ("sr1", "ic")}, spec)
        outcome.check(spec, problems)
    return {"command_s": sum(per_rung.values()), "per_rung_s": per_rung,
            **outcome.as_json()}


def hunt_pass(reference, max_size=common.HUNT_MAX_SIZE):
    """`ringlab hunt --property 'ic&!ssp' --max-size 256 --no-cache --format json`."""
    outcome = Outcome()
    seconds, code, out = run_cli(["hunt", "--property", common.HUNT_PROPERTY, "--max-size",
                               str(max_size), "--no-cache", "--format", "json"])
    report, problems = _report_problems(code, out)
    if report is not None and not problems:
        if common.digest(common.hunt_digest_view(report)) != reference["hunt"]:
            problems.append("match list digest differs from the reference")
        for m in report["matches"]:
            problems += canary(m["properties"], m["spec"])
    outcome.check("hunt", problems)
    return {"command_s": seconds, **outcome.as_json()}


def prepare_pairs(pairs):
    """Set-up of decompose-pairs: build each ring and the tables the pairs
    need, and reject any pair outside the hypothesis."""
    from ringlab import parse_ring_spec, unimodular_matrix
    from ringlab.elements import regularity_table
    rings = {}
    for spec in sorted({p[0] for p in pairs}):
        ring = parse_ring_spec(spec)
        ring.units, ring.unit_flags, ring.neg_table, ring.idempotent_list
        ring.right_principal_sets, ring.left_principal_sets
        regularity_table(ring)
        unimodular_matrix(ring)
        rings[spec] = ring
    for spec, a, b, _ in pairs:
        ring = rings[spec]
        regular = regularity_table(ring)[0]
        if not (regular[a] and regular[b] and unimodular_matrix(ring)[a, b]):
            raise ValueError(f"pair ({a}, {b}) of {spec} is not a regular unimodular pair")
    return rings


# The two code paths of a pair, named as in the per-path metrics: b = -1 is
# the special clean path `ringlab decompose` takes by default.
PATH_MINUS_ONE, PATH_GENERAL = "b-minus-one", "general"


def pairs_pass(rings, pairs):
    """solve_unimodular + verify_trace + trace.to_json() on every pair."""
    from ringlab import solve_unimodular, verify_trace
    outcome = Outcome()
    latencies, paths = [], []
    for spec, a, b, ref in pairs:
        ring = rings[spec]
        paths.append(PATH_MINUS_ONE if b == ring.minus_one() else PATH_GENERAL)
        label = f"{spec} ({a}, {b})"
        t = HOST.now()
        try:
            trace = solve_unimodular(ring, a, b)
            checks = verify_trace(trace)
            trace_json = trace.to_json()
        except Exception as exc:  # a defect in the program: record it, go on
            outcome.check(label, [f"raised {exc!r}"])
            continue
        finally:
            latencies.append(HOST.now() - t)
        problems = []
        if not checks["all_passed"]:
            failed = sorted(k for k, v in checks["checks"].items() if not v)
            problems.append(f"verify_trace failed {failed}")
        if common.digest(trace_json) != ref:
            problems.append("trace digest differs from the reference")
        outcome.check(label, problems)
    return {"command_s": sum(latencies), "latencies_s": latencies, "paths": paths,
            **outcome.as_json()}


def write_catalog(path, specs):
    entries = [{"spec": s, "tags": list(common.CATALOG_TAGS)} for s in specs]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=1)


def verify_pass(catalog_path, cache_path, reference):
    """`ringlab verify --suite all --catalog <catalog> --cache <cache> --format json`."""
    outcome = Outcome()
    seconds, code, out = run_cli(["verify", "--suite", "all", "--catalog", str(catalog_path),
                               "--cache", str(cache_path), "--format", "json"])
    report, problems = _report_problems(code, out)
    report_digest = None
    if report is not None and not problems:
        report_digest = common.digest(common.verify_digest_view(report))
        if report_digest != reference["verify"]:
            problems.append("report digest differs from the reference")
        for item in report["catalog"]:
            if not item["tags_verified"]:
                problems.append(f"{item['spec']}: tags {item['mismatches']} fail "
                                "(sr1 and ic hold on every finite ring)")
    outcome.check("verify", problems)
    return {"command_s": seconds, "digest": report_digest, **outcome.as_json()}


# -- process entry ---------------------------------------------------------------


def main(argv):
    job = json.loads(argv[1])
    workload, stage = job["workload"], job["stage"]
    common.import_ringlab()
    import ringlab.cli  # noqa: F401  (part of set-up: the command module is loaded)
    reference = common.load_reference()
    rec = spans.Recorder() if job.get("traced") else None
    ready = time.perf_counter()
    with spans.installed(rec) if rec else nullcontext():
        if workload == "decompose-pairs":
            pairs = common.draw_pairs(reference["pairs"], job["seed"])
            rings = prepare_pairs(pairs)
        elif workload == "verify-catalog" and stage in ("cold", "setup"):
            write_catalog(job["catalog"], common.catalog_specs())
        setup_s = time.monotonic() - job["t0"]
        if job.get("host_speed"):
            HOST.start()   # its first sample is the host's speed at the end of set-up

        if stage == "setup":
            result = {}
        elif workload == "classify-ladder":
            result = ladder_pass(common.LADDER, reference)
        elif workload == "hunt-sweep":
            result = hunt_pass(reference)
        elif workload == "decompose-pairs":
            result = pairs_pass(rings, pairs)
        elif workload == "verify-catalog":
            result = verify_pass(job["catalog"], job["cache"], reference)
        else:
            raise ValueError(f"unknown workload {workload!r}")
        if job.get("host_speed"):
            HOST.stop()
            result["setup_factor"] = hostspeed.REFERENCE_S / HOST.samples[0][2]
            result["factor"] = HOST.factor()
    result["wall_s"] = time.perf_counter() - ready
    if rec:
        rec.dump(job["spans"])
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
