"""Run one workload of the ringlab benchmark and print its metrics.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

With --trace 0 the run repeats timed passes, each in a fresh process, until
they have taken --seconds and at least MIN_PASSES ran; after each pass it
starts set-up-only processes for SETUP_BUDGET_S seconds (at least
MIN_SETUPS_PER_PASS of them). Each process samples the host's speed while it
runs, and its times are scaled to a reference speed (hostspeed.py). It
reports the medians of the scaled end-to-end metrics and prints the medians
of the wall times beside them. With --trace 1 it runs one pass untraced and one with the spans of
spans.py installed, each in a fresh process, and reports the per-layer
metrics and the tracing overhead. Every output of every pass is
checked against perfbench/reference.json and the theorem canaries; a
mismatch is a failed operation.

Human-readable lines come first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics. With --workload all
the workloads run in turn and each metric name is prefixed by its workload.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

import common
import passes

# At least two passes, so that on a host whose CPU speed drifts one slow pass
# does not decide a run's median alone.
MIN_PASSES = 2
# Set-up-only processes run between the passes, not after them, so that the
# set-up samples and the passes see the same stretch of the host's speed. A
# cheap set-up (about 0.3 s) gets many samples, an expensive one at least two.
SETUP_BUDGET_S = 1.0
MIN_SETUPS_PER_PASS = 2
RUN_DEADLINE_S = 170        # every run must end within 180 s
PASSES_SCRIPT = common.BENCH_DIR / "passes.py"

END_TO_END = {"command_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class ChildFailed(RuntimeError):
    pass


def _child(script, job, deadline):
    """Run one pass in a fresh process and return its JSON result."""
    job = dict(job, t0=time.monotonic())
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([sys.executable, str(script), json.dumps(job)],
                              capture_output=True, text=True, cwd=common.ROOT,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{job['workload']} {job['stage']}: no result within "
                          f"{timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{job['workload']} {job['stage']}: exit {proc.returncode}: "
                          f"{proc.stderr.strip()[-1500:]}")
    return json.loads(lines[-1])


# -- untraced: end-to-end metrics ---------------------------------------------------


def _scaled(res):
    """A pass's times at the reference host speed (see hostspeed.py); the
    wall times stay under raw_*."""
    f = res["factor"]
    return dict(res, command_s=res["command_s"] * f, raw_command_s=res["command_s"],
                latencies_s=[t * f for t in res.get("latencies_s", [])],
                per_rung_s={k: t * f for k, t in res.get("per_rung_s", {}).items()},
                setup_s=res["setup_s"] * res["setup_factor"], raw_setup_s=res["setup_s"])


def _one_pass(workload, seed, work, index, deadline):
    base = {"workload": workload, "seed": seed, "host_speed": True}
    if workload != "verify-catalog":
        return _scaled(_child(PASSES_SCRIPT, dict(base, stage="pass"), deadline))
    paths = {"catalog": str(work / f"catalog-{index}.json"),
             "cache": str(work / f"cache-{index}.json")}
    cold = _scaled(_child(PASSES_SCRIPT, dict(base, stage="cold", **paths), deadline))
    warm = _scaled(_child(PASSES_SCRIPT, dict(base, stage="warm", **paths), deadline))
    failures = cold["failures"] + warm["failures"]
    failed = cold["failed"] + warm["failed"]
    if not warm["failed"] and warm["digest"] != cold["digest"]:
        failures.append("verify: the warm report differs from the cold one")
        failed += 1
    return {"command_s": cold["command_s"] + warm["command_s"],
            "raw_command_s": cold["raw_command_s"] + warm["raw_command_s"],
            "cold_s": cold["command_s"], "warm_s": warm["command_s"],
            "setup_s": cold["setup_s"], "raw_setup_s": cold["raw_setup_s"],
            "factor": (cold["factor"] + warm["factor"]) / 2,
            "peak_rss_mb": max(cold["peak_rss_mb"], warm["peak_rss_mb"]),
            "attempted": cold["attempted"] + warm["attempted"],
            "failed": failed, "failures": failures}


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="exclusive")[q - 1]


def _setups(workload, seed, work, deadline):
    """Set-up times of set-up-only processes, for SETUP_BUDGET_S seconds."""
    times, start = [], time.monotonic()
    while ((len(times) < MIN_SETUPS_PER_PASS or time.monotonic() - start < SETUP_BUDGET_S)
           and time.monotonic() < deadline - 20):
        job = {"workload": workload, "seed": seed, "stage": "setup", "host_speed": True,
               "catalog": str(work / "catalog-setup.json")}
        res = _child(PASSES_SCRIPT, job, deadline)
        times.append((res["setup_s"] * res["setup_factor"], res["setup_s"]))
    return times


def run_untraced(workload, seed, seconds, work, deadline):
    results, setups, failures = [], [], []
    attempted = failed = crashes = 0
    measured = 0.0    # time in passes; the set-up-only processes do not count
    while (len(results) < MIN_PASSES or measured < seconds) and crashes < 2:
        began = time.monotonic()
        try:
            res = _one_pass(workload, seed, work, len(results) + crashes, deadline)
        except ChildFailed as exc:
            crashes += 1
            attempted += 1
            failed += 1
            failures.append(str(exc))
            continue
        measured += time.monotonic() - began
        results.append(res)
        setups.append((res["setup_s"], res["raw_setup_s"]))
        attempted += res["attempted"]
        failed += res["failed"]
        failures += res["failures"]
        setups += _setups(workload, seed, work, deadline)
        if time.monotonic() + (time.monotonic() - began) > deadline - 20:
            break
    if not results:
        return None, attempted, failed, failures, []

    median = statistics.median
    metrics = {"command_s": median(r["command_s"] for r in results),
               "setup_s": median(t for t, _ in setups),
               "peak_rss_mb": median(r["peak_rss_mb"] for r in results)}
    lines = [f"workload {workload}  seed {seed}  passes {len(results)}  "
             f"set-ups {len(setups)}"]
    named = {"classify-ladder": "ladder_s", "hunt-sweep": "hunt_s",
             "decompose-pairs": "decompose_total_s"}
    if workload in named:
        lines.append(f"  {named[workload]:<18} {metrics['command_s']:10.4f} s")
    if workload == "classify-ladder":
        for spec in results[0]["per_rung_s"]:
            t = median(r["per_rung_s"].get(spec, float("nan")) for r in results)
            lines.append(f"    {spec:<16} {t:10.4f} s")
    if workload == "decompose-pairs":
        per_pair = [median(lat) for lat in zip(*(r["latencies_s"] for r in results))]
        p99 = _percentile(per_pair, 99)
        beyond = sum(v > p99 for v in per_pair)
        lines.append(f"  {'decompose_p50_ms':<18} {_percentile(per_pair, 50) * 1e3:10.4f} ms")
        lines.append(f"  {'decompose_p99_ms':<18} {p99 * 1e3:10.4f} ms"
                     f"  ({len(per_pair)} pairs, {beyond} beyond p99)")
        for path, lat in _by_path(per_pair, results[0]["paths"]).items():
            lines.append(f"    {path:<16} p50 {_percentile(lat, 50) * 1e3:9.4f} ms  "
                         f"p99 {_percentile(lat, 99) * 1e3:9.4f} ms  ({len(lat)} pairs)")
    if workload == "verify-catalog":
        lines.append(f"  {'verify_cold_s':<18} {median(r['cold_s'] for r in results):10.4f} s")
        lines.append(f"  {'verify_warm_s':<18} {median(r['warm_s'] for r in results):10.4f} s")
    lines.append(f"  {'setup_s':<18} {metrics['setup_s']:10.4f} s")
    lines.append(f"  {'peak_rss_mb':<18} {metrics['peak_rss_mb']:10.4f} MB")
    lines.append(f"  {'failed_frac':<18} {failed / max(attempted, 1):10.4f} ratio"
                 f"  ({failed} of {attempted})")
    lines.append(f"  {'command_s':<18} {metrics['command_s']:10.4f} s")
    lines.append(f"  wall times, not scaled: command {median(r['raw_command_s'] for r in results):.4f} s, "
                 f"set-up {median(raw for _, raw in setups):.4f} s; host factor "
                 f"{median(r['factor'] for r in results):.4f} (see hostspeed.py)")
    out = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}
    return out, attempted, failed, failures, lines


# -- traced: per-layer metrics --------------------------------------------------------


def _by_path(latencies, paths):
    """Pair latencies grouped by code path (b = -1 or general)."""
    out = {}
    for lat, path in zip(latencies, paths):
        out.setdefault(path, []).append(lat)
    return dict(sorted(out.items()))


class Trace:
    """Own span times and counters summed over the traced processes of a run,
    plus what the untraced passes of the same run measured."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.counts = Counter()
        self.spans = 0
        self.overhead_s = 0.0
        self.warm_classify_s = 0.0
        self.per_rung_s = {}
        self.latencies_s = []
        self.paths = []

    def add_file(self, path, stage):
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        for _, _, name, _, _, own_ns in data["spans"]:
            self.seconds[name] += own_ns / 1e9
            if stage == "warm" and name.startswith("classify."):
                self.warm_classify_s += own_ns / 1e9
        self.spans += len(data["spans"])
        self.counts.update(data["counts"])
        for name, value in data["gauges"].items():   # the same quantity in each process
            self.counts[name] = max(self.counts[name], value)

    def add_untraced(self, result):
        self.per_rung_s.update(result.get("per_rung_s", {}))
        self.latencies_s += result.get("latencies_s", [])
        self.paths += result.get("paths", [])

    def pair_ms(self, q, path=None):
        lat = (self.latencies_s if path is None
               else _by_path(self.latencies_s, self.paths).get(path, []))
        return _percentile(lat, q) * 1e3 if len(lat) >= 2 else 0.0

    def sr1_useful_frac(self):
        visited = self.counts["classify.sr1_pairs_visited"]
        return self.counts["classify.sr1_checked"] / visited if visited else 0.0


def _span(name):
    return lambda t: t.seconds[name]


def _count(name):
    return lambda t: t.counts[name]


def _pair_ms(q, path=None):
    return lambda t: t.pair_ms(q, path)


# (metric, unit, better, how it is read from the trace). A "_s" metric of a
# layer is the own time of the spans named like it without the "_s", summed
# over the traced processes; profile_s.<rung> and the pair latencies come from
# the untraced pass of the same run.
LAYER_METRICS = [
    ("rings.build_s", "s", "lower", _span("rings.build")),
    ("rings.units_s", "s", "lower", _span("rings.units")),
    ("rings.idempotents_s", "s", "lower", _span("rings.idempotents")),
    ("rings.right_principal_sets_s", "s", "lower", _span("rings.right_principal_sets")),
    ("rings.left_principal_sets_s", "s", "lower", _span("rings.left_principal_sets")),
    ("rings.rings_built", "count", "lower", _count("rings.rings_built")),
    ("rings.table_mb", "MB", "lower", _count("rings.table_mb")),
    ("elements.regularity_table_s", "s", "lower", _span("elements.regularity_table")),
    ("elements.unit_regularity_table_s", "s", "lower",
     _span("elements.unit_regularity_table")),
    ("classify.unimodular_matrix_s", "s", "lower", _span("classify.unimodular_matrix")),
    ("classify.left_ideal_classes", "count", "lower", _count("classify.left_ideal_classes")),
    *[(f"classify.{v}_s", "s", "lower", _span(f"classify.{v}"))
      for v in ("ssp", "sip", "ic", "abelian", "sr1", "idem_sr", "product_regular",
                "ring_profile")],
    *[(f"classify.profile_s.{common.metric_key(spec)}", "s", "lower",
       lambda t, spec=spec: t.per_rung_s.get(spec, 0.0)) for spec in common.LADDER],
    ("classify.sr1_checked", "count", "lower", _count("classify.sr1_checked")),
    ("classify.idem_sr_checked", "count", "lower", _count("classify.idem_sr_checked")),
    ("classify.ssp_checked", "count", "lower", _count("classify.ssp_checked")),
    ("classify.sr1_useful_frac", "ratio", "higher", Trace.sr1_useful_frac),
    *[(f"classify.suite_s.{s}", "s", "lower", _span(f"classify.suite.{s}"))
      for s in common.SUITES],
    ("classify.warm_verify_s", "s", "lower", lambda t: t.warm_classify_s),
    ("ideals.direct_complements_s", "s", "lower", _span("ideals.direct_complements")),
    ("ideals.hom_search_s", "s", "lower", _span("ideals.hom_search")),
    ("ideals.graph_module_s", "s", "lower", _span("ideals.graph_module")),
    ("ideals.common_complement_s", "s", "lower", _span("ideals.common_complement")),
    ("ideals.hom_candidates", "count", "lower", _count("ideals.hom_candidates")),
    ("decompose.solve_s", "s", "lower", _span("decompose.solve")),
    ("decompose.verify_s", "s", "lower", _span("decompose.verify")),
    ("decompose.to_json_s", "s", "lower", _span("decompose.to_json")),
    ("decompose.pair_p50_ms", "ms", "lower", _pair_ms(50)),
    ("decompose.pair_p99_ms", "ms", "lower", _pair_ms(99)),
    *[(f"decompose.pair_{q}_ms.{path}", "ms", "lower", _pair_ms(int(q[1:]), path))
      for path in (passes.PATH_MINUS_ONE, passes.PATH_GENERAL) for q in ("p50", "p99")],
    ("decompose.pairs", "count", "higher", _count("decompose.pairs")),
    ("decompose.aborts", "count", "lower",
     _count("raised.decompose.solve.ConstructionAbort")),
    ("catalog.parse_s", "s", "lower", _span("catalog.parse")),
    ("catalog.rings_examined", "count", "higher", _count("catalog.rings_examined")),
    ("cache.get_s", "s", "lower", _span("cache.get")),
    ("cache.put_s", "s", "lower", _span("cache.put")),
    ("cache.save_s", "s", "lower", _span("cache.save")),
    ("cache.hits", "count", "higher", _count("cache.hits")),
    ("cache.misses", "count", "lower", _count("cache.misses")),
    ("cache.file_mb", "MB", "lower", _count("cache.file_mb")),
    ("reports.render_json_s", "s", "lower", _span("reports.render_json")),
    ("cli.main_s", "s", "lower", _span("cli.main")),
    ("trace.overhead_s", "s", "lower", lambda t: t.overhead_s),
    ("trace.spans", "count", "lower", lambda t: t.spans),
]


def run_traced(workload, seed, work, deadline):
    stages = ("cold", "warm") if workload == "verify-catalog" else ("pass",)
    trace, wall, attempted, failed, failures = Trace(), {}, 0, 0, []
    # The first of the two processes tends to run slower; alternating the
    # order with the seed keeps that out of the median overhead.
    for traced in ((False, True) if seed % 2 == 0 else (True, False)):
        wall[traced] = 0.0
        for stage in stages:
            spans = work / f"spans-{stage}.json"
            job = {"workload": workload, "seed": seed, "stage": stage, "traced": traced,
                   "spans": str(spans), "catalog": str(work / f"catalog-{int(traced)}.json"),
                   "cache": str(work / f"cache-{int(traced)}.json")}
            res = _child(PASSES_SCRIPT, job, deadline)
            wall[traced] += res["wall_s"]
            attempted += res["attempted"]
            failed += res["failed"]
            failures += res["failures"]
            if traced:
                trace.add_file(spans, stage)
                shutil.copyfile(spans, common.WORK_DIR / f"trace-{workload}-{stage}.json")
            else:
                trace.add_untraced(res)
    trace.overhead_s = wall[True] - wall[False]
    metrics = {name: {"value": read(trace), "unit": unit}
               for name, unit, _, read in LAYER_METRICS}
    lines = [f"workload {workload}  seed {seed}  traced pass {wall[True]:.4f} s, "
             f"untraced pass {wall[False]:.4f} s"]
    lines += [f"  {name:<38} {m['value']:14.6f} {m['unit']}" for name, m in metrics.items()]
    return metrics, attempted, failed, failures, lines


# -- entry --------------------------------------------------------------------------------


def _run_one(workload, args, work):
    """One workload's run: (metrics, attempted, failed, failures, lines)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work))
    try:
        if args.trace:
            return run_traced(workload, args.seed, scratch, deadline)
        return run_untraced(workload, args.seed, args.seconds, scratch, deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=common.WORKLOADS + common.EXTRA_WORKLOADS + ("all",),
                        help="one workload, or those of BENCHMARK.json in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (common.SRC / "ringlab" / "__init__.py").is_file():
        print(f"perfbench: no ringlab package under {common.SRC}; run from the root "
              "of a ringlab checkout", file=sys.stderr)
        return 2

    workloads = common.WORKLOADS if args.workload == "all" else (args.workload,)
    work = common.ensure_work_dir()
    metrics, attempted, failed = {}, 0, 0
    for workload in workloads:
        try:
            result, n_attempted, n_failed, failures, lines = _run_one(workload, args, work)
        except ChildFailed as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        for line in failures[:20]:
            print(f"perfbench: failed: {line}", file=sys.stderr)
        if result is None:
            print(f"perfbench: {workload}: no pass completed", file=sys.stderr)
            return 1
        print("\n".join(lines))
        attempted += n_attempted
        failed += n_failed
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({prefix + name: m for name, m in result.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
