"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import re
import shutil
import signal
import subprocess
import sys

import pytest

import common
import hostspeed
import make_reference
import passes
import run
import spans

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
TINY = ("Zn:6", "M2:Zn:2")
TINY_HUNT_MAX = 8


@pytest.fixture(scope="module")
def tiny_reference():
    return make_reference.build_reference(ladder=TINY, hunt_max_size=TINY_HUNT_MAX,
                                          catalog=list(TINY), pair_rings=TINY,
                                          pool_minus_one=3, pool_general=5)


def _tiny_pairs(reference, seed=1):
    return common.draw_pairs(reference["pairs"], seed, minus_one=2, general=3)


def test_pair_draw_is_reproducible_and_follows_the_seed():
    pool = common.load_reference()["pairs"]
    first = common.draw_pairs(pool, 1)
    assert first == common.draw_pairs(pool, 1)
    assert first != common.draw_pairs(pool, 2)
    assert len(first) == 2 * (common.PAIRS_MINUS_ONE + common.PAIRS_GENERAL)
    for spec in common.PAIR_RINGS:
        minus_one = {tuple(p) for p in pool[spec]["b_minus_one"]}
        drawn = [(a, b, d) for s, a, b, d in first if s == spec]
        assert sum(p in minus_one for p in drawn) == common.PAIRS_MINUS_ONE
        assert len(set(drawn)) == len(drawn)


def test_benchmark_json_matches_what_the_runs_emit():
    with open(common.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(common.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        [(n, u, b) for n, u, b, _ in run.LAYER_METRICS]
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name), name
    common.import_ringlab()
    from ringlab import SUITE_NAMES
    assert common.SUITES == SUITE_NAMES
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert max(bounds.values()) <= 0.25 and bounds["setup_s"] == max(bounds.values())


def test_smoke_run_on_tiny_rings_passes(tiny_reference, tmp_path):
    assert passes.ladder_pass(TINY, tiny_reference)["failed"] == 0
    hunt = passes.hunt_pass(tiny_reference, max_size=TINY_HUNT_MAX)
    assert (hunt["attempted"], hunt["failed"]) == (1, 0)

    pairs = _tiny_pairs(tiny_reference)
    res = passes.pairs_pass(passes.prepare_pairs(pairs), pairs)
    assert (res["attempted"], res["failed"]) == (len(pairs), 0)

    catalog, cache = tmp_path / "catalog.json", tmp_path / "cache.json"
    passes.write_catalog(catalog, TINY)
    cold = passes.verify_pass(catalog, cache, tiny_reference)
    warm = passes.verify_pass(catalog, cache, tiny_reference)
    assert cold["failed"] == warm["failed"] == 0
    assert cold["digest"] == warm["digest"]


def test_traced_pass_checks_outputs_and_emits_known_spans(tiny_reference, tmp_path,
                                                         monkeypatch):
    from ringlab import catalog as ring_catalog
    monkeypatch.setattr(ring_catalog, "_RING_CACHE", {})  # fresh rings, as in a new process
    rec = spans.Recorder()
    catalog, cache = tmp_path / "catalog.json", tmp_path / "cache.json"
    passes.write_catalog(catalog, TINY)
    pairs = _tiny_pairs(tiny_reference)
    with spans.installed(rec):
        results = [passes.ladder_pass(TINY, tiny_reference),
                   passes.hunt_pass(tiny_reference, max_size=TINY_HUNT_MAX),
                   passes.pairs_pass(passes.prepare_pairs(pairs), pairs),
                   passes.verify_pass(catalog, cache, tiny_reference)]
    assert [r["failures"] for r in results] == [[]] * 4
    rec.dump(tmp_path / "spans.json")

    trace = run.Trace()
    trace.add_file(tmp_path / "spans.json", "cold")
    metrics = {name: read(trace) for name, _, _, read in run.LAYER_METRICS}
    for name in ("rings.build_s", "rings.units_s", "classify.sr1_s", "classify.suite_s.R2.5",
                 "ideals.hom_search_s", "decompose.solve_s", "catalog.parse_s",
                 "cache.get_s", "cache.save_s", "reports.render_json_s", "cli.main_s"):
        assert metrics[name] > 0, name
    assert metrics["cache.misses"] >= len(TINY) and metrics["cache.hits"] == 0  # cold cache
    assert metrics["decompose.pairs"] == len(pairs)
    assert 0 < metrics["classify.sr1_useful_frac"] <= 1
    # own times never exceed the wall time they were taken from, and every
    # span's parent is a span that encloses it
    first = min(s[3] for s in rec.spans)
    last = max(s[4] for s in rec.spans)
    assert sum(s[5] for s in rec.spans) <= last - first
    by_id = {s[0]: s for s in rec.spans}
    for _, parent, _, start, end, _ in rec.spans:
        if parent is not None:
            assert by_id[parent][3] <= start <= end <= by_id[parent][4]


def test_spans_are_removed_after_the_traced_block():
    common.import_ringlab()
    from ringlab import cli, classify, rings
    before = (cli.is_ssp, classify.is_ssp, vars(rings.FiniteRing)["units"].func)
    with spans.installed(spans.Recorder()):
        assert cli.is_ssp is not before[0] and cli.is_ssp is classify.is_ssp
    assert (cli.is_ssp, classify.is_ssp, vars(rings.FiniteRing)["units"].func) == before


def test_host_factor_weights_each_gap_by_its_length():
    speed = hostspeed.HostSpeed()
    ref = hostspeed.REFERENCE_S
    # gaps of 1 s at a mean kernel time of 1.5 ref and 3 s at 2 ref
    speed.samples = [(0.0, 0.1, ref), (1.1, 1.2, 2 * ref), (4.2, 4.3, 2 * ref)]
    assert speed.factor() == pytest.approx((1 / 1.5 + 3 / 2) / 4)

    before = signal.getsignal(signal.SIGALRM)
    speed = hostspeed.HostSpeed()
    t = speed.now()
    speed.start()
    speed.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(speed.samples) >= 2 and speed.paused > 0
    assert speed.now() - t < speed.paused   # sampling time is left out of now()


@pytest.mark.parametrize("corrupt", ["classify", "pairs", "verify"])
def test_a_corrupted_reference_digest_is_a_failure(tiny_reference, tmp_path, corrupt):
    ref = json.loads(json.dumps(tiny_reference))
    if corrupt == "classify":
        ref["classify"]["Zn:6"] = "0" * 16
        res = passes.ladder_pass(TINY, ref)
    elif corrupt == "pairs":
        ref["pairs"]["Zn:6"]["b_minus_one"] = [[a, b, "0" * 16]
                                               for a, b, _ in ref["pairs"]["Zn:6"]["b_minus_one"]]
        pairs = _tiny_pairs(ref)
        res = passes.pairs_pass(passes.prepare_pairs(pairs), pairs)
    else:
        ref["verify"] = "0" * 16
        passes.write_catalog(tmp_path / "catalog.json", TINY)
        res = passes.verify_pass(tmp_path / "catalog.json", tmp_path / "cache.json", ref)
    assert res["failed"] >= 1
    assert all("digest differs" in f for f in res["failures"])


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(common.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "hunt-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
