"""Shared pieces of the ringlab benchmark.

Locates the package under test, fixes each workload's inputs, draws the
seeded decompose pairs and digests outputs. Everything here is used both by
the orchestrator (run.py) and by the per-pass child processes.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
REFERENCE_PATH = BENCH_DIR / "reference.json"

# The workloads of BENCHMARK.json, which `--workload all` runs.
WORKLOADS = ("hunt-sweep", "decompose-pairs", "verify-catalog")
# Run by name only, to keep a full evaluation (22 runs of every workload of
# BENCHMARK.json, at 30 to 50 s a run) within an hour; its sr1 and idem_sr
# scans also run, on smaller rings, in verify-catalog. See README.md.
EXTRA_WORKLOADS = ("classify-ladder",)

# classify-ladder: every ROADMAP ladder rung that finishes today. The two
# 4096-element cap rungs (Zn:4096, M2:Zn:8) wait until sr1 finishes there.
LADDER = ("T3:Zn:2", "M2:Zn:3", "M2:Zn:4", "M3:Zn:2", "M2:Zn:5", "T2:Zn:9")

HUNT_PROPERTY = "ic&!ssp"
HUNT_MAX_SIZE = 256

# decompose-pairs: rings with SSP and IC, where every regular unimodular pair
# must decompose. A quarter of the pairs use b = -1, the special clean path
# `ringlab decompose` takes by default. The share is a choice, not a measured
# usage mix; the traced run reports each path's latencies on its own.
PAIR_RINGS = ("M3:Zn:2", "M2:Zn:5")
PAIRS_MINUS_ONE = 138   # per ring and run
PAIRS_GENERAL = 414     # per ring and run; 2 x 552 = 1104 pairs, 11 beyond p99
POOL_MINUS_ONE = 200    # reference pool per ring the seeded draw picks from
POOL_GENERAL = 600
POOL_SEED = 20140803

SUITES = ("T2.4", "T2.9", "C2.10", "R2.5", "C2.6", "L2.3")   # ringlab's SUITE_NAMES

CATALOG_MAX_SIZE = 64
CATALOG_EXTRA = ("op:T2:Zn:3", "op:M2:Zn:2", "op:T2:Zn:4")
CATALOG_TAGS = ("sr1", "ic")


def import_ringlab():
    """Import ringlab from this checkout's src/, never from an installed copy."""
    if not (SRC / "ringlab" / "__init__.py").is_file():
        raise FileNotFoundError(f"no ringlab package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ringlab
    if Path(ringlab.__file__).resolve().parent != SRC / "ringlab":
        raise ImportError(f"ringlab imported from {ringlab.__file__}, not from {SRC}")
    return ringlab


def ensure_work_dir():
    """Scratch space inside the checkout (listed in .gitignore)."""
    WORK_DIR.mkdir(exist_ok=True)
    return WORK_DIR


def metric_key(spec):
    """Ring spec as a metric-name component: ':' becomes '-'."""
    return spec.replace(":", "-")


def catalog_specs(max_size=CATALOG_MAX_SIZE, extra=CATALOG_EXTRA):
    """Every Zn, M2/M3, T2/T3 and prod:Zn+Zn ring of at most max_size elements."""
    specs = [f"Zn:{n}" for n in range(1, max_size + 1)]
    for k in (2, 3):
        for kind, cells in (("M", k * k), ("T", k * (k + 1) // 2)):
            n = 2
            while n ** cells <= max_size:
                specs.append(f"{kind}{k}:Zn:{n}")
                n += 1
    for i in range(2, max_size + 1):
        for j in range(i, max_size // i + 1):
            specs.append(f"prod:Zn:{i}+Zn:{j}")
    return specs + list(extra)


def draw_pairs(pool, seed, minus_one=PAIRS_MINUS_ONE, general=PAIRS_GENERAL):
    """Seeded sample of (spec, a, b, digest) from the reference pair pool.

    Each ring contributes the same number of b = -1 pairs and of general
    pairs on every seed, so only the choice of pairs varies with the seed.
    """
    rng = random.Random(seed)
    out = []
    for spec in sorted(pool):
        picked = (rng.sample(pool[spec]["b_minus_one"], minus_one)
                  + rng.sample(pool[spec]["general"], general))
        rng.shuffle(picked)
        out.extend((spec, a, b, d) for a, b, d in picked)
    return out


def digest(obj):
    """Digest of a JSON-ready output with every "timing" key removed."""
    from ringlab.reports import strip_timing
    text = json.dumps(strip_timing(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def verify_digest_view(report):
    """The part of a verify report that must not change: no command echo
    (it holds run-specific paths) and no tool version."""
    return {k: report[k] for k in ("catalog", "suites", "status")}


def hunt_digest_view(report):
    return {k: report[k] for k in ("property", "max_size", "candidates_examined", "matches")}


def load_reference(path=REFERENCE_PATH):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
