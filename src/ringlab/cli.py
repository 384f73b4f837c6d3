"""Command-line interface: classify, decompose, verify, hunt.

Exit codes: 0 when every assertion in the run passed, 1 when an assertion
failed (the report carries the witnesses), 2 for usage, parse, or capacity
errors and for inputs outside a command's hypotheses (decompose needs a ring
with ssp and ic, and a regular unimodular pair). All subcommands share
--format table|json|csv and --cache/--no-cache; verify also takes --jobs.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor

from . import __version__
from .cache import NullCache, ResultCache, default_cache_path
from .catalog import (default_catalog, format_element, load_catalog, parse_element,
                      parse_ring_spec, verify_entry_tags)
from .classify import (SUITE_NAMES, has_stable_range_1, is_abelian, is_ic, is_sip,
                       is_ssp, ring_profile, theorem_suite)
from .decompose import solve_unimodular, verify_trace
from .errors import (CapacityError, ConstructionAbort, HypothesisViolation,
                     InvariantViolation, LiteralParseError, SpecParseError)
from .reports import (decompose_rows, hunt_rows, is_complete, profile_rows, render_csv,
                      render_json, render_table, suite_rows, tag_rows)
from .rings import DEFAULT_SIZE_CAP

PROPERTY_GETTERS = {
    "ssp": lambda ring: bool(is_ssp(ring).holds),
    "sip": lambda ring: bool(is_sip(ring).holds),
    "ic": lambda ring: bool(is_ic(ring).holds),
    "sr1": lambda ring: bool(has_stable_range_1(ring).holds),
    "abelian": lambda ring: bool(is_abelian(ring).holds),
}


# -- property expressions for hunt ---------------------------------------------


MAX_PROPERTY_DEPTH = 200  # Python's parser refuses more nested parentheses
_BINARY_KINDS = {ast.BitAnd: "and", ast.BitOr: "or"}


def parse_property_expr(text):
    """Boolean grammar over {ssp, sip, ic, sr1, abelian} with !, &, | and parens:
    the precedence and left grouping of Python's ~, & and |, so Python parses it."""
    bad = re.search(r"[^\sA-Za-z0-9_&|!()]", text)
    if bad:
        raise ValueError(f"unexpected character {bad.group()!r} in property expression")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a number run into a name ("1or") warns
            tree = ast.parse(" ".join(text.split()).replace("!", "~"), mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"malformed property expression: {exc.msg}") from None
    except (RecursionError, MemoryError):  # how the parser refuses very deep nesting
        raise ValueError("malformed property expression: nested too deeply") from None
    return _property_tree(tree.body, 1)


def _property_tree(node, depth):
    """The tuple tree of a parsed expression; the depth bound keeps this walk
    and eval_property_expr within the interpreter's recursion limit."""
    if depth > MAX_PROPERTY_DEPTH:
        raise ValueError(f"property expression nested deeper than {MAX_PROPERTY_DEPTH} levels")
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Invert):
        return ("not", _property_tree(node.operand, depth + 1))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY_KINDS:
        return (_BINARY_KINDS[type(node.op)], _property_tree(node.left, depth + 1),
                _property_tree(node.right, depth + 1))
    if not isinstance(node, ast.Name):
        raise ValueError("malformed property expression")
    if node.id not in PROPERTY_GETTERS:
        raise ValueError(f"unknown property {node.id!r}; expected one of "
                         f"{sorted(PROPERTY_GETTERS)}")
    return ("var", node.id)


def eval_property_expr(node, ring, seen):
    kind = node[0]
    if kind == "var":
        name = node[1]
        if name not in seen:
            seen[name] = PROPERTY_GETTERS[name](ring)
        return seen[name]
    if kind == "not":
        return not eval_property_expr(node[1], ring, seen)
    if kind == "and":
        return eval_property_expr(node[1], ring, seen) and eval_property_expr(node[2], ring, seen)
    return eval_property_expr(node[1], ring, seen) or eval_property_expr(node[2], ring, seen)


# -- command implementations -----------------------------------------------------


def _base_report(command):
    return {"tool": {"name": "ringlab", "version": __version__},
            "command": list(command)}


def _cached(cache, spec, operation):
    """The cached entry, or None (a miss, so it is recomputed and overwritten)
    when there is none or it lacks a key its report reads."""
    entry = cache.get(spec, operation)
    return entry if entry is not None and is_complete(entry, operation) else None


def run_classify(spec, cache=None):
    cache = cache or NullCache()
    ring = parse_ring_spec(spec)
    profile = _cached(cache, spec, "profile")
    if profile is None:
        profile = ring_profile(ring)
        cache.put(spec, "profile", profile)
    return {"profiles": [profile]}


def run_decompose(spec, element_text, b_text=None):
    ring = parse_ring_spec(spec)
    a = parse_element(ring, element_text)
    b = parse_element(ring, b_text) if b_text is not None else ring.minus_one()
    # the construction is proved only on SSP rings with IC; elsewhere a step
    # may find no candidate, which is a hypothesis violation, not a defect
    for name, verdict in (("summand-sum closed (ssp)", is_ssp(ring)),
                          ("internally cancellable (ic)", is_ic(ring))):
        if not verdict.holds:
            raise HypothesisViolation(f"{spec} is not {name}; the construction "
                                      f"needs both ssp and ic")
    trace = solve_unimodular(ring, a, b)
    verification = verify_trace(trace)
    return {
        "ring": spec,
        "element": {"index": a, "literal": format_element(ring, a)},
        "b": {"index": b, "literal": format_element(ring, b)},
        "decomposition": {
            "idempotent": trace.e,
            "idempotent_literal": format_element(ring, trace.e),
            "unit": trace.unit,
            "unit_literal": format_element(ring, trace.unit),
        },
        "trace": trace.to_json(),
        "verification": verification,
    }


def _entry_work(task):
    """Per-ring worker: compute the profile and the requested suites, and
    time them where they run."""
    start = time.perf_counter()
    spec, suites = task
    ring = parse_ring_spec(spec)
    profile = ring_profile(ring)
    suite_reports = {name: theorem_suite(ring, name) for name in suites}
    return spec, profile, suite_reports, time.perf_counter() - start


def run_verify(suite, entries=None, cache=None, jobs=1):
    cache = cache or NullCache()
    entries = entries if entries is not None else default_catalog()
    if suite == "all":
        suites = list(SUITE_NAMES)
    elif suite in SUITE_NAMES:
        suites = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}; expected 'all' or one of {SUITE_NAMES}")

    timing = {}
    results = {}  # spec -> (profile JSON, {suite name: report})
    needed = []
    for entry in entries:
        profile = _cached(cache, entry.spec, "profile")
        reports = {name: _cached(cache, entry.spec, f"suite:{name}") for name in suites}
        if profile is None or None in reports.values():
            needed.append((entry.spec, tuple(suites)))
        else:
            results[entry.spec] = profile, reports

    if needed and jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            computed = list(pool.map(_entry_work, needed))
    else:
        computed = map(_entry_work, needed)
    for spec, profile, reports, elapsed in computed:
        timing[spec] = elapsed
        results[spec] = profile, reports
        cache.put(spec, "profile", profile)
        for name, rep in reports.items():
            cache.put(spec, f"suite:{name}", rep)

    catalog_section = []
    suite_section = []
    ok = True
    for entry in entries:
        profile_json, suite_reports = results[entry.spec]
        mismatches = verify_entry_tags(entry, profile_json)
        if mismatches:
            ok = False
        catalog_section.append({
            "spec": entry.spec,
            "tags": list(entry.tags),
            "provenance": dict(entry.provenance),
            "tags_verified": not mismatches,
            "mismatches": mismatches,
        })
        for name in suites:
            rep = suite_reports[name]
            suite_section.append(rep)
            if rep["equivalent"] is False:
                ok = False

    return {"catalog": catalog_section, "suites": suite_section,
            "status": "pass" if ok else "fail", "timing": timing}, ok


def _hunt_candidates(max_size):
    specs = []
    for entry in default_catalog():
        specs.append(entry.spec)
    for n in range(1, max_size + 1):
        specs.append(f"Zn:{n}")
    for k in (2, 3):
        n = 2
        while n ** (k * k) <= max_size:
            specs.append(f"M{k}:Zn:{n}")
            n += 1
        n = 2
        while n ** (k * (k + 1) // 2) <= max_size:
            specs.append(f"T{k}:Zn:{n}")
            n += 1
    for i in range(2, max_size + 1):
        for j in range(i, max_size // i + 1):
            specs.append(f"prod:Zn:{i}+Zn:{j}")
    return list(dict.fromkeys(specs))


def run_hunt(expr_text, max_size):
    node = parse_property_expr(expr_text)
    matches = []
    examined = 0
    for spec in _hunt_candidates(max_size):
        ring = parse_ring_spec(spec)
        if ring.size > max_size:
            continue
        examined += 1
        seen = {}
        if eval_property_expr(node, ring, seen):
            matches.append({"spec": spec, "size": ring.size,
                            "properties": dict(sorted(seen.items()))})
    return {"property": expr_text, "max_size": max_size,
            "candidates_examined": examined, "matches": matches}


# -- argument parsing and dispatch -----------------------------------------------


def _positive_int(text):
    """argparse type of the counts that must be at least 1 (--jobs, --max-size)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _hunt_max_size(text):
    """argparse type of hunt's --max-size: a count from 1 to the size cap, so
    that no candidate past the cap is ever listed."""
    value = _positive_int(text)
    if value > DEFAULT_SIZE_CAP:
        raise argparse.ArgumentTypeError(f"must be at most the size cap of "
                                         f"{DEFAULT_SIZE_CAP}, got {value}")
    return value


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "json", "csv"), default="table")
    common.add_argument("--cache", default=None, help="path of the result cache file")
    common.add_argument("--no-cache", action="store_true", help="disable the result cache")

    parser = argparse.ArgumentParser(prog="ringlab",
                                     description="finite-ring classification and "
                                                 "constructive decompositions")
    parser.add_argument("--version", action="version", version=f"ringlab {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("classify", parents=[common],
                       help="compute the full property profile of one ring")
    p.add_argument("--ring", required=True, help="ring spec, e.g. Zn:6 or M2:Zn:2")

    p = sub.add_parser("decompose", parents=[common],
                       help="run the constructive decomposition for one element")
    p.add_argument("--ring", required=True)
    p.add_argument("--element", required=True, help="element literal, e.g. 3 or [[1,1],[0,0]]")
    p.add_argument("--b", default=None, help="second element literal (default: -1, "
                                             "which yields a special clean decomposition)")

    p = sub.add_parser("verify", parents=[common],
                       help="run equivalence suites over the ring catalog")
    p.add_argument("--suite", default="all", help=f"one of {('all',) + SUITE_NAMES}")
    p.add_argument("--catalog", default=None, help="path of a JSON catalog file")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="parallel workers for per-ring scans")

    p = sub.add_parser("hunt", parents=[common],
                       help="search rings matching a property expression")
    p.add_argument("--property", required=True, dest="property_expr",
                   help="expression over ssp, sip, ic, sr1, abelian with !, &, |")
    p.add_argument("--max-size", type=_hunt_max_size, required=True)
    return parser


def _make_cache(args):
    if args.no_cache:
        return NullCache()
    path = args.cache or default_cache_path()
    return ResultCache(path, __version__)


def _emit(args, report, *make_rows):
    """Write the report; each of make_rows returns (headers, rows) and is
    called only for the table and csv formats (csv writes the first)."""
    if args.format == "json":
        sys.stdout.write(render_json(report))
    elif args.format == "csv":
        sys.stdout.write(render_csv(*make_rows[0]()))
    else:
        parts = [render_table(*rows()) for rows in make_rows]
        sys.stdout.write("\n".join(parts))


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    command_echo = list(argv) if argv is not None else sys.argv[1:]
    cache = _make_cache(args)

    start = time.perf_counter()
    timing = {}
    try:
        if args.cmd == "classify":
            section = run_classify(args.ring, cache)
            ok = True
            make_rows = [lambda: profile_rows(section["profiles"][0])]
        elif args.cmd == "decompose":
            section = run_decompose(args.ring, args.element, args.b)
            ok = section["verification"]["all_passed"]
            make_rows = [lambda: decompose_rows(section)]
        elif args.cmd == "verify":
            entries = load_catalog(args.catalog) if args.catalog else None
            section, ok = run_verify(args.suite, entries, cache, jobs=args.jobs)
            timing["per_ring_s"] = section.pop("timing")
            make_rows = [lambda: suite_rows(section["suites"]),
                         lambda: tag_rows(section["catalog"])]
        else:  # hunt
            section = run_hunt(args.property_expr, args.max_size)
            ok = True
            make_rows = [lambda: hunt_rows(section["matches"])]
        report = _base_report(command_echo)
        report.update(section)
        report["status"] = "pass" if ok else "fail"
        report["timing"] = {"total_s": time.perf_counter() - start, **timing}
        _emit(args, report, *make_rows)
        cache.save()

    except (SpecParseError, LiteralParseError, CapacityError,
            HypothesisViolation, ValueError, OSError) as exc:
        print(f"ringlab: error: {exc}", file=sys.stderr)
        return 2
    except (ConstructionAbort, InvariantViolation) as exc:
        print(f"ringlab: assertion failure: {exc}", file=sys.stderr)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
