"""Command-line interface: classify, decompose, verify, hunt.

Exit codes: 0 when every assertion in the run passed, 1 when an assertion
failed (the report carries the witnesses), 2 for usage, parse, or capacity
errors. All subcommands share --format table|json|csv, --cache/--no-cache,
and --jobs.
"""

from __future__ import annotations

import argparse
import sys
import time
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
from .reports import (decompose_rows, hunt_rows, profile_rows, render_csv,
                      render_json, render_table, suite_rows, tag_rows)

PROPERTY_GETTERS = {
    "ssp": lambda ring: bool(is_ssp(ring).holds),
    "sip": lambda ring: bool(is_sip(ring).holds),
    "ic": lambda ring: bool(is_ic(ring).holds),
    "sr1": lambda ring: bool(has_stable_range_1(ring).holds),
    "abelian": lambda ring: bool(is_abelian(ring).holds),
}


# -- property expressions for hunt ---------------------------------------------


def parse_property_expr(text):
    """Boolean grammar over {ssp, sip, ic, sr1, abelian} with !, &, | and parens."""
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "&|!()":
            tokens.append(c)
            i += 1
        elif c.isalnum() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise ValueError(f"unexpected character {c!r} in property expression")
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"malformed property expression near token {pos}")
        pos += 1
        return tok

    def parse_or():
        node = parse_and()
        while peek() == "|":
            take()
            node = ("or", node, parse_and())
        return node

    def parse_and():
        node = parse_not()
        while peek() == "&":
            take()
            node = ("and", node, parse_not())
        return node

    def parse_not():
        if peek() == "!":
            take()
            return ("not", parse_not())
        if peek() == "(":
            take()
            node = parse_or()
            take(")")
            return node
        name = take()
        if name not in PROPERTY_GETTERS:
            raise ValueError(f"unknown property {name!r}; expected one of "
                             f"{sorted(PROPERTY_GETTERS)}")
        return ("var", name)

    node = parse_or()
    if pos != len(tokens):
        raise ValueError("trailing tokens in property expression")
    return node


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


def run_classify(spec, cache=None):
    cache = cache or NullCache()
    ring = parse_ring_spec(spec)
    profile = cache.get(spec, "profile")
    if profile is None:
        profile = ring_profile(ring).to_json()
        cache.put(spec, "profile", profile)
    return {"profiles": [profile]}


def run_decompose(spec, element_text, b_text=None):
    ring = parse_ring_spec(spec)
    a = parse_element(ring, element_text)
    b = parse_element(ring, b_text) if b_text is not None else ring.minus_one()
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
    """Per-ring worker: compute the profile and the requested suites."""
    spec, suites = task
    ring = parse_ring_spec(spec)
    profile = ring_profile(ring).to_json()
    suite_reports = {name: theorem_suite(ring, name) for name in suites}
    return spec, profile, suite_reports


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
        profile = cache.get(entry.spec, "profile")
        reports = {name: cache.get(entry.spec, f"suite:{name}") for name in suites}
        if profile is None or None in reports.values():
            needed.append((entry.spec, tuple(suites)))
        else:
            results[entry.spec] = profile, reports

    if needed and jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            computed = list(pool.map(_entry_work, needed))
    else:
        computed = []
        for task in needed:
            start = time.perf_counter()
            computed.append(_entry_work(task))
            timing[task[0]] = time.perf_counter() - start
    for spec, profile, reports in computed:
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
        for j in range(i, max_size + 1):
            if i * j <= max_size:
                specs.append(f"prod:Zn:{i}+Zn:{j}")
    seen = set()
    ordered = []
    for s in specs:
        if s not in seen:
            seen.add(s)
            ordered.append(s)
    return ordered


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


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "json", "csv"), default="table")
    common.add_argument("--cache", default=None, help="path of the result cache file")
    common.add_argument("--no-cache", action="store_true", help="disable the result cache")
    common.add_argument("--jobs", type=int, default=1, help="parallel workers for per-ring scans")

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

    p = sub.add_parser("hunt", parents=[common],
                       help="search rings matching a property expression")
    p.add_argument("--property", required=True, dest="property_expr",
                   help="expression over ssp, sip, ic, sr1, abelian with !, &, |")
    p.add_argument("--max-size", type=int, required=True)
    return parser


def _make_cache(args):
    if args.no_cache:
        return NullCache()
    path = args.cache or default_cache_path()
    return ResultCache(path, __version__)


def _emit(args, report, table_pieces):
    if args.format == "json":
        sys.stdout.write(render_json(report))
    elif args.format == "csv":
        headers, rows = table_pieces[0]
        sys.stdout.write(render_csv(headers, rows))
    else:
        parts = [render_table(headers, rows) for headers, rows in table_pieces]
        sys.stdout.write("\n".join(parts))


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    command_echo = list(argv) if argv is not None else sys.argv[1:]
    cache = _make_cache(args)

    try:
        if args.cmd == "classify":
            start = time.perf_counter()
            section = run_classify(args.ring, cache)
            report = _base_report(command_echo)
            report.update(section)
            report["status"] = "pass"
            report["timing"] = {"total_s": time.perf_counter() - start}
            _emit(args, report, [profile_rows(section["profiles"][0])])
            code = 0

        elif args.cmd == "decompose":
            start = time.perf_counter()
            section = run_decompose(args.ring, args.element, args.b)
            report = _base_report(command_echo)
            report.update(section)
            ok = section["verification"]["all_passed"]
            report["status"] = "pass" if ok else "fail"
            report["timing"] = {"total_s": time.perf_counter() - start}
            _emit(args, report, [decompose_rows(section)])
            code = 0 if ok else 1

        elif args.cmd == "verify":
            start = time.perf_counter()
            entries = load_catalog(args.catalog) if args.catalog else None
            section, ok = run_verify(args.suite, entries, cache, jobs=args.jobs)
            report = _base_report(command_echo)
            timing = section.pop("timing")
            report.update(section)
            report["timing"] = {"total_s": time.perf_counter() - start,
                                "per_ring_s": timing}
            _emit(args, report, [suite_rows(section["suites"]),
                                 tag_rows(section["catalog"])])
            code = 0 if ok else 1

        else:  # hunt
            start = time.perf_counter()
            section = run_hunt(args.property_expr, args.max_size)
            report = _base_report(command_echo)
            report.update(section)
            report["status"] = "pass"
            report["timing"] = {"total_s": time.perf_counter() - start}
            _emit(args, report, [hunt_rows(section["matches"])])
            code = 0

    except (SpecParseError, LiteralParseError, CapacityError,
            HypothesisViolation, ValueError, OSError) as exc:
        print(f"ringlab: error: {exc}", file=sys.stderr)
        return 2
    except (ConstructionAbort, InvariantViolation) as exc:
        print(f"ringlab: assertion failure: {exc}", file=sys.stderr)
        return 1

    cache.save()
    return code


if __name__ == "__main__":
    sys.exit(main())
