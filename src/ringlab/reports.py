"""Report assembly and rendering (table for humans, JSON and CSV for machines).

JSON output is deterministic: keys sorted, lists in scan order, and all
wall-clock measurements confined to "timing" keys so byte comparison modulo
timing is a single key removal.
"""

from __future__ import annotations

import csv
import io
import json


def render_json(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def strip_timing(obj):
    """Recursively drop every "timing" key; used for run-to-run comparisons."""
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k != "timing"}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def render_csv(headers, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def render_table(headers, rows):
    cells = [list(map(str, headers))] + [list(map(str, r)) for r in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    out = []
    for k, row in enumerate(cells):
        out.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if k == 0:
            out.append("  ".join("-" * w for w in widths))
    return "\n".join(out) + "\n"


def _fmt(v):
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "yes" if v else "no"
    return v


PROFILE_VERDICTS = ("ssp", "sip", "ic", "abelian", "sr1",
                    "idem_sr_condition", "product_regular_condition")


def is_complete(entry, operation):
    """Whether a profile or suite:<name> entry holds every key that its rows
    and the catalog's tag check read."""
    if operation == "profile":
        return ({"ring", "unit_regular"} <= entry.keys()
                and all(isinstance(entry.get(p), dict) and "holds" in entry[p]
                        for p in PROFILE_VERDICTS))
    return ({"ring", "result", "equivalent", "witnesses"} <= entry.keys()
            and isinstance(entry.get("conditions"), dict))


def profile_rows(profile_json):
    rows = []
    ring = profile_json["ring"]
    for prop in PROFILE_VERDICTS:
        v = profile_json[prop]
        rows.append([ring, prop, _fmt(v["holds"]), v.get("checked", 0),
                     json.dumps(v.get("witness")) if v.get("witness") else ""])
    rows.append([ring, "unit_regular", _fmt(profile_json["unit_regular"]), "", ""])
    return ["ring", "property", "holds", "checked", "witness"], rows


def suite_rows(suite_reports):
    rows = []
    for rep in suite_reports:
        conds = rep["conditions"]
        rows.append([
            rep["ring"], rep["result"], _fmt(rep.get("hypothesis_met")),
            " ".join(f"{k}={_fmt(v)}" for k, v in sorted(conds.items())),
            _fmt(rep["equivalent"]),
            json.dumps(rep["witnesses"]) if rep["witnesses"] else "",
        ])
    return ["ring", "suite", "hypothesis_met", "conditions", "equivalent", "witnesses"], rows


def tag_rows(catalog_section):
    rows = []
    for item in catalog_section:
        rows.append([item["spec"], " ".join(item["tags"]),
                     _fmt(item["tags_verified"]),
                     json.dumps(item["mismatches"]) if item["mismatches"] else ""])
    return ["ring", "tags", "verified", "mismatches"], rows


def hunt_rows(matches):
    rows = []
    for m in matches:
        props = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(m["properties"].items()))
        rows.append([m["spec"], m["size"], props])
    return ["ring", "size", "properties"], rows


def decompose_rows(report):
    trace = report["trace"]
    rows = [
        ["ring", report["ring"]],
        ["element", f"{report['element']['literal']} (index {report['element']['index']})"],
        ["b", f"{report['b']['literal']} (index {report['b']['index']})"],
        ["reflexive_inverse", trace["reflexive_inverse"]],
        ["idempotent_e", f"{report['decomposition']['idempotent_literal']} "
                         f"(index {trace['projection_idempotent_e']})"],
        ["unit", f"{report['decomposition']['unit_literal']} (index {trace['unit']})"],
        ["kernel_size", len(trace["kernel"]["members"])],
        ["cokernel_size", len(trace["cokernel"]["members"])],
        ["all_checks_passed", _fmt(report["verification"]["all_passed"])],
    ]
    failed = [k for k, v in report["verification"]["checks"].items() if not v]
    if failed:
        rows.append(["failed_checks", " ".join(failed)])
    return ["field", "value"], rows
