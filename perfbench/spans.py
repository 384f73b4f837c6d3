"""Per-layer spans around ringlab's public functions, patched in from outside.

`installed(recorder)` wraps the functions listed in `_targets` wherever a
ringlab module binds them, plus the derived-table cached_properties of
FiniteRing and a few methods, then runs the caller's code unchanged: the
traced pass calls the same `ringlab.cli.main` commands and decompose calls as
the untraced one. On leaving, every original is put back.

Each wrapped call records a span: its id, the id of the span that caused it
(the innermost open one, or None), name, start and end (perf_counter_ns) and
its own time, which is its time minus the time of the wrapped calls inside
it, so nested calls are not counted twice. Work in functions that are not
wrapped (private helpers, the command loops) lands in the own time of the
nearest wrapped caller. Counters (rings built, Verdict.checked, cache hits,
...) are read from arguments and results after the call; their cost is kept
out of every span. Spans stay in memory until `dump` writes them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

MIB = 1 << 20


class Recorder:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []          # (id, parent id, name, start_ns, end_ns, own_ns)
        self.counts = Counter()
        self.gauges = {}         # values that are set, not summed
        self.specs = set()       # distinct ring specs parsed
        self._open = []          # per open span: [id, time of the spans inside it]
        self._next_id = 0
        self._seen = set()       # ids of memoised results already counted

    def wrap(self, fn, name, after=None):
        """`fn` with a span around each call. `name` is a string or a function
        of the call's arguments; `after(result, *args, **kwargs)` bumps
        counters and may raise nothing."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            self._open.append([self._next_id, 0])
            self._next_id += 1
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(label, start)
                self.counts[f"raised.{label}.{type(exc).__name__}"] += 1
                raise
            self._close(label, start)
            if after is not None:
                t = time.perf_counter_ns()
                after(result, *args, **kwargs)
                if self._open:  # keep the counter's cost out of the caller's own time
                    self._open[-1][1] += time.perf_counter_ns() - t
            return result

        return wrapper

    def _close(self, label, start):
        end = time.perf_counter_ns()
        span_id, inner = self._open.pop()
        parent = self._open[-1] if self._open else None
        if parent:
            parent[1] += end - start
        self.spans.append((span_id, parent[0] if parent else None, label, start, end,
                           end - start - inner))

    def once(self, result):
        """True the first time a memoised result is seen."""
        if id(result) in self._seen:
            return False
        self._seen.add(id(result))
        return True

    def dump(self, path):
        gauges = dict(self.gauges, **{"catalog.rings_examined": len(self.specs)})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts, "gauges": gauges}, fh)


def _sr1_visited(ring, verdict):
    """Pairs the sr1 scan visited: all n^2, or up to its counterexample."""
    if verdict.holds:
        return ring.size ** 2
    a, b = verdict.witness["pair"]
    return a * ring.size + b + 1


def _hom_candidates(A, B, require_iso=False, **_):
    """The generator-image candidates hom_search enumerates: |B|^|gens|."""
    if require_iso and len(A.members) != len(B.members):
        return 0
    return len(B.members) ** len(A.generators) if A.generators else 1


def _targets(rec):
    """(owner, attribute, span name, after) for every wrapped call. The owner
    is a module (the function is patched wherever ringlab binds it), a class
    (a method) or a cached_property of FiniteRing."""
    from ringlab import cache, catalog, classify, cli, decompose, elements, ideals, reports, rings
    c = rec.counts

    def built(ring, *_, **__):
        c["rings.rings_built"] += 1
        c["rings.table_mb"] += 2 * 4 * ring.size ** 2 / MIB

    def parsed(ring, spec, *_, **__):
        rec.specs.add(spec)

    def left_sets(sets, ring):
        c["classify.left_ideal_classes"] += len(set(sets))

    def checked(key):
        def after(verdict, ring, *_, **__):
            if rec.once(verdict):
                c[f"classify.{key}_checked"] += verdict.checked
                if key == "sr1":
                    c["classify.sr1_pairs_visited"] += _sr1_visited(ring, verdict)
        return after

    def cache_get(value, *_):
        c["cache.misses" if value is None else "cache.hits"] += 1

    def cache_saved(_, cache_obj):
        if os.path.exists(cache_obj.path):
            rec.gauges["cache.file_mb"] = os.path.getsize(cache_obj.path) / MIB

    def solved(*_):
        c["decompose.pairs"] += 1

    def homs(_, *args, **kwargs):
        c["ideals.hom_candidates"] += _hom_candidates(*args, **kwargs)

    props = lambda attr: ("property", rings.FiniteRing, attr)  # noqa: E731
    return [
        (catalog, "parse_ring_spec", "rings.build", parsed),
        *[(rings, maker, "rings.build", built)
          for maker in ("make_zmod", "make_matrix_ring", "make_triangular_ring",
                        "make_product", "make_opposite")],
        (props("neg_table"), None, "rings.units", None),
        (props("units"), None, "rings.units", None),
        (props("unit_flags"), None, "rings.units", None),
        (props("idempotent_list"), None, "rings.idempotents", None),
        (props("right_principal_sets"), None, "rings.right_principal_sets", None),
        (props("left_principal_sets"), None, "rings.left_principal_sets", left_sets),
        (elements, "regularity_table", "elements.regularity_table", None),
        (elements, "unit_regularity_table", "elements.unit_regularity_table", None),
        (classify, "unimodular_matrix", "classify.unimodular_matrix", None),
        (classify, "is_ssp", "classify.ssp", checked("ssp")),
        (classify, "is_sip", "classify.sip", None),
        (classify, "is_ic", "classify.ic", None),
        (classify, "is_abelian", "classify.abelian", None),
        (classify, "has_stable_range_1", "classify.sr1", checked("sr1")),
        (classify, "idem_sr_condition", "classify.idem_sr", checked("idem_sr")),
        (classify, "product_regular_condition", "classify.product_regular", None),
        (classify, "ring_profile", "classify.ring_profile", None),
        (classify, "theorem_suite", lambda ring, which: f"classify.suite.{which}", None),
        (ideals, "direct_complements", "ideals.direct_complements", None),
        (ideals, "hom_search", "ideals.hom_search", homs),
        (ideals, "graph_module", "ideals.graph_module", None),
        (ideals, "common_complement_idempotent", "ideals.common_complement", None),
        (decompose, "solve_unimodular", "decompose.solve", solved),
        (decompose, "verify_trace", "decompose.verify", None),
        (decompose.ConstructionTrace, "to_json", "decompose.to_json", None),
        (catalog, "load_catalog", "catalog.parse", None),
        (cache.ResultCache, "get", "cache.get", cache_get),
        (cache.ResultCache, "put", "cache.put", None),
        (cache.ResultCache, "save", "cache.save", cache_saved),
        (reports, "render_json", "reports.render_json", None),
        (cli, "main", "cli.main", None),
    ]


def _ringlab_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "ringlab" or n.startswith("ringlab."))]


@contextmanager
def installed(rec):
    """Wrap every target while the block runs; restore the originals after."""
    import ringlab.cli  # noqa: F401  (every module that binds a target is loaded)
    undo = []
    try:
        for owner, attr, name, after in _targets(rec):
            if isinstance(owner, tuple):          # a cached_property of FiniteRing
                prop = vars(owner[1])[owner[2]]
                undo.append((prop, "func", prop.func))
                prop.func = rec.wrap(prop.func, name, after)
            elif isinstance(owner, type):         # a method
                original = vars(owner)[attr]
                undo.append((owner, attr, original))
                setattr(owner, attr, rec.wrap(original, name, after))
            else:                                 # a function, wherever it is bound
                original = getattr(owner, attr)
                wrapper = rec.wrap(original, name, after)
                for module in _ringlab_modules():
                    for key, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, key, original))
                            setattr(module, key, wrapper)
        yield rec
    finally:
        for target, key, original in reversed(undo):
            setattr(target, key, original)
