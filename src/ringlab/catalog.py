"""Ring-spec grammar, element literals, and the default ring catalog.

Spec strings: ``Zn:<n>`` | ``M<k>:<spec>`` | ``T<k>:<spec>`` |
``prod:<spec>+<spec>[+...]`` | ``op:<spec>``. A ring is reused for its spec
string while it is alive. Catalog entries carry expected-property tags that
are always checked against the cached or freshly computed profile.
"""

from __future__ import annotations

import ast
import json
import re
import weakref
from dataclasses import dataclass, field

from .errors import LiteralParseError, SpecParseError
from .rings import (DEFAULT_SIZE_CAP, element_from_obj, element_repr, make_matrix_ring,
                    make_opposite, make_product, make_triangular_ring, make_zmod)

_RING_CACHE = weakref.WeakValueDictionary()

_INT_RE = re.compile(r"\d+")


def _parse_int(s, pos):
    m = _INT_RE.match(s, pos)
    if not m:
        raise SpecParseError("expected an integer", s, pos)
    return int(m.group()), m.end()


def _parse_spec(s, pos, size_cap):
    if s.startswith("Zn:", pos):
        n, end = _parse_int(s, pos + 3)
        return make_zmod(n, size_cap=size_cap), end
    if s.startswith("op:", pos):
        base, end = _parse_spec(s, pos + 3, size_cap)
        return make_opposite(base), end
    if s.startswith("prod:", pos):
        factors = []
        base, end = _parse_spec(s, pos + 5, size_cap)
        factors.append(base)
        while end < len(s) and s[end] == "+":
            base, end = _parse_spec(s, end + 1, size_cap)
            factors.append(base)
        return make_product(factors, size_cap=size_cap), end
    if pos < len(s) and s[pos] in "MT":
        kind = s[pos]
        k, end = _parse_int(s, pos + 1)
        if end >= len(s) or s[end] != ":":
            raise SpecParseError("expected ':' after the matrix dimension", s, end)
        base, end = _parse_spec(s, end + 1, size_cap)
        maker = make_matrix_ring if kind == "M" else make_triangular_ring
        return maker(k, base, size_cap=size_cap), end
    raise SpecParseError("expected one of Zn:, M<k>:, T<k>:, prod:, op:", s, pos)


def parse_ring_spec(s, size_cap=DEFAULT_SIZE_CAP):
    """Construct the ring named by a spec string, or return the live one."""
    key = (s, size_cap)
    ring = _RING_CACHE.get(key)
    if ring is not None:
        return ring
    ring, end = _parse_spec(s, 0, size_cap)
    if end != len(s):
        raise SpecParseError("unexpected trailing text", s, end)
    _RING_CACHE[key] = ring
    return ring


def parse_element(ring, text):
    """Parse an element literal: an integer for modular rings, row-major
    bracketed rows for matrix shapes, a parenthesised tuple for products."""
    try:
        obj = ast.literal_eval(text)
    except (ValueError, SyntaxError) as exc:
        raise LiteralParseError(f"cannot parse element literal {text!r}: {exc}") from exc
    return element_from_obj(ring, obj)


def format_element(ring, idx):
    return element_repr(ring, idx)


# -- catalog -------------------------------------------------------------------

KNOWN_TAGS = ("ssp", "sip", "ic", "sr1", "abelian", "unit-regular")


@dataclass(frozen=True)
class CatalogEntry:
    """A ring spec plus expected property tags; tags are re-verified on load."""

    spec: str
    tags: tuple
    provenance: dict = field(default_factory=dict)

    def to_json(self):
        return {"spec": self.spec, "tags": list(self.tags),
                "provenance": dict(self.provenance)}


def _entry(spec, tags, literature=()):
    provenance = {t: ("literature" if t in literature else "computed") for t in tags}
    return CatalogEntry(spec=spec, tags=tuple(tags), provenance=provenance)


def default_catalog():
    """Fixtures exercising every property suite at desk scale."""
    zn_tags = ("abelian", "ssp", "sip", "ic", "sr1")
    ur = ("unit-regular",)
    return [
        _entry("Zn:1", zn_tags + ur, literature=("abelian",)),
        _entry("Zn:2", zn_tags + ur, literature=("abelian",)),
        _entry("Zn:3", zn_tags + ur, literature=("abelian",)),
        _entry("Zn:4", zn_tags, literature=("abelian",)),
        _entry("Zn:6", zn_tags + ur, literature=("abelian",)),
        _entry("Zn:8", zn_tags, literature=("abelian",)),
        _entry("Zn:9", zn_tags, literature=("abelian",)),
        _entry("Zn:12", zn_tags, literature=("abelian",)),
        _entry("M2:Zn:2", ("ssp", "sip", "ic", "sr1", "unit-regular", "not-abelian")),
        _entry("M2:Zn:3", ("ssp", "sip", "ic", "sr1", "unit-regular", "not-abelian")),
        _entry("T2:Zn:3", ("not-ssp", "ic", "sr1", "not-abelian"), literature=("sr1",)),
        _entry("prod:Zn:2+Zn:3", zn_tags + ur),
        _entry("op:T2:Zn:3", ("not-ssp", "ic", "sr1", "not-abelian")),
    ]


def load_catalog(path):
    """Read a catalog file: a JSON list of {spec, tags, provenance?} objects."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    entries = []
    for item in data:
        entries.append(CatalogEntry(spec=item["spec"], tags=tuple(item.get("tags", ())),
                                    provenance=dict(item.get("provenance", {}))))
    return entries


def verify_entry_tags(entry, profile):
    """Compare stored tags against a profile's JSON form; returns mismatches."""
    mismatches = []
    for tag in entry.tags:
        negated = tag.startswith("not-")
        base = tag[4:] if negated else tag
        if base not in KNOWN_TAGS:
            raise ValueError(f"unknown catalog tag {base!r}")
        actual = bool(profile["unit_regular"] if base == "unit-regular"
                      else profile[base]["holds"])
        expected = not negated
        if actual != expected:
            mismatches.append({"tag": tag, "expected": expected, "actual": actual})
    return mismatches
