"""Ring-spec grammar, element literals, and the default ring catalog.

Spec strings: ``Zn:<n>`` | ``M<k>:<spec>`` | ``T<k>:<spec>`` |
``prod:<spec>+<spec>[+...]`` | ``op:<spec>``. A ring is reused for its spec
string while it is alive. Catalog entries carry expected-property tags that
are always checked against the cached or freshly computed profile.
"""

from __future__ import annotations

import ast
import json
import math
import re
import weakref
from dataclasses import dataclass, field

from .errors import LiteralParseError, SpecParseError
from .rings import (check_cap, element_from_obj, element_repr, make_matrix_ring,
                    make_opposite, make_product, make_triangular_ring, make_zmod)

_RING_CACHE = weakref.WeakValueDictionary()

_INT_RE = re.compile(r"\d+")


def _parse_int(s, pos):
    m = _INT_RE.match(s, pos)
    if not m:
        raise SpecParseError("expected an integer", s, pos)
    return int(m.group()), m.end()


def _parse_spec(s, pos):
    if s.startswith("Zn:", pos):
        n, end = _parse_int(s, pos + 3)
        return make_zmod(n), end
    if s.startswith("op:", pos):
        base, end = _parse_spec(s, pos + 3)
        return make_opposite(base), end
    if s.startswith("prod:", pos):
        factors, end = [], pos + 4  # at the ':' or '+' before each factor
        while not factors or (end < len(s) and s[end] == "+"):
            base, end = _parse_spec(s, end + 1)
            factors.append(base)
            # checked per factor, so none is built once the product is over the cap
            check_cap(math.prod(f.size for f in factors))
        return make_product(factors), end
    if pos < len(s) and s[pos] in "MT":
        kind = s[pos]
        k, end = _parse_int(s, pos + 1)
        if end >= len(s) or s[end] != ":":
            raise SpecParseError("expected ':' after the matrix dimension", s, end)
        base, end = _parse_spec(s, end + 1)
        maker = make_matrix_ring if kind == "M" else make_triangular_ring
        return maker(k, base), end
    raise SpecParseError("expected one of Zn:, M<k>:, T<k>:, prod:, op:", s, pos)


def parse_ring_spec(s):
    """Construct the ring named by a spec string, or return the live one."""
    ring = _RING_CACHE.get(s)
    if ring is not None:
        return ring
    try:
        ring, end = _parse_spec(s, 0)
    except RecursionError:
        raise SpecParseError("ring spec nested too deeply", s, 0) from None
    if end != len(s):
        raise SpecParseError("unexpected trailing text", s, end)
    _RING_CACHE[s] = ring
    return ring


def parse_element(ring, text):
    """Parse an element literal: an integer for modular rings, row-major
    bracketed rows for matrix shapes, a parenthesised tuple for products."""
    try:
        obj = ast.literal_eval(text)
    except (ValueError, SyntaxError) as exc:
        raise LiteralParseError(f"cannot parse element literal {text!r}: {exc}") from exc
    except (RecursionError, MemoryError):  # how the parser refuses very deep nesting
        raise LiteralParseError(f"element literal {text!r} is nested too deeply") from None
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


def _tag_base(tag):
    """(property name, negated) of a catalog tag such as "ssp" or "not-ssp";
    raises ValueError for a property outside KNOWN_TAGS."""
    negated = tag.startswith("not-")
    base = tag[4:] if negated else tag
    if base not in KNOWN_TAGS:
        raise ValueError(f"unknown catalog tag {base!r}")
    return base, negated


def load_catalog(path):
    """Read a catalog file: a JSON list of {spec, tags, provenance?} objects.

    Raises ValueError naming the first malformed entry's index, or the first
    unknown tag, before any ring is built."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"catalog {path} is nested too deeply to read") from None
    if not isinstance(data, list):
        raise ValueError(f"catalog {path} must be a JSON list of entries")
    entries = []
    for i, item in enumerate(data):
        if not (isinstance(item, dict) and isinstance(item.get("spec"), str)
                and isinstance(item.get("tags"), list)
                and all(isinstance(t, str) for t in item["tags"])
                and isinstance(item.get("provenance", {}), dict)):
            raise ValueError(f"catalog entry {i} must be an object with a string 'spec', "
                             f"a list of string 'tags' and an optional object 'provenance'")
        for tag in item["tags"]:
            _tag_base(tag)
        entries.append(CatalogEntry(spec=item["spec"], tags=tuple(item["tags"]),
                                    provenance=dict(item.get("provenance", {}))))
    return entries


def verify_entry_tags(entry, profile):
    """Compare stored tags against a profile's JSON form; returns mismatches."""
    mismatches = []
    for tag in entry.tags:
        base, negated = _tag_base(tag)
        actual = bool(profile["unit_regular"] if base == "unit-regular"
                      else profile[base]["holds"])
        expected = not negated
        if actual != expected:
            mismatches.append({"tag": tag, "expected": expected, "actual": actual})
    return mismatches
