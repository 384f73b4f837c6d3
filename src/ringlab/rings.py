"""Finite unital rings as explicit operation tables.

A ring is a pair of size x size index tables (addition, multiplication)
over the canonical element ordering 0..size-1, plus the indices of 0 and 1.
Constructors cover modular rings, full and upper-triangular matrix rings,
finite products, and opposite rings; each records a canonical spec string
so results are reproducible and reports self-describing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CapacityError, LiteralParseError, RingMismatchError

DEFAULT_SIZE_CAP = 4096


@dataclass(frozen=True)
class UnitSet:
    """The units of a ring together with their two-sided inverses."""

    members: frozenset
    inverse_map: dict

    def __contains__(self, idx):
        return idx in self.members

    def __len__(self):
        return len(self.members)

    def inverse(self, u):
        if u not in self.inverse_map:
            raise ValueError(f"element {u} is not a unit")
        return self.inverse_map[u]

    def sorted_members(self):
        return sorted(self.members)


@dataclass(eq=False)
class FiniteRing:
    """A finite unital ring given by complete operation tables.

    Tables are immutable after construction; every operation in the package
    is a pure function of them, so rings are safe to share across workers.
    """

    spec: str
    add_table: np.ndarray
    mul_table: np.ndarray
    zero: int
    one: int
    # construction descriptor, e.g. ("zmod", 6) or ("matrix", 2, base_ring);
    # drives element-literal encoding and pretty-printing
    form: tuple = field(repr=False)
    # results of @per_ring functions, freed with the ring
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.add_table = np.ascontiguousarray(self.add_table, dtype=np.int32)
        self.mul_table = np.ascontiguousarray(self.mul_table, dtype=np.int32)
        self.add_table.setflags(write=False)
        self.mul_table.setflags(write=False)

    # -- scalar arithmetic on element indices ------------------------------

    @property
    def size(self):
        return int(self.add_table.shape[0])

    def add(self, i, j):
        return int(self.add_table[i, j])

    def mul(self, i, j):
        return int(self.mul_table[i, j])

    def neg(self, i):
        return int(self.neg_table[i])

    def sub(self, i, j):
        return int(self.add_table[i, self.neg_table[j]])

    def one_minus(self, i):
        return self.sub(self.one, i)

    def minus_one(self):
        """Additive inverse of the identity (equals 1 in characteristic 2)."""
        return self.neg(self.one)

    def element(self, index):
        return RingElement(self, int(index))

    def elements(self):
        return range(self.size)

    @cached_property
    def neg_table(self):
        neg = np.argmax(self.add_table == self.zero, axis=1).astype(np.int32)
        neg.setflags(write=False)
        return neg

    # -- derived structure --------------------------------------------------

    @cached_property
    def units(self) -> UnitSet:
        hits = self.mul_table == self.one
        two_sided = hits & hits.T
        members = np.flatnonzero(two_sided.any(axis=1))
        inverse = {int(u): int(np.argmax(two_sided[u])) for u in members}
        return UnitSet(frozenset(int(u) for u in members), inverse)

    @cached_property
    def unit_flags(self) -> np.ndarray:
        flags = np.zeros(self.size, dtype=bool)
        flags[sorted(self.units.members)] = True
        flags.setflags(write=False)
        return flags

    @cached_property
    def idempotent_list(self):
        diag = self.mul_table[np.arange(self.size), np.arange(self.size)]
        return tuple(int(e) for e in np.flatnonzero(diag == np.arange(self.size)))

    def is_idempotent(self, e):
        return self.mul(e, e) == e

    @cached_property
    def is_commutative(self):
        return bool(np.array_equal(self.mul_table, self.mul_table.T))

    # -- ideal-shaped row/column caches -------------------------------------

    @cached_property
    def right_principal_sets(self):
        """right_principal_sets[a] = frozenset(aR)."""
        return tuple(frozenset(int(v) for v in np.unique(self.mul_table[a]))
                     for a in range(self.size))

    @cached_property
    def left_principal_sets(self):
        """left_principal_sets[a] = frozenset(Ra)."""
        return tuple(frozenset(int(v) for v in np.unique(self.mul_table[:, a]))
                     for a in range(self.size))

    @cached_property
    def right_masks(self):
        """right_masks[a] = aR as an int bitset over element indices."""
        return row_bitsets(self._membership(self.mul_table))

    @cached_property
    def left_masks(self):
        """left_masks[a] = Ra as an int bitset over element indices."""
        return row_bitsets(self._membership(self.mul_table.T))

    def _membership(self, rows):
        """Boolean matrix with [a, v] set iff v occurs in rows[a]."""
        hits = np.zeros((self.size, self.size), dtype=bool)
        hits[np.arange(self.size)[:, None], rows] = True
        return hits

    # -- exhaustive table checks --------------------------------------------

    def validate(self):
        """Check all ring axioms exhaustively; raise ValueError on the first failure.

        Associativity and distributivity are verified row by row to keep
        memory linear in size**2.
        """
        n = self.size
        a, m = self.add_table, self.mul_table
        rng = np.arange(n)
        if a.shape != (n, n) or m.shape != (n, n):
            raise ValueError("tables must be square and equally sized")
        for t in (a, m):
            if t.min() < 0 or t.max() >= n:
                raise ValueError("table entries must be element indices")
        if not np.array_equal(a, a.T):
            raise ValueError("addition is not commutative")
        if not np.array_equal(a[self.zero], rng):
            raise ValueError("zero is not an additive identity")
        if not (a == self.zero).any(axis=1).all():
            raise ValueError("some element has no additive inverse")
        if not np.array_equal(m[self.one], rng) or not np.array_equal(m[:, self.one], rng):
            raise ValueError("one is not a two-sided multiplicative identity")
        for i in range(n):
            if not np.array_equal(a[a[i]], a[i][a]):
                raise ValueError(f"addition is not associative (row {i})")
            if not np.array_equal(m[m[i]], m[i][m]):
                raise ValueError(f"multiplication is not associative (row {i})")
            # i*(j+k) == i*j + i*k  and  (i+j)*k == i*k + j*k
            if not np.array_equal(m[i][a], a[np.ix_(m[i], m[i])]):
                raise ValueError(f"left distributivity fails (row {i})")
            if not np.array_equal(m[a[i]], a[m[i][None, :], m]):
                raise ValueError(f"right distributivity fails (row {i})")
        return True


def row_bitsets(flags):
    """Each row of a boolean matrix as an int with bit j set iff flags[row, j]."""
    packed = np.packbits(flags, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def per_ring(fn):
    """Memoise fn(ring, *args, **kwargs) in the ring's own memo, so each
    result lives exactly as long as the ring it was computed for."""

    @functools.wraps(fn)
    def wrapper(ring, *args, **kwargs):
        key = (fn, args, tuple(kwargs.items()))
        if key not in ring._memo:
            ring._memo[key] = fn(ring, *args, **kwargs)
        return ring._memo[key]

    return wrapper


@per_ring
def summand_partners(ring, side):
    """For every element a, the idempotents e (in index order) with
    aR meet eR = 0, and those with aR (+) eR = R; side="left" uses Ra and Re.

    partners[a] = (disjoint, complements), computed once per principal ideal.
    """
    masks = ring.right_masks if side == "right" else ring.left_masks
    zero_mask = 1 << ring.zero
    by_ideal = {}
    for mask in set(masks):
        disjoint = tuple(e for e in ring.idempotent_list if mask & masks[e] == zero_mask)
        complements = tuple(e for e in disjoint
                            if mask.bit_count() * masks[e].bit_count() == ring.size)
        by_ideal[mask] = disjoint, complements
    return tuple(by_ideal[mask] for mask in masks)


@dataclass(frozen=True)
class RingElement:
    """An index into a ring's canonical element ordering, bound to that ring."""

    ring: FiniteRing
    index: int

    def _check(self, other):
        if not isinstance(other, RingElement):
            raise TypeError("expected a RingElement")
        if other.ring is not self.ring and other.ring.spec != self.ring.spec:
            raise RingMismatchError(
                f"elements of {self.ring.spec} and {other.ring.spec} are not comparable")
        return other

    def __add__(self, other):
        other = self._check(other)
        return RingElement(self.ring, self.ring.add(self.index, other.index))

    def __mul__(self, other):
        other = self._check(other)
        return RingElement(self.ring, self.ring.mul(self.index, other.index))

    def __neg__(self):
        return RingElement(self.ring, self.ring.neg(self.index))

    def __sub__(self, other):
        other = self._check(other)
        return RingElement(self.ring, self.ring.sub(self.index, other.index))

    def __eq__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        self._check(other)
        return self.index == other.index

    def __hash__(self):
        return hash((self.ring.spec, self.index))

    def __repr__(self):
        return f"<{element_repr(self.ring, self.index)} in {self.ring.spec}>"


# -- constructors ------------------------------------------------------------


def _check_cap(size, cap):
    if cap is not None and size > cap:
        raise CapacityError(size, cap)


def make_zmod(n, size_cap=DEFAULT_SIZE_CAP):
    """The ring of integers mod n with elements 0..n-1; spec "Zn:<n>"."""
    if n < 1:
        raise ValueError("modulus must be at least 1 (got 0)")
    _check_cap(n, size_cap)
    r = np.arange(n)
    add = np.add.outer(r, r) % n
    mul = np.multiply.outer(r, r) % n
    return FiniteRing(spec=f"Zn:{n}", add_table=add, mul_table=mul,
                      zero=0, one=1 % n, form=("zmod", n))


def _encode_digits(digits, radix):
    """Map (..., cells) digit arrays to indices, first digit most significant."""
    cells = digits.shape[-1]
    powers = radix ** np.arange(cells - 1, -1, -1, dtype=np.int64)
    return (digits.astype(np.int64) @ powers).astype(np.int32)


def _decode_digits(size, cells, radix):
    powers = radix ** np.arange(cells - 1, -1, -1, dtype=np.int64)
    idx = np.arange(size, dtype=np.int64)
    return ((idx[:, None] // powers[None, :]) % radix).astype(np.int32)


def positions(kind, k):
    """The stored (row, col) cells of a k x k "matrix" or "triangular" shape,
    in row-major order; cells off this support are identically zero."""
    if kind == "matrix":
        return [(i, j) for i in range(k) for j in range(k)]
    return [(i, j) for i in range(k) for j in range(i, k)]


def _matrix_shape_ring(kind, k, base, size_cap):
    """k x k matrices over `base` stored on positions(kind, k), enumerated
    lexicographically over the stored cells."""
    if k < 1:
        raise ValueError("matrix dimension must be at least 1")
    support = positions(kind, k)
    cells = len(support)
    size = base.size ** cells
    _check_cap(size, size_cap)
    digits = _decode_digits(size, cells, base.size)

    # full k x k entry grid with zeros off the support
    grid = np.full((size, k, k), base.zero, dtype=np.int32)
    for c, (i, j) in enumerate(support):
        grid[:, i, j] = digits[:, c]

    badd = base.add_table
    bmul = base.mul_table

    add_digits = np.empty((size, size, cells), dtype=np.int32)
    for c in range(cells):
        col = digits[:, c]
        add_digits[:, :, c] = badd[np.ix_(col, col)]
    add = _encode_digits(add_digits, base.size)

    mul_digits = np.empty((size, size, cells), dtype=np.int32)
    for c, (p, q) in enumerate(support):
        acc = np.full((size, size), base.zero, dtype=np.int32)
        for l in range(k):
            term = bmul[grid[:, p, l][:, None], grid[:, l, q][None, :]]
            acc = badd[acc, term]
        mul_digits[:, :, c] = acc
    mul = _encode_digits(mul_digits, base.size)

    one_digits = np.array([[base.one if i == j else base.zero for (i, j) in support]],
                          dtype=np.int32)
    one = int(_encode_digits(one_digits, base.size)[0])
    prefix = "M" if kind == "matrix" else "T"
    return FiniteRing(spec=f"{prefix}{k}:{base.spec}", add_table=add, mul_table=mul,
                      zero=0, one=one, form=(kind, k, base))


def make_matrix_ring(k, base, size_cap=DEFAULT_SIZE_CAP):
    """Full k x k matrices over `base`, enumerated row-major lexicographically."""
    return _matrix_shape_ring("matrix", k, base, size_cap)


def make_triangular_ring(k, base, size_cap=DEFAULT_SIZE_CAP):
    """Upper-triangular k x k matrices over `base`; lower cells stay zero."""
    return _matrix_shape_ring("triangular", k, base, size_cap)


def make_product(factors, size_cap=DEFAULT_SIZE_CAP):
    """Componentwise product of the given rings, mixed-radix element order."""
    if not factors:
        raise ValueError("product needs at least one factor")
    size = 1
    for f in factors:
        size *= f.size
    _check_cap(size, size_cap)

    sizes = [f.size for f in factors]
    weights = []
    w = size
    for s in sizes:
        w //= s
        weights.append(w)

    idx = np.arange(size, dtype=np.int64)
    comps = [((idx // weights[i]) % sizes[i]).astype(np.int32) for i in range(len(factors))]

    add = np.zeros((size, size), dtype=np.int64)
    mul = np.zeros((size, size), dtype=np.int64)
    for i, f in enumerate(factors):
        c = comps[i]
        add += f.add_table[np.ix_(c, c)].astype(np.int64) * weights[i]
        mul += f.mul_table[np.ix_(c, c)].astype(np.int64) * weights[i]

    one = sum(f.one * weights[i] for i, f in enumerate(factors))
    spec = "prod:" + "+".join(f.spec for f in factors)
    return FiniteRing(spec=spec, add_table=add, mul_table=mul,
                      zero=0, one=int(one), form=("product", tuple(factors)))


def make_opposite(ring):
    """Same elements and addition, multiplication reversed."""
    return FiniteRing(spec=f"op:{ring.spec}", add_table=ring.add_table,
                      mul_table=ring.mul_table.T.copy(), zero=ring.zero,
                      one=ring.one, form=("opposite", ring))


def units(ring) -> UnitSet:
    """All elements with a two-sided inverse."""
    return ring.units


def idempotents(ring):
    """All e with e*e == e, in index order."""
    return list(ring.idempotent_list)


# -- element literals --------------------------------------------------------


def element_to_obj(ring, idx):
    """Render an element index as plain data matching the ring's construction:
    an int for modular rings, nested row-major lists for matrix shapes,
    tuples for products."""
    kind = ring.form[0]
    if kind == "zmod":
        return int(idx)
    if kind in ("matrix", "triangular"):
        k, base = ring.form[1], ring.form[2]
        cells = positions(kind, k)
        digits = _decode_digits(ring.size, len(cells), base.size)[idx]
        rows = [[element_to_obj(base, base.zero) for _ in range(k)] for _ in range(k)]
        for c, (i, j) in enumerate(cells):
            rows[i][j] = element_to_obj(base, int(digits[c]))
        return rows
    if kind == "product":
        factors = ring.form[1]
        out = []
        rest = int(idx)
        for f in reversed(factors):
            out.append(element_to_obj(f, rest % f.size))
            rest //= f.size
        return tuple(reversed(out))
    if kind == "opposite":
        return element_to_obj(ring.form[1], idx)
    raise LiteralParseError(f"ring {ring.spec} has no literal form")


def element_from_obj(ring, obj):
    """Inverse of element_to_obj; integer entries are reduced mod n."""
    kind = ring.form[0]
    if kind == "zmod":
        if not isinstance(obj, int):
            raise LiteralParseError(f"expected an integer literal for {ring.spec}, got {obj!r}")
        return obj % ring.form[1]
    if kind in ("matrix", "triangular"):
        k, base = ring.form[1], ring.form[2]
        rows = list(obj)
        if len(rows) != k or any(len(list(r)) != k for r in rows):
            raise LiteralParseError(f"expected a {k}x{k} matrix literal for {ring.spec}")
        if kind == "triangular":
            for i in range(k):
                for j in range(i):
                    if element_from_obj(base, rows[i][j]) != base.zero:
                        raise LiteralParseError(
                            f"entry ({i},{j}) must be zero in the triangular ring {ring.spec}")
        digits = np.array([[element_from_obj(base, rows[i][j]) for (i, j) in positions(kind, k)]],
                          dtype=np.int32)
        return int(_encode_digits(digits, base.size)[0])
    if kind == "product":
        factors = ring.form[1]
        parts = tuple(obj)
        if len(parts) != len(factors):
            raise LiteralParseError(
                f"expected a {len(factors)}-tuple literal for {ring.spec}")
        idx = 0
        for f, p in zip(factors, parts):
            idx = idx * f.size + element_from_obj(f, p)
        return idx
    if kind == "opposite":
        return element_from_obj(ring.form[1], obj)
    raise LiteralParseError(f"ring {ring.spec} has no literal form")


def element_repr(ring, idx):
    """Canonical text form of an element (round-trips through literals)."""
    obj = element_to_obj(ring, idx)
    return _obj_repr(obj)


def _obj_repr(obj):
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, tuple):
        return "(" + ",".join(_obj_repr(p) for p in obj) + ")"
    return "[" + ",".join(_obj_repr(p) for p in obj) + "]"
