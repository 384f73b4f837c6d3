"""Finite unital rings as explicit operation tables.

A ring is a pair of size x size index tables (addition, multiplication)
over the canonical element ordering 0..size-1, plus the indices of 0 and 1.
Constructors cover modular rings, full and upper-triangular matrix rings,
finite products, and opposite rings; each records a canonical spec string
so results are reproducible and reports self-describing. The element
ordering of matrix shapes and products is the mixed-radix one that encode
and decode define. Matrix-shape tables and element literals are built
through them. A product's two tables, the factors' tables broadcast and
summed with their place weights, are built only when something first reads
them, and a product of more than FROM_FACTORS_ABOVE elements answers from its
factors: its negation, units, idempotents and regularity arrays are the
factors' arrays broadcast against one another in that order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CapacityError, LiteralParseError

DEFAULT_SIZE_CAP = 4096

# A product derives its arrays from its factors' arrays only above this size.
# On smaller ones computing every factor's arrays costs more than scanning the
# product's own tables: per product, `ic` and `ssp` alone broke even near 64
# elements, and with the tables read as well near 128.
FROM_FACTORS_ABOVE = 64


@dataclass(eq=False)
class FiniteRing:
    """A finite unital ring given by complete operation tables.

    Tables are immutable after construction; every operation in the package
    is a pure function of them, so rings are safe to share across workers.
    """

    spec: str
    # a product may pass None for both tables: they are then built on first
    # read, by __getattr__ (see factor_sum)
    add_table: np.ndarray = field(repr=False)
    mul_table: np.ndarray = field(repr=False)
    zero: int
    one: int
    # construction descriptor, e.g. ("zmod", 6) or ("matrix", 2, base_ring);
    # drives element-literal encoding and pretty-printing
    form: tuple = field(repr=False)
    # results of @per_ring functions, freed with the ring
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for name in ("add_table", "mul_table"):
            if getattr(self, name) is None:
                delattr(self, name)  # left for __getattr__
            else:
                setattr(self, name, _frozen_table(getattr(self, name)))

    def __getattr__(self, name):
        # called only for a missing attribute: a product's unbuilt table, or a
        # property that raised AttributeError, which a plain lookup raises again
        if name not in ("add_table", "mul_table"):
            return object.__getattribute__(self, name)
        factors = self.form[1]
        table = _frozen_table(factor_sum(factors, [getattr(f, name) for f in factors]))
        setattr(self, name, table)
        return table

    @cached_property
    def size(self):
        if self.form[0] == "product":
            return math.prod(f.size for f in self.form[1])
        return int(self.add_table.shape[0])

    # -- scalar arithmetic on element indices ------------------------------

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

    def elements(self):
        return range(self.size)

    @cached_property
    def neg_table(self):
        if from_factors(self):
            factors = self.form[1]
            neg = factor_sum(factors, [f.neg_table for f in factors])
        else:
            neg = np.argmax(self.add_table == self.zero, axis=1).astype(np.int32)
        neg.setflags(write=False)
        return neg

    # -- derived structure --------------------------------------------------

    @cached_property
    def unit_inverse(self) -> np.ndarray:
        """unit_inverse[u] = the two-sided inverse of u, or -1 when u is not a
        unit: the representation of the units every command path reads."""
        if from_factors(self):
            factors = self.form[1]
            inverse = np.where(factor_all([f.unit_flags for f in factors]),
                               factor_sum(factors, [f.unit_inverse for f in factors]), -1)
        else:
            # a finite ring is Dedekind-finite (uv = 1 gives vu = 1), so a
            # row's one-sided hit is already the two-sided inverse
            hits = self.mul_table == self.one
            inverse = np.where(hits.any(axis=1), hits.argmax(axis=1), -1)
        inverse = inverse.astype(np.int32)
        inverse.setflags(write=False)
        return inverse

    @cached_property
    def unit_flags(self) -> np.ndarray:
        flags = self.unit_inverse >= 0
        flags.setflags(write=False)
        return flags

    @cached_property
    def units(self):
        """frozenset of the unit indices. A reference for the tests' oracles
        and the benchmark's set-up; nothing in the package reads it."""
        return frozenset(np.flatnonzero(self.unit_flags).tolist())

    @cached_property
    def idempotent_list(self):
        if from_factors(self):  # ascending, as encode's order is lexicographic
            factors = self.form[1]
            return tuple(factor_sum(factors, [np.array(f.idempotent_list)
                                              for f in factors]).tolist())
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
        """right_principal_sets[a] = frozenset(aR). A reference for the tests'
        oracles and the benchmark's set-up; nothing in the package reads it."""
        return tuple(frozenset(int(v) for v in np.unique(self.mul_table[a]))
                     for a in range(self.size))

    @cached_property
    def left_principal_sets(self):
        """left_principal_sets[a] = frozenset(Ra). A reference like
        right_principal_sets; no command path reads it."""
        return tuple(frozenset(int(v) for v in np.unique(self.mul_table[:, a]))
                     for a in range(self.size))

    @cached_property
    def right_masks(self):
        """right_masks[a] = aR as an int bitset over element indices: the
        membership representation every command path reads."""
        return row_bitsets(membership(self.mul_table, self.size))

    @cached_property
    def left_masks(self):
        """left_masks[a] = Ra as an int bitset over element indices."""
        return row_bitsets(membership(self.mul_table.T, self.size))

    @cached_property
    def summand_table(self):
        """{eR bitset: least idempotent e generating it}, one entry per direct
        summand of the right regular module, in idempotent index order."""
        table = {}
        for e in self.idempotent_list:
            table.setdefault(self.right_masks[e], e)
        return table

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


def _frozen_table(table):
    table = np.ascontiguousarray(table, dtype=np.int32)
    table.setflags(write=False)
    return table


def _outer(ufunc, arrays):
    """ufunc over arrays broadcast against one another, one per factor of a
    product: array i of k sits on axes (i, k+i, ...), one axis per dimension,
    so each dimension of the result, flattened, runs over the factors' digit
    tuples in encode's order."""
    k, d = len(arrays), arrays[0].ndim
    placed = []
    for i, a in enumerate(arrays):
        shape = [1] * (k * d)
        shape[i::k] = a.shape
        placed.append(a.reshape(shape))
    out = functools.reduce(ufunc, placed)
    return out.reshape([math.prod(out.shape[c * k:(c + 1) * k]) for c in range(d)])


def from_factors(ring):
    """Whether ring's derived arrays come from its factors' arrays."""
    return ring.form[0] == "product" and ring.size > FROM_FACTORS_ABOVE


def factor_sum(factors, arrays):
    """The product's array whose entries are the element indices with digits
    arrays[i]: each factor's array times its place weight, summed by _outer."""
    sizes = [f.size for f in factors]
    return _outer(np.add, [a * math.prod(sizes[i + 1:]) for i, a in enumerate(arrays)])


def factor_all(masks):
    """The product's mask that holds where every factor's mask holds."""
    return _outer(np.logical_and, masks)


def membership(rows, size):
    """Boolean matrix with [i, v] set iff v occurs in rows[i], for v < size."""
    hits = np.zeros((len(rows), size), dtype=bool)
    hits[np.arange(len(rows))[:, None], rows] = True
    return hits


def row_bitsets(flags):
    """Each row of a boolean matrix as an int with bit j set iff flags[row, j]."""
    packed = np.packbits(flags, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def bitset(values, size):
    """The int bitset of a sequence or array of element indices below size."""
    flags = np.zeros(size, dtype=bool)
    flags[np.asarray(values, dtype=np.intp)] = True
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def bits(mask):
    """The element indices set in an int bitset, ascending."""
    raw = np.frombuffer(mask.to_bytes((mask.bit_length() + 7) // 8, "little"), dtype=np.uint8)
    return tuple(np.flatnonzero(np.unpackbits(raw, bitorder="little")).tolist())


def per_ring(fn):
    """Memoise fn(ring, *args) in the ring's own memo, so each result lives
    exactly as long as the ring it was computed for."""

    @functools.wraps(fn)
    def wrapper(ring, *args):
        key = (fn, args)
        if key not in ring._memo:
            ring._memo[key] = fn(ring, *args)
        return ring._memo[key]

    return wrapper


@per_ring
def summand_partners(ring, side):
    """For every element a, the idempotents e (in index order) with
    aR (+) eR = R, its complements; side="left" uses Ra and Re instead.
    Computed once per principal ideal."""
    masks = ring.right_masks if side == "right" else ring.left_masks
    zero_mask = 1 << ring.zero
    by_ideal = {}
    for mask in set(masks):
        by_ideal[mask] = tuple(e for e in ring.idempotent_list
                               if mask & masks[e] == zero_mask
                               and mask.bit_count() * masks[e].bit_count() == ring.size)
    return tuple(by_ideal[mask] for mask in masks)


# -- constructors ------------------------------------------------------------


def check_cap(size):
    """Raise CapacityError when a ring of `size` elements exceeds the cap."""
    if size > DEFAULT_SIZE_CAP:
        raise CapacityError(size, DEFAULT_SIZE_CAP)


def encode(radices, digits):
    """The index of a digit sequence in the mixed-radix element order, first
    digit most significant. Digits are ints, or int32 arrays of one shape that
    are accumulated in place into a new array; from a generator, each digit
    array is freed before the next is made."""
    index = 0
    digits = iter(digits)
    for radix in radices:
        index *= radix
        index += next(digits)
    return index


def decode(radices, index):
    """The digits of an index (an int or an int32 array), inverse of encode."""
    digits = []
    for radix in reversed(radices):
        index, digit = divmod(index, radix)
        digits.append(digit)
    return digits[::-1]


def make_zmod(n):
    """The ring of integers mod n with elements 0..n-1; spec "Zn:<n>"."""
    if n < 1:
        raise ValueError(f"modulus must be at least 1 (got {n})")
    check_cap(n)
    r = np.arange(n, dtype=np.int32)
    # the circulant: row i is rr[i:i+n] = (i + j) mod n, a strided view of rr
    rr = np.concatenate((r, r))
    add = np.ndarray((n, n), dtype=np.int32, buffer=rr, strides=(rr.itemsize, rr.itemsize))
    mul = np.multiply.outer(r, r)
    mul %= n
    return FiniteRing(spec=f"Zn:{n}", add_table=add, mul_table=mul,
                      zero=0, one=1 % n, form=("zmod", n))


def positions(kind, k):
    """The stored (row, col) cells of a k x k "matrix" or "triangular" shape,
    in row-major order; cells off this support are identically zero."""
    if kind == "matrix":
        return [(i, j) for i in range(k) for j in range(k)]
    return [(i, j) for i in range(k) for j in range(i, k)]


def _matrix_shape_ring(kind, k, base):
    """k x k matrices over `base` stored on positions(kind, k), the first
    stored cell most significant."""
    if k < 1:
        raise ValueError("matrix dimension must be at least 1")
    stored = k * k if kind == "matrix" else k * (k + 1) // 2
    if stored > DEFAULT_SIZE_CAP:  # checked first: base.size ** stored may be vast
        raise ValueError(f"a {k}x{k} {kind} shape stores {stored} cells, "
                         f"more than the size cap of {DEFAULT_SIZE_CAP}")
    radices = [base.size] * stored
    size = math.prod(radices)
    check_cap(size)
    support = positions(kind, k)
    cells = decode(radices, np.arange(size, dtype=np.int32))
    entry = dict(zip(support, cells))
    badd, bmul = base.add_table, base.mul_table
    add = encode(radices, (badd[np.ix_(c, c)] for c in cells))

    # cell (p, q) of i*j depends on i only through row p and on j only
    # through column q: key both by their k-digit encodings (zero off the
    # support) and read the cell from one table of row-by-column products
    line = [base.size] * k
    row_key = [encode(line, [entry.get((p, l), base.zero) for l in range(k)]) for p in range(k)]
    col_key = [encode(line, [entry.get((l, q), base.zero) for l in range(k)]) for q in range(k)]
    dot = np.full((math.prod(line),) * 2, base.zero, dtype=np.int32)
    for v in decode(line, np.arange(math.prod(line), dtype=np.int32)):
        dot = badd[dot, bmul[np.ix_(v, v)]]
    mul = encode(radices, (dot[np.ix_(row_key[p], col_key[q])] for p, q in support))

    one = encode(radices, [base.one if i == j else base.zero for i, j in support])
    prefix = "M" if kind == "matrix" else "T"
    return FiniteRing(spec=f"{prefix}{k}:{base.spec}", add_table=add, mul_table=mul,
                      zero=0, one=one, form=(kind, k, base))


def make_matrix_ring(k, base):
    """Full k x k matrices over `base`, enumerated row-major lexicographically."""
    return _matrix_shape_ring("matrix", k, base)


def make_triangular_ring(k, base):
    """Upper-triangular k x k matrices over `base`; lower cells stay zero."""
    return _matrix_shape_ring("triangular", k, base)


def make_product(factors):
    """Componentwise product of the given rings, the first factor most
    significant. Its tables are built on first read."""
    if not factors:
        raise ValueError("product needs at least one factor")
    radices = [f.size for f in factors]
    check_cap(math.prod(radices))
    return FiniteRing(spec="prod:" + "+".join(f.spec for f in factors),
                      add_table=None, mul_table=None, zero=0,
                      one=encode(radices, [f.one for f in factors]),
                      form=("product", tuple(factors)))


def make_opposite(ring):
    """Same elements and addition, multiplication reversed."""
    return FiniteRing(spec=f"op:{ring.spec}", add_table=ring.add_table,
                      mul_table=ring.mul_table.T.copy(), zero=ring.zero,
                      one=ring.one, form=("opposite", ring))


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
        entry = dict(zip(cells, decode([base.size] * len(cells), int(idx))))
        return [[element_to_obj(base, entry.get((i, j), base.zero)) for j in range(k)]
                for i in range(k)]
    if kind == "product":
        factors = ring.form[1]
        digits = decode([f.size for f in factors], int(idx))
        return tuple(element_to_obj(f, d) for f, d in zip(factors, digits))
    if kind == "opposite":
        return element_to_obj(ring.form[1], idx)
    raise LiteralParseError(f"ring {ring.spec} has no literal form")


def element_from_obj(ring, obj):
    """Inverse of element_to_obj; integer entries are reduced mod n."""
    kind = ring.form[0]
    if kind == "zmod":
        if not isinstance(obj, int) or isinstance(obj, bool):
            raise LiteralParseError(f"expected an integer literal for {ring.spec}, got {obj!r}")
        return obj % ring.form[1]
    if kind in ("matrix", "triangular"):
        k, base = ring.form[1], ring.form[2]
        if not (isinstance(obj, (list, tuple)) and len(obj) == k
                and all(isinstance(row, (list, tuple)) and len(row) == k for row in obj)):
            raise LiteralParseError(f"expected a {k}x{k} matrix literal for {ring.spec}")
        if kind == "triangular":
            for i in range(k):
                for j in range(i):
                    if element_from_obj(base, obj[i][j]) != base.zero:
                        raise LiteralParseError(
                            f"entry ({i},{j}) must be zero in the triangular ring {ring.spec}")
        cells = positions(kind, k)
        return encode([base.size] * len(cells),
                      (element_from_obj(base, obj[i][j]) for i, j in cells))
    if kind == "product":
        factors = ring.form[1]
        if not isinstance(obj, (list, tuple)) or len(obj) != len(factors):
            raise LiteralParseError(
                f"expected a {len(factors)}-tuple literal for {ring.spec}")
        return encode([f.size for f in factors],
                      (element_from_obj(f, p) for f, p in zip(factors, obj)))
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
