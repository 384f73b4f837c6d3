"""Right ideals of a finite ring, viewed as right modules.

An ideal is stored as an int bitset over element indices (the ring's own
membership representation, as in FiniteRing.right_masks) together with a
generator list, so equality, meets and direct-sum checks are int operations.
The mask-level lattice operations (an ideal's members, its least-index
generators, the mask of a sum of two ideals, the right annihilator of an
element) are pure functions of the ring's read-only tables and of int masks,
so they are memoised in the ring's own memo (rings.per_ring). Only masks of
right ideals enter it, so a ring with R right ideals and n elements holds at
most 2R + R^2 + n lattice entries.
A module homomorphism between ideals is stored as the tuple of the images of
its source's members in ascending order, so a map's image set is one bitset.
A generator assignment is extended by building the submodule it generates
in source x target with table lookups, one generator at a time, and a map
is validated for additivity and right-equivariance by comparing whole rows
of the operation tables through an index vector of the graph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, RingMismatchError, SearchBudgetExceeded
from .rings import FiniteRing, bits, bitset, per_ring

HOM_SEARCH_CANDIDATE_LIMIT = 10 ** 7


def _same_ring(a, b):
    if a.ring is not b.ring and a.ring.spec != b.ring.spec:
        raise RingMismatchError(f"ideals of {a.ring.spec} and {b.ring.spec} cannot be combined")
    return a.ring


def subgroup_sum(ring, p, q):
    """Bitset of P + Q = {x + y : x in P, y in Q}, given the members p and q
    of additive subgroups P and Q. Every caller adds a principal ideal to a
    subgroup, and the sum of two subgroups is already closed under +, so one
    gather of the addition table is the whole additive closure of P and Q."""
    return bitset(ring.add_table[np.asarray(p)[:, None], q], ring.size)


@per_ring
def ideal_members(ring, mask):
    """The members of a right ideal's bitset, ascending. Memoised per mask, so
    only masks of right ideals may be passed."""
    return bits(mask)


@per_ring
def minimal_generators(ring, mask):
    """Least-index greedy spanning subset of an ideal's member bitset; the
    span differs from the bitset exactly when it is not a right ideal, which
    raises and so leaves no memo entry. The mask is read with plain bits, so
    a mask that is not an ideal never enters the members memo either."""
    gens = []
    span = 1 << ring.zero
    for m in bits(mask):
        if not span >> m & 1:
            gens.append(m)
            span = subgroup_sum(ring, bits(span), bits(ring.right_masks[m]))
    if span != mask:
        raise InvariantViolation("member set is not closed as a right ideal")
    return tuple(gens)


@dataclass(frozen=True, eq=False)
class RightIdeal:
    """A subset closed under addition and right multiplication, with generators."""

    ring: FiniteRing
    mask: int
    generators: tuple

    @classmethod
    def from_members(cls, ring, members):
        mask = bitset(list(members), ring.size)
        return cls(ring, mask, minimal_generators(ring, mask))  # also the closure check

    @classmethod
    def zero_ideal(cls, ring):
        return cls(ring, 1 << ring.zero, ())

    @classmethod
    def full_ideal(cls, ring):
        return cls(ring, (1 << ring.size) - 1, (ring.one,))

    @property
    def sorted_members(self):
        return ideal_members(self.ring, self.mask)

    @property
    def members(self):
        """The members as a frozenset, built on each read; the package itself
        reads the mask or sorted_members."""
        return frozenset(self.sorted_members)

    def __len__(self):
        return self.mask.bit_count()

    def __contains__(self, idx):
        return bool(self.mask >> idx & 1)

    def __eq__(self, other):
        if not isinstance(other, RightIdeal):
            return NotImplemented
        return self.ring.spec == other.ring.spec and self.mask == other.mask

    def __hash__(self):
        return hash((self.ring.spec, self.mask))

    def __repr__(self):
        shown = list(self.sorted_members)
        if len(shown) > 12:
            shown = shown[:12] + ["..."]
        return f"RightIdeal({self.ring.spec}, size={len(self)}, members={shown})"

    def is_zero(self):
        return self.mask == 1 << self.ring.zero

    def is_full(self):
        return len(self) == self.ring.size

    def to_json(self):
        return {
            "ring": self.ring.spec,
            "generators": [int(g) for g in self.generators],
            "members": list(self.sorted_members),
        }


@dataclass(frozen=True, eq=False)
class ModuleHom:
    """An additive, right-equivariant map between right ideals: images[i] is
    the image of source.sorted_members[i]."""

    source: RightIdeal
    target: RightIdeal
    images: tuple

    def validate(self):
        """Raise InvariantViolation unless total, inside the target, additive
        and right-equivariant, naming the first failing (s, s2) or (s, r)."""
        ring = _same_ring(self.source, self.target)
        if len(self.images) != len(self.source):
            raise InvariantViolation("map is not total on its source")
        img = np.array(self.images)
        if img.min() < 0 or img.max() >= ring.size or bitset(img, ring.size) & ~self.target.mask:
            raise InvariantViolation("map image escapes its target")
        add, mul = ring.add_table, ring.mul_table
        src = np.array(self.source.sorted_members)
        graph = np.full(ring.size, -1, dtype=np.int32)
        graph[src] = img
        additive = graph[add[src[:, None], src]] == add[img[:, None], img]
        equivariant = graph[mul[src]] == mul[img]
        row_ok = additive.all(axis=1) & equivariant.all(axis=1)
        if not row_ok.all():
            i = int(np.argmin(row_ok))
            s = int(src[i])
            if not additive[i].all():
                s2 = int(src[np.argmin(additive[i])])
                raise InvariantViolation(f"map is not additive at ({s}, {s2})")
            r = int(np.argmin(equivariant[i]))
            raise InvariantViolation(f"map is not right-equivariant at ({s}, {r})")
        return True

    def is_bijective(self):
        return (len(self.images) == len(self.source) == len(self.target)
                and bitset(self.images, self.target.ring.size) == self.target.mask)

    def to_json(self):
        return {
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "pairs": [[int(s), int(t)] for s, t in zip(self.source.sorted_members, self.images)],
        }


def identity_hom(A):
    return ModuleHom(A, A, A.sorted_members)


def left_multiplication_hom(c, A, target):
    """The map x -> c*x from A into target (always additive and equivariant)."""
    return ModuleHom(A, target, tuple(A.ring.mul_table[c, A.sorted_members].tolist()))


# -- the lattice operations ---------------------------------------------------


def principal(ring, a):
    """The right ideal aR = {a*r : r in R}."""
    return RightIdeal(ring, ring.right_masks[a], (int(a),))


@per_ring
def right_annihilator(ring, a):
    """{r : a*r = 0}; always a right ideal."""
    return RightIdeal.from_members(ring, np.flatnonzero(ring.mul_table[a] == ring.zero))


@per_ring
def _sum_mask(ring, p, q):
    return subgroup_sum(ring, ideal_members(ring, p), ideal_members(ring, q))


def ideal_sum(A, B):
    """{x + y : x in A, y in B}; generators are concatenated."""
    ring = _same_ring(A, B)
    return RightIdeal(ring, _sum_mask(ring, A.mask, B.mask), A.generators + B.generators)


def ideal_intersect(A, B):
    """Set intersection, with generators recomputed least-index greedily."""
    ring = _same_ring(A, B)
    mask = A.mask & B.mask
    return RightIdeal(ring, mask, minimal_generators(ring, mask))


def is_direct_pair(A, B):
    """True iff A + B = R and A intersect B = 0."""
    ring = _same_ring(A, B)
    return A.mask & B.mask == 1 << ring.zero and len(A) * len(B) == ring.size


def summand_idempotent(A):
    """Least idempotent e with eR = A, or None when A is not a direct summand."""
    return A.ring.summand_table.get(A.mask)


def direct_complements(A):
    """All right ideals B with A + B = R and A intersect B = 0.

    Complements of a summand are themselves summands, so the scan runs over
    the summand table; results are ordered by their least generating
    idempotent.
    """
    ring = A.ring
    return [RightIdeal(ring, S, (f,)) for S, f in ring.summand_table.items()
            if A.mask & S == 1 << ring.zero and len(A) * S.bit_count() == ring.size]


def _extend_hom(ring, gens, images, source):
    """The images of sum g_i r_i -> sum y_i r_i over the source's ascending
    members, built one generator at a time; None when some element gets two
    images (the assignment does not extend) or the generators do not span
    the source.
    """
    add, mul = ring.add_table, ring.mul_table
    S = T = np.array([ring.zero])
    for g, y in zip(gens, images):
        S = add[S[:, None], mul[g]].ravel()
        T = add[T[:, None], mul[y]].ravel()
        graph = np.full(ring.size, -1, dtype=np.int32)
        graph[S] = T
        if not np.array_equal(graph[S], T):
            return None
        S = np.flatnonzero(graph >= 0)
        T = graph[S]
    if tuple(S.tolist()) != source.sorted_members:
        return None
    return tuple(T.tolist())


def iter_homs(A, B, require_iso=False):
    """Yield the right-module homomorphisms from A to B (bijective ones when
    asked), each validated before it is yielded.

    Generator images are enumerated over the target in ascending order, then
    extended additively and equivariantly, so the first map yielded is the
    least one and a caller that needs one map stops the search there. More
    than HOM_SEARCH_CANDIDATE_LIMIT assignments raise SearchBudgetExceeded
    from the first next(), before any candidate is tried.
    """
    ring = _same_ring(A, B)
    if require_iso and len(A) != len(B):
        return
    gens = A.generators
    if not gens:
        if require_iso and not B.is_zero():
            return
        hom = ModuleHom(A, B, (ring.zero,))
        hom.validate()
        yield hom
        return
    count = len(B) ** len(gens)
    if count > HOM_SEARCH_CANDIDATE_LIMIT:
        raise SearchBudgetExceeded(
            f"{count} candidate assignments exceed the limit of {HOM_SEARCH_CANDIDATE_LIMIT}")
    targets = B.sorted_members
    for images in itertools.product(targets, repeat=len(gens)):
        extended = _extend_hom(ring, gens, images, A)
        if extended is None:
            continue
        hom = ModuleHom(A, B, extended)
        if require_iso and not hom.is_bijective():
            continue
        hom.validate()
        yield hom


def hom_search(A, B, require_iso=False, limit=None):
    """The first `limit` maps iter_homs(A, B, require_iso) yields (all of them
    when limit is None), as a list in enumeration order."""
    return list(itertools.islice(iter_homs(A, B, require_iso), limit))


def summands_isomorphic(ring, e, f):
    """Two-element certificate that eR and fR are isomorphic right modules.

    Returns (u, v) with u in eRf, v in fRe, uv = e and vu = f, or None.
    """
    mul = ring.mul_table
    eRf = bits(bitset(mul[mul[e], f], ring.size))
    fRe = bits(bitset(mul[mul[f], e], ring.size))
    for u in eRf:
        row = mul[u]
        for v in fRe:
            if int(row[v]) == e and int(mul[v, u]) == f:
                return (u, v)
    return None


def common_complement_idempotent(A, B):
    """Least idempotent e with eR = A whose left action maps B bijectively onto A.

    Such an e exists exactly when A and B share a direct complement; the
    returned restriction is the witnessing module isomorphism B -> A.
    """
    ring = _same_ring(A, B)
    for e in ring.idempotent_list:
        if ring.right_masks[e] != A.mask:
            continue
        hom = left_multiplication_hom(e, B, target=A)
        if hom.is_bijective():
            return int(e), hom
    return None


def reconstruct_common_complement(e, A, B):
    """Verifier for the converse direction: (1-e)R complements both A and B."""
    ring = _same_ring(A, B)
    W = principal(ring, ring.one_minus(e))
    if not is_direct_pair(A, W):
        raise InvariantViolation("(1-e)R does not complement the first ideal")
    if not is_direct_pair(B, W):
        raise InvariantViolation("(1-e)R does not complement the second ideal")
    return W


def graph_module(phi):
    """The right ideal {x + phi(x) : x in source}.

    Closure of the graph is re-verified; a failure signals a non-equivariant
    map. (Additivity and equivariance alone make the graph an ideal; the
    construction is only used as a complement when source meets target in 0.)
    """
    ring = _same_ring(phi.source, phi.target)
    if len(phi.images) != len(phi.source):
        raise InvariantViolation("map is not total on its source")
    try:
        return RightIdeal.from_members(ring, ring.add_table[phi.source.sorted_members, phi.images])
    except InvariantViolation as exc:
        raise InvariantViolation(
            "graph is not closed as a right ideal; the map is not equivariant") from exc


def all_right_ideals(ring):
    """Every right ideal of the ring, ordered by (size, member tuple).

    Worklist saturation over adding one principal ideal at a time; intended
    for the small rings where exhaustive lattice checks run.
    """
    zero = 1 << ring.zero
    found = {zero}
    work = [zero]
    while work:
        base = work.pop()
        members = bits(base)
        for a in range(ring.size):
            if base >> a & 1:
                continue
            grown = subgroup_sum(ring, members, bits(ring.right_masks[a]))
            if grown not in found:
                found.add(grown)
                work.append(grown)
    ideals = [RightIdeal(ring, m, minimal_generators(ring, m)) for m in found]
    ideals.sort(key=lambda I: (len(I), I.sorted_members))
    return ideals
