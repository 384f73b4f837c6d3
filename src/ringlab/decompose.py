"""Constructive production of the idempotent e and unit a + e*b for a
regular unimodular pair, with a full, independently re-checkable trace.

Given regular a, b with Ra + Rb = R in a ring that is summand-sum closed and
has internal cancellation, the algorithm builds, in order: a reflexive inner
inverse x of a; the kernel/coimage splitting R = r(a) (+) xaR and the
cokernel/image splitting R = (1-ax)R (+) aR; the isomorphic copy bK of the
kernel and its summand idempotent f; a complement L of fR meet gR (g = 1-ax,
so gR is the cokernel); the least isomorphism phi between the two halves
fR meet L and gR meet L; its graph E; a complement F of fR + gR; and finally
the projection idempotent e with eR = gR that maps bK isomorphically onto it.
The element a + e*b is then certified invertible by direct table lookup.

Every choice point takes the least candidate in the deterministic order of
the underlying enumeration, so identical inputs produce identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import is_abelian, unimodular_matrix
from .elements import (CleanDecomposition, regular_witness,
                       special_clean_witnesses)
from .errors import ConstructionAbort, HypothesisViolation, InvariantViolation
from .ideals import (ModuleHom, RightIdeal, common_complement_idempotent,
                     direct_complements, graph_module, hom_search, ideal_intersect,
                     ideal_sum, is_direct_pair, left_multiplication_hom, principal,
                     right_annihilator, summand_idempotent)

TRACE_VERSION = 1


@dataclass(frozen=True)
class ConstructionTrace:
    """Every intermediate object of one constructive run, replayable from scratch."""

    ring: object
    a: int
    b: int
    x: int                     # reflexive inner inverse of a
    kernel_gen: int            # 1 - x*a, generates K
    g: int                     # 1 - a*x, generates the complement of aR
    K: RightIdeal
    D: RightIdeal
    I: RightIdeal
    C: RightIdeal
    bK: RightIdeal
    f: int
    L: RightIdeal
    phi: ModuleHom
    E: RightIdeal
    F: RightIdeal
    e: int
    unit: int
    kernel_equals_cokernel: bool
    notes: dict

    def to_json(self):
        return {
            "trace_version": TRACE_VERSION,
            "ring": self.ring.spec,
            "inputs": {"a": self.a, "b": self.b},
            "reflexive_inverse": self.x,
            "kernel_generator": self.kernel_gen,
            "cokernel_generator": self.g,
            "kernel": self.K.to_json(),
            "coimage": self.D.to_json(),
            "image": self.I.to_json(),
            "cokernel": self.C.to_json(),
            "kernel_image_under_b": self.bK.to_json(),
            "summand_idempotent_f": self.f,
            "intersection_complement_L": self.L.to_json(),
            "half_isomorphism": self.phi.to_json(),
            "graph_E": self.E.to_json(),
            "outer_complement_F": self.F.to_json(),
            "projection_idempotent_e": self.e,
            "unit": self.unit,
            "kernel_equals_cokernel": self.kernel_equals_cokernel,
            "notes": self.notes,
        }


def _require(cond, step, message):
    if not cond:
        raise ConstructionAbort(step, message)


def solve_unimodular(ring, a, b):
    """Run the construction for a regular unimodular pair (a, b).

    Hypothesis violations (non-regular inputs, Ra + Rb != R) are rejected up
    front; a step with no candidate aborts with its index. On a ring verified
    to be summand-sum closed with internal cancellation such an abort is a
    defect and the error says which step broke.
    """
    x = regular_witness(ring, a)
    if x is None:
        raise HypothesisViolation(f"element {a} is not regular in {ring.spec}")
    if regular_witness(ring, b) is None:
        raise HypothesisViolation(f"element {b} is not regular in {ring.spec}")
    if not unimodular_matrix(ring)[a, b]:
        raise HypothesisViolation(f"Ra + Rb != R for pair ({a}, {b}) in {ring.spec}")

    # step 1: x, the reflexive inner inverse of a found above

    # step 2: the two Peirce splittings attached to a
    xa, ax = ring.mul(x, a), ring.mul(a, x)
    kernel_gen = ring.one_minus(xa)
    g = ring.one_minus(ax)
    zero = 1 << ring.zero
    K = right_annihilator(ring, a)
    _require(K.mask == ring.right_masks[kernel_gen], 2,
             "r(a) differs from (1-xa)R")
    D, I, C = principal(ring, xa), principal(ring, a), principal(ring, g)
    _require(is_direct_pair(K, D), 2, "R != r(a) (+) xaR")
    _require(is_direct_pair(C, I), 2, "R != (1-ax)R (+) aR")
    a_restr = left_multiplication_hom(a, D, target=I)
    _require(a_restr.is_bijective(), 2, "a does not restrict to an isomorphism on xaR")

    # step 3: b embeds the kernel
    rb = right_annihilator(ring, b)
    _require(K.mask & rb.mask == zero, 3,
             "r(a) meets r(b) nontrivially")
    c0 = ring.mul(b, kernel_gen)
    bK = principal(ring, c0)
    b_restr = left_multiplication_hom(b, K, target=bK)
    _require(b_restr.is_bijective(), 3, "b is not injective on r(a)")

    # step 4: bK is a summand
    _require(regular_witness(ring, c0) is not None, 4,
             f"b(1-xa) = {c0} is not regular")
    f = summand_idempotent(bK)
    _require(f is not None, 4, "no idempotent generates bK")
    fR = principal(ring, f)

    # steps 5-6: complement of the overlap of the two summands
    kernel_equals_cokernel = K.mask == C.mask
    S = ideal_intersect(fR, C)
    comps = direct_complements(S)
    _require(bool(comps), 6, "fR meet gR is not a direct summand (summand "
                             "intersection fails, so summand sums must too)")
    L = comps[0]

    # step 7: match the halves lying inside L
    fL = ideal_intersect(fR, L)
    gL = ideal_intersect(C, L)
    _require(len(S) * len(fL) == len(fR) and S.mask & fL.mask == zero,
             7, "fR does not split over its overlap with gR")
    _require(len(S) * len(gL) == len(C) and S.mask & gL.mask == zero,
             7, "gR does not split over its overlap with fR")
    isos = hom_search(fL, gL, require_iso=True, limit=1)
    _require(bool(isos), 7, "no isomorphism between the complementary halves")
    phi = isos[0]

    # step 8: the graph realigns the two summands
    E = graph_module(phi)
    T = ideal_sum(fR, C)
    _require(ideal_sum(fR, E) == T and ideal_sum(C, E) == T, 8,
             "graph does not recover fR + gR")
    _require(fR.mask & E.mask == zero, 8, "fR meets the graph")
    _require(C.mask & E.mask == zero, 8, "gR meets the graph")

    # step 9: summand-sum closure supplies the outer complement
    comps2 = direct_complements(T)
    _require(bool(comps2), 9, "fR + gR is not a direct summand")
    F = comps2[0]
    W = ideal_sum(E, F)
    _require(E.mask & F.mask == zero, 9, "E meets F")
    _require(is_direct_pair(bK, W), 9, "E (+) F does not complement bK")
    _require(is_direct_pair(C, W), 9, "E (+) F does not complement the cokernel")

    # step 10: the shared complement yields the projection idempotent
    found = common_complement_idempotent(C, bK)
    _require(found is not None, 10,
             "no idempotent projects bK isomorphically onto the cokernel")
    e, _ = found

    # step 11: certify the unit directly
    unit = ring.add(a, ring.mul(e, b))
    _require(ring.unit_flags[unit], 11, f"a + e*b = {unit} is not a unit")
    _require(is_direct_pair(I, principal(ring, e)), 11, "aR (+) eR != R")

    return ConstructionTrace(
        ring=ring, a=int(a), b=int(b), x=int(x), kernel_gen=kernel_gen, g=g,
        K=K, D=D, I=I, C=C, bK=bK, f=int(f), L=L, phi=phi, E=E, F=F,
        e=int(e), unit=int(unit),
        kernel_equals_cokernel=kernel_equals_cokernel,
        notes={
            "phi": "least isomorphism found by direct enumeration over the "
                   "target; whether an abstract cancellation argument could "
                   "force a different map is recorded as open, not resolved",
            "complements": "least complement in the deterministic order of "
                           "direct_complements",
        },
    )


def idempotent_witness_set(ring, a, b):
    """Brute-force oracle: all idempotents e with a + e*b a unit and
    aR (+) eR = R, in index order."""
    zero = 1 << ring.zero
    aR = ring.right_masks[a]
    out = []
    for e in ring.idempotent_list:
        if not ring.unit_flags[ring.add(a, ring.mul(e, b))]:
            continue
        eR = ring.right_masks[e]
        if aR.bit_count() * eR.bit_count() == ring.size and aR & eR == zero:
            out.append(int(e))
    return out


def special_clean_decompose(ring, a):
    """Special clean decomposition of a regular element via the pair (a, -1)."""
    trace = solve_unimodular(ring, a, ring.minus_one())
    d = CleanDecomposition(element=int(a), idem=trace.e, unit=trace.unit, special=True)
    if d not in special_clean_witnesses(ring, a):
        raise InvariantViolation(
            f"constructed decomposition {d} is missing from the witness scan")
    return d


def unique_special_clean_abelian(ring, a):
    """The unique special clean decomposition of a regular element of an
    abelian ring; a witness count other than one signals a defect."""
    if not is_abelian(ring).holds:
        raise HypothesisViolation(f"{ring.spec} is not abelian")
    if regular_witness(ring, a) is None:
        raise HypothesisViolation(f"element {a} is not regular in {ring.spec}")
    ws = special_clean_witnesses(ring, a)
    if len(ws) != 1:
        raise InvariantViolation(
            f"abelian ring {ring.spec}: element {a} has {len(ws)} special clean "
            f"decompositions instead of exactly one")
    return ws[0]


def verify_trace(trace):
    """Re-check every invariant of a trace from scratch with the ideal-lattice
    primitives; returns a per-check report plus an overall flag.

    The lattice values it recomputes (members, generators, sums and
    annihilators) come from the ring's memo, which holds pure functions of the
    ring's read-only tables, so a memo warmed by solve_unimodular returns what
    a fresh ring would. Every comparison against the trace is still made."""
    ring = trace.ring
    a, b, x = trace.a, trace.b, trace.x
    zero = 1 << ring.zero
    checks = {}

    def mul3(p, q, r):
        return ring.mul(ring.mul(p, q), r)

    checks["reflexive_inverse"] = (mul3(a, x, a) == a and mul3(x, a, x) == x)
    checks["unimodular_pair"] = bool(unimodular_matrix(ring)[a, b])

    xa, ax = ring.mul(x, a), ring.mul(a, x)
    checks["kernel_generator"] = trace.kernel_gen == ring.one_minus(xa)
    checks["cokernel_generator"] = trace.g == ring.one_minus(ax)
    checks["kernel_ideal"] = (trace.K == right_annihilator(ring, a)
                              and trace.K.mask == ring.right_masks[trace.kernel_gen])
    checks["coimage_ideal"] = trace.D == principal(ring, xa)
    checks["image_ideal"] = trace.I == principal(ring, a)
    checks["cokernel_ideal"] = trace.C == principal(ring, trace.g)
    checks["kernel_coimage_split"] = is_direct_pair(trace.K, trace.D)
    checks["cokernel_image_split"] = is_direct_pair(trace.C, trace.I)

    a_restr = left_multiplication_hom(a, trace.D, target=trace.I)
    checks["a_isomorphism_on_coimage"] = a_restr.is_bijective()

    rb = right_annihilator(ring, b)
    checks["kernel_meets_rb_trivially"] = trace.K.mask & rb.mask == zero
    checks["bK_ideal"] = trace.bK == principal(ring, ring.mul(b, trace.kernel_gen))
    b_restr = left_multiplication_hom(b, trace.K, target=trace.bK)
    checks["b_isomorphism_on_kernel"] = b_restr.is_bijective()

    checks["f_idempotent"] = ring.is_idempotent(trace.f)
    checks["f_generates_bK"] = ring.right_masks[trace.f] == trace.bK.mask

    fR = principal(ring, trace.f)
    S = ideal_intersect(fR, trace.C)
    checks["L_complements_overlap"] = is_direct_pair(S, trace.L)
    fL = ideal_intersect(fR, trace.L)
    gL = ideal_intersect(trace.C, trace.L)

    try:
        trace.phi.validate()
        phi_ok = (trace.phi.source == fL and trace.phi.target == gL
                  and trace.phi.is_bijective())
    except InvariantViolation:
        phi_ok = False
    checks["phi_isomorphism_between_halves"] = phi_ok

    checks["graph_ideal"] = trace.E == graph_module(trace.phi) if phi_ok else False
    T = ideal_sum(fR, trace.C)
    checks["graph_realigns_sum"] = (ideal_sum(fR, trace.E) == T
                                    and ideal_sum(trace.C, trace.E) == T
                                    and fR.mask & trace.E.mask == zero
                                    and trace.C.mask & trace.E.mask == zero)
    checks["F_complements_sum"] = is_direct_pair(T, trace.F)

    W = ideal_sum(trace.E, trace.F)
    checks["common_complement"] = (trace.E.mask & trace.F.mask == zero
                                   and is_direct_pair(trace.bK, W)
                                   and is_direct_pair(trace.C, W))

    checks["e_idempotent"] = ring.is_idempotent(trace.e)
    checks["e_generates_cokernel"] = ring.right_masks[trace.e] == trace.C.mask
    e_restr = left_multiplication_hom(trace.e, trace.bK, target=trace.C)
    checks["e_isomorphism_on_bK"] = e_restr.is_bijective()

    checks["unit_value"] = trace.unit == ring.add(a, ring.mul(trace.e, b))
    checks["unit_invertible"] = bool(ring.unit_flags[trace.unit])
    checks["image_projection_split"] = is_direct_pair(trace.I, principal(ring, trace.e))
    checks["kernel_cokernel_equality_recorded"] = (
        trace.kernel_equals_cokernel == (trace.K.mask == trace.C.mask))

    return {"checks": checks, "all_passed": all(checks.values())}
