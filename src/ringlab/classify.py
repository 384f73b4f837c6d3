"""Ring-level properties with witnesses, and executable equivalence suites.

Each predicate returns a Verdict: a positive answer is backed by a completed
exhaustive scan (the `checked` count), a negative one carries a concrete
counterexample by element index. Suites evaluate the numbered conditions of
a named result independently and then assert the expected pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .elements import regular_elements, regularity_table, unit_regularity_table
from .ideals import summands_isomorphic
from .rings import make_opposite, per_ring, row_bitsets, summand_partners

SUITE_NAMES = ("T2.4", "T2.9", "C2.10", "R2.5", "C2.6", "L2.3")

SUITE_DESCRIPTIONS = {
    "T2.4": "internal cancellation, the idempotent unimodular condition, and "
            "special cleanness of regular elements agree on summand-sum-closed rings",
    "T2.9": "summand-sum closure with internal cancellation matches unit-regularity "
            "and special cleanness of products of two regular elements",
    "C2.10": "the two-factor product conditions extend to any finite number of factors",
    "R2.5": "annihilator-hypothesis and right-sided variants of the idempotent "
            "unimodular condition agree with internal cancellation",
    "C2.6": "all elements unit-regular if and only if all elements special clean",
    "L2.3": "internal cancellation matches direct-sum cancellation of summands",
}

CANCELLATION_SIZE_BOUND = 128
PRODUCT_ARITY_BOUND = 4


@dataclass(frozen=True)
class Verdict:
    """Outcome of an exhaustive property scan. holds=None means skipped."""

    holds: bool | None
    witness: dict | None = None
    checked: int = 0
    note: str | None = None
    extra: dict | None = None

    def to_json(self):
        out = {"holds": self.holds, "checked": self.checked}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.note is not None:
            out["note"] = self.note
        if self.extra is not None:
            out["extra"] = self.extra
        return out


# -- per-ring derived tables ---------------------------------------------------


@per_ring
def _annihilator_masks(ring):
    """Bitset of {r : a*r = 0} for every a."""
    return row_bitsets(ring.mul_table == ring.zero)


@per_ring
def unimodular_matrix(ring):
    """Boolean table U[a, b] = (Ra + Rb = R), computed per left-ideal class."""
    n = ring.size
    add, one = ring.add_table, ring.one
    distinct = {}
    class_idx = np.empty(n, dtype=np.int64)
    for a in range(n):
        s = ring.left_principal_sets[a]
        class_idx[a] = distinct.setdefault(s, len(distinct))
    reps = [sorted(s) for s in distinct]
    k = len(reps)
    table = np.zeros((k, k), dtype=bool)
    for i in range(k):
        for j in range(k):
            table[i, j] = bool((add[np.ix_(reps[i], reps[j])] == one).any())
    return table[class_idx][:, class_idx]


@per_ring
def special_clean_flags(ring):
    """flags[a] = a has at least one special clean decomposition."""
    partners = summand_partners(ring, "right")
    units = ring.unit_flags
    flags = np.array([any(units[ring.sub(a, e)] for e in partners[a][0])
                      for a in range(ring.size)], dtype=bool)
    flags.setflags(write=False)
    return flags


def ring_unit_regular(ring):
    """True iff every element of the ring is unit-regular."""
    mask, _ = unit_regularity_table(ring)
    return bool(mask.all())


# -- the property predicates ---------------------------------------------------


@per_ring
def is_ssp(ring):
    """Sum of any two summands of the right regular module is a summand."""
    summand_sets = {ring.right_principal_sets[e] for e in ring.idempotent_list}
    add = ring.add_table
    checked = 0
    for e in ring.idempotent_list:
        eR = sorted(ring.right_principal_sets[e])
        for f in ring.idempotent_list:
            fR = sorted(ring.right_principal_sets[f])
            total = frozenset(int(v) for v in np.unique(add[np.ix_(eR, fR)]))
            checked += 1
            if total not in summand_sets:
                return Verdict(False, witness={"idempotents": [int(e), int(f)],
                                               "sum_size": len(total)}, checked=checked)
    return Verdict(True, checked=checked)


@per_ring
def is_sip(ring):
    """Intersection of any two summands is a summand."""
    summand_sets = {ring.right_principal_sets[e] for e in ring.idempotent_list}
    checked = 0
    for e in ring.idempotent_list:
        for f in ring.idempotent_list:
            meet = ring.right_principal_sets[e] & ring.right_principal_sets[f]
            checked += 1
            if meet not in summand_sets:
                return Verdict(False, witness={"idempotents": [int(e), int(f)],
                                               "meet_size": len(meet)}, checked=checked)
    return Verdict(True, checked=checked)


@per_ring
def is_ic(ring):
    """Every regular element is unit-regular (internal cancellation)."""
    reg_mask, _ = regularity_table(ring)
    ureg_mask, _ = unit_regularity_table(ring)
    bad = np.flatnonzero(reg_mask & ~ureg_mask)
    if bad.size:
        return Verdict(False, witness={"element": int(bad[0])},
                       checked=int(reg_mask.sum()))
    return Verdict(True, checked=int(reg_mask.sum()))


@per_ring
def is_abelian(ring):
    """Every idempotent commutes with every element."""
    checked = 0
    for e in ring.idempotent_list:
        row, col = ring.mul_table[e], ring.mul_table[:, e]
        checked += ring.size
        diff = np.flatnonzero(row != col)
        if diff.size:
            return Verdict(False, witness={"idempotent": int(e), "element": int(diff[0])},
                           checked=checked)
    return Verdict(True, checked=checked)


@per_ring
def has_stable_range_1(ring):
    """Ra + Rb = R always admits z with a + z*b a unit."""
    U = unimodular_matrix(ring)
    add, mul = ring.add_table, ring.mul_table
    flags = ring.unit_flags
    checked = 0
    for a in range(ring.size):
        for b in range(ring.size):
            if not U[a, b]:
                continue
            checked += 1
            if not flags[add[a, mul[:, b]]].any():
                return Verdict(False, witness={"pair": [a, b]}, checked=checked)
    return Verdict(True, checked=checked)


def _idem_condition_over_pairs(ring, pairs_iter):
    """Shared scan: each pair (a, b) needs an idempotent e with a + e*b a unit
    and aR + eR an internal direct sum equal to R."""
    partners = summand_partners(ring, "right")
    flags = ring.unit_flags
    checked = 0
    for a, b in pairs_iter:
        checked += 1
        if not any(flags[ring.add(a, ring.mul(e, b))] for e in partners[a][1]):
            return Verdict(False,
                           witness={"pair": [int(a), int(b)],
                                    "idempotents_tried": list(ring.idempotent_list)},
                           checked=checked)
    return Verdict(True, checked=checked)


@per_ring
def idem_sr_condition(ring):
    """For regular a, b with Ra + Rb = R there is an idempotent e with
    a + e*b a unit and aR (+) eR = R."""
    regs = regular_elements(ring)
    U = unimodular_matrix(ring)
    pairs = ((a, b) for a in regs for b in regs if U[a, b])
    return _idem_condition_over_pairs(ring, pairs)


@per_ring
def idem_condition_annihilator(ring):
    """Variant with hypothesis r(a) meet r(b) = 0 instead of unimodularity.

    The annihilator hypothesis is implied by unimodularity; the verdict extra
    records whether it is strictly wider on this ring, with an example pair.
    """
    regs = regular_elements(ring)
    ann = _annihilator_masks(ring)
    zero_mask = 1 << ring.zero
    U = unimodular_matrix(ring)
    pairs = [(a, b) for a in regs for b in regs if ann[a] & ann[b] == zero_mask]
    verdict = _idem_condition_over_pairs(ring, iter(pairs))
    wider = next(((a, b) for a, b in pairs if not U[a, b]), None)
    extra = {"hypothesis_wider_than_unimodular": wider is not None}
    if wider is not None:
        extra["example_pair"] = [int(wider[0]), int(wider[1])]
    return Verdict(verdict.holds, verdict.witness, verdict.checked, extra=extra)


@per_ring
def idem_condition_right_sided(ring):
    """Right-sided variant: aR + bR = R gives e with a + b*e a unit and
    Ra (+) Re = R. Evaluated by running the left-sided condition on the
    opposite ring; element indices carry over unchanged."""
    verdict = idem_sr_condition(make_opposite(ring))
    note = "computed on the opposite ring; indices are shared with the original"
    return Verdict(verdict.holds, verdict.witness, verdict.checked, note=note)


def right_sided_certificate(ring, a, b):
    """Least idempotent e with a + b*e a unit and Ra (+) Re = R, or None.

    Works directly in the given ring, so it cross-checks the opposite-ring
    route used by the right-sided verdict.
    """
    for e in summand_partners(ring, "left")[a][1]:
        if ring.add(a, ring.mul(b, e)) in ring.units:
            return e
    return None


def sided_condition_variants(ring):
    """(annihilator-hypothesis verdict, right-sided verdict)."""
    return idem_condition_annihilator(ring), idem_condition_right_sided(ring)


def _product_levels(ring, arity, factors):
    """Products of `arity` elements drawn from `factors`, as value -> least
    predecessor maps per level (for deterministic witness reconstruction)."""
    mul = ring.mul_table
    levels = [{int(a): None for a in factors}]
    for _ in range(arity - 1):
        prev = levels[-1]
        nxt = {}
        for p in sorted(prev):
            row = mul[p]
            for c in factors:
                v = int(row[c])
                if v not in nxt:
                    nxt[v] = (p, int(c))
        levels.append(nxt)
    return levels


def _unwind_factors(levels, value):
    k = len(levels) - 1
    factors = []
    v = value
    while k > 0:
        p, c = levels[k][v]
        factors.append(c)
        v = p
        k -= 1
    factors.append(v)
    return list(reversed(factors))


@per_ring
def product_regular_condition(ring, arity):
    """Every product of `arity` regular elements is unit-regular.

    Also records whether each such product is special clean; the least
    failing product is returned with a factor tuple reconstructed from the
    deterministic predecessor chain.
    """
    if arity < 2:
        raise ValueError("arity must be at least 2")
    if arity > PRODUCT_ARITY_BOUND:
        raise ValueError(f"arity {arity} exceeds the bound {PRODUCT_ARITY_BOUND}")
    regs = regular_elements(ring)
    levels = _product_levels(ring, arity, regs)
    products = sorted(levels[-1])
    ureg_mask, _ = unit_regularity_table(ring)
    sc_flags = special_clean_flags(ring)

    witness = None
    holds = True
    for v in products:
        if not ureg_mask[v]:
            holds = False
            witness = {"product": int(v), "factors": _unwind_factors(levels, v)}
            break

    sc_holds = True
    sc_witness = None
    for v in products:
        if not sc_flags[v]:
            sc_holds = False
            sc_witness = {"product": int(v), "factors": _unwind_factors(levels, v)}
            break

    extra = {"products_special_clean": sc_holds}
    if sc_witness is not None:
        extra["special_clean_witness"] = sc_witness
    return Verdict(holds, witness=witness, checked=len(products), extra=extra)


def _literal_products_special_clean(ring, arity):
    """The unrestricted reading: products of `arity` arbitrary elements are
    special clean. Reported separately because non-regular elements are never
    special clean, so this reading fails on most rings."""
    levels = _product_levels(ring, arity, list(range(ring.size)))
    sc_flags = special_clean_flags(ring)
    for v in sorted(levels[-1]):
        if not sc_flags[v]:
            return False, {"product": int(v), "factors": _unwind_factors(levels, v)}
    return True, None


@per_ring
def direct_sum_cancellation(ring, max_size=CANCELLATION_SIZE_BOUND):
    """Isomorphic first summands force isomorphic complements, over all
    internal decompositions R = A (+) B into summand pairs."""
    if ring.size > max_size:
        return Verdict(None, note=f"skipped: ring size {ring.size} exceeds "
                                  f"the enumeration bound {max_size}")
    partners = summand_partners(ring, "right")
    reps = {}
    for e in ring.idempotent_list:
        reps.setdefault(ring.right_principal_sets[e], e)
    summands = sorted(reps.items(), key=lambda kv: kv[1])
    decomps = [(A, ea, B, eb) for A, ea in summands for B, eb in summands
               if eb in partners[ea][1]]

    iso_memo = {}

    def iso(e, f, S, T):
        if len(S) != len(T):
            return False
        key = (min(e, f), max(e, f))
        if key not in iso_memo:
            iso_memo[key] = summands_isomorphic(ring, e, f) is not None
        return iso_memo[key]

    checked = 0
    for A1, e1, B1, f1 in decomps:
        for A2, e2, B2, f2 in decomps:
            checked += 1
            if iso(e1, e2, A1, A2) and not iso(f1, f2, B1, B2):
                return Verdict(False,
                               witness={"first_summands": [int(e1), int(e2)],
                                        "complements": [int(f1), int(f2)]},
                               checked=checked)
    return Verdict(True, checked=checked)


# -- profile and suites --------------------------------------------------------


@dataclass(frozen=True)
class RingProfile:
    """All ring-level verdicts for one ring, JSON-ready."""

    ring_spec: str
    size: int
    ssp: Verdict
    sip: Verdict
    ic: Verdict
    abelian: Verdict
    sr1: Verdict
    idem_sr_condition: Verdict
    product_regular_condition: Verdict
    unit_regular: bool = field(default=False)

    def to_json(self):
        return {
            "ring": self.ring_spec,
            "size": self.size,
            "ssp": self.ssp.to_json(),
            "sip": self.sip.to_json(),
            "ic": self.ic.to_json(),
            "abelian": self.abelian.to_json(),
            "sr1": self.sr1.to_json(),
            "idem_sr_condition": self.idem_sr_condition.to_json(),
            "product_regular_condition": self.product_regular_condition.to_json(),
            "unit_regular": self.unit_regular,
        }


def ring_profile(ring):
    return RingProfile(
        ring_spec=ring.spec,
        size=ring.size,
        ssp=is_ssp(ring),
        sip=is_sip(ring),
        ic=is_ic(ring),
        abelian=is_abelian(ring),
        sr1=has_stable_range_1(ring),
        idem_sr_condition=idem_sr_condition(ring),
        product_regular_condition=product_regular_condition(ring, 2),
        unit_regular=ring_unit_regular(ring),
    )


def _all_regular_special_clean(ring):
    sc = special_clean_flags(ring)
    for a in regular_elements(ring):
        if not sc[a]:
            return False, {"element": int(a)}
    return True, None


def _all_elements_special_clean(ring):
    sc = special_clean_flags(ring)
    bad = np.flatnonzero(~sc)
    if bad.size:
        return False, {"element": int(bad[0])}
    return True, None


def theorem_suite(ring, which):
    """Evaluate the numbered conditions of a named suite independently and
    check the expected equivalence pattern. A failed hypothesis downgrades
    the assertion to not-applicable, with conditions still reported."""
    if which not in SUITE_NAMES:
        raise ValueError(f"unknown suite {which!r}; expected one of {SUITE_NAMES}")
    report = {"result": which, "ring": ring.spec,
              "description": SUITE_DESCRIPTIONS[which]}
    witnesses = {}

    if which == "T2.4":
        hyp = is_ssp(ring)
        c1 = is_ic(ring)
        c2 = idem_sr_condition(ring)
        c3_holds, c3_wit = _all_regular_special_clean(ring)
        conditions = {"1": c1.holds, "2": c2.holds, "3": c3_holds}
        for name, v in (("1", c1), ("2", c2)):
            if v.witness:
                witnesses[name] = v.witness
        if c3_wit:
            witnesses["3"] = c3_wit
        report["hypothesis"] = "ssp"
        report["hypothesis_met"] = hyp.holds
        equivalent = (len(set(conditions.values())) == 1) if hyp.holds else None

    elif which == "T2.9":
        ssp, ic = is_ssp(ring), is_ic(ring)
        prod = product_regular_condition(ring, 2)
        conditions = {"1": bool(ssp.holds and ic.holds),
                      "2": prod.holds,
                      "3": prod.extra["products_special_clean"]}
        if not conditions["1"]:
            witnesses["1"] = {"ssp": ssp.to_json(), "ic": ic.to_json()}
        if prod.witness:
            witnesses["2"] = prod.witness
        if "special_clean_witness" in (prod.extra or {}):
            witnesses["3"] = prod.extra["special_clean_witness"]
        report["hypothesis_met"] = True
        equivalent = len(set(conditions.values())) == 1

    elif which == "C2.10":
        ssp, ic = is_ssp(ring), is_ic(ring)
        per_arity = {k: product_regular_condition(ring, k)
                     for k in range(2, PRODUCT_ARITY_BOUND + 1)}
        c2 = all(v.holds for v in per_arity.values())
        c3 = all(v.extra["products_special_clean"] for v in per_arity.values())
        conditions = {"1": bool(ssp.holds and ic.holds), "2": c2, "3": c3}
        lit_holds, lit_wit = _literal_products_special_clean(ring, 2)
        report["arity_verdicts"] = {str(k): {"unit_regular": v.holds,
                                             "special_clean": v.extra["products_special_clean"]}
                                    for k, v in per_arity.items()}
        report["literal_all_products_special_clean"] = lit_holds
        if lit_wit:
            witnesses["literal"] = lit_wit
        for k, v in per_arity.items():
            if v.witness:
                witnesses[f"arity_{k}"] = v.witness
        report["hypothesis_met"] = True
        equivalent = len(set(conditions.values())) == 1

    elif which == "R2.5":
        hyp = is_ssp(ring)
        c1 = is_ic(ring)
        ann, right = sided_condition_variants(ring)
        conditions = {"1": c1.holds, "2": ann.holds, "3": right.holds}
        for name, v in (("1", c1), ("2", ann), ("3", right)):
            if v.witness:
                witnesses[name] = v.witness
        if ann.extra:
            report["annihilator_hypothesis"] = ann.extra
        report["hypothesis"] = "ssp"
        report["hypothesis_met"] = hyp.holds
        equivalent = (len(set(conditions.values())) == 1) if hyp.holds else None

    elif which == "C2.6":
        c1 = ring_unit_regular(ring)
        c2, c2_wit = _all_elements_special_clean(ring)
        conditions = {"1": c1, "2": c2}
        if c2_wit:
            witnesses["2"] = c2_wit
        report["hypothesis_met"] = True
        equivalent = c1 == c2

    else:  # L2.3
        c1 = is_ic(ring)
        c2 = direct_sum_cancellation(ring)
        conditions = {"1": c1.holds, "2": c2.holds}
        if c2.holds is None:
            report["skipped"] = c2.note
            equivalent = None
        else:
            equivalent = c1.holds == c2.holds
        if c1.witness:
            witnesses["1"] = c1.witness
        if c2.witness:
            witnesses["2"] = c2.witness
        report["hypothesis_met"] = True

    report["conditions"] = conditions
    report["equivalent"] = equivalent
    report["witnesses"] = witnesses
    return report
