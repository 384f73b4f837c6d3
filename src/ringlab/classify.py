"""Ring-level properties with witnesses, and executable equivalence suites.

Each predicate returns a Verdict: a positive answer is backed by a completed
exhaustive scan (the `checked` count), a negative one carries a concrete
counterexample by element index. Suites evaluate the numbered conditions of
a named result independently and then assert the expected pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elements import regular_elements, regularity_table, unit_regularity_table
from .ideals import summands_isomorphic
from .rings import (bits, factor_sum, from_factors, membership, per_ring, row_bitsets,
                    summand_partners)

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


def _classes(masks):
    """Label every element by its class of equal bitsets: (labels, reps), with
    classes numbered in order of first appearance and reps[c] the least
    element of class c."""
    index, reps = {}, []
    labels = np.empty(len(masks), dtype=np.intp)
    for a, mask in enumerate(masks):
        if mask not in index:
            index[mask] = len(reps)
            reps.append(a)
        labels[a] = index[mask]
    return labels, reps


def _meets(P, Q):
    """Boolean table T[i, j] = (the int bitsets P[i] and Q[j] share a bit)."""
    return np.array([[p & q != 0 for q in Q] for p in P], dtype=bool)


def _first_failure(U, ok):
    """Scan the true cells of U in row-major (a, b) order up to the first one
    where ok is false: (that cell, or None, and the number of cells scanned)."""
    fail = (U & ~ok).ravel()
    i = int(fail.argmax())
    if not fail[i]:
        return None, int(np.count_nonzero(U))
    a, b = divmod(i, U.shape[1])
    return (a, b), int(np.count_nonzero(U[:a]) + np.count_nonzero(U[a, :b + 1]))


def _table_verdict(U, ok, witness):
    """The verdict of the _first_failure scan: it holds when ok is true on
    every true cell of U, and otherwise fails with witness(a, b) of the first
    cell where ok is false."""
    cell, checked = _first_failure(U, ok)
    if cell is None:
        return Verdict(True, checked=checked)
    return Verdict(False, witness=witness(*cell), checked=checked)


@per_ring
def unimodular_matrix(ring, side="left"):
    """Boolean table U[a, b] = (Ra + Rb = R), computed per left-ideal class:
    Ra + Rb = R iff the set 1 - Ra meets Rb. side="right" gives aR + bR = R
    from the right-ideal classes: 1 - aR meets bR."""
    masks, table = ((ring.left_masks, ring.mul_table.T) if side == "left"
                    else (ring.right_masks, ring.mul_table))
    labels, reps = _classes(masks)
    one_minus = ring.add_table[ring.one, ring.neg_table]
    one_minus_ideal = row_bitsets(membership(one_minus[table[reps]], ring.size))
    return _meets(one_minus_ideal, [masks[b] for b in reps])[np.ix_(labels, labels)]


@per_ring
def completion_table(ring, side):
    """Boolean table T[a, b] = (some idempotent e with aR (+) eR = R makes
    a + e*b a unit) for side="left"; side="right" asks for Ra (+) Re = R and
    a + b*e instead. The side has no default, so each table has one memo key.

    Rows a are grouped by their complement idempotents, so the products e*b
    (b*e on the right) are gathered once per group; each a then reads them
    through its row of unit flags of a + x. A row without complements, that
    is of an a that is not regular, is false."""
    partners = summand_partners(ring, "right" if side == "left" else "left")
    mul = ring.mul_table if side == "left" else ring.mul_table.T
    add, units = ring.add_table, ring.unit_flags
    groups = {}
    for a, complements in enumerate(partners):
        if complements:
            groups.setdefault(complements, []).append(a)
    table = np.zeros((ring.size, ring.size), dtype=bool)
    for complements, rows in groups.items():
        products = mul[list(complements)]
        for a in rows:
            table[a] = units[add[a]][products].any(axis=0)
    table.setflags(write=False)
    return table


def special_clean_flags(ring):
    """flags[a] = a has a special clean decomposition a = e + u, with aR meet
    eR = 0. Then aR + eR holds the unit u = a - e, so aR (+) eR = R: the flags
    are the completion table's column at b = -1."""
    return completion_table(ring, "left")[:, ring.minus_one()]


def ring_unit_regular(ring):
    """True iff every element of the ring is unit-regular."""
    return bool(unit_regularity_table(ring).all())


# -- the property predicates ---------------------------------------------------


@per_ring
def is_ssp(ring):
    """Sum of any two summands of the right regular module is a summand.

    For idempotents e, f the sum eR + fR is eR (+) (1-e)fR (x in eR meet
    (1-e)R gives x = ex = 0), and a summand containing eR is eR (+) its part
    in (1-e)R. So eR + fR is a summand iff (1-e)fR is one, that is iff (1-e)f
    is regular: one read of the regularity table per pair.
    """
    E = np.array(ring.idempotent_list, dtype=np.intp)
    P = _complement_products(ring)
    regular, _ = regularity_table(ring)

    def witness(i, j):
        masks = ring.right_masks
        return {"idempotents": [int(E[i]), int(E[j])],
                "sum_size": masks[E[i]].bit_count() * masks[P[i, j]].bit_count()}

    ok = regular[P]
    return _table_verdict(np.ones_like(ok), ok, witness)


def _complement_products(ring):
    """P[i, j] = (1-e)f for the i-th and j-th idempotents e, f. A product's P
    is its factors' P tables, combined as factor_sum combines tables. Not
    memoised: on a Boolean ring it is an n x n int table."""
    if from_factors(ring):
        factors = ring.form[1]
        return factor_sum(factors, [_complement_products(f) for f in factors])
    E = np.array(ring.idempotent_list, dtype=np.intp)
    return ring.mul_table[np.ix_(ring.add_table[ring.one, ring.neg_table[E]], E)]


@per_ring
def is_sip(ring):
    """Intersection of any two summands is a summand."""
    masks, E = ring.right_masks, ring.idempotent_list
    meets = [[masks[e] & masks[f] for f in E] for e in E]
    ok = np.array([[m in ring.summand_table for m in row] for row in meets], dtype=bool)
    return _table_verdict(np.ones_like(ok), ok, lambda i, j: {
        "idempotents": [E[i], E[j]], "meet_size": meets[i][j].bit_count()})


@per_ring
def is_ic(ring):
    """Every regular element is unit-regular (internal cancellation)."""
    reg_mask, _ = regularity_table(ring)
    bad = np.flatnonzero(reg_mask & ~unit_regularity_table(ring))
    if bad.size:
        return Verdict(False, witness={"element": int(bad[0])},
                       checked=int(reg_mask.sum()))
    return Verdict(True, checked=int(reg_mask.sum()))


@per_ring
def is_abelian(ring):
    """Every idempotent commutes with every element; `checked` counts the
    elements of the idempotent rows scanned."""
    E, mul = list(ring.idempotent_list), ring.mul_table
    differs = mul[E] != mul[:, E].T
    bad = np.flatnonzero(differs.any(axis=1))
    if not bad.size:
        return Verdict(True, checked=len(E) * ring.size)
    i = int(bad[0])
    return Verdict(False, witness={"idempotent": E[i], "element": int(differs[i].argmax())},
                   checked=(i + 1) * ring.size)


@per_ring
def has_stable_range_1(ring):
    """Ra + Rb = R always admits z with a + z*b a unit.

    Whether z exists depends only on the coset a + Rb. So for each left-ideal
    class Rb every a is labelled by the least member of a + Rb, and (a, b)
    passes when some unit carries the same label.
    """
    labels, reps = _classes(ring.left_masks)
    units = np.flatnonzero(ring.unit_flags)
    ok_by_class = np.empty((ring.size, len(reps)), dtype=bool)
    for c, b in enumerate(reps):
        coset = ring.add_table[:, bits(ring.left_masks[b])].min(axis=1)
        has_unit = np.zeros(ring.size, dtype=bool)
        has_unit[coset[units]] = True
        ok_by_class[:, c] = has_unit[coset]
    return _table_verdict(unimodular_matrix(ring), ok_by_class[:, labels],
                          lambda a, b: {"pair": [a, b]})


def _completion_verdict(ring, pairs, side="left"):
    """Each pair (a, b) set in the boolean table `pairs` needs a cell of the
    completion table; the witness is the first failing pair in row-major
    order."""
    return _table_verdict(pairs, completion_table(ring, side), lambda a, b: {
        "pair": [a, b], "idempotents_tried": list(ring.idempotent_list)})


def _regular_pairs(ring):
    reg, _ = regularity_table(ring)
    return np.outer(reg, reg)


@per_ring
def idem_sr_condition(ring):
    """For regular a, b with Ra + Rb = R there is an idempotent e with
    a + e*b a unit and aR (+) eR = R."""
    return _completion_verdict(ring, unimodular_matrix(ring) & _regular_pairs(ring))


@per_ring
def idem_condition_annihilator(ring):
    """Variant with hypothesis r(a) meet r(b) = 0 instead of unimodularity.

    The annihilator hypothesis is implied by unimodularity; the verdict extra
    records whether it is strictly wider on this ring, with an example pair.
    """
    masks = _annihilator_masks(ring)
    labels, reps = _classes(masks)
    ann = [masks[a] for a in reps]
    nonzero = [m & ~(1 << ring.zero) for m in ann]
    pairs = ~_meets(nonzero, ann)[np.ix_(labels, labels)] & _regular_pairs(ring)
    verdict = _completion_verdict(ring, pairs)
    wider, _ = _first_failure(pairs, unimodular_matrix(ring))
    extra = {"hypothesis_wider_than_unimodular": wider is not None}
    if wider is not None:
        extra["example_pair"] = list(wider)
    return Verdict(verdict.holds, verdict.witness, verdict.checked, extra=extra)


@per_ring
def idem_condition_right_sided(ring):
    """Right-sided variant: aR + bR = R gives e with a + b*e a unit and
    Ra (+) Re = R. This is the left-sided condition of the opposite ring, read
    from the ring's own tables: the opposite ring has the same regular
    elements, units and idempotents, and its left and right ideals are the
    ring's right and left ones. A commutative ring reuses its left-sided
    verdict. The note text is kept, unchanged, for report stability."""
    if ring.is_commutative:
        verdict = idem_sr_condition(ring)
    else:
        pairs = unimodular_matrix(ring, "right") & _regular_pairs(ring)
        verdict = _completion_verdict(ring, pairs, "right")
    note = "computed on the opposite ring; indices are shared with the original"
    return Verdict(verdict.holds, verdict.witness, verdict.checked, note=note)


def right_sided_certificate(ring, a, b):
    """Least idempotent e with a + b*e a unit and Ra (+) Re = R, or None.

    A per-pair search in the given ring, so it cross-checks the table scan
    behind the right-sided verdict.
    """
    for e in summand_partners(ring, "left")[a]:
        if ring.unit_flags[ring.add(a, ring.mul(b, e))]:
            return e
    return None


def _product_levels(ring, arity, factors):
    """Products of `arity` elements drawn from `factors`, one level per factor
    count, for deterministic witness reconstruction.

    Level k is (reached, pred_p, pred_c): reached[v] says v is a product of
    k + 1 factors, and (pred_p[v], pred_c[v]) is the least cell (p, c) with
    p*c = v in row-major order, p ascending over the values of level k - 1
    and c in the order of `factors` (-1 where v is not reached; None at
    level 0). Each level is one gather of the products p*c; the least cell
    of each value comes from np.minimum.at over the flat cell indices, which
    fit int32 because the size cap keeps size**2 below 2**31.
    """
    mul, n = ring.mul_table, ring.size
    factors = np.asarray(factors, dtype=np.intp)
    reached = np.zeros(n, dtype=bool)
    reached[factors] = True
    levels = [(reached, None, None)]
    none = np.iinfo(np.int32).max
    for _ in range(arity - 1):
        prev = np.flatnonzero(levels[-1][0])
        values = mul[np.ix_(prev, factors)].ravel()
        first = np.full(n, none, dtype=np.int32)
        np.minimum.at(first, values, np.arange(values.size, dtype=np.int32))
        reached = first != none
        row, col = np.divmod(first[reached], len(factors))
        pred_p = np.full(n, -1, dtype=np.intp)
        pred_c = np.full(n, -1, dtype=np.intp)
        pred_p[reached] = prev[row]
        pred_c[reached] = factors[col]
        levels.append((reached, pred_p, pred_c))
    return levels


def _unwind_factors(levels, value):
    """The factor tuple of `value` along the least-predecessor chain."""
    factors = []
    v = value
    for _, pred_p, pred_c in reversed(levels[1:]):
        factors.append(int(pred_c[v]))
        v = int(pred_p[v])
    factors.append(v)
    return list(reversed(factors))


def _least_failing_product(levels, flags):
    """{"product", "factors"} for the least value of the last level whose
    flag is false, or None."""
    bad = np.flatnonzero(levels[-1][0] & ~flags)
    if not bad.size:
        return None
    v = int(bad[0])
    return {"product": v, "factors": _unwind_factors(levels, v)}


@per_ring
def product_regular_condition(ring, arity):
    """Every product of `arity` regular elements is unit-regular.

    Also records whether each such product is special clean. Each verdict
    reads the last level of _product_levels once: its least failing product
    is returned with a factor tuple reconstructed from the deterministic
    least-predecessor chain, and `checked` counts the distinct products.
    """
    if arity < 2:
        raise ValueError("arity must be at least 2")
    if arity > PRODUCT_ARITY_BOUND:
        raise ValueError(f"arity {arity} exceeds the bound {PRODUCT_ARITY_BOUND}")
    regs = regular_elements(ring)
    levels = _product_levels(ring, arity, regs)
    witness = _least_failing_product(levels, unit_regularity_table(ring))
    sc_witness = _least_failing_product(levels, special_clean_flags(ring))
    extra = {"products_special_clean": sc_witness is None}
    if sc_witness is not None:
        extra["special_clean_witness"] = sc_witness
    return Verdict(witness is None, witness=witness,
                   checked=int(np.count_nonzero(levels[-1][0])), extra=extra)


def _literal_products_special_clean(ring, arity):
    """The unrestricted reading: products of `arity` arbitrary elements are
    special clean. Reported separately because non-regular elements are never
    special clean, so this reading fails on most rings."""
    levels = _product_levels(ring, arity, np.arange(ring.size))
    witness = _least_failing_product(levels, special_clean_flags(ring))
    return witness is None, witness


@per_ring
def direct_sum_cancellation(ring):
    """Isomorphic first summands force isomorphic complements, over all
    internal decompositions R = A (+) B into summand pairs; skipped above
    CANCELLATION_SIZE_BOUND."""
    if ring.size > CANCELLATION_SIZE_BOUND:
        return Verdict(None, note=f"skipped: ring size {ring.size} exceeds "
                                  f"the enumeration bound {CANCELLATION_SIZE_BOUND}")
    partners = summand_partners(ring, "right")
    summands = ring.summand_table.items()
    decomps = [(A, ea, B, eb) for A, ea in summands for B, eb in summands
               if eb in partners[ea]]

    iso_memo = {}

    def iso(e, f, S, T):
        if S.bit_count() != T.bit_count():
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


def ring_profile(ring):
    """All ring-level verdicts for one ring, as its JSON profile."""
    return {
        "ring": ring.spec,
        "size": ring.size,
        "ssp": is_ssp(ring).to_json(),
        "sip": is_sip(ring).to_json(),
        "ic": is_ic(ring).to_json(),
        "abelian": is_abelian(ring).to_json(),
        "sr1": has_stable_range_1(ring).to_json(),
        "idem_sr_condition": idem_sr_condition(ring).to_json(),
        "product_regular_condition": product_regular_condition(ring, 2).to_json(),
        "unit_regular": ring_unit_regular(ring),
    }


def _special_clean(ring, elements):
    """Every element of the boolean mask `elements` has a special clean
    decomposition; the witness is the least one that has none."""
    bad = np.flatnonzero(elements & ~special_clean_flags(ring))
    if bad.size:
        return Verdict(False, witness={"element": int(bad[0])})
    return Verdict(True)


def _ssp_and_ic(ring):
    """The ring has both ssp and ic; the witness holds both verdicts."""
    ssp, ic = is_ssp(ring), is_ic(ring)
    if ssp.holds and ic.holds:
        return Verdict(True)
    return Verdict(False, witness={"ssp": ssp.to_json(), "ic": ic.to_json()})


def theorem_suite(ring, which):
    """Evaluate the numbered conditions of a named suite independently and
    check the expected equivalence pattern. Each condition's holds and
    witness sit under its number; `equivalent` is None (not applicable),
    with the conditions still reported, when the ssp hypothesis of T2.4 or
    R2.5 fails or a condition was skipped."""
    if which not in SUITE_NAMES:
        raise ValueError(f"unknown suite {which!r}; expected one of {SUITE_NAMES}")
    report = {"result": which, "ring": ring.spec,
              "description": SUITE_DESCRIPTIONS[which]}
    witnesses = {}
    hypothesis = None

    if which == "T2.4":
        hypothesis = is_ssp(ring)
        conditions = [is_ic(ring), idem_sr_condition(ring),
                      _special_clean(ring, regularity_table(ring)[0])]

    elif which == "T2.9":
        prod = product_regular_condition(ring, 2)
        conditions = [_ssp_and_ic(ring), prod,
                      Verdict(prod.extra["products_special_clean"],
                              prod.extra.get("special_clean_witness"))]

    elif which == "C2.10":
        per_arity = {k: product_regular_condition(ring, k)
                     for k in range(2, PRODUCT_ARITY_BOUND + 1)}
        lit_holds, lit_wit = _literal_products_special_clean(ring, 2)
        report["arity_verdicts"] = {str(k): {"unit_regular": v.holds,
                                             "special_clean": v.extra["products_special_clean"]}
                                    for k, v in per_arity.items()}
        report["literal_all_products_special_clean"] = lit_holds
        if lit_wit:
            witnesses["literal"] = lit_wit
        witnesses.update((f"arity_{k}", v.witness) for k, v in per_arity.items() if v.witness)
        # C2.10's witnesses are the literal and per-arity ones above, none per condition
        conditions = [Verdict(_ssp_and_ic(ring).holds),
                      Verdict(all(v.holds for v in per_arity.values())),
                      Verdict(all(v.extra["products_special_clean"]
                                  for v in per_arity.values()))]

    elif which == "R2.5":
        hypothesis = is_ssp(ring)
        ann = idem_condition_annihilator(ring)
        if ann.extra:
            report["annihilator_hypothesis"] = ann.extra
        conditions = [is_ic(ring), ann, idem_condition_right_sided(ring)]

    elif which == "C2.6":
        conditions = [Verdict(ring_unit_regular(ring)),
                      _special_clean(ring, np.ones(ring.size, dtype=bool))]

    else:  # L2.3
        cancellation = direct_sum_cancellation(ring)
        if cancellation.holds is None:
            report["skipped"] = cancellation.note
        conditions = [is_ic(ring), cancellation]

    if hypothesis is not None:
        report["hypothesis"] = "ssp"
    report["hypothesis_met"] = hypothesis is None or hypothesis.holds
    holds = report["conditions"] = {}
    for i, v in enumerate(conditions, 1):
        holds[str(i)] = v.holds
        if v.witness:
            witnesses[str(i)] = v.witness
    agree = set(holds.values())
    report["equivalent"] = (len(agree) == 1 if report["hypothesis_met"] and None not in agree
                            else None)
    report["witnesses"] = witnesses
    return report
