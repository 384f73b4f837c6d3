"""Naive brute-force oracles used to freeze expected values.

Everything here works by direct enumeration over plain integers, tuple
matrices or a ring's operation tables, independently of the library's search
logic.
"""

import itertools

import numpy as np

from ringlab import InvariantViolation, Verdict
from ringlab.classify import (PRODUCT_ARITY_BOUND, SUITE_DESCRIPTIONS, SUITE_NAMES,
                              _literal_products_special_clean, direct_sum_cancellation,
                              idem_condition_annihilator, idem_condition_right_sided,
                              idem_sr_condition, is_ic, is_ssp, product_regular_condition,
                              ring_unit_regular, special_clean_flags)
from ringlab.cli import PROPERTY_GETTERS
from ringlab.elements import regular_elements
from ringlab.rings import FiniteRing, positions


# -- integers mod n ------------------------------------------------------------


def zmod_units(n):
    return {a for a in range(n) if any(a * b % n == 1 % n for b in range(n))}


def zmod_idempotents(n):
    return {a for a in range(n) if a * a % n == a}


def zmod_regulars(n):
    return {a for a in range(n) if any(a * x * a % n == a for x in range(n))}


def zmod_principal(n, a):
    return {a * r % n for r in range(n)}


def zmod_annihilator(n, a):
    return {r for r in range(n) if a * r % n == 0}


def zmod_unimodular(n, a, b):
    return any((r * a + s * b) % n == 1 % n for r in range(n) for s in range(n))


# -- k x k matrices over Z_n as flat row-major tuples ---------------------------


def mat_all(n, k):
    return [tuple(m) for m in itertools.product(range(n), repeat=k * k)]


def mat_identity(n, k):
    return tuple(1 % n if i == j else 0 for i in range(k) for j in range(k))


def mat_add(A, B, n):
    return tuple((a + b) % n for a, b in zip(A, B))


def mat_mul(A, B, n, k):
    out = []
    for i in range(k):
        for j in range(k):
            out.append(sum(A[i * k + l] * B[l * k + j] for l in range(k)) % n)
    return tuple(out)


def mat_units(n, k):
    one = mat_identity(n, k)
    elems = mat_all(n, k)
    return {A for A in elems
            if any(mat_mul(A, B, n, k) == one and mat_mul(B, A, n, k) == one
                   for B in elems)}


def mat_all_unit_regular(n, k):
    elems = mat_all(n, k)
    units = mat_units(n, k)
    for A in elems:
        if not any(mat_mul(mat_mul(A, U, n, k), A, n, k) == A for U in units):
            return False
    return True


# -- subset enumeration over raw operation tables -------------------------------


def subsets_right_ideals(add_table, mul_table, zero, size):
    """All right ideals found by checking every subset containing zero.

    Exponential; only for rings of size <= 12 or so.
    """
    universe = list(range(size))
    out = []
    for bits in range(1 << size):
        if not bits >> zero & 1:
            continue
        subset = [i for i in universe if bits >> i & 1]
        sset = set(subset)
        closed = all(int(add_table[i, j]) in sset for i in subset for j in subset) and \
            all(int(mul_table[i, r]) in sset for i in subset for r in universe)
        if closed:
            out.append(frozenset(subset))
    return set(out)


# -- pair scans over a ring's tables ----------------------------------------------
#
# The per-pair loops the class-level kernels of ringlab.classify replaced,
# kept as references: same scan order, same witnesses, same `checked` counts.


def unimodular_table(ring):
    """U[a, b] = (Ra + Rb = R), testing 1 in Ra + Rb per left-ideal class."""
    n = ring.size
    distinct = {}
    class_idx = np.empty(n, dtype=np.int64)
    for a in range(n):
        class_idx[a] = distinct.setdefault(ring.left_principal_sets[a], len(distinct))
    reps = [sorted(s) for s in distinct]
    table = np.zeros((len(reps), len(reps)), dtype=bool)
    for i, Ri in enumerate(reps):
        for j, Rj in enumerate(reps):
            table[i, j] = bool((ring.add_table[np.ix_(Ri, Rj)] == ring.one).any())
    return table[class_idx][:, class_idx]


def stable_range_1_scan(ring):
    """Every unimodular pair (a, b) has z with a + z*b a unit."""
    U = unimodular_table(ring)
    checked = 0
    for a in range(ring.size):
        for b in range(ring.size):
            if not U[a, b]:
                continue
            checked += 1
            if not ring.unit_flags[ring.add_table[a, ring.mul_table[:, b]]].any():
                return Verdict(False, witness={"pair": [a, b]}, checked=checked)
    return Verdict(True, checked=checked)


def _right_complements(ring, a):
    """Idempotents e (index order) with aR (+) eR = R, from the frozensets."""
    sets, zero_only = ring.right_principal_sets, frozenset({ring.zero})
    return [e for e in ring.idempotent_list
            if sets[a] & sets[e] == zero_only and len(sets[a]) * len(sets[e]) == ring.size]


def _idem_scan(ring, pairs):
    checked = 0
    for a, b in pairs:
        checked += 1
        if not any(ring.add(a, ring.mul(e, b)) in ring.units
                   for e in _right_complements(ring, a)):
            return Verdict(False, witness={"pair": [a, b],
                                           "idempotents_tried": list(ring.idempotent_list)},
                           checked=checked)
    return Verdict(True, checked=checked)


def _regulars(ring):
    return [a for a in range(ring.size)
            if any(ring.mul(ring.mul(a, x), a) == a for x in range(ring.size))]


def idem_sr_scan(ring):
    """Regular unimodular pairs each have an idempotent e with a + e*b a unit
    and aR (+) eR = R."""
    regs, U = _regulars(ring), unimodular_table(ring)
    return _idem_scan(ring, [(a, b) for a in regs for b in regs if U[a, b]])


def right_unimodular_table(ring):
    """U[a, b] = (aR + bR = R), testing 1 in aR + bR pair by pair."""
    sets = [sorted(s) for s in ring.right_principal_sets]
    n = ring.size
    table = np.zeros((n, n), dtype=bool)
    for a in range(n):
        for b in range(n):
            table[a, b] = bool((ring.add_table[np.ix_(sets[a], sets[b])] == ring.one).any())
    return table


def idem_annihilator_scan(ring):
    """The same conclusion over regular pairs with r(a) meet r(b) = 0, with
    the first such pair that is not unimodular as the extra's example."""
    regs, U = _regulars(ring), unimodular_table(ring)
    ann = [frozenset(r for r in range(ring.size) if ring.mul(a, r) == ring.zero)
           for a in range(ring.size)]
    pairs = [(a, b) for a in regs for b in regs if ann[a] & ann[b] == {ring.zero}]
    verdict = _idem_scan(ring, pairs)
    wider = next(([a, b] for a, b in pairs if not U[a, b]), None)
    extra = {"hypothesis_wider_than_unimodular": wider is not None}
    if wider is not None:
        extra["example_pair"] = wider
    return Verdict(verdict.holds, verdict.witness, verdict.checked, extra=extra)


# -- regularity, unit-regularity and special cleanness by their definitions ------
#
# The tables that ringlab.elements.unit_regularity_table and
# ringlab.classify.special_clean_flags replaced with theorem-backed reads
# (a = e*u, and a special clean a has a complement as its idempotent), and the
# whole-table gather that ringlab.elements.regularity_table reads in blocks.


def regularity_by_axa_gather(ring):
    """(mask, least_x) from the n x n table of a*x*a, gathered with two index
    arrays at once: which elements are regular, and the least x with
    a*x*a = a (-1 where none is)."""
    m = ring.mul_table
    column = np.arange(ring.size)[:, None]
    hits = m[m, column] == column  # hits[a, x] = (a*x*a == a)
    mask = hits.any(axis=1)
    return mask, np.where(mask, hits.argmax(axis=1), -1)


def unit_regularity_axa(ring):
    """(mask, least_u) from the n x |U| table of a*u*a: which elements are
    unit-regular, and the least unit u with a*u*a = a (-1 where none is)."""
    m, column = ring.mul_table, np.arange(ring.size)[:, None]
    units = np.flatnonzero(ring.unit_flags)
    hits = m[m[:, units], column] == column
    mask = hits.any(axis=1)
    return mask, np.where(mask, units[hits.argmax(axis=1)], -1)


def disjoint_special_clean_flags(ring):
    """flags[a] = (a - e is a unit for some idempotent e with aR meet eR = 0)."""
    masks, zero = ring.right_masks, 1 << ring.zero
    return np.array([any(masks[a] & masks[e] == zero and ring.unit_flags[ring.sub(a, e)]
                         for e in ring.idempotent_list) for a in ring.elements()], dtype=bool)


# -- summand scans over the frozenset principal ideals ------------------------------
#
# Per-pair loops over the frozenset principal ideals, kept as references for
# ringlab.classify.is_ssp and is_sip: same scan order, same witnesses, same
# `checked` counts. ssp_scan forms each sum eR + fR and looks it up among the
# summands, so it does not rest on the regularity criterion is_ssp reads.


def ssp_scan(ring):
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


def sip_scan(ring):
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


# -- module homomorphisms by closure and by loop ---------------------------------
#
# The per-element closure and the double loops that the table lookups of
# ringlab.ideals._extend_hom and ModuleHom.validate replaced, kept as
# references: same maps, same failure messages at the same first pair.


def hom_extension_closure(ring, gens, images, source_members):
    """Close a generator assignment under + and right multiplication.

    Returns the full graph dict, or None if the assignment is inconsistent
    or its closure is not the whole source.
    """
    add, mul = ring.add_table, ring.mul_table
    mapping = {ring.zero: ring.zero}
    queue = []

    def put(s, t):
        known = mapping.get(s)
        if known is not None:
            return known == t
        mapping[s] = t
        queue.append(s)
        return True

    for g, y in zip(gens, images):
        if not put(int(g), int(y)):
            return None
    while queue:
        s = queue.pop()
        t = mapping[s]
        srow, trow = mul[s], mul[t]
        for r in range(ring.size):
            if not put(int(srow[r]), int(trow[r])):
                return None
        for s2, t2 in list(mapping.items()):
            if not put(int(add[s, s2]), int(add[t, t2])):
                return None
    if set(mapping) != source_members:
        return None
    return mapping


def module_hom_validate_loop(hom):
    """Totality, target, then per source element s (ascending): additivity
    against every s2, then right-equivariance against every r."""
    ring = hom.source.ring
    src = hom.source.sorted_members
    if len(hom.images) != len(src):
        raise InvariantViolation("map is not total on its source")
    mapping = dict(zip(src, hom.images))
    if not set(mapping.values()) <= hom.target.members:
        raise InvariantViolation("map image escapes its target")
    add, mul = ring.add_table, ring.mul_table
    for s in src:
        t = mapping[s]
        for s2 in src:
            if mapping[int(add[s, s2])] != int(add[t, mapping[s2]]):
                raise InvariantViolation(f"map is not additive at ({s}, {s2})")
        for r in range(ring.size):
            if mapping[int(mul[s, r])] != int(mul[t, r]):
                raise InvariantViolation(f"map is not right-equivariant at ({s}, {r})")
    return True


# -- matrix-shape tables from full digit arrays -------------------------------------


def matrix_shape_tables_by_digits(kind, k, base, block=256):
    """(add, mul) of k x k matrices over `base` on positions(kind, k), built as
    the (rows, size, cells) digit arrays of every sum and product, for a block
    of left operands at a time, and then encoded, first cell most significant."""
    support = positions(kind, k)
    cells = len(support)
    size = base.size ** cells
    powers = base.size ** np.arange(cells - 1, -1, -1, dtype=np.int64)
    digits = ((np.arange(size, dtype=np.int64)[:, None] // powers) % base.size).astype(np.int32)
    grid = np.full((size, k, k), base.zero, dtype=np.int32)
    for c, (i, j) in enumerate(support):
        grid[:, i, j] = digits[:, c]
    badd, bmul = base.add_table, base.mul_table
    add = np.empty((size, size), dtype=np.int32)
    mul = np.empty((size, size), dtype=np.int32)
    for lo in range(0, size, block):
        left, left_grid = digits[lo:lo + block], grid[lo:lo + block]
        add_digits = np.empty((len(left), size, cells), dtype=np.int32)
        mul_digits = np.empty((len(left), size, cells), dtype=np.int32)
        for c, (p, q) in enumerate(support):
            add_digits[:, :, c] = badd[np.ix_(left[:, c], digits[:, c])]
            acc = np.full((len(left), size), base.zero, dtype=np.int32)
            for l in range(k):
                acc = badd[acc, bmul[left_grid[:, p, l][:, None], grid[:, l, q][None, :]]]
            mul_digits[:, :, c] = acc
        add[lo:lo + block] = add_digits.astype(np.int64) @ powers
        mul[lo:lo + block] = mul_digits.astype(np.int64) @ powers
    return add, mul


# -- product tables from int64 weights ------------------------------------------------


def product_tables_by_weights(factors):
    """Componentwise product of the given rings, mixed-radix element order,
    each table summed in int64 over the factors times their place weights."""
    if not factors:
        raise ValueError("product needs at least one factor")
    size = 1
    for f in factors:
        size *= f.size

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


# -- derived arrays from the whole tables ---------------------------------------------
#
# How FiniteRing and ringlab.elements derive each array from a ring's two
# tables, kept as the reference for a product, which derives them from its
# factors' arrays instead. The regular mask and least inner inverse have
# regularity_by_axa_gather above.


def neg_by_table(ring):
    """neg[a] = the x with a + x = 0, from the addition table."""
    return np.argmax(ring.add_table == ring.zero, axis=1).astype(np.int32)


def unit_inverse_by_table(ring):
    """inverse[u] = the v with u*v = v*u = 1, or -1, from the whole table."""
    hits = ring.mul_table == ring.one
    two_sided = hits & hits.T
    return np.where(two_sided.any(axis=1), two_sided.argmax(axis=1), -1).astype(np.int32)


def idempotents_by_diagonal(ring):
    """The a with a*a = a, ascending, from the table's diagonal."""
    rng = np.arange(ring.size)
    return tuple(int(e) for e in np.flatnonzero(ring.mul_table[rng, rng] == rng))


def unit_regularity_by_products(ring):
    """mask[a] = (a = e*u for an idempotent e and a unit u), from the E x U
    block of the table."""
    mask = np.zeros(ring.size, dtype=bool)
    units = np.flatnonzero(unit_inverse_by_table(ring) >= 0)
    mask[ring.mul_table[np.ix_(idempotents_by_diagonal(ring), units)]] = True
    return mask


def complement_products_by_gather(ring):
    """P[i, j] = (1-e)f for the i-th and j-th idempotents e, f."""
    E = np.array(idempotents_by_diagonal(ring), dtype=np.intp)
    return ring.mul_table[np.ix_(ring.add_table[ring.one, neg_by_table(ring)[E]], E)]


# -- unit inverses, additive closure and hunt candidates -----------------------------


def two_sided_inverses(ring):
    """{u: v} over every pair with u*v = v*u = 1, by a scan of all pairs."""
    return {u: v for u in range(ring.size) for v in range(ring.size)
            if ring.mul(u, v) == ring.one and ring.mul(v, u) == ring.one}


def additive_closure_fixpoint(ring, mask):
    """Bitset of the smallest subset containing 0 and mask that is closed
    under +, grown by adding all pairwise sums until nothing changes."""
    span = mask | 1 << ring.zero
    while True:
        members = [v for v in range(ring.size) if span >> v & 1]
        grown = span
        for x in members:
            for y in members:
                grown |= 1 << ring.add(x, y)
        if grown == span:
            return span
        span = grown


def hunt_candidates_loop(default_specs, max_size):
    """The hunt sweep's spec list with the full product loop (every i <= j
    up to max_size, kept when i*j fits) and a first-seen dedupe."""
    specs = list(default_specs)
    for n in range(1, max_size + 1):
        specs.append(f"Zn:{n}")
    for k in (2, 3):
        n = 2
        while n ** (k * k) <= max_size:
            specs.append(f"M{k}:Zn:{n}")
            n += 1
        n = 2
        while n ** (k * (k + 1) // 2) <= max_size:
            specs.append(f"T{k}:Zn:{n}")
            n += 1
    for i in range(2, max_size + 1):
        for j in range(i, max_size + 1):
            if i * j <= max_size:
                specs.append(f"prod:Zn:{i}+Zn:{j}")
    seen = set()
    ordered = []
    for s in specs:
        if s not in seen:
            seen.add(s)
            ordered.append(s)
    return ordered


# -- products by level ----------------------------------------------------------------
#
# The per-product loop that the table gathers of ringlab.classify._product_levels
# replaced, kept as a reference: same values, same least predecessors.


def product_levels_loop(ring, arity, factors):
    """Products of `arity` elements drawn from `factors`, as value -> least
    predecessor (p, c) maps per level, p ascending over the previous level and
    c in the order of `factors`."""
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


# -- equivalence suites ----------------------------------------------------------------
#
# Every suite written out as its own case, conditions, witnesses and equivalence
# verdict included, kept as a reference for the shared report tail of
# ringlab.classify.theorem_suite; it calls the same verdicts.


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


def theorem_suite_by_cases(ring, which):
    """theorem_suite with each suite writing its own conditions, witnesses and
    equivalence verdict: same report, same witness order."""
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
        ann = idem_condition_annihilator(ring)
        right = idem_condition_right_sided(ring)
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


# -- hunt's property expressions by a tokenizer and recursive descent ---------------------


def property_expr_descent(text):
    """Boolean grammar over {ssp, sip, ic, sr1, abelian} with !, &, | and parens."""
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "&|!()":
            tokens.append(c)
            i += 1
        elif c.isalnum() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise ValueError(f"unexpected character {c!r} in property expression")
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"malformed property expression near token {pos}")
        pos += 1
        return tok

    def parse_or():
        node = parse_and()
        while peek() == "|":
            take()
            node = ("or", node, parse_and())
        return node

    def parse_and():
        node = parse_not()
        while peek() == "&":
            take()
            node = ("and", node, parse_not())
        return node

    def parse_not():
        if peek() == "!":
            take()
            return ("not", parse_not())
        if peek() == "(":
            take()
            node = parse_or()
            take(")")
            return node
        name = take()
        if name not in PROPERTY_GETTERS:
            raise ValueError(f"unknown property {name!r}; expected one of "
                             f"{sorted(PROPERTY_GETTERS)}")
        return ("var", name)

    node = parse_or()
    if pos != len(tokens):
        raise ValueError("trailing tokens in property expression")
    return node
