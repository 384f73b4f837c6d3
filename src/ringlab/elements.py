"""Element-level classification: regular, unit-regular, clean, special clean.

Every positive answer carries an explicit witness (an inner inverse, a unit,
or an idempotent/unit decomposition) chosen deterministically as the least
candidate in index order, so repeated runs reproduce identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolation, InvariantViolation
from .rings import factor_all, factor_sum, from_factors, per_ring, summand_partners


@dataclass(frozen=True)
class CleanDecomposition:
    """a = idem + unit; `special` records that aR and idem*R meet only in 0."""

    element: int
    idem: int
    unit: int
    special: bool

    def to_json(self):
        return {"element": self.element, "idempotent": self.idem,
                "unit": self.unit, "special": self.special}


_BLOCK_CELLS = 1 << 20  # a*x*a cells read per block of rows a


@per_ring
def regularity_table(ring):
    """(mask, least_x): which elements are regular, with least inner inverse.
    a*x*a is read for a block of rows a at a time, as one flat take of the
    cells (a*x)*n + a of the multiplication table; only the two arrays are kept.
    In a product an element is regular iff each component is, and its least
    inner inverse is the tuple of the components' least ones."""
    if from_factors(ring):
        factors = ring.form[1]
        tables = [regularity_table(f) for f in factors]
        mask = factor_all([mask for mask, _ in tables])
        return mask, np.where(mask, factor_sum(factors, [least for _, least in tables]), -1)
    m, n = ring.mul_table, ring.size
    mask = np.empty(n, dtype=bool)
    least = np.empty(n, dtype=np.intp)
    rows = max(1, _BLOCK_CELLS // n)
    for lo in range(0, n, rows):
        a = np.arange(lo, min(lo + rows, n))[:, None]
        hits = m.ravel().take(m[lo:lo + rows] * n + a) == a  # hits[a, x] = (a*x*a == a)
        mask[lo:lo + rows] = hits.any(axis=1)
        least[lo:lo + rows] = np.where(mask[lo:lo + rows], hits.argmax(axis=1), -1)
    return mask, least


@per_ring
def unit_regularity_table(ring):
    """Which elements are unit-regular: a is unit-regular iff a = e*u for an
    idempotent e and a unit u (a = a*v*a gives e = a*v and a = e*v^-1; a = e*u
    gives a*u^-1*a = a), so the mask marks the products of E x U. In a product
    an element is unit-regular iff each component is."""
    if from_factors(ring):
        return factor_all([unit_regularity_table(f) for f in ring.form[1]])
    mask = np.zeros(ring.size, dtype=bool)
    mask[ring.mul_table[np.ix_(ring.idempotent_list, np.flatnonzero(ring.unit_flags))]] = True
    return mask


def regular_elements(ring):
    """All regular element indices, ascending."""
    mask, _ = regularity_table(ring)
    return [int(a) for a in np.flatnonzero(mask)]


def regular_witness(ring, a):
    """Reflexive inner inverse x*a*x of a, from its least inner inverse x:
    a = a*y*a and y = y*a*y for y = x*a*x. None if a is not regular."""
    mask, least = regularity_table(ring)
    if not mask[a]:
        return None
    x = int(least[a])
    return ring.mul(ring.mul(x, a), x)


def unit_regular_witness(ring, a):
    """Least unit u with a = a*u*a, or None."""
    if not unit_regularity_table(ring)[a]:
        return None
    m, units = ring.mul_table, np.flatnonzero(ring.unit_flags)
    return int(units[np.argmax(m[m[a, units], a] == a)])


def special_clean_witnesses(ring, a):
    """All decompositions a = e + u with e idempotent, u a unit, aR meet eR = 0.

    Such an e is a complement of a, aR (+) eR = R, because aR + eR holds the
    unit u = a - e; so only the complements are scanned. The unit is forced by
    the idempotent, so the list is ordered by idempotent index; it is empty
    exactly when a is not special clean.
    """
    out = []
    for e in summand_partners(ring, "right")[a]:
        u = ring.sub(a, e)
        if ring.unit_flags[u]:
            out.append(CleanDecomposition(element=int(a), idem=e, unit=u, special=True))
    return out


def is_clean(ring, a):
    """Least decomposition a = e + u without the disjointness requirement.

    The `special` flag still records whether aR meet eR = 0 happened to hold
    (with a - e a unit, that is whether e is a complement of a), so negative
    special-clean reports stay informative.
    """
    for e in ring.idempotent_list:
        u = ring.sub(a, e)
        if ring.unit_flags[u]:
            special = e in summand_partners(ring, "right")[a]
            return CleanDecomposition(element=int(a), idem=e, unit=u, special=special)
    return None


def unit_inverse_from_special_clean(ring, d):
    """Derive a unit inner inverse from a special clean decomposition.

    For a = e + u with aR meet eR = 0 the element a*u^-1*e lies in both aR
    and eR, hence vanishes, which forces a*u^-1*a = a. The chain is checked
    step by step and u^-1 is returned; a failure means the decomposition was
    malformed upstream.
    """
    if not d.special:
        raise HypothesisViolation("decomposition does not carry the disjointness flag")
    a, e, u = d.element, d.idem, d.unit
    if ring.mul(e, e) != e:
        raise InvariantViolation("claimed idempotent is not idempotent")
    if not ring.unit_flags[u]:
        raise InvariantViolation("claimed unit is not a unit")
    if ring.add(e, u) != a:
        raise InvariantViolation("decomposition does not sum to the element")
    u_inv = int(ring.unit_inverse[u])
    t = ring.mul(ring.mul(a, u_inv), e)
    # a*u^-1*e equals e*u^-1*e + e, placing it in aR and eR simultaneously
    if t != ring.add(ring.mul(ring.mul(e, u_inv), e), e):
        raise InvariantViolation("derivation identity a*u^-1*e = e*u^-1*e + e failed")
    if not ring.right_masks[a] >> t & 1 or not ring.right_masks[e] >> t & 1:
        raise InvariantViolation("a*u^-1*e escaped aR or eR")
    if t != ring.zero:
        raise InvariantViolation("aR meet eR contains a nonzero element; not special clean")
    if ring.mul(ring.mul(a, u_inv), a) != a:
        raise InvariantViolation("a*u^-1*a != a after the derivation")
    return u_inv


def classify_element(ring, a):
    """Full classification record for one element, JSON-ready."""
    reg = regular_witness(ring, a)
    ureg = unit_regular_witness(ring, a)
    clean = is_clean(ring, a)
    special = special_clean_witnesses(ring, a)
    witnesses = {}
    if reg is not None:
        witnesses["inner_inverse"] = reg
    if ureg is not None:
        witnesses["unit_inner_inverse"] = ureg
    if clean is not None:
        witnesses["clean"] = clean.to_json()
    if special:
        witnesses["special_clean"] = [d.to_json() for d in special]
    return {
        "element": int(a),
        "regular": reg is not None,
        "unit_regular": ureg is not None,
        "clean": clean is not None,
        "special_clean": bool(special),
        "witnesses": witnesses,
    }
