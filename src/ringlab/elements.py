"""Element-level classification: regular, unit-regular, clean, special clean.

Every positive answer carries an explicit witness (an inner inverse, a unit,
or an idempotent/unit decomposition) chosen deterministically as the least
candidate in index order, so repeated runs reproduce identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolation, InvariantViolation
from .rings import per_ring, summand_partners


@dataclass(frozen=True)
class RegularityWitness:
    """An inner inverse x of a with a = a*x*a; reflexive means x = x*a*x too."""

    element: int
    inner_inverse: int
    reflexive: bool = True


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


@per_ring
def _axa_table(ring):
    """Table t[a, x] = a*x*a."""
    n = ring.size
    m = ring.mul_table
    ax = m  # ax[a, x] = a*x
    return m[ax, np.arange(n)[:, None]]


@per_ring
def regularity_table(ring):
    """(mask, least_x): which elements are regular, with least inner inverse."""
    t = _axa_table(ring)
    n = ring.size
    hits = t == np.arange(n)[:, None]
    mask = hits.any(axis=1)
    least = np.where(mask, hits.argmax(axis=1), -1)
    return mask, least


@per_ring
def unit_regularity_table(ring):
    """(mask, least_u): which elements are unit-regular, least unit witness."""
    t = _axa_table(ring)
    n = ring.size
    us = np.array(ring.units.sorted_members(), dtype=np.int64)
    hits = t[:, us] == np.arange(n)[:, None]
    mask = hits.any(axis=1)
    least = np.where(mask, us[hits.argmax(axis=1)], -1)
    return mask, least


def regular_elements(ring):
    """All regular element indices, ascending."""
    mask, _ = regularity_table(ring)
    return [int(a) for a in np.flatnonzero(mask)]


def regular_witness(ring, a):
    """Least inner inverse of a, upgraded to a reflexive one; None if a is not regular."""
    mask, least = regularity_table(ring)
    if not mask[a]:
        return None
    x = int(least[a])
    x = ring.mul(ring.mul(x, a), x)  # xax satisfies both a=axa and x=xax
    return RegularityWitness(element=int(a), inner_inverse=x, reflexive=True)


def unit_regular_witness(ring, a):
    """Least unit u with a = a*u*a, or None."""
    mask, least = unit_regularity_table(ring)
    if not mask[a]:
        return None
    return int(least[a])


def special_clean_witnesses(ring, a):
    """All decompositions a = e + u with e idempotent, u a unit, aR meet eR = 0.

    The unit is forced by the idempotent, so the list is ordered by
    idempotent index; it is empty exactly when a is not special clean.
    """
    out = []
    for e in summand_partners(ring, "right")[a][0]:
        u = ring.sub(a, e)
        if u in ring.units:
            out.append(CleanDecomposition(element=int(a), idem=e, unit=u, special=True))
    return out


def is_clean(ring, a):
    """Least decomposition a = e + u without the disjointness requirement.

    The `special` flag still records whether aR meet eR = 0 happened to hold,
    so negative special-clean reports stay informative.
    """
    for e in ring.idempotent_list:
        u = ring.sub(a, e)
        if u in ring.units:
            special = e in summand_partners(ring, "right")[a][0]
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
    if u not in ring.units:
        raise InvariantViolation("claimed unit is not a unit")
    if ring.add(e, u) != a:
        raise InvariantViolation("decomposition does not sum to the element")
    u_inv = ring.units.inverse(u)
    t = ring.mul(ring.mul(a, u_inv), e)
    # a*u^-1*e equals e*u^-1*e + e, placing it in aR and eR simultaneously
    if t != ring.add(ring.mul(ring.mul(e, u_inv), e), e):
        raise InvariantViolation("derivation identity a*u^-1*e = e*u^-1*e + e failed")
    if t not in ring.right_principal_sets[a] or t not in ring.right_principal_sets[e]:
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
        witnesses["inner_inverse"] = reg.inner_inverse
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
