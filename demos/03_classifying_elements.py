"""Classifying elements: regular, unit-regular, clean, special clean.

An element a is regular when a = a*x*a for some x, unit-regular when a unit
works as the x, clean when a = idempotent + unit, and special clean when
additionally aR meets the idempotent's ideal only in 0. Each answer comes
with an explicit witness, and a special clean decomposition can always be
converted into a unit inner inverse by a short certified computation.
"""

import json

from ringlab import (classify_element, format_element, is_clean, parse_element,
                     parse_ring_spec, regular_witness, special_clean_witnesses,
                     unit_inverse_from_special_clean, unit_regular_witness)

z6 = parse_ring_spec("Zn:6")

print("== the residue 3 in Z_6 ==")
x = regular_witness(z6, 3)
print("reflexive inner inverse:", x, " (3 *", x, "* 3 = 3 and back)")
print("least unit inner inverse:", unit_regular_witness(z6, 3))
ws = special_clean_witnesses(z6, 3)
print("special clean decompositions:", [(d.idem, d.unit) for d in ws])
d = ws[0]
u_inv = unit_inverse_from_special_clean(z6, d)
print(f"from 3 = {d.idem} + {d.unit} the derived unit inner inverse is {u_inv}:",
      f"3 * {u_inv} * 3 = {z6.mul(z6.mul(3, u_inv), 3)}")

print("\n== 2 in Z_4 is not even regular ==")
z4 = parse_ring_spec("Zn:4")
print("regular witness:", regular_witness(z4, 2))
print("but it is clean:", is_clean(z4, 2))

print("\n== a product of idempotents that falls off the ladder ==")
t2 = parse_ring_spec("T2:Zn:3")
e = parse_element(t2, "[[1,1],[0,0]]")
f = parse_element(t2, "[[0,1],[0,1]]")
ef = t2.mul(e, f)
print("e and f are idempotent, their product is", format_element(t2, ef))
print("ef regular?", regular_witness(t2, ef) is not None)
print("(ef)R(ef) =", sorted({t2.mul(t2.mul(ef, r), ef) for r in range(27)}))
print("ef special clean?", bool(special_clean_witnesses(t2, ef)))
print("ef clean?", is_clean(t2, ef))

print("\n== the full JSON record for one element ==")
print(json.dumps(classify_element(z6, 3), indent=2, sort_keys=True))
