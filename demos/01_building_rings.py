"""Building finite rings as explicit operation tables.

Every ring in the toolkit is a pair of size x size numpy index tables plus
the indices of 0 and 1. Constructors cover Z_n, full and upper-triangular
matrix rings, finite products, and opposite rings; each validates against
the full set of ring axioms on demand.
"""

import numpy as np

from ringlab import (make_matrix_ring, make_opposite, make_product, make_triangular_ring,
                     make_zmod)

print("== integers mod 6 ==")
z6 = make_zmod(6)
z6.validate()
print("spec:", z6.spec, " size:", z6.size)
print("addition table:\n", z6.add_table)
print("multiplication table:\n", z6.mul_table)
units = np.flatnonzero(z6.unit_flags).tolist()
print("units:", units, " with inverses:", {u: int(z6.unit_inverse[u]) for u in units})
print("idempotents:", list(z6.idempotent_list))

print("\n== 2x2 matrices over Z_2 ==")
m2 = make_matrix_ring(2, make_zmod(2))
m2.validate()
print("spec:", m2.spec, " size:", m2.size)
print("the identity matrix sits at index", m2.one)
print("unit group order:", int(m2.unit_flags.sum()), " (the invertible 2x2 matrices over Z_2)")
print("idempotent count:", len(m2.idempotent_list))

print("\n== upper-triangular 2x2 matrices over Z_3 ==")
t2 = make_triangular_ring(2, make_zmod(3))
t2.validate()
print("spec:", t2.spec, " size:", t2.size)

print("\n== products and opposites ==")
prod = make_product([make_zmod(2), make_zmod(3)])
print("spec:", prod.spec, " size:", prod.size,
      " idempotents:", len(prod.idempotent_list))

op = make_opposite(t2)
print("opposite of", t2.spec, "reverses multiplication:",
      not np.array_equal(op.mul_table, t2.mul_table))
print("opposite of a commutative ring is itself:",
      np.array_equal(make_opposite(z6).mul_table, z6.mul_table))
print("taking the opposite twice restores the tables:",
      np.array_equal(make_opposite(op).mul_table, t2.mul_table))
