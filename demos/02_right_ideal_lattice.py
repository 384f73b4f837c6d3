"""Right ideals as right modules: generation, summands, complements,
homomorphism search, and shared complements.

An ideal is stored as an int bitset over element indices plus a generator
list, so direct-sum certificates are int operations: A (+) B = R means the
bitsets meet only in the bit of 0 and the sizes multiply to |R|. A module
map between ideals stores the image of each source member, in ascending
member order.
"""

from ringlab import (all_right_ideals, common_complement_idempotent,
                     direct_complements, graph_module, hom_search, ideal_intersect,
                     ideal_sum, is_direct_pair, make_zmod, parse_ring_spec, principal,
                     reconstruct_common_complement, right_annihilator)
from ringlab.ideals import identity_hom

z6 = make_zmod(6)

print("== principal ideals and annihilators in Z_6 ==")
for a in range(6):
    print(f"  {a}R = {list(principal(z6, a).sorted_members)}   "
          f"r({a}) = {list(right_annihilator(z6, a).sorted_members)}")

print("\n== the whole lattice of right ideals ==")
for ideal in all_right_ideals(z6):
    print("  members:", list(ideal.sorted_members), " generators:", ideal.generators)

A = principal(z6, 2)
B = principal(z6, 3)
print("\nsum of 2R and 3R:", list(ideal_sum(A, B).sorted_members))
print("intersection:", list(ideal_intersect(A, B).sorted_members))
print("3R is a direct summand with complement(s):",
      [list(c.sorted_members) for c in direct_complements(B)])

print("\n== homomorphism search ==")
homs = hom_search(B, B)
print(f"{len(homs)} module endomorphisms of 3R, as images of {B.sorted_members}:",
      [h.images for h in homs])
isos = hom_search(B, A, require_iso=True)
print("isomorphisms 3R -> 2R:", isos, "(sizes differ, so none)")

print("\n== shared complements in a matrix ring ==")
m2 = parse_ring_spec("M2:Zn:2")
# two different 4-element summands: the first-row and second-row ideals
first_row = principal(m2, 8)    # generated by [[1,0],[0,0]]
second_row = principal(m2, 2)   # generated by [[0,0],[1,0]]
print("A =", list(first_row.sorted_members))
print("B =", list(second_row.sorted_members))
found = common_complement_idempotent(first_row, second_row)
if found:
    e, restriction = found
    print("projection idempotent:", e, "maps B onto A, member by member, to",
          restriction.images)
    W = reconstruct_common_complement(e, first_row, second_row)
    print("(1-e)R =", list(W.sorted_members), "complements both:",
          is_direct_pair(first_row, W) and is_direct_pair(second_row, W))
else:
    print("no shared complement")

print("\n== graph of a module map ==")
ident = identity_hom(B)
print("graph of the identity on 3R (elements x + x):",
      list(graph_module(ident).sorted_members))
