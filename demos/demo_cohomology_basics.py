"""Build some complexes and inspect their exact cohomology.

Everything is computed with exact arithmetic: Smith normal form over Z,
fraction-free elimination over Q, canonical residues over F_p.
"""

from betticong import GF, QQ, SimplicialComplex, cup_pairing, pd_check, product, suspension
from betticong.corpus import lens_space, polygon, rp2_six_vertex

# A circle, a sphere, a torus.
circle = polygon(5)
sphere = suspension(circle)
torus = product(polygon(3, "a"), polygon(3, "b"))

print("circle  :", circle.cohomology(QQ), " chi =", circle.euler_characteristic())
print("sphere  :", sphere.cohomology(QQ), " chi =", sphere.euler_characteristic())
print("torus   :", torus.cohomology(QQ), " chi =", torus.euler_characteristic())

# The 6-vertex projective plane sees its 2-torsion only at p = 2.
rp2 = rp2_six_vertex()
print("RP^2 over Q :", rp2.cohomology(QQ))
print("RP^2 over F2:", rp2.cohomology(GF(2)))
print("RP^2 over F3:", rp2.cohomology(GF(3)))
print("RP^2 over Z :", rp2.integral_cohomology())

# Poincare duality through cup products: the torus pairing in degree 1 is a
# skew 2x2 matrix, and duality forces b_i = b_{2-i}.
ring = cup_pairing(torus, QQ)
print("torus degree-1 pairing matrix:")
for row in ring.pairing_matrix(1):
    print("  ", *row)
result = pd_check(torus, QQ)
print("torus is PD:", result.is_pd, "of formal dimension", result.formal_dim)

# A suspension shifts reduced Betti numbers up by one.
print("suspension of RP^2 over Z:", suspension(rp2).integral_cohomology())

# The lens space L(3,1) (1728 tetrahedra) has H^2 = Z/3.  Its Smith form
# eliminates the +-1 pivots sparsely and leaves a tiny core.
print("L(3,1) over Z:", lens_space().integral_cohomology())
