"""Borel equivariant cohomology and the localization theorem, numerically.

The double complex (periodic Z/p resolution) tensor (simplicial cochains)
computes H^*_G exactly; above dim X the dimensions stabilise at the total
Betti number of the fixed set.  The evaluated E_2 row dimensions recover
the trivial and augmentation-kernel block counts of H^*(X;F_p).
"""

from betticong import GF, equivariant_betti, group_cohomology_dims, localization_check
from betticong.corpus import (
    free_polygon_action,
    point_action,
    sphere_rotation,
    wedge_spheres_action,
)
from betticong.group_action import induced_cohomology_action, tfr_decomposition

print("One fixed point (B Z/3): every equivariant Betti number is 1.")
print("  ", equivariant_betti(point_action(3), range(7)))

print("Free rotation of the 5-gon: H^*_G is the circle quotient's cohomology.")
print("  ", equivariant_betti(free_polygon_action(5), range(6)))

print("Rotation of S^2 (p=3): dimensions stabilise at dim H^*(S^0) = 2.")
print("  ", equivariant_betti(sphere_rotation(3), range(6)))

for name, action in [
    ("S^2 rotation p=3", sphere_rotation(3)),
    ("free 5-gon p=5", free_polygon_action(5)),
    ("wedge of three spheres p=3", wedge_spheres_action()),
]:
    res = localization_check(action)
    print(f"{name}: stable dims {res['stable_dims']} vs fixed total {res['fixed_total']}"
          f" -> {'PASS' if res['ok'] else 'FAIL'}")

print()
print("Evaluated group cohomology of Z/3 modules (even, odd):")
print("  trivial F_3      :", group_cohomology_dims([[1]], 3))
perm = [[1 if i == (j + 1) % 3 else 0 for j in range(3)] for i in range(3)]
print("  free F_3[Z/3]    :", group_cohomology_dims(perm, 3))
print("  ker(augmentation):", group_cohomology_dims([[2, 2], [1, 0]], 3))

print()
print("Degreewise match with the T/F/R decomposition (wedge of 3 spheres):")
a = wedge_spheres_action()
d = tfr_decomposition(a)
for mu, M in enumerate(induced_cohomology_action(a, GF(3))):
    dims = group_cohomology_dims(M, 3) if M else (0, 0)
    print(f"  H^{mu}: blocks t={d.t[mu]} f={d.f[mu]} r={d.r[mu]}  evaluated E2 row {dims}")
