"""Z/p actions: regularity, fixed subcomplexes, and Lefschetz numbers.

The fixed-point index identity: the Lefschetz number of every power
equals the Euler characteristic of that power's fixed set.
"""

from betticong import QQ, fixed_subcomplex, lefschetz_number, make_regular
from betticong.corpus import (
    disc_rotation,
    free_polygon_action,
    s3_free_action,
    sphere_rotation,
    torus_rotation,
)

for name, action in [
    ("free rotation of the 5-gon (p=5)", free_polygon_action(5)),
    ("rotation of S^2 (p=3)", sphere_rotation(3)),
    ("shift of the grid torus (p=3)", torus_rotation(3)),
    ("free diagonal rotation of S^3 (p=3)", s3_free_action()),
]:
    F = fixed_subcomplex(action)
    chi = F.euler_characteristic()
    lam = lefschetz_number(action)
    print(f"{name}")
    print(f"  fixed set f-vector {F.f_vector if F.dim >= 0 else '(empty)'}")
    print(f"  Lefschetz number {lam} = chi(fixed set) {chi}")

# The disc rotation is the one corpus action that is not regular: the solid
# triangle is mapped to itself setwise.  Its fixed set is read off the
# invariant simplices as the barycenter (a0|a1|a2), the vertex that one
# barycentric subdivision (make_regular) would expose, without building it.
disc = disc_rotation()
F = fixed_subcomplex(disc)
print("disc rotation regularised:", make_regular(disc).complex.f_vector,
      "fixed:", F.f_vector, F.vertices)
print("Lefschetz number of the disc rotation:", lefschetz_number(disc))
