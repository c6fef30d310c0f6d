"""Bigraded Poincare duality algebras and the congruence machinery.

The even case: dim A = chi(A) mod 4.  The odd case: a derivation
differential that lowers the second grading changes the total dimension by
a multiple of 4, because phi(x * delta y) is a nondegenerate skew form on
the even part modulo cycles.
"""

import random
from fractions import Fraction

from betticong import QQ, GF, check_pd, euler_and_dim, homology, lemma_even_congruence, odd_congruence
from betticong.pd_algebra import (
    odd_model,
    odd_model_differential,
    random_differential_algebra,
    random_pd_algebra,
)

rng = random.Random(2026)

print("Twenty random even-dimensional PD algebras over F_5:")
for k in range(20):
    A, phi = random_pd_algebra(rng, GF(5), even_dim=True)
    v = lemma_even_congruence(A, phi)
    print(f"  dim {v.lhs:>2}  chi {v.rhs:>3}   dim - chi = {v.lhs - v.rhs:>3}  (= 0 mod 4: {v.holds})")

print()
print("Homology of differential PD algebras is 0 or PD of the same dimension:")
for k in range(6):
    A, phi, delta = random_differential_algebra(rng, QQ)
    H, phi_H = homology(A, delta, phi)
    if H is None:
        print(f"  dim {A.dim:>2} -> homology 0")
    else:
        res = check_pd(H, phi_H)
        print(f"  dim {A.dim:>2} -> homology dim {H.dim:>2}, PD of dim {res.formal_dim} ({res.is_pd})")

print()
print("The surgered S^1 x S^2 example: Betti profile (1,2,2,1), fixed set a circle.")
A, phi, C = odd_model(QQ, m=1, r=2)
S = [[0, Fraction(1)], [Fraction(-1), 0]]
delta = odd_model_differential(A, C, S)
rep = odd_congruence(A, delta, phi)
print(f"  total dimension {rep.dim_total}, homology dimension {rep.dim_homology}")
print(f"  6 = 2 mod 4: {rep.congruent}")
print(f"  mechanism: gamma skew {rep.gamma_skew}, nondegenerate {rep.gamma_nondegenerate}, "
      f"quotient dimension {rep.quotient_dim} (even)")
