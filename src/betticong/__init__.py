"""betticong: exact verification of mod-4 total-Betti-number congruences
between fixed-point sets of Z/p actions and their ambient Poincare duality
spaces, together with the algebraic machinery behind them."""

from .exactalg import (
    GF,
    QQ,
    SmithForm,
    nilpotent_block_sizes,
    smith_normal_form,
)
from .simplicial import (
    GradedBetti,
    SimplicialComplex,
    barycentric_subdivision,
    cup_pairing,
    join,
    link,
    pd_check,
    product,
    suspension,
)
from .group_action import (
    GroupAction,
    TFRDecomposition,
    bockstein_condition,
    fixed_subcomplex,
    induced_cohomology_action,
    lefschetz_number,
    make_regular,
    quotient_complex,
    tfr_decomposition,
    validate_action,
)
from .pd_algebra import (
    BigradedAlgebra,
    Differential,
    Orientation,
    check_derivation,
    check_pd,
    euler_and_dim,
    homology,
    lemma_even_congruence,
    odd_congruence,
)
from .equivariant import equivariant_betti, group_cohomology_dims, localization_check
from .theorems import (
    TheoremReport,
    check_even_codim,
    check_theorem1_algebraic,
    check_theorem2,
    check_theorem4,
    homology_manifold_check,
    smith_inequality_check,
)

__version__ = "0.1.0"
