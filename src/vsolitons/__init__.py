"""Vector NLS soliton workbench.

Exact multi-soliton fields from rank-one dressing chains, the collision
Yang-Baxter map and boundary reflection maps with their set-theoretical
equations, half-line solitons by the mirror-image construction, and
grid-based certification of all of it.
"""

from .errors import (
    ConfigError,
    DegeneracyError,
    DomainError,
    PoleError,
    ValidationError,
    VsolitonsError,
    WindowError,
)
from .soldata import (
    BoundarySpec,
    Mixed,
    NormingVector,
    Polarization,
    Robin,
    RotatedMixed,
    SolitonData,
    SpectralPoint,
    canonical_phase,
    projective_distance,
)
from .dressing import (
    blaschke_factor,
    build_reduced_chain,
    eval_chain,
    one_soliton_field,
    permutation_residuals,
    reconstruct_field,
)
from .asymptotics import (
    beta_in,
    beta_out,
    collision_pair_residuals,
    intermediate_gamma,
)
from .maps import (
    involution_residuals,
    projective_distances,
    reflection_equation_residuals,
    reflection_maps,
    reversibility_residuals,
    s_twist_residuals,
    transfer_commutators,
    yb_schedule,
    ybe_residuals,
)
from .mirror import (
    HalfLineData,
    a_matrix,
    halfline_field,
    mirror_constraint_residual,
    mirror_polarization_residual,
    solve_mirror_norming,
)
from .verification import (
    FieldGrid,
    boundary_residual,
    convergence_order,
    extract_asymptotic_polarization,
    pde_residual,
    sample_grid,
)

__version__ = "0.1.0"
