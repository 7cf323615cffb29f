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
    polarization_of,
    projective_distance,
)
from .dressing import (
    FullChain,
    ReducedChain,
    blaschke_factor,
    build_full_chain,
    build_reduced_chain,
    eval_chain,
    full_chain_matrix,
    one_soliton_field,
    permutation_residual,
    reconstruct_field,
)
from .asymptotics import (
    CollisionContext,
    asymptotic_profile,
    beta_in,
    beta_out,
    collision_consistency_residual,
    intermediate_gamma,
    xi_factor,
)
from .maps import (
    BoundaryReflection,
    ExtendedPoint,
    IdentityReflection,
    MapChain,
    YangBaxterRule,
    involution_residual,
    reflection_equation_residual,
    reflection_map,
    reversibility_residual,
    s_twist_residual,
    transfer_commutator_residual,
    transfer_map,
    yb_map,
    ybe_residual,
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
    grid_for_data,
    pde_residual,
    sample_grid,
)

__version__ = "0.1.0"
