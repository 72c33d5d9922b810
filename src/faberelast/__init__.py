"""Series solver for the plane elastostatic rigid-inclusion problem.

Given an inclusion described by a finite-order exterior conformal map
and an arbitrary polynomial far-field loading, the package determines
the boundary density of the single-layer representation explicitly and
evaluates the displacement field everywhere, with a boundary-integral
quadrature oracle for end-to-end self-validation.
"""

from .conformal import ExteriorMap, UnivalenceReport, boundary_perimeter
from .errors import (
    ConfigError,
    ConvexityError,
    DegenerateRotationError,
    DomainError,
    FaberElastError,
    NonUnivalentMapError,
    NumericError,
    ProximityError,
    SampleShapeError,
    SingularBlockError,
    TruncationError,
)
from .faber import (
    FaberTable,
    build_faber,
    derivative_basis,
    eval_G,
    eval_faber,
    eval_ftilde,
    faber_values,
    grunsky_matrix,
)
from .fields import (
    FieldGrid,
    FieldSample,
    GridSpec,
    displacement,
    field_grid,
    single_layer_exterior,
    single_layer_interior,
    write_field_csv,
)
from .loading import (
    FarFieldLoading,
    Material,
    eval_u0,
    faber_coefficients,
    faber_coefficients_from_samples,
    material_from_figure_params,
    material_from_lame,
)
from .oracle import (
    Check,
    QuadratureRule,
    boundary_nodes,
    cauchy_operator,
    density_mode,
    equilibrium_residual,
    kelvin_single_layer,
    log_operator,
    residual_checks,
    transmission_residual,
    validation_checks,
)
from .solver import (
    DensitySolution,
    build_AD,
    build_y,
    coupling_block,
    density_on_boundary,
    required_table_order,
    solve_block,
    solve_c3,
    solve_c12,
    solve_full,
    solve_t,
    system_residual,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
