"""Isogeometric analysis of functionally graded plates.

Four-unknown refined plate kinematics (membrane displacements plus bending
and shear deflection parts) discretized with C1 NURBS patches; covers static
bending, free vibration and linearized buckling of square and circular plates.
"""

from .assembly import (
    BC,
    GlobalSystem,
    PlateModel,
    SinusoidalLoad,
    UniformLoad,
    assemble,
    edge_constraints,
    strain_operators,
)
from .errors import (
    ConfigurationError,
    DomainError,
    FGPlateError,
    GeometryError,
    IntegrationError,
    MassMatrixError,
    RefinementError,
    SingularMappingError,
    SolverError,
    SpectrumError,
)
from .materials import (
    MATERIALS,
    FGMSpec,
    Phase,
    Profile,
    Scheme,
    SectionConstants,
    ShearModel,
    effective_props,
    section_constants,
    shear_fn,
    volume_fraction,
)
from .nurbs import (
    BasisLocal,
    ControlNet,
    Patch,
    h_refine,
    make_disk_patch,
    make_mapped_disk_patch,
    make_square_patch,
    physical_derivs,
    surface_basis,
)
from .postprocess import (
    NondimReport,
    ReportFamily,
    Station,
    StressProfile,
    field_at,
    locate,
    nondimensionalize,
    stress_profile,
)
from .cases import CaseResult, SweepResult, profile_case, run_case, sweep_case
from .config import PRESETS, CaseConfig, load_config, parse_config, preset_config
from .solvers import EigenResult, solve_buckling, solve_static, solve_vibration

__version__ = "0.1.0"
