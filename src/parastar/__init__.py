"""Numerics for a left-opening parabolic target region and its radius results.

The package evaluates the disc-to-parabola map and its classical
companion targets with explicit branch conventions, builds the growth
extremals by series recurrence, provides the region geometry (margins,
inscribed discs, argument sector), and catalogs every sharp membership
radius together with an independent numerical oracle that re-derives it.
"""

from .errors import (
    ArgUndefined,
    CenterOutsideRange,
    DerivativeVanishes,
    DomainError,
    MaxIterExceeded,
    NonzeroConstantTerm,
    NoSignChange,
    ParamRange,
    ParastarError,
    QuadratureFailure,
    SingularOnCircle,
    SingularPoint,
    UnknownTarget,
)
from .maps import (
    TargetId,
    left_parabola,
    parabola_map,
    ronning_parabola,
    target_map,
)
from .oracle import (
    CoveringEstimate,
    ExtremeResult,
    VerificationReport,
    bracket_root,
    certify_sufficient_condition,
    check_subordination_inclusion,
    covering_constant,
    extremize_on_circle,
    golden_bracket_root,
    growth_bounds,
    janowski_disc_bound,
    member_growth_modulus,
    sample_schwarz_function,
)
from .radii import (
    RadiusEntry,
    default_entries,
    get_entry,
    inner_disc_radius,
    majorization_phi,
    majorization_psi,
    oracle_root,
)
from .region import (
    InscribedDisc,
    argument_sector_check,
    boundary_distance_profile,
    boundary_points,
    distance_critical_points,
    inscribed_disc,
    margin,
    real_part_bounds,
    real_part_profile,
    support_margin,
)
from .series import (
    PowerSeries,
    extremal_lower,
    extremal_upper,
    integrate_over_t,
    p0_coefficients,
    series_exp,
)

__version__ = "0.1.0"
