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
    NoConvergence,
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
    eval_target,
    left_parabola,
    parabola_map,
    ronning_parabola,
    sqrt_upper,
    target_map,
)
from .oracle import (
    BracketSolverConfig,
    CoveringEstimate,
    ExtremeResult,
    VerificationReport,
    bracket_root,
    caratheodory_log_derivative_bound,
    caratheodory_order_check,
    caratheodory_order_disc,
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
    beta_disc_radius,
    caratheodory_order_radius,
    corollary_radius,
    default_entries,
    disc_class_radius,
    get_entry,
    inner_disc_radius,
    m_class_radius,
    majorization_phi,
    majorization_psi,
    majorization_radius,
    membership_radius,
    oracle_root,
    peng_zhong_radius,
    ratio_class_radius,
)
from .region import (
    InscribedDisc,
    argument_sector_check,
    boundary_distance_profile,
    boundary_points,
    distance_critical_points,
    in_region,
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
