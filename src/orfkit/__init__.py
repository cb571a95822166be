"""Orthogonal rational functions on the unit circle with prescribed poles:
ladders, second-kind companions, para-orthogonal zeros, self-reciprocal
transforms, and associated ladders of arbitrary order."""

from .errors import (
    ConditionUnchecked,
    DenominatorVanishes,
    DivisionByZeroBlaschke,
    DivisionRemainderTooLarge,
    DomainError,
    FitResidualTooLarge,
    KernelSingularity,
    NegativeDensity,
    NonPositiveWeight,
    NumericalFailure,
    OrfkitError,
    ParameterOutOfDisk,
    PoleMismatch,
    PoleProximity,
    RankDeficiency,
    ZeroCollision,
    ZeroOffCircle,
)
from .ratfun import (
    KernelParams,
    PoleSequence,
    RatFun,
    blaschke_factor,
    blaschke_product,
    combine,
    evaluate,
    evaluate_stack,
    herglotz_kernel,
    poisson_kernel,
    substar_eval,
    superstar,
)
from .measure import (
    CaratheodoryFn,
    CircleMeasure,
    boundary_grid,
    builtin_measure,
    caratheodory_from_measure,
    default_grid,
    inner_product,
    measure_from_config,
    weight_from_caratheodory,
)
from .engine import (
    OrfLevel,
    OrfSystem,
    ParaPair,
    caratheodory_from_system,
    determinant_residual,
    extract_parameters,
    gram_schmidt_orf,
    interpolation_residuals,
    lebesgue_arf,
    lebesgue_orf,
    measure_from_system,
    para_pair,
    para_zeros,
    recurrence_step,
    synthesize,
)
from .transforms import (
    ArfSystem,
    SelfReciprocalQuad,
    apply_transform,
    arf_caratheodory,
    arf_explicit,
    arf_quad,
    arf_recurrence,
    check_quad,
    identity_quad,
    relation_residuals,
    remark_identity_residual,
    transformed_caratheodory,
)

__version__ = "0.1.0"
