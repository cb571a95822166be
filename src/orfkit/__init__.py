"""Orthogonal rational functions on the unit circle with prescribed poles:
ladders, second-kind companions, para-orthogonal zeros, self-reciprocal
transforms, and associated ladders of arbitrary order."""

from .errors import (
    ConditionUnchecked,
    DenominatorVanishes,
    DivisionRemainderTooLarge,
    DomainError,
    KernelSingularity,
    NegativeDensity,
    NonPositiveWeight,
    NumericalFailure,
    OrfkitError,
    ParameterOutOfDisk,
    PoleMismatch,
    PoleProximity,
    RankDeficiency,
    ZeroOffCircle,
)
from .ratfun import (
    PoleSequence,
    RatFun,
    blaschke_factor,
    blaschke_product,
    evaluate,
    evaluate_stack,
    herglotz_kernel,
    poisson_kernel,
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
    gram_schmidt_orf,
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
    arf_quad,
    arf_recurrence,
    check_quad,
    identity_quad,
    relation_residuals,
    transformed_caratheodory,
)

__version__ = "0.1.0"
