"""Exception hierarchy for orfkit.

Every failure mode that callers are expected to handle gets its own class;
all inherit from OrfkitError so the CLI can map any library failure to a
single exit code.
"""


class OrfkitError(Exception):
    """Base class for all orfkit errors."""


class DomainError(OrfkitError):
    """Input outside the mathematical domain (pole on/off the disk, bad grid, ...)."""


class PoleProximity(OrfkitError):
    """Evaluation point too close to a pole of the rational function."""


class PoleMismatch(OrfkitError):
    """Two rational functions do not share the same pole sequence."""


class KernelSingularity(OrfkitError):
    """Kernel evaluated at (t, z) too close to its singular set."""


class NonPositiveWeight(OrfkitError):
    """Measure density sampled non-positive."""


class NegativeDensity(OrfkitError):
    """Recovered boundary density came out negative."""


class RankDeficiency(OrfkitError):
    """A ladder level with no direction of its own; basis numerically dependent."""


class ParameterOutOfDisk(OrfkitError):
    """Recurrence parameter with modulus >= 1."""


class ZeroOffCircle(OrfkitError):
    """A para-orthogonal zero left the unit circle beyond tolerance."""


class DivisionRemainderTooLarge(OrfkitError):
    """Dividing out a transform's common factor left a remainder; transform conditions not actually met."""


class ConditionUnchecked(OrfkitError):
    """Transform applied without a prior condition check."""


class DenominatorVanishes(OrfkitError):
    """Ratio of functions evaluated where the denominator vanishes."""


class NumericalFailure(OrfkitError):
    """An asserted identity or tolerance failed during construction."""
