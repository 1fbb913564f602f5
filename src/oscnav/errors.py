"""Exception types shared across the package."""


class OscnavError(Exception):
    """Base class for all package errors."""


class NonPositiveFrequency(OscnavError):
    """A boundary frequency or step duration that must be > 0 is not."""


class NonFiniteEntry(OscnavError):
    """A pulse amplitude is NaN or infinite, or a propagation overflows."""


class IndivisibleChunking(OscnavError):
    """Requested chunk count does not divide the number of pulses."""


class NegativeOccupation(OscnavError):
    """Initial mean particle number must be >= 0."""


class EmptyProtocol(OscnavError):
    """Operation requires at least one pulse."""


class NonSymplectic(OscnavError):
    """A matrix that must have unit determinant does not."""


class NotASolution(OscnavError):
    """An input is not a solution: its infidelity is not below the threshold,
    or, for navigation, the corrector cannot hold it on beta = 0."""


class RestartBudgetExhausted(OscnavError):
    """No solution found within the configured number of random restarts."""
