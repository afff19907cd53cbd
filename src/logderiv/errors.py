"""Exception types shared across the package."""


class PoleHit(ValueError):
    """Evaluation point coincides with a pole."""


class DomainError(ValueError):
    """Argument outside the documented domain of an operation."""


class PreconditionViolation(ValueError):
    """A stated precondition of a bound does not hold for the inputs."""


class ZeroAtEndpoint(ValueError):
    """Polynomial vanishes at the requested endpoint; the ratio is undefined."""


class RootIsolationFailure(RuntimeError):
    """Real roots could not be separated at the configured precision."""


class ToleranceNotMet(RuntimeError):
    """Adaptive quadrature did not reach its tolerance: the panel budget ran
    out, or the integrand underflowed to 0 at every node.

    Carries the partial result in ``result``; a search that fails on it
    puts its partial record in ``record``.
    """

    def __init__(self, message, result=None, record=None):
        super().__init__(message)
        self.result = result
        self.record = record


class BudgetExhausted(RuntimeError):
    """A search budget too small to run, or a level set that needs more
    boxes than its budget; a search carries its partial record in ``record``."""

    def __init__(self, message, record=None):
        super().__init__(message)
        self.record = record
