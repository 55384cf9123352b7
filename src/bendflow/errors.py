"""Exception hierarchy. Public functions raise these instead of bare ValueError."""


class BendflowError(Exception):
    """Base error for the package."""


class DomainError(BendflowError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class RangeError(DomainError):
    """Value outside the invertible range of a monotone map."""


class GridMismatchError(DomainError):
    """Operands live on different grids."""


class ConvergenceError(BendflowError, RuntimeError):
    """An iterative or series computation failed to converge."""


class StepConvergenceError(ConvergenceError):
    """Inner solver of a minimizing-movement step did not reach tolerance.

    Carries the best iterate found (`partial`, nodal values) and, when raised
    from a trajectory run, the index of the failing step.
    """

    def __init__(self, message, partial=None, step_index=None):
        super().__init__(message)
        self.partial = partial
        self.step_index = step_index


class ConfigError(BendflowError, ValueError):
    """Malformed or semantically invalid run configuration."""
