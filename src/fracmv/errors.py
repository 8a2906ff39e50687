"""Exception types shared across the package.

The CLI maps these onto process exit codes: validation problems exit
with 2, numerical failures (blow-up, non-convergence) with 3, and
verification-suite failures with 4.
"""

from __future__ import annotations


class FracmvError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(FracmvError, ValueError):
    """A parameter, field, or configuration value is out of contract.

    The message always names the offending field or argument.
    """


class InvalidFieldError(ValidationError):
    """A grid function contains NaN or Inf entries."""


class GridMismatchError(ValidationError):
    """Two objects live on different spatial or temporal grids."""


class BlowUpError(FracmvError, ArithmeticError):
    """Time stepping produced a non-finite state.

    Carries the step index and physical time at which the first
    non-finite value appeared, and ``particle``: the lowest index among
    the paths of an ensemble that failed at that step, or None for a
    single path.
    """

    def __init__(self, step: int, time: float, particle: int | None = None):
        self.step = step
        self.time = time
        self.particle = particle
        where = "" if particle is None else f"particle {particle}: "
        super().__init__(
            f"{where}non-finite state after step {step} (t = {time:.6g}); aborting"
        )


class FixedPointDivergenceError(FracmvError, RuntimeError):
    """The freezing map failed to contract at every metric weight tried."""
