"""Exception types shared across the library."""

from __future__ import annotations


class AssumptionViolation(ValueError):
    """A model fails a structural requirement of the series construction.

    ``code`` is a stable machine-readable identifier naming the violated
    requirement: ``check_free_part`` raises ``"free-part-not-hermitian"`` and
    ``"free-part-mixes-grades"``.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class TruncationError(RuntimeError):
    """The series tail bound could not be pushed below the tolerance.

    Carries the last certified tail bound and the order cap that was hit.
    """

    def __init__(self, message: str, tail_bound: float, max_order: int):
        super().__init__(message)
        self.tail_bound = float(tail_bound)
        self.max_order = int(max_order)


class StiffnessError(RuntimeError):
    """The adaptive reference integrator failed to advance."""

    def __init__(self, message: str, detail: str = ""):
        super().__init__(message)
        self.detail = detail
