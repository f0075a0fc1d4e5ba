"""Exception types shared across the package."""

__all__ = ["MeasureSpecError", "DomainError", "QuadratureError"]


class MeasureSpecError(ValueError):
    """A measure specification violates its invariants."""


class DomainError(ValueError):
    """An interval or point falls outside a measure's domain."""


class QuadratureError(RuntimeError):
    """A quadrature could not certify the requested accuracy."""
