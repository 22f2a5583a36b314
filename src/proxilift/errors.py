"""Exception hierarchy shared by all proxilift modules."""


class ProxiliftError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ProxiliftError, ValueError):
    """A value violates a structural invariant (bad metric, bad weights, ...)."""


class DimensionMismatch(ProxiliftError, ValueError):
    """Operands are defined over spaces of different sizes.

    Raised as ``DimensionMismatch(message, *sizes)``; it prints as the
    message followed by the sizes in parentheses, e.g. ``metric matrix must
    be square of size (2)``.
    """

    def __str__(self):
        message, *sizes = self.args or ("",)
        if not sizes:
            return str(message)
        return f"{message} ({', '.join(map(str, sizes))})"


class UnsupportedKind(ProxiliftError, TypeError):
    """An operation was applied to a system kind it does not support."""


class NotInHull(ProxiliftError, ValueError):
    """A point does not lie in the convex hull of the simplex vertices."""


class SpecError(ProxiliftError, ValueError):
    """A system spec file is malformed.  ``path`` locates the offending field."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")

