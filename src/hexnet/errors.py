"""Exception types shared across the package."""


class HexnetError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(HexnetError, ValueError):
    """Every rejected input, a ``ValueError``: a config document, a field or
    value given to ``with_updates``, a sweep, a non-finite value, or a
    ``rel_tol`` the engines cannot reach.  The CLI exits 2 on it."""


class DomainError(HexnetError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class MaxDepthExceeded(HexnetError, RuntimeError):
    """Adaptive quadrature failed to converge; carries the worst panel."""

    def __init__(self, a, b, err):
        super().__init__(
            f"quadrature did not converge; worst panel [{a!r}, {b!r}] "
            f"error estimate {err!r}"
        )
        self.panel = (a, b)
        self.error = err


class NonFiniteEstimate(MaxDepthExceeded):
    """A quadrature panel's error estimate is NaN or infinite, so no number
    of halvings converges; carries that panel."""


class NotConverged(HexnetError, ArithmeticError):
    """An iterative solver stopped with its residual above tolerance."""


class DegenerateEvent(HexnetError, ValueError):
    """Conditional quantity requested for an association event of ~zero probability."""


class NumericalInconsistency(HexnetError, RuntimeError):
    """A probability landed outside [0, 1] beyond numerical tolerance."""
