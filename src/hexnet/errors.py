"""Exception types shared across the package."""


class HexnetError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(HexnetError, ValueError):
    """Malformed or inconsistent scenario configuration."""


class MissingKey(ConfigError):
    """A required configuration key is absent."""

    def __init__(self, section, key):
        super().__init__(f"missing required key '{key}' in section [{section}]")
        self.section = section
        self.key = key


class OutOfRange(ConfigError):
    """A parameter violates its allowed range."""

    def __init__(self, key, value, bound):
        super().__init__(f"parameter '{key}' = {value!r} violates: {bound}")
        self.key = key
        self.value = value
        self.bound = bound


class NonIntegerThzCount(ConfigError):
    """delta_T * N_A is not an integer within tolerance."""

    def __init__(self, delta_t, n_a):
        super().__init__(
            f"delta_T * N_A = {delta_t * n_a!r} is not an integer "
            f"(delta_T={delta_t!r}, N_A={n_a!r})"
        )
        self.delta_t = delta_t
        self.n_a = n_a


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


class ToleranceBelowFloor(HexnetError, ValueError):
    """A requested relative tolerance below the quadrature's error floor."""


class DegenerateEvent(HexnetError, ValueError):
    """Conditional quantity requested for an association event of ~zero probability."""


class NumericalInconsistency(HexnetError, RuntimeError):
    """A probability landed outside [0, 1] beyond numerical tolerance."""
