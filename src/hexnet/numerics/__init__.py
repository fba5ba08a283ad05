"""Numeric engines: adaptive quadrature and truncated-Taylor (jet) arithmetic."""

from .jets import Jet, affine_power
from .quadrature import (
    Quadrature,
    QuadResult,
    TailIntegral,
    integrate,
    integrate_semiinfinite,
)

__all__ = [
    "Jet",
    "affine_power",
    "Quadrature",
    "QuadResult",
    "TailIntegral",
    "integrate",
    "integrate_semiinfinite",
]
