"""Numeric engines: adaptive quadrature and truncated-Taylor (jet) arithmetic."""
