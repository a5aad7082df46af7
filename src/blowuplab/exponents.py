"""Critical-exponent formulas and the blow-up range classifier.

Thresholds are floats above 1, and a vanishing positive part in a denominator
yields `math.inf`, never an overflow, so `p <= threshold` stays meaningful at
the degenerate parameter points (n = 1, or n*(1-beta) <= 2).
"""

import math
import operator
from enum import Enum

__all__ = [
    "RegionVerdict",
    "conjugate_exponent",
    "strauss_exponent",
    "kato_threshold",
    "beta_threshold",
    "classify",
    "scaling_d",
]


class RegionVerdict(Enum):
    THEOREM_BLOWUP = "TheoremBlowup"
    OUTSIDE_THEOREM = "OutsideTheorem"


def _as_int(n) -> int:
    try:
        return operator.index(n)
    except TypeError:
        raise TypeError(f"expected an integer, got {n!r}") from None


def conjugate_exponent(p: float) -> float:
    """Holder conjugate p / (p - 1); requires p > 1."""
    if not p > 1.0:
        raise ValueError(f"conjugate exponent needs p > 1, got {p}")
    return p / (p - 1.0)


def strauss_exponent(n) -> float:
    """Positive root of (n-1) p^2 - (n+1) p - 2 = 0, defined for n >= 2."""
    n = _as_int(n)
    if n < 2:
        raise ValueError(f"strauss_exponent needs n >= 2, got {n}")
    return (n + 1 + math.sqrt(n * n + 10 * n - 7)) / (2 * (n - 1))


def kato_threshold(n) -> float:
    """(n+1) / (n-1) with the positive-part convention: infinite at n = 1."""
    n = _as_int(n)
    if n < 1:
        raise ValueError(f"kato_threshold needs n >= 1, got {n}")
    if n == 1:
        return math.inf
    return (n + 1) / (n - 1)


def beta_threshold(n, beta: float) -> float:
    """Blow-up threshold for the damping power beta.

    For beta >= -1 this is the Kato threshold; for beta < -1 it is
    (n(1-beta) + 2) / (n(1-beta) - 2), infinite when the denominator is
    nonpositive.  The two branches agree at beta = -1.  A beta for which
    the threshold is not above 1 (nan or -inf) is a ValueError.
    """
    n = _as_int(n)
    if n < 1:
        raise ValueError(f"beta_threshold needs n >= 1, got {n}")
    if beta >= -1.0:
        return kato_threshold(n)
    den = n * (1.0 - beta) - 2.0
    value = math.inf if den <= 0.0 else (n * (1.0 - beta) + 2.0) / den
    if not value > 1.0:
        raise ValueError(f"threshold must exceed 1, got {value} at beta = {beta}")
    return value


def classify(n, beta: float, p: float) -> RegionVerdict:
    """Whether (n, beta, p) lies in the proven finite-time blow-up range."""
    if not p > 1.0:
        raise ValueError(f"classify needs p > 1, got {p}")
    if p <= beta_threshold(n, beta):
        return RegionVerdict.THEOREM_BLOWUP
    return RegionVerdict.OUTSIDE_THEOREM


def scaling_d(beta: float) -> float:
    """Space-scale exponent used by the window construction: 1 for
    beta >= -1, else (1 - beta) / 2.  Continuous across the branch point."""
    if beta >= -1.0:
        return 1.0
    return (1.0 - beta) / 2.0
