"""Closed-form bound calculators for storage codes.

Everything is exact integer/rational arithmetic: tightness checks
against constructed witnesses demand exact equality, so no floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil
from typing import Tuple


def _check_k_r(k: int, r: int) -> None:
    if not 1 <= k <= r:
        raise ValueError(f"need 1 <= k <= r, got k={k}, r={r}")


def cutset_bound(k: int, r: int, alpha: int, beta: int) -> int:
    """Max-flow bound on storable information: sum of min((r-j)*beta, alpha)."""
    _check_k_r(k, r)
    if alpha < 1 or beta < 1:
        raise ValueError("alpha and beta must be positive")
    return sum(min((r - j) * beta, alpha) for j in range(k))


def msr_point(k: int, r: int, beta: int) -> Tuple[int, int]:
    """Minimum-storage operating point: alpha = (r-k+1)*beta, m = k*alpha."""
    _check_k_r(k, r)
    if beta < 1:
        raise ValueError("beta must be positive")
    alpha = (r - k + 1) * beta
    return alpha, k * alpha


def mbr_point(k: int, r: int, beta: int) -> Tuple[int, int]:
    """Minimum-bandwidth operating point: alpha = r*beta, m = beta*(kr - C(k,2))."""
    _check_k_r(k, r)
    if beta < 1:
        raise ValueError("beta must be positive")
    alpha = r * beta
    m = beta * (k * r - k * (k - 1) // 2)
    return alpha, m


def linear_locality_distance_bound(k: int, r: int, d: int) -> int:
    """Gopalan et al.'s least n for scalar (alpha = 1) linear codes: n - k >= ceil(k/r) + d - 2."""
    if min(k, r, d) < 1:
        raise ValueError("inputs must be positive")
    return k + ceil(k / r) + d - 2


def info_distance_bound(n: int, m: int, r: int, alpha: int) -> int:
    """Upper bound on the information-theoretical distance.

    May be nonpositive, signaling that no positive distance is feasible;
    the raw value is reported as-is.
    """
    if min(n, m, r, alpha) < 1:
        raise ValueError("inputs must be positive")
    return n - ceil(m / alpha) - ceil(m / (r * alpha)) + 2


CASE_ALPHA_EQ_BETA = "alpha_eq_beta"
CASE_ALPHA_EQ_R_BETA = "alpha_eq_r_beta"


def theorem1_bound(case: str, n: int, r: int, alpha: int) -> int:
    """Locality-rate bound on m for the two extreme repair regimes.

    With alpha = beta the rate is at most r/(r+1); with alpha = r*beta it
    is at most 1/2.  Since m counts symbols, the rational rate cap is
    floored to an integer symbol count.
    """
    if min(n, r, alpha) < 1:
        raise ValueError("inputs must be positive")
    if case == CASE_ALPHA_EQ_BETA:
        return (n * alpha * r) // (r + 1)
    if case == CASE_ALPHA_EQ_R_BETA:
        return (n * alpha) // 2
    raise ValueError(f"unknown case {case!r}")


def theorem2_bound(n: int, alpha: int, beta: int) -> int:
    """Locality-rate bound on m for r = 2: m <= q*alpha + (q-e)*beta.

    Here n = 3q - e with e in {0, 1, 2}; the rate form is
    R <= (alpha + beta) / (3*alpha).
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if alpha < 1 or beta < 1:
        raise ValueError("alpha and beta must be positive")
    q = ceil(n / 3)
    e = 3 * q - n
    return q * alpha + (q - e) * beta


def theorem2_rate_bound(alpha: int, beta: int) -> Fraction:
    return Fraction(alpha + beta, 3 * alpha)
