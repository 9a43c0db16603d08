"""Tests for the closed-form bound calculators."""

from fractions import Fraction
from itertools import product

import pytest

from storagecodes.bounds import (
    CASE_ALPHA_EQ_BETA,
    CASE_ALPHA_EQ_R_BETA,
    cutset_bound,
    info_distance_bound,
    linear_locality_distance_bound,
    mbr_point,
    msr_point,
    theorem1_bound,
    theorem2_bound,
    theorem2_rate_bound,
)


# ---------------------------------------------------------------------------
# cutset bound


def test_cutset_bound_values():
    assert cutset_bound(3, 3, 2, 1) == 2 + 2 + 1  # min(3,2)+min(2,2)+min(1,2)
    assert cutset_bound(3, 3, 3, 1) == 3 + 2 + 1
    assert cutset_bound(1, 5, 2, 7) == 2  # single term min(35, 2)


def test_cutset_bound_validation():
    with pytest.raises(ValueError):
        cutset_bound(3, 2, 1, 1)  # k > r
    with pytest.raises(ValueError):
        cutset_bound(1, 1, 0, 1)


def test_cutset_bound_monotone_in_each_argument():
    for k, r, alpha, beta in product(range(1, 4), range(3, 6), range(1, 4), range(1, 4)):
        base = cutset_bound(k, r, alpha, beta)
        assert cutset_bound(k + 1, r + 1, alpha, beta) >= base
        assert cutset_bound(k, r + 1, alpha, beta) >= base
        assert cutset_bound(k, r, alpha + 1, beta) >= base
        assert cutset_bound(k, r, alpha, beta + 1) >= base


# ---------------------------------------------------------------------------
# operating points


def test_msr_point_values():
    assert msr_point(2, 3, 1) == (2, 4)
    assert msr_point(2, 4, 2) == (6, 12)
    assert msr_point(3, 3, 5) == (5, 15)  # k = r gives alpha = beta


def test_mbr_point_values():
    assert mbr_point(3, 3, 1) == (3, 6)
    assert mbr_point(1, 4, 2) == (8, 8)
    assert mbr_point(4, 4, 1) == (4, 10)


def test_points_meet_cutset_bound_with_equality():
    for k in range(1, 7):
        for r in range(k, 7):
            for beta in (1, 2, 3):
                alpha, m = msr_point(k, r, beta)
                assert cutset_bound(k, r, alpha, beta) == m
                alpha, m = mbr_point(k, r, beta)
                assert cutset_bound(k, r, alpha, beta) == m


def test_points_validate_k_le_r():
    with pytest.raises(ValueError):
        msr_point(3, 2, 1)
    with pytest.raises(ValueError):
        mbr_point(3, 2, 1)


@pytest.mark.parametrize("point", [msr_point, mbr_point])
@pytest.mark.parametrize("k, r, beta", [(0, 2, 1), (-2, 1, 1), (1, 2, 0), (2, 3, -1)])
def test_points_validate_k_and_beta_positive(point, k, r, beta):
    with pytest.raises(ValueError):
        point(k, r, beta)


# ---------------------------------------------------------------------------
# locality-distance bounds


def test_linear_locality_distance_bound():
    assert linear_locality_distance_bound(4, 2, 2) == 6
    assert linear_locality_distance_bound(3, 3, 2) == 4  # k = r: n >= k+1
    with pytest.raises(ValueError):
        linear_locality_distance_bound(0, 1, 1)


def test_linear_bound_rate_corollary():
    # at d = 2 the implied rate never beats r/(r+1)
    for k in range(1, 10):
        for r in range(1, 6):
            n = linear_locality_distance_bound(k, r, 2)
            assert Fraction(k, n) <= Fraction(r, r + 1)


def test_info_distance_bound():
    assert info_distance_bound(8, 8, 3, 2) == 4
    assert info_distance_bound(5, 2, 3, 2) == 5  # m = alpha: d <= n
    # nonpositive values are reported as-is
    assert info_distance_bound(2, 9, 1, 1) <= 0


def test_info_bound_rate_corollary():
    for n in range(2, 10):
        for m in range(1, 12):
            for r in range(1, 4):
                for alpha in (1, 2):
                    if info_distance_bound(n, m, r, alpha) >= 2:
                        assert Fraction(m, n * alpha) <= Fraction(r, r + 1)


# ---------------------------------------------------------------------------
# locality-rate theorems


def test_theorem1_values():
    assert theorem1_bound(CASE_ALPHA_EQ_BETA, 4, 3, 1) == 3
    assert theorem1_bound(CASE_ALPHA_EQ_R_BETA, 4, 3, 3) == 6
    assert theorem1_bound(CASE_ALPHA_EQ_R_BETA, 2, 1, 1) == 1
    with pytest.raises(ValueError):
        theorem1_bound("bogus", 4, 3, 1)


def test_theorem2_values():
    assert theorem2_bound(3, 2, 1) == 3  # q=1, e=0
    assert theorem2_bound(4, 2, 1) == 4  # q=2, e=2
    assert theorem2_bound(5, 1, 1) == 3  # q=2, e=1
    assert theorem2_bound(6, 1, 1) == 4  # q=2, e=0
    with pytest.raises(ValueError):
        theorem2_bound(2, 1, 1)


def test_theorem2_matches_theorem1_when_divisible():
    # with 3 | n and alpha = beta the r=2 bound coincides with case 1
    for n in (3, 6, 9, 12):
        for alpha in (1, 2, 3):
            assert theorem2_bound(n, alpha, alpha) == theorem1_bound(
                CASE_ALPHA_EQ_BETA, n, 2, alpha
            )


def test_theorem2_rate_bound():
    assert theorem2_rate_bound(2, 1) == Fraction(1, 2)
    assert theorem2_rate_bound(1, 1) == Fraction(2, 3)

