import math

import pytest
from hypothesis import given, settings, strategies as st

from blowuplab.exponents import (
    RegionVerdict,
    beta_threshold,
    classify,
    conjugate_exponent,
    kato_threshold,
    scaling_d,
    strauss_exponent,
)


def test_conjugate_exponent_values():
    assert conjugate_exponent(2.0) == 2.0
    assert conjugate_exponent(3.0) == 1.5
    assert conjugate_exponent(1.5) == 3.0


@pytest.mark.parametrize("bad", [1.0, 0.5, -2.0])
def test_conjugate_exponent_rejects_p_at_most_one(bad):
    with pytest.raises(ValueError):
        conjugate_exponent(bad)


@given(st.floats(min_value=1.0001, max_value=100.0))
@settings(max_examples=100)
def test_conjugate_identity(p):
    pp = conjugate_exponent(p)
    assert 1.0 / p + 1.0 / pp == pytest.approx(1.0, abs=1e-12)


def test_strauss_exponent_known_values():
    assert strauss_exponent(3) == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-14)
    assert strauss_exponent(2) == pytest.approx((3.0 + math.sqrt(17.0)) / 2.0, abs=1e-14)
    # n = 4 factors exactly: 3p^2 - 5p - 2 = (3p + 1)(p - 2)
    assert strauss_exponent(4) == pytest.approx(2.0, abs=1e-14)


@pytest.mark.parametrize("n", range(2, 11))
def test_strauss_quadratic_residual(n):
    p = strauss_exponent(n)
    residual = (n - 1) * p * p - (n + 1) * p - 2.0
    assert abs(residual) < 1e-10


def test_strauss_rejects_small_or_fractional_n():
    with pytest.raises(ValueError):
        strauss_exponent(1)
    with pytest.raises(TypeError):
        strauss_exponent(2.5)


def test_kato_threshold_values():
    assert kato_threshold(2) == 3.0
    assert kato_threshold(3) == 2.0
    assert math.isinf(kato_threshold(1))
    assert math.isfinite(kato_threshold(2))


@pytest.mark.parametrize("n", range(2, 7))
def test_kato_below_strauss(n):
    assert kato_threshold(n) < strauss_exponent(n)


def test_beta_threshold_examples():
    assert beta_threshold(1, -3.0) == pytest.approx(3.0)
    assert beta_threshold(2, -1.0) == kato_threshold(2) == 3.0
    assert math.isinf(beta_threshold(1, -1.0))


@pytest.mark.parametrize("n", range(1, 7))
def test_beta_threshold_branch_agreement_at_minus_one(n):
    left = (n * 2.0 + 2.0) / (n * 2.0 - 2.0) if n >= 2 else math.inf
    assert beta_threshold(n, -1.0) == kato_threshold(n) == left


@pytest.mark.parametrize("n", range(1, 7))
def test_beta_threshold_monotone_in_damping_growth(n):
    # lower beta means a faster-growing damping coefficient and a smaller
    # finite threshold; the threshold never increases as beta decreases
    betas = [-1.0, -1.5, -2.0, -3.0, -5.0, -9.0]
    values = [beta_threshold(n, b) for b in betas]
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-15


def test_threshold_requires_value_above_one():
    assert classify(1, 0.0, 1e9) is RegionVerdict.THEOREM_BLOWUP
    with pytest.raises(ValueError):
        beta_threshold(1, math.nan)


def test_classify_examples():
    assert classify(3, 0.0, 1.8) is RegionVerdict.THEOREM_BLOWUP
    assert classify(3, 0.0, 2.2) is RegionVerdict.OUTSIDE_THEOREM
    assert classify(1, 5.0, 100.0) is RegionVerdict.THEOREM_BLOWUP
    with pytest.raises(ValueError):
        classify(3, 0.0, 1.0)


@given(
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=-6.0, max_value=6.0),
    st.floats(min_value=1.001, max_value=8.0),
    st.floats(min_value=1.001, max_value=8.0),
)
@settings(max_examples=200)
def test_classify_monotone_in_p(n, beta, p1, p2):
    lo, hi = sorted((p1, p2))
    if classify(n, beta, hi) is RegionVerdict.THEOREM_BLOWUP:
        assert classify(n, beta, lo) is RegionVerdict.THEOREM_BLOWUP


def test_scaling_d():
    assert scaling_d(0.0) == 1.0
    assert scaling_d(-3.0) == 2.0
    assert scaling_d(-1.0) == 1.0 == (1.0 - (-1.0)) / 2.0
    assert scaling_d(7.5) == 1.0

