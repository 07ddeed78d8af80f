from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threatrank.stats import (
    betainc_regularized,
    paired_t_test,
    student_t_cdf,
)

# Frozen oracle values for the five-pair example, computed independently
# (statistic by hand, tail probabilities by numerical integration) before
# the implementation existed.
ORACLE_T = -2.449489742783178
ORACLE_P_TWO = 0.07048399691021993
ORACLE_P_ONE = 0.03524199845510997


def test_five_pair_example_matches_oracle():
    result = paired_t_test([1, 2, 3, 4, 5], [2, 2, 4, 4, 6])
    assert result.n == 5 and result.df == 4
    assert result.mean_diff == pytest.approx(-0.6, abs=1e-12)
    assert result.sd_diff == pytest.approx(0.5477225575051661, abs=1e-12)
    assert result.t == pytest.approx(ORACLE_T, abs=1e-6)
    assert result.p_two_sided == pytest.approx(ORACLE_P_TWO, abs=1e-6)
    assert result.p_one_sided == pytest.approx(ORACLE_P_ONE, abs=1e-6)


def test_zero_variance_is_an_error():
    with pytest.raises(ValueError, match="zero variance"):
        paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="zero variance"):
        paired_t_test([2.0, 3.0], [1.0, 2.0])  # constant nonzero difference


def test_short_or_mismatched_series_are_errors():
    with pytest.raises(ValueError):
        paired_t_test([1.0], [2.0])
    with pytest.raises(ValueError):
        paired_t_test([1.0, 2.0], [1.0, 2.0, 3.0])


_series = st.lists(st.floats(-100, 100, allow_nan=False), min_size=2, max_size=40)


@given(st.data())
@settings(max_examples=100)
def test_antisymmetry_and_p_relation(data):
    a = data.draw(_series)
    b = data.draw(st.lists(st.floats(-100, 100, allow_nan=False),
                           min_size=len(a), max_size=len(a)))
    try:
        forward = paired_t_test(a, b)
        backward = paired_t_test(b, a)
    except ValueError:
        return  # degenerate variance; rejected by contract
    assert forward.t == pytest.approx(-backward.t, rel=1e-12)
    assert (forward.t >= 0) == (forward.mean_diff >= 0)
    assert forward.p_two_sided == pytest.approx(
        2 * min(forward.p_one_sided, 1 - forward.p_one_sided), rel=1e-9)
    assert 0 <= forward.p_one_sided <= 1
    assert 0 <= forward.p_two_sided <= 1


# ---------------------------------------------------------------------------
# The t CDF and incomplete beta
# ---------------------------------------------------------------------------


def test_betainc_bounds():
    assert betainc_regularized(2.0, 0.5, 0.0) == 0.0
    assert betainc_regularized(2.0, 0.5, 1.0) == 1.0
    with pytest.raises(ValueError):
        betainc_regularized(-1.0, 0.5, 0.5)


def test_cdf_center_and_symmetry():
    for df in (1, 2, 5, 30, 120):
        assert student_t_cdf(0.0, df) == pytest.approx(0.5, abs=1e-14)
        for t in (0.3, 1.7, 4.2):
            assert student_t_cdf(t, df) + student_t_cdf(-t, df) == \
                pytest.approx(1.0, abs=1e-13)
            assert student_t_cdf(-t, df) == pytest.approx(
                1.0 - student_t_cdf(t, df), abs=1e-13)


def test_cdf_known_values():
    # df=1 is a Cauchy distribution with closed form
    for t in (-3.0, -0.5, 0.25, 2.0):
        expected = 0.5 + math.atan(t) / math.pi
        assert student_t_cdf(t, 1) == pytest.approx(expected, abs=1e-13)


def test_cdf_against_numerical_integration():
    from scipy import integrate

    def pdf(u, df):
        c = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) \
            / math.sqrt(df * math.pi)
        return c * (1 + u * u / df) ** (-(df + 1) / 2)

    for df in (1, 3, 7, 25, 80, 200):
        for t in (-6.0, -1.3, 0.4, 2.9, 9.0):
            area, _err = integrate.quad(pdf, 0, abs(t), args=(df,), limit=200)
            expected = 0.5 + area if t >= 0 else 0.5 - area
            assert student_t_cdf(t, df) == pytest.approx(expected, abs=1e-9)


def test_cdf_rejects_bad_df():
    with pytest.raises(ValueError):
        student_t_cdf(1.0, 0)


def test_cdf_monotone_in_t():
    values = [student_t_cdf(t / 10, 9) for t in range(-80, 81)]
    assert all(a <= b for a, b in zip(values, values[1:]))
