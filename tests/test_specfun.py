import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starklat import specfun


def oracle_j(n: int, x: float) -> float:
    """Extended-precision power-series oracle, independent of the kernel."""
    n = int(n)
    sign = 1
    if n < 0:
        n = -n
        if n % 2 == 1:
            sign = -sign
    if x < 0:
        x = -x
        if n % 2 == 1:
            sign = -sign
    with mpmath.workdps(60):
        half = mpmath.mpf(x) / 2
        if half == 0:
            return 1.0 if n == 0 else 0.0
        term = half**n / mpmath.factorial(n)
        total = term
        k = 0
        while abs(term) > abs(total) * mpmath.mpf(10) ** -50 or k < 40:
            k += 1
            term *= -(half * half) / (k * (n + k))
            total += term
            if k > 500:
                break
        return sign * float(total)


ORACLE_GRID_X = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0]


def test_trivial_values():
    assert specfun.bessel_j(0, 0.0) == 1.0
    assert specfun.bessel_j(3, 0.0) == 0.0


def test_frozen_series_value():
    # oracle_j(1, 1.0) = 0.44005058574493351...
    assert specfun.bessel_j(1, 1.0) == pytest.approx(0.4400505857449335, rel=1e-13)


def test_reflection_identity_paper():
    assert specfun.bessel_j(-3, 2.5) == -specfun.bessel_j(3, 2.5)


def test_oracle_agreement_grid():
    for x in ORACLE_GRID_X:
        for n in range(-40, 41):
            got = specfun.bessel_j(n, x)
            want = oracle_j(n, x)
            if want == 0.0:
                assert abs(got) < 1e-300
            else:
                assert got == pytest.approx(want, rel=1e-12), (n, x)


@given(
    n=st.integers(min_value=-60, max_value=60),
    x=st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_reflection_property(n, x):
    a = specfun.bessel_j(-n, x)
    b = specfun.bessel_j(n, x)
    assert a == (-1.0) ** (n % 2) * b


def test_recurrence_residual():
    for x in [0.1, 0.3, 1.0, 2.0, 5.0, 10.0, -3.0]:
        for n in list(range(1, 41)) + list(range(-40, 0)):
            jm = specfun.bessel_j(n - 1, x)
            jp = specfun.bessel_j(n + 1, x)
            jn = specfun.bessel_j(n, x)
            resid = abs(jm + jp - (2.0 * n / x) * jn)
            assert resid <= 1e-10 * max(1.0, abs(jn))


def test_rejects_bad_argument():
    with pytest.raises(ValueError):
        specfun.bessel_j(0, float("nan"))
    with pytest.raises(ValueError):
        specfun.bessel_j(0, 2e6)


def test_bessel_row_delta_at_zero():
    row = specfun.bessel_row(0, -2, 2, 0.0)
    assert np.array_equal(row, [0.0, 0.0, 1.0, 0.0, 0.0])


def test_bessel_row_matches_entrywise():
    row = specfun.bessel_row(5, 0, 10, 2.0)
    for idx, j in enumerate(range(0, 11)):
        assert row[idx] == pytest.approx(specfun.bessel_j(5 - j, 2.0), abs=1e-13)


def test_bessel_row_negative_x():
    row = specfun.bessel_row(2, -4, 4, -1.7)
    for idx, j in enumerate(range(-4, 5)):
        assert row[idx] == pytest.approx(specfun.bessel_j(2 - j, -1.7), abs=1e-13)


def test_row_norm_is_one_on_wide_window():
    x = 2.0
    margin = int(2 * x + 30)
    row = specfun.bessel_row(0, -margin, margin, x)
    assert np.sum(row**2) == pytest.approx(1.0, abs=1e-10)


def test_upper_bound_report():
    for x in [0.0, 1.0, 10.0]:
        rep = specfun.check_upper_bound(40, x)
        assert rep.max_ratio <= 1.0 + 1e-12
    rep0 = specfun.check_upper_bound(0, 0.0)
    assert rep0.max_ratio == pytest.approx(1.0)


def test_summability_explicit_constant():
    rep = specfun.check_summability(0.0, 60)
    assert rep.fitted["sum"] == pytest.approx(1.0)
    rep = specfun.check_summability(2.0, 60)
    assert rep.fitted["sum"] <= 2.0 * math.e - 1.0
    rep = specfun.check_summability(6.0, 80)
    assert rep.fitted["sum"] <= 2.0 * math.exp(3.0) - 1.0
    assert rep.passed


def test_pair_decay_sum_trivial():
    rep = specfun.pair_decay_sum(4, 4, 0.0, 60)
    assert rep.fitted["value"] == pytest.approx(1.0)


def test_pair_decay_symmetry():
    a = specfun.pair_decay_sum(0, 8, 1.0, 60)
    b = specfun.pair_decay_sum(8, 0, 1.0, 60)
    assert a.fitted["value"] == pytest.approx(b.fitted["value"], rel=1e-13)
    assert math.isfinite(a.fitted["C_fit"])


ROW_GRID_X = [5e-324, -5e-324, 1e-300, 1e-100, 1e-60, 1e-12, 1e-8, 1e-3, 0.5, 2.0, 20.0, 50.0]


@pytest.mark.parametrize("x", ROW_GRID_X)
def test_bessel_row_matches_mpmath(x):
    # below |x| = 1e-8 the row is the leading series term; above it, Miller's recurrence
    n_max = int(3 * abs(x)) + 60
    row = specfun.bessel_row(0, -n_max, n_max, x)  # J_{n_max} .. J_{-n_max}
    assert np.isfinite(row).all()
    with mpmath.workdps(50):
        for got, n in zip(row, range(n_max, -n_max - 1, -1)):
            want = mpmath.besselj(n, mpmath.mpf(x))
            if abs(want) < mpmath.mpf("1e-300"):
                assert abs(got) < 1e-300, (n, x)
            else:
                assert abs((got - want) / want) <= 1e-13, (n, x)
