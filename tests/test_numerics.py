import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsnlife.numerics import (
    Hyp2F1Args,
    Tolerance,
    bessel_j0,
    hyp2f1_terminating,
    integrate_1d,
)


def hyp2f1_direct(a, L, c, z):
    """Independent oracle: the original alternating series summed term
    by term in exact rational arithmetic from the float arguments."""
    total = Fraction(0)
    for n in range(L + 1):
        num = Fraction(1)
        for k in range(n):
            num *= (Fraction(a) + k) * (k - L) / (Fraction(c) + k)
        total += num * Fraction(z) ** n / math.factorial(n)
    return float(total)


class TestHyp2F1:
    def test_single_term(self):
        assert hyp2f1_terminating(Hyp2F1Args(a=0.5, L=0, c=1.5, z=0.7)) == 1.0

    def test_z_zero(self):
        assert hyp2f1_terminating(Hyp2F1Args(a=0.5, L=100, c=1.5, z=0.0)) == 1.0

    def test_two_terms(self):
        # 1 - (0.5 * 1 / 1.5) * 0.25, frozen from the direct-summation oracle
        expected = hyp2f1_direct(0.5, 1, 1.5, 0.25)
        assert expected == pytest.approx(11.0 / 12.0, rel=1e-15)
        got = hyp2f1_terminating(Hyp2F1Args(a=0.5, L=1, c=1.5, z=0.25))
        assert got == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0])
    @pytest.mark.parametrize("L", [1, 10, 100])
    def test_matches_direct_sum(self, alpha, L):
        a, c = 2.0 / alpha, (alpha + 2.0) / alpha
        for z in (0.05, 0.2, 0.4):
            got = hyp2f1_terminating(Hyp2F1Args(a=a, L=L, c=c, z=z))
            assert got == pytest.approx(hyp2f1_direct(a, L, c, z), rel=1e-12)

    def test_invalid_c_rejected(self):
        with pytest.raises(ValueError):
            Hyp2F1Args(a=0.5, L=3, c=-1.0, z=0.1)

    def test_underflowing_scale_raises(self):
        # (1 - 0.9)^400 is below the smallest normal float
        with pytest.raises(ValueError, match="underflows"):
            hyp2f1_terminating(Hyp2F1Args(a=0.5, L=400, c=1.5, z=0.9))
        with pytest.raises(ValueError, match="underflows"):
            hyp2f1_terminating(Hyp2F1Args(a=0.5, L=100, c=1.5, z=1.0))

    def test_large_L_in_range(self):
        got = hyp2f1_terminating(Hyp2F1Args(a=0.5, L=400, c=1.5, z=0.5))
        assert got == pytest.approx(hyp2f1_direct(0.5, 400, 1.5, 0.5), rel=1e-12)

    @given(
        a=st.floats(0.1, 5.0),
        L=st.integers(0, 50),
        c=st.floats(0.5, 5.0),
        z=st.floats(-1.0, 1.0),
    )
    @settings(max_examples=100)
    def test_unit_at_origin_and_L0(self, a, L, c, z):
        assert hyp2f1_terminating(Hyp2F1Args(a=a, L=L, c=c, z=0.0)) == 1.0
        assert hyp2f1_terminating(Hyp2F1Args(a=a, L=0, c=c, z=z)) == 1.0


def hyp2f1_loop(a, L, c, z):
    """The scalar loop the array sum replaced, Pfaff branch included."""
    scale = 1.0
    if 0.0 < z <= 1.0 and L:
        scale = (1.0 - z) ** L
        a, z = c - a, z / (z - 1.0)
    total = term = 1.0
    for n in range(L):
        term *= (a + n) * (n - L) / ((c + n) * (n + 1)) * z
        total += term
    return scale * total


class TestHyp2F1Array:
    @pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0, 6.0])
    @pytest.mark.parametrize("L", [0, 1, 2, 10, 100, 200])
    def test_bit_for_bit_with_scalar(self, alpha, L):
        # z <= 0 and z > 1 take the direct sum, 0 < z <= 1 the Pfaff form
        a, c = 2.0 / alpha, (alpha + 2.0) / alpha
        z = np.concatenate([np.linspace(-1.0, 1.0, 801), np.linspace(1.0, 3.0, 41)[1:]])
        z = np.array([x for x in z if not 0.0 < x <= 1.0 or (1.0 - x) ** L >= sys.float_info.min])
        got = hyp2f1_terminating(Hyp2F1Args(a=a, L=L, c=c, z=z))
        for x, g in zip(z.tolist(), got.tolist()):
            assert g == hyp2f1_loop(a, L, c, x), x
            assert g == hyp2f1_terminating(Hyp2F1Args(a=a, L=L, c=c, z=x)), x

    def test_keeps_shape_and_scalar_type(self):
        z = np.array([[0.1, -0.2], [0.0, 0.5]])
        got = hyp2f1_terminating(Hyp2F1Args(a=0.5, L=7, c=1.5, z=z))
        assert got.shape == (2, 2)
        assert type(hyp2f1_terminating(Hyp2F1Args(a=0.5, L=7, c=1.5, z=0.1))) is float
        assert hyp2f1_terminating(Hyp2F1Args(a=0.5, L=7, c=1.5, z=np.array([]))).shape == (0,)

    def test_underflow_anywhere_raises(self):
        with pytest.raises(ValueError, match="underflows at z=0.9"):
            hyp2f1_terminating(Hyp2F1Args(a=0.5, L=400, c=1.5, z=np.array([0.1, 0.9, 0.2])))


def j0_series(x):
    """Independent oracle: the power series sum_k (-x^2/4)^k / (k!)^2
    in exact rational arithmetic, summed until the terms fall below
    1e-40."""
    q = Fraction(x) ** 2 / 4
    total = term = Fraction(1)
    k = 0
    while abs(term) > Fraction(1, 10**40) or k < q:
        k += 1
        term *= -q / (k * k)
        total += term
    return float(total)


class TestBesselJ0:
    # multiples of 1/8 are exact floats; the grid crosses the switch
    # from the recurrence to the Hankel expansion at 25
    RATIONAL_X = [k / 8 for k in range(0, 241, 3)] + [24.875, 25.0, 25.125, 30.0]

    def test_matches_exact_series(self):
        got = bessel_j0(np.array(self.RATIONAL_X))
        for x, g in zip(self.RATIONAL_X, got):
            assert abs(g - j0_series(x)) <= 1e-15, x

    def test_special_values(self):
        assert bessel_j0(0.0) == 1.0
        # first zero of J0
        assert abs(bessel_j0(2.404825557695773)) <= 1e-15

    @pytest.mark.parametrize("x", [25.5, 30.0, 100.0, 317.25, 1000.0, 4096.5, 12345.0, 2e4])
    def test_matches_azimuth_mean(self, x):
        # J0(x) is the mean of cos(x sin t) over a period; the M-point
        # trapezoid rule is exact up to J_M(x), negligible for M > 4x,
        # and its own rounding grows like eps * sqrt(x)
        m = int(4 * x) + 64
        theta = 2.0 * np.pi * np.arange(m) / m
        mean = np.cos(x * np.sin(theta)).mean()
        assert abs(bessel_j0(x) - mean) <= 1e-15 + 4e-16 * math.sqrt(x)

    def test_matches_scipy(self):
        special = pytest.importorskip("scipy.special")
        small = np.linspace(0.0, 50.0, 20001)
        assert np.abs(bessel_j0(small) - special.j0(small)).max() <= 1e-15
        # scipy's own error reaches about 8e-15 near 2e4
        large = np.linspace(50.0, 2e4, 200001)
        assert np.abs(bessel_j0(large) - special.j0(large)).max() <= 1e-14

    def test_shape_and_tiny_arguments(self):
        x = np.array([[0.0, 1e-300], [1e-5, 1e-4]])
        got = bessel_j0(x)
        assert got.shape == x.shape
        # x^4/64 is at most 1.6e-18 here: within two roundings of 1 - x^2/4
        assert np.all(np.abs(got - (1.0 - x**2 / 4.0)) <= 2.3e-16)

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_rejects_bad_arguments(self, bad):
        with pytest.raises(ValueError):
            bessel_j0(np.array([1.0, bad]))


class TestIntegrate1D:
    def test_constant(self):
        assert integrate_1d(lambda x: 1.0, 0.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_linear(self):
        assert integrate_1d(lambda x: x, 0.0, 2.0) == pytest.approx(2.0, rel=1e-12)

    def test_radial_integrand_matches_series(self):
        # integral of r (1 - z r^alpha)^L over [0, 1] = 2F1(...) / 2
        alpha, L, z = 4.0, 100, 0.2
        series = hyp2f1_terminating(
            Hyp2F1Args(a=2.0 / alpha, L=L, c=(alpha + 2.0) / alpha, z=z)
        )
        quad = integrate_1d(
            lambda r: r * (1.0 - z * r**alpha) ** L, 0.0, 1.0, Tolerance(rel=1e-11)
        )
        assert 2.0 * quad == pytest.approx(series, rel=1e-9)

    def test_empty_interval(self):
        assert integrate_1d(math.sin, 1.0, 1.0) == 0.0

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            integrate_1d(math.sin, 1.0, 0.0)

