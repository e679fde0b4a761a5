import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsnlife.numerics import (
    CancellationWarning,
    Hyp2F1Args,
    Tolerance,
    hyp2f1_terminating,
    integrate_1d,
)


def hyp2f1_direct(a, L, c, z):
    """Independent oracle: direct high-precision term-by-term sum."""
    from fractions import Fraction

    total = Fraction(0)
    for n in range(L + 1):
        num = Fraction(1)
        for k in range(n):
            num *= Fraction(a + k) * Fraction(-L + k) / Fraction(c + k)
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
        # the series alternates, so at large L roundoff amplified by the
        # cancellation ratio caps the achievable accuracy; points past
        # the implementation's own cancellation guard are skipped
        rel = 1e-12 if L <= 10 else 1e-9
        for z in (0.05, 0.2, 0.4):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = hyp2f1_terminating(Hyp2F1Args(a=a, L=L, c=c, z=z))
            if any(issubclass(w.category, CancellationWarning) for w in caught):
                continue
            assert got == pytest.approx(hyp2f1_direct(a, L, c, z), rel=rel)

    def test_invalid_c_rejected(self):
        with pytest.raises(ValueError):
            Hyp2F1Args(a=0.5, L=3, c=-1.0, z=0.1)

    def test_cancellation_warning(self):
        # Large z * L drives sum(|term|)/|result| past the guard.
        with pytest.warns(CancellationWarning):
            hyp2f1_terminating(Hyp2F1Args(a=0.5, L=400, c=1.5, z=0.9))

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

