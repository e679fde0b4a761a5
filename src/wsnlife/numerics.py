"""Shared numeric routines: the terminating Gauss hypergeometric
series, the Bessel function J0 and adaptive quadrature.

Everything here is a pure function over 64-bit floats.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Tolerance",
    "Hyp2F1Args",
    "ConvergenceError",
    "hyp2f1_terminating",
    "bessel_j0",
    "integrate_1d",
]


class ConvergenceError(RuntimeError):
    """An iterative routine exhausted its iteration budget."""


@dataclass(frozen=True)
class Tolerance:
    rel: float = 1e-10
    abs: float = 0.0
    max_iters: int = 100

    def __post_init__(self):
        if self.rel <= 0:
            raise ValueError("rel tolerance must be positive")
        if self.abs < 0:
            raise ValueError("abs tolerance must be nonnegative")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass(frozen=True)
class Hyp2F1Args:
    """Arguments of 2F1(a, -L; c; z) with a nonnegative integer L,
    which makes the series a degree-L polynomial in z.  z may be a
    float or an array of them."""

    a: float
    L: int
    c: float
    z: float | np.ndarray

    def __post_init__(self):
        if self.L < 0:
            raise ValueError("L must be a nonnegative integer")
        # (c)_n must stay nonzero for n <= L
        if self.c <= 0 and self.c == int(self.c) and -int(self.c) < self.L:
            raise ValueError(f"c={self.c} makes a Pochhammer factor vanish")


def _terminating_sum(a: float, L: int, c: float, z: np.ndarray) -> np.ndarray:
    # Row n+1 holds term_n = term_{n-1} * ((a+n)(n-L) / ((c+n)(n+1)) * z)
    # under a row of ones; a cumulative product and then a cumulative
    # sum down the rows repeat the scalar loop's operations in its
    # order, so each column is bit for bit the scalar sum.
    n = np.arange(L, dtype=float)[:, None]
    rows = np.empty((L + 1, z.size))
    rows[0] = 1.0
    np.multiply((a + n) * (n - L) / ((c + n) * (n + 1.0)), z, out=rows[1:])
    np.multiply.accumulate(rows[1:], axis=0, out=rows[1:])
    np.add.accumulate(rows, axis=0, out=rows)
    return rows[-1]


def hyp2f1_terminating(args: Hyp2F1Args) -> float | np.ndarray:
    """Evaluate 2F1(a, -L; c; z) as its exact finite sum, elementwise
    over an array z (a float for a float z).

    For 0 < z <= 1 the sum is taken in the Pfaff form
    (1-z)^L * 2F1(c-a, -L; c; z/(z-1)) (DLMF 15.8.1), whose terms all
    have one sign when c > a > 0, so no digits are lost to
    cancellation.  The scale (1-z)^L is Python's pow of each z, which
    numpy's power does not always match to the last bit.  Raises
    ValueError where the scale underflows.
    """
    a, L, c = args.a, args.L, args.c
    z = np.array(args.z, dtype=float)
    flat = z.reshape(-1)
    out = np.empty(flat.shape)
    pfaff = (flat > 0.0) & (flat <= 1.0) & (L > 0)
    if pfaff.any():
        zp = flat[pfaff]
        scale = np.array([(1.0 - zi) ** L for zi in zp.tolist()])
        tiny = scale < sys.float_info.min
        if tiny.any():
            raise ValueError(f"(1-z)^L underflows at z={zp[tiny][0]}, L={L}")
        out[pfaff] = scale * _terminating_sum(c - a, L, c, zp / (zp - 1.0))
    if not pfaff.all():
        out[~pfaff] = _terminating_sum(a, L, c, flat[~pfaff])
    return float(out[0]) if z.ndim == 0 else out.reshape(z.shape)


# J0 switches from Miller's recurrence to the Hankel expansion above
# this argument, and uses 1 - x^2/4 (error below x^4/64) under _J0_TINY.
_J0_HANKEL_MIN = 25.0
_J0_TINY = 1e-4
# Orders the Miller recurrence starts above the largest argument.
_J0_MILLER_EXTRA = 40
# Recurrence values beyond _J0_RESCALE are divided by it.
_J0_RESCALE = 1e250


def _hankel_coefficients(terms: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    # a_k(0) = a_{k-1}(0) * -(2k-1)^2 / (8k); P and Q alternate in sign
    a = [1.0]
    for k in range(1, 2 * terms):
        a.append(a[-1] * -((2 * k - 1) ** 2) / (8.0 * k))
    p = tuple((-1) ** k * a[2 * k] for k in range(terms))
    q = tuple((-1) ** k * a[2 * k + 1] for k in range(terms))
    return p, q


# At x = 25 the first omitted terms are below 1e-22.
_J0_P, _J0_Q = _hankel_coefficients(20)


def _j0_miller(x: np.ndarray) -> np.ndarray:
    # J_{n-1} = (2n/x) J_n - J_{n+1} from a start order where J_n is
    # negligible, normalised by J0 + 2 * sum_k J_2k = 1.
    start = 2 * math.ceil((float(x.max()) + _J0_MILLER_EXTRA) / 2.0)
    two_over_x = 2.0 / x
    j_hi = np.zeros_like(x)
    j = np.full_like(x, 1e-30)
    even_sum = np.zeros_like(x)
    for n in range(start, 0, -1):
        j_hi, j = j, n * two_over_x * j - j_hi
        if n % 2 and n > 1:
            even_sum += j
        big = np.abs(j) > _J0_RESCALE
        if big.any():
            j[big] /= _J0_RESCALE
            j_hi[big] /= _J0_RESCALE
            even_sum[big] /= _J0_RESCALE
    return j / (j + 2.0 * even_sum)


def _j0_hankel(x: np.ndarray) -> np.ndarray:
    # J0(x) = sqrt(2/(pi x)) (P cos w - Q sin w) with w = x - pi/4,
    # where cos w and sin w are (cos x + sin x)/sqrt2 and
    # (sin x - cos x)/sqrt2, so no rounding of x - pi/4 enters.
    u = 1.0 / (x * x)
    p = np.full_like(x, _J0_P[-1])
    for c in _J0_P[-2::-1]:
        p = p * u + c
    q = np.full_like(x, _J0_Q[-1])
    for c in _J0_Q[-2::-1]:
        q = q * u + c
    q /= x
    cos_x, sin_x = np.cos(x), np.sin(x)
    return (p * (cos_x + sin_x) - q * (sin_x - cos_x)) / np.sqrt(np.pi * x)


def bessel_j0(x) -> np.ndarray:
    """Bessel function of the first kind of order 0, elementwise, for
    finite x >= 0.

    Below 25 it runs Miller's backward recurrence (DLMF 3.6(vi)) with
    the normalisation J0 + 2 (J2 + J4 + ...) = 1 (DLMF 10.12.4),
    rescaling against overflow; above it sums 20 terms each of the
    Hankel expansion's P and Q (DLMF 10.17.3).  The absolute error is
    below 1e-15.
    """
    x = np.asarray(x, dtype=float)
    if not (np.isfinite(x).all() and (x >= 0.0).all()):
        raise ValueError("bessel_j0 needs finite arguments x >= 0")
    out = np.empty_like(x)
    tiny = x < _J0_TINY
    out[tiny] = 1.0 - 0.25 * x[tiny] ** 2
    mid = ~tiny & (x <= _J0_HANKEL_MIN)
    if mid.any():
        out[mid] = _j0_miller(x[mid])
    large = x > _J0_HANKEL_MIN
    if large.any():
        out[large] = _j0_hankel(x[large])
    return out


def _simpson(f: Callable[[float], float], a: float, fa: float, b: float, fb: float):
    m = 0.5 * (a + b)
    fm = f(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def integrate_1d(
    f: Callable[[float], float], lo: float, hi: float, tol: Tolerance = Tolerance()
) -> float:
    """Adaptive Simpson quadrature of f over [lo, hi].

    The error target is max(tol.abs, tol.rel * |result|); exceeding
    tol.max_iters recursion depth raises ConvergenceError.
    """
    if lo > hi:
        raise ValueError("lo must not exceed hi")
    if lo == hi:
        return 0.0
    flo, fhi = f(lo), f(hi)
    m, fm, whole = _simpson(f, lo, flo, hi, fhi)

    def recurse(a, fa, b, fb, mid, fmid, est, eps, depth):
        lm, flm, left = _simpson(f, a, fa, mid, fmid)
        rm, frm, right = _simpson(f, mid, fmid, b, fb)
        if abs(left + right - est) <= 15.0 * eps:
            return left + right + (left + right - est) / 15.0
        if depth >= tol.max_iters:
            raise ConvergenceError(
                f"quadrature failed to converge after {tol.max_iters} subdivisions"
            )
        half = eps / 2.0
        return recurse(a, fa, mid, fmid, lm, flm, left, half, depth + 1) + recurse(
            mid, fmid, b, fb, rm, frm, right, half, depth + 1
        )

    # Two passes: the first fixes the scale for the relative target.
    eps = max(tol.abs, tol.rel * abs(whole))
    if eps == 0.0:
        eps = tol.rel
    result = recurse(lo, flo, hi, fhi, m, fm, whole, eps, 0)
    eps2 = max(tol.abs, tol.rel * abs(result))
    if eps2 < eps:
        result = recurse(lo, flo, hi, fhi, m, fm, whole, eps2, 0)
    return result
