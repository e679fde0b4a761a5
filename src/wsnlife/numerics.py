"""Shared numeric routines: the terminating Gauss hypergeometric
series and adaptive quadrature.

Everything here is a pure function over 64-bit floats.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "Tolerance",
    "Hyp2F1Args",
    "CancellationWarning",
    "ConvergenceError",
    "hyp2f1_terminating",
    "integrate_1d",
]

# Guard on sum(|term|)/|result| before warning the caller that the
# alternating series has lost too many digits to cancellation.
CANCELLATION_RATIO = 1e8


class CancellationWarning(UserWarning):
    """Severe cancellation in a finite alternating sum; the caller
    should fall back to the integral form."""


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
    which makes the series a degree-L polynomial in z."""

    a: float
    L: int
    c: float
    z: float

    def __post_init__(self):
        if self.L < 0:
            raise ValueError("L must be a nonnegative integer")
        # (c)_n must stay nonzero for n <= L
        if self.c <= 0 and self.c == int(self.c) and -int(self.c) < self.L:
            raise ValueError(f"c={self.c} makes a Pochhammer factor vanish")


def hyp2f1_terminating(args: Hyp2F1Args) -> float:
    """Evaluate 2F1(a, -L; c; z) as its exact finite sum.

    Terms are accumulated with Kahan compensation.  Emits a
    CancellationWarning when sum(|term|) dwarfs the result.
    """
    a, L, c, z = args.a, args.L, args.c, args.z
    total = 0.0
    comp = 0.0
    abs_total = 0.0
    term = 1.0
    for n in range(L + 1):
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        abs_total += abs(term)
        if n < L:
            denom = (c + n) * (n + 1)
            if denom == 0.0:
                raise ValueError(f"c={c} hits a zero Pochhammer factor at n={n + 1}")
            term *= (a + n) * (-L + n) / denom * z
    if total != 0.0 and abs_total / abs(total) > CANCELLATION_RATIO:
        warnings.warn(
            f"cancellation ratio {abs_total / abs(total):.3g} in terminating 2F1; "
            "use the quadrature oracle instead",
            CancellationWarning,
            stacklevel=2,
        )
    return total


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
