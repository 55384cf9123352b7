"""Scalar special functions of the obstacle-flow problem.

Everything here derives from the slope-compression function

    G(s) = int_0^s (1 + t^2)^(-5/4) dt,

which is odd, strictly increasing and saturates at +-c0/2 where
c0 = int_R (1 + t^2)^(-5/4) dt. On top of G the module provides its inverse,
the saturation constant c0, a minimal Gauss hypergeometric series 2F1 (direct
summation on [0,1) plus the Pfaff map for negative arguments), the cone
height map H(A) relating the midpoint height of the symmetric critical
profile to its initial slope A, the inverse of H, and the explicit low-energy
profile u_c whose elastic energy equals c^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from .discretization import GridFunction, UniformGrid
from .errors import ConvergenceError, DomainError, RangeError

_QUAD_TOL = 1e-13
_TAIL_CUTOFF = 1.0e6  # quadrature window [-M, M] for c0; tail bound added analytically


def _g_integrand(t: float) -> float:
    return (1.0 + t * t) ** -1.25


def g(s: float) -> float:
    """G(s) by adaptive quadrature at absolute tolerance 1e-13.

    Odd, strictly increasing, |G| < c0/2. Beyond s = 2 the tail is
    integrated in the variable v = 1/t, where the integrand becomes the
    smooth compactly supported sqrt(v) (1 + v^2)^(-5/4); this keeps the
    adaptive rule from missing the mass on very long intervals.
    """
    s = float(s)
    if not math.isfinite(s):
        raise DomainError(f"g: non-finite argument {s}")
    if s == 0.0:
        return 0.0
    a = abs(s)
    if a <= 2.0:
        val, _ = quad(_g_integrand, 0.0, a, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL,
                      limit=200)
    else:
        head, _ = quad(_g_integrand, 0.0, 2.0, epsabs=_QUAD_TOL,
                       epsrel=_QUAD_TOL, limit=200)
        tail, _ = quad(lambda v: math.sqrt(v) * (1.0 + v * v) ** -1.25,
                       1.0 / a, 0.5, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL,
                       limit=200)
        val = head + tail
    return val if s > 0 else -val


@lru_cache(maxsize=1)
def c0() -> float:
    """The saturation constant c0 = int_R (1+t^2)^(-5/4) dt, about 2.39628.

    Computed once by two routes that must agree to 1e-10:
    adaptive quadrature on [-M, M] plus the analytic two-sided tail bound
    2 int_M^inf t^(-5/2) dt = (4/3) M^(-3/2), and twice the large-argument
    limit of g with the same tail correction.
    """
    m = _TAIL_CUTOFF
    tail = (4.0 / 3.0) * m**-1.5
    direct, _ = quad(_g_integrand, -m, m, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL,
                     limit=400, points=[-10.0, 0.0, 10.0])
    via_g = 2.0 * g(m)
    a, b = direct + tail, via_g + tail
    if abs(a - b) > 1e-10:
        raise ConvergenceError(
            f"c0 cross-check failed: {a!r} vs {b!r}, difference {abs(a - b):.3e}"
        )
    return a


_GINV_GUARD_FRACTION = 1e-9  # guard band eps = 1e-9 * c0 around saturation


def g_inv(y: float) -> float:
    """Inverse of G on (-c0/2, c0/2), to residual |G(s) - y| <= 1e-12.

    Newton with the analytic derivative G'(s) = (1+s^2)^(-5/4) and a
    bisection fallback; the initial guess y / (1 - (2y/c0)^2) blows up
    toward saturation exactly as the true inverse does, which keeps plain
    Newton out of the flat tail.
    """
    y = float(y)
    if not math.isfinite(y):
        raise DomainError(f"g_inv: non-finite argument {y}")
    half = c0() / 2.0
    guard = _GINV_GUARD_FRACTION * c0()
    if abs(y) >= half - guard:
        raise RangeError(
            f"g_inv: |y|={abs(y):.17g} is within the guard band of the "
            f"saturation value c0/2={half:.17g}"
        )
    if y == 0.0:
        return 0.0
    s = y / (1.0 - (2.0 * y / c0()) ** 2)
    lo, hi = 0.0, None  # bracket for |y|; work on the positive branch
    ay = abs(y)
    t = abs(s)
    for _ in range(100):
        r = g(t) - ay
        if abs(r) <= 1e-13:
            break
        if r > 0:
            hi = t
        else:
            lo = t
        step = r * (1.0 + t * t) ** 1.25
        tn = t - step
        if hi is not None and not (lo < tn < hi):
            tn = 0.5 * (lo + hi)
        elif hi is None and tn <= lo:
            tn = 2.0 * t + 1.0
        t = tn
    else:
        raise ConvergenceError(f"g_inv: no convergence for y={y!r}")
    return t if y > 0 else -t


_SERIES_TOL = 1e-14  # 2F1 sum ends after two terms below this share of it
_SERIES_MAX_TERMS = 50000  # ConvergenceError beyond this many terms


@dataclass(frozen=True)
class HypergeometricParams:
    """Parameters for the Gauss series 2F1(a, b; c; z)."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        if self.c <= 0 and float(self.c) == int(self.c):
            raise DomainError(f"2F1 parameter c={self.c} is a nonpositive integer")


def hyp2f1(p: HypergeometricParams, z: float) -> float:
    """Gauss hypergeometric series sum_n (a)_n (b)_n / ((c)_n n!) z^n.

    Direct summation for z in [0,1); for z < 0 the Pfaff transformation
    2F1(a,b;c;z) = (1-z)^(-a) 2F1(a, c-b; c; z/(z-1)) maps the argument
    into [0,1). No continuation beyond that range.
    """
    z = float(z)
    if not math.isfinite(z) or z >= 1.0:
        raise DomainError(f"hyp2f1: argument z={z} outside (-inf, 1)")
    if z < 0.0:
        q = HypergeometricParams(p.a, p.c - p.b, p.c)
        return (1.0 - z) ** (-p.a) * hyp2f1(q, z / (z - 1.0))
    # The sum ends at the second of two consecutive terms below _SERIES_TOL
    # of the partial sum. Most series end within 64 terms, which are summed
    # one by one; longer ones go on 512 terms at a time: the term ratios of
    # a chunk are formed at once, the carried term folded into the first,
    # and cumprod and cumsum run in order, so every term and partial sum
    # has the bits of the term-by-term recurrence.
    s = term = 1.0
    small_before = False  # the latest term was below tolerance
    for n in range(64):
        term *= (p.a + n) * (p.b + n) / ((p.c + n) * (n + 1.0)) * z
        s += term
        small = abs(term) <= _SERIES_TOL * abs(s)
        if small and small_before:
            return s
        small_before = small
    with np.errstate(over="ignore", invalid="ignore"):
        for n0 in range(64, _SERIES_MAX_TERMS, 512):
            n = np.arange(n0, min(n0 + 512, _SERIES_MAX_TERMS), dtype=float)
            ratios = (p.a + n) * (p.b + n) / ((p.c + n) * (n + 1.0)) * z
            ratios[0] *= term
            terms = np.cumprod(ratios)
            sums = np.cumsum(np.concatenate(([s], terms)))[1:]
            small = np.abs(terms) <= _SERIES_TOL * np.abs(sums)
            stop = small & np.concatenate(([small_before], small[:-1]))
            if stop.any():
                return float(sums[stop.argmax()])
            term, s, small_before = terms[-1], sums[-1], small[-1]
    raise ConvergenceError(
        f"hyp2f1: series at z={z} not below tol {_SERIES_TOL} "
        f"within {_SERIES_MAX_TERMS} terms"
    )


def _h_hyp(a_slope: float) -> float:
    """H(A) via the hypergeometric representation

        H(A) = (A/3) 2F1(1, 1/4; 7/4; x) / 2F1(1, 1/4; 3/4; x),
        x = A^2 / (1 + A^2).
    """
    if a_slope == 0.0:
        return 0.0
    x = a_slope * a_slope / (1.0 + a_slope * a_slope)
    num = hyp2f1(HypergeometricParams(1.0, 0.25, 1.75), x)
    den = hyp2f1(HypergeometricParams(1.0, 0.25, 0.75), x)
    return a_slope / 3.0 * num / den


def _h_quad(a_slope: float) -> float:
    """H(A) as the ratio of the two endpoint-singular integrals

        H(A) = (1/2) [int_0^A z (A-z)^(-1/2) (1+z^2)^(-5/4) dz]
                    / [int_0^A   (A-z)^(-1/2) (1+z^2)^(-5/4) dz],

    desingularized by z = A - w^2 so both integrands are smooth in w.
    """
    if a_slope == 0.0:
        return 0.0
    a = a_slope
    sa = math.sqrt(a)
    # for large A the integrand mass sits in a thin shell near w = sqrt(A)
    # (where A - w^2 is O(1)); tell the adaptive rule where to look
    pts = [math.sqrt(a - 10.0)] if a > 10.0 else None
    num, _ = quad(lambda w: 2.0 * (a - w * w) * (1.0 + (a - w * w) ** 2) ** -1.25,
                  0.0, sa, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=200,
                  points=pts)
    den, _ = quad(lambda w: 2.0 * (1.0 + (a - w * w) ** 2) ** -1.25,
                  0.0, sa, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=200,
                  points=pts)
    return 0.5 * num / den


def h_of_A(a_slope: float) -> float:
    """Cone height map H(A): midpoint height of the symmetric critical
    profile with initial slope A >= 0. Strictly increasing; H(A) ~ A/3 for
    small A and saturates near 0.8346 as A grows.

    Every call cross-checks the hypergeometric value against the
    desingularized quadrature route to 1e-9 and returns the former.
    """
    a = float(a_slope)
    if not math.isfinite(a) or a < 0.0:
        raise DomainError(f"h_of_A: slope must be finite and >= 0, got {a}")
    hv = _h_hyp(a)
    qv = _h_quad(a)
    if abs(hv - qv) > 1e-9 * max(1.0, abs(hv)):
        raise ConvergenceError(
            f"h_of_A({a}): evaluation routes disagree, {hv!r} vs {qv!r}"
        )
    return hv


def _h_eval(a_slope: float) -> float:
    """H by the series where it is cheap, by quadrature for large slopes
    (the series argument approaches 1 and its convergence degrades)."""
    return _h_hyp(a_slope) if a_slope <= 30.0 else _h_quad(a_slope)


def h_inv(height: float) -> float:
    """Unique A > 0 with H(A) = height; residual below 1e-10.

    Bracketing by doubling, bisection refinement, then a secant polish.
    H saturates, so heights at or above the supremum raise RangeError.
    """
    height = float(height)
    if not (height > 0.0):
        raise RangeError(f"h_inv: height must be positive, got {height}")
    hi = 1.0
    while _h_eval(hi) < height:
        hi *= 2.0
        if hi > 2.0**20:
            raise RangeError(
                f"h_inv: height {height} is at or above the supremum of H"
            )
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _h_eval(mid) < height:
            lo = mid
        else:
            hi = mid
    a = 0.5 * (lo + hi)
    # secant polish on the bracket endpoints
    fa, fb = _h_eval(lo) - height, _h_eval(hi) - height
    if fb != fa:
        a2 = hi - fb * (hi - lo) / (fb - fa)
        if lo < a2 < hi and abs(_h_eval(a2) - height) < abs(_h_eval(a) - height):
            a = a2
    if abs(_h_eval(a) - height) > 1e-10 * max(1.0, height):
        raise ConvergenceError(f"h_inv: residual above 1e-10 at height {height}")
    return a


def _u_c_parameter(c) -> float:
    c = float(c)
    if not (0.0 < c < c0()):
        raise DomainError(f"u_c: c must lie in (0, c0), got {c}")
    return c


def _u_c_term(c: float, s: float) -> float:
    """2 / (c (1 + Ginv(s)^2)^(1/4)), the building block of u_c."""
    return 2.0 / (c * (1.0 + g_inv(s) ** 2) ** 0.25)


def u_c_value(c: float, x: float) -> float:
    """The explicit profile

        u_c(x) = 2 / (c (1 + Ginv(c/2 - c x)^2)^(1/4))
               - 2 / (c (1 + Ginv(c/2)^2)^(1/4)),

    nonnegative, symmetric about 1/2, vanishing at both ends, with elastic
    energy exactly c^2 in the continuum.
    """
    c = _u_c_parameter(c)
    x = float(x)
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"u_c: x must lie in [0,1], got {x}")
    return _u_c_term(c, c / 2.0 - c * x) - _u_c_term(c, c / 2.0)


def u_c_profile(c: float, grid: UniformGrid) -> GridFunction:
    """u_c sampled on a grid, mirrored from the left half so the nodal data
    is reversal-symmetric to the bit. Equals u_c_value node by node, with
    the constant term computed once."""
    c = _u_c_parameter(c)
    base = _u_c_term(c, c / 2.0)
    left = [_u_c_term(c, c / 2.0 - c * x) - base
            for x in grid.nodes[: grid.n // 2 + 1].tolist()]
    return GridFunction.from_symmetric_half(grid, np.array(left))
