"""Special functions of the obstacle-flow problem.

Everything here derives from the slope-compression function

    G(s) = int_0^s (1 + t^2)^(-5/4) dt,

which is odd, strictly increasing and saturates at +-c0/2 where
c0 = int_R (1 + t^2)^(-5/4) dt = B(1/2, 3/4). With t = tan(theta) and
x = sin(theta)^2 the integral becomes half an incomplete beta integral:

    G(s) = sign(s) (c0/2) I_x(1/2, 3/4),    x = s^2 / (1 + s^2),

with I the regularized incomplete beta ratio (DiDonato and Morris, ACM
TOMS 18, 1992), which scipy.special evaluates, and inverts, on whole
arrays. So G and its inverse are closed forms that take a float or an
array. Once x >= 1/2 (|s| >= 1) both use the complement
I_x(1/2, 3/4) = 1 - I_q(3/4, 1/2) with q = 1/(1 + s^2) = 1 - x, formed
without subtracting from 1, so nothing cancels in the tail.

On top of G the module provides its inverse, the saturation constant c0
by its closed form, the cone height map H(A) relating the midpoint height
of the symmetric critical profile to its initial slope A, the inverse of
H, and the explicit low-energy profile u_c whose elastic energy equals
c^2. H has one route, a closed form in two Gauss hypergeometric functions
of -A^2 that scipy.special.hyp2f1 evaluates; h_of_A and h_inv both use
it. The module's own 2F1, a minimal Gauss series (direct summation on
[0,1) plus the Pfaff map for negative arguments), computes nothing on the
run paths: validate's criterion 8 keeps it as the check of scipy's 2F1,
independent of the library H depends on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, betainccinv, betaincinv
from scipy.special import hyp2f1 as _scipy_hyp2f1

from .discretization import GridFunction, UniformGrid
from .errors import ConvergenceError, DomainError, RangeError


def c0() -> float:
    """The saturation constant c0 = int_R (1+t^2)^(-5/4) dt, about 2.39628.

    By its closed form: t = tan(theta) turns the integral into
    2 int_0^(pi/2) cos(theta)^(1/2) dtheta = B(1/2, 3/4)
    = Gamma(1/2) Gamma(3/4) / Gamma(5/4).
    """
    return math.gamma(0.5) * math.gamma(0.75) / math.gamma(1.25)


_HALF_C0 = c0() / 2.0
_TINY = 2.0**-500  # below this G(s) and Ginv(y) round to s and y
_A_ONE = float(betainc(0.5, 0.75, 0.5))  # 2 G(1) / c0, the split of Ginv
_GINV_GUARD_FRACTION = 1e-9  # guard band eps = 1e-9 * c0 around saturation


def _as_array(z, name: str) -> np.ndarray:
    """z as a 1-d float array (a copy); DomainError on a non-finite entry.
    Scalars go through the same array loops as arrays, so the two agree
    to the bit."""
    arr = np.array(z, dtype=float, ndmin=1)
    if not np.isfinite(arr).all():
        bad = arr[~np.isfinite(arr)][0]
        raise DomainError(f"{name}: non-finite argument {bad}")
    return arr


def _like(out: np.ndarray, z):
    """A Python float for a scalar argument z, else the array."""
    return float(out[0]) if np.ndim(z) == 0 else out


def g(s):
    """G(s) = sign(s) (c0/2) I_x(1/2, 3/4), x = s^2/(1+s^2), for a float
    or an array.

    Below |s| = 1 (x < 1/2) by `betainc`; from there on as
    c0/2 - (c0/2) I_q(3/4, 1/2) with q = 1/(1+s^2), by `betainc` too, so
    the tail never forms 1 - x. Below |s| = 2^-500, G(s) = s - 5 s^3/12
    + ... rounds to s, which g returns, before s^2 underflows. Odd,
    strictly increasing, |G| < c0/2. A float in gives a float out; a
    non-finite element is a DomainError.
    """
    arr = _as_array(s, "g")
    a = np.abs(arr)
    out = a.copy()  # the tiny entries keep G(s) = s
    head = (a >= _TINY) & (a < 1.0)
    tail = a >= 1.0
    sq = a[head] * a[head]
    out[head] = _HALF_C0 * betainc(0.5, 0.75, sq / (1.0 + sq))
    with np.errstate(over="ignore"):  # 1/(1 + s^2) = 0 once s^2 overflows
        q = 1.0 / (1.0 + a[tail] * a[tail])
    out[tail] = _HALF_C0 - _HALF_C0 * betainc(0.75, 0.5, q)
    np.negative(out, out=out, where=arr < 0.0)
    return _like(out, s)


def g_inv(y):
    """Inverse of G on (-c0/2, c0/2), for a float or an array.

    With a = 2|y|/c0 = I_x(1/2, 3/4) and the split of `g`: below
    a = 2G(1)/c0, x = betaincinv(1/2, 3/4, a) gives |s| = sqrt(x/(1-x));
    from there on q = betainccinv(3/4, 1/2, a), the q = 1 - x with
    1 - I_q(3/4, 1/2) = a, gives |s| = sqrt((1-q)/q). Below |y| = 2^-500,
    Ginv(y) rounds to y, which g_inv returns. A non-finite element is a
    DomainError, and an element within 1e-9 c0 of saturation,
    |y| >= c0/2 - 1e-9 c0, a RangeError.
    """
    arr = _as_array(y, "g_inv")
    ay = np.abs(arr)
    over = ay >= _HALF_C0 - _GINV_GUARD_FRACTION * c0()
    if over.any():
        raise RangeError(
            f"g_inv: |y|={ay[over][0]:.17g} is within the guard band of the "
            f"saturation value c0/2={_HALF_C0:.17g}"
        )
    a = ay / _HALF_C0
    out = ay.copy()  # the tiny entries keep Ginv(y) = y
    head = (ay >= _TINY) & (a < _A_ONE)
    tail = a >= _A_ONE
    x = betaincinv(0.5, 0.75, a[head])
    out[head] = np.sqrt(x / (1.0 - x))
    q = betainccinv(0.75, 0.5, a[tail])
    out[tail] = np.sqrt((1.0 - q) / q)
    np.negative(out, out=out, where=arr < 0.0)
    return _like(out, y)


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
    into [0,1). No continuation beyond that range. A negative z whose
    factor (1-z)^(-a) overflows, or whose image z/(z-1) rounds to 1, is a
    DomainError naming the z given.
    """
    z = float(z)
    if not math.isfinite(z) or z >= 1.0:
        raise DomainError(f"hyp2f1: argument z={z} outside (-inf, 1)")
    if z < 0.0:
        try:
            scale = (1.0 - z) ** (-p.a)
        except OverflowError as err:
            raise DomainError(
                f"hyp2f1: (1-z)^(-a) overflows at a={p.a}, z={z}") from err
        x = z / (z - 1.0)
        if x >= 1.0:
            raise DomainError(
                f"hyp2f1: the Pfaff image z/(z-1) of z={z} rounds to 1")
        return scale * hyp2f1(HypergeometricParams(p.a, p.c - p.b, p.c), x)
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


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on the first call, as scipy.integrate
    takes about 0.3 s to load; `critical.f_of_z` is the one caller. The
    name stays because bench/tracing.py counts calls to it here and in
    critical."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


# the end of H's supported range, whose RangeError the CLI reports; the
# closed form of H is within 5.1e-16 of 40-digit values up to here
_H_MAX_SLOPE = 2.0**19


def _h(a_slope: float) -> float:
    """H(A) by its closed form, the one route h_of_A and h_inv share."""
    z = -a_slope * a_slope
    return float(a_slope / 3.0 * _scipy_hyp2f1(1.0, 1.5, 1.75, z)
                 / _scipy_hyp2f1(1.0, 0.5, 0.75, z))


def h_of_A(a_slope: float) -> float:
    """Cone height map H(A): midpoint height of the symmetric critical
    profile with initial slope A >= 0. Strictly increasing; H(A) ~ A/3 for
    small A and saturates near 0.8346 as A grows.

    H(A) = (1/2) int_0^A z W / int_0^A W with W = (A - z)^(-1/2)
    (1 + z^2)^(-5/4); each integral is a 2F1 of -A^2, so

        H(A) = (A/3) 2F1(1, 3/2; 7/4; -A^2) / 2F1(1, 1/2; 3/4; -A^2),

    by scipy.special.hyp2f1, within 5.1e-16 of 40-digit values on
    [1e-6, 2^19]. Supported for 0 <= A <= 2^19, the range `h_inv`
    searches; a larger A is a RangeError. Validate's criterion 8 compares
    H with the Gauss-Legendre integrals of `critical._parametric_table`.
    """
    a = float(a_slope)
    if not math.isfinite(a) or a < 0.0:
        raise DomainError(f"h_of_A: slope must be finite and >= 0, got {a}")
    if a > _H_MAX_SLOPE:
        raise RangeError(f"h_of_A: slope A={a} is above {_H_MAX_SLOPE:g}, the "
                         f"largest for which H is supported")
    return _h(a)


def h_inv(height: float) -> float:
    """Unique A in (0, 2^19] with H(A) = height; residual below 1e-10.

    Bracketing by doubling, then bisection on the closed form of H that
    h_of_A returns, down to adjacent floats lo < hi with H(lo) < height <=
    H(hi); A is one of the two. Heights above H(2^19) = 0.83462456, just
    below the supremum, raise RangeError.
    """
    height = float(height)
    if not (height > 0.0):
        raise RangeError(f"h_inv: height must be positive, got {height}")
    hi = 1.0
    while _h(hi) < height:
        hi *= 2.0
        if hi > _H_MAX_SLOPE:
            raise RangeError(
                f"h_inv: height {height} is above H({_H_MAX_SLOPE:g}), the "
                f"largest height supported"
            )
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _h(mid) < height:
            lo = mid
        else:
            hi = mid
    a = 0.5 * (lo + hi)
    if abs(_h(a) - height) > 1e-10 * max(1.0, height):
        raise ConvergenceError(f"h_inv: residual above 1e-10 at height {height}")
    return a


def _u_c_parameter(c) -> float:
    c = float(c)
    if not (0.0 < c < c0()):
        raise DomainError(f"u_c: c must lie in (0, c0), got {c}")
    return c


def _u_c_terms(c: float, s: np.ndarray) -> np.ndarray:
    """2 / (c (1 + Ginv(s)^2)^(1/4)) for an array s, by one g_inv call:
    the building block of u_c."""
    gi = g_inv(s)
    return 2.0 / (c * (1.0 + gi * gi) ** 0.25)


def u_c_value(c: float, x: float) -> float:
    """The explicit profile

        u_c(x) = 2 / (c (1 + Ginv(c/2 - c x)^2)^(1/4))
               - 2 / (c (1 + Ginv(c/2)^2)^(1/4)),

    nonnegative, symmetric about 1/2, vanishing at both ends, with elastic
    energy exactly c^2 in the continuum. Both terms come from one array
    call of the expression u_c_profile uses, so the two agree to the bit.
    """
    c = _u_c_parameter(c)
    x = float(x)
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"u_c: x must lie in [0,1], got {x}")
    term, base = _u_c_terms(c, np.array([c / 2.0 - c * x, c / 2.0]))
    return float(term - base)


def u_c_profile(c: float, grid: UniformGrid) -> GridFunction:
    """u_c sampled on a grid, mirrored from the left half so the nodal data
    is reversal-symmetric to the bit. Equals u_c_value node by node: the
    left half and the constant term come from one g_inv call."""
    c = _u_c_parameter(c)
    x = grid.nodes[: grid.n // 2 + 1]
    terms = _u_c_terms(c, np.append(c / 2.0 - c * x, c / 2.0))
    return GridFunction.from_symmetric_half(grid, terms[:-1] - terms[-1])
