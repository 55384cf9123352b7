"""Special functions of the obstacle-flow problem.

Everything here derives from the slope-compression function

    G(s) = int_0^s (1 + t^2)^(-5/4) dt,

which is odd, strictly increasing and saturates at +-c0/2 where
c0 = int_R (1 + t^2)^(-5/4) dt = B(1/2, 3/4), half an incomplete beta
integral (DiDonato and Morris, ACM TOMS 18, 1992). G is evaluated by
fixed 16-point Gauss-Legendre sums, nodes u_j and weights w_j on [0, 1],
on whole arrays:

    |s| < 1:   G(s) = s sum_j w_j (1 + s^2 u_j^2)^(-5/4),       by t = s u;
    |s| >= 1:  G(s) = c0/2 - 2 |s|^(-3/2) sum_j w_j u_j^2 (1 + u_j^4/s^2)^(-5/4),
               by t = s/u^2, which maps (0, 1] onto the tail [s, inf).

Both integrands are analytic on a neighbourhood of [0, 1] that does not
shrink as |s| moves within its branch, so the sums are within 3.8e-16
relative of G; the tail form needs no 1 - x and does not overflow. Each
row of the node table is summed by `(m * w).sum(axis=1)`, so a float and
an array give the same bits (a BLAS product `m @ w` would not). G's
inverse is two Halley steps on that G from closed-form starts (see
`g_inv`).

On top of G the module provides the saturation constant c0 by its
closed form, the cone height map H(A) relating the midpoint height of the
symmetric critical profile to its initial slope A, the inverse of H, and
the explicit low-energy profile u_c whose elastic energy equals c^2. H is
a ratio of two Gauss hypergeometric functions; after the Pfaff map both
are series in x = A^2/(1+A^2), summed by Horner's rule on coefficients
fixed at import, and once x > 1/2 the connection formula (Abramowitz and
Stegun 15.3.6) turns them into series in w = 1 - x (see `h_of_A`).
h_of_A and h_inv both use that route. Nothing here imports scipy but
`quad`, on its first call. The module's own `hyp2f1` is a plain Gauss
series on [0, 1), summed term by term. It computes nothing on the run
paths: validate's criterion 8 keeps it as the right side of the Pfaff
identity, whose left side is an independent quadrature of Euler's
integral.
"""

from __future__ import annotations

import math
import numpy as np

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

# The positive nodes, ascending, and their weights of the 12- and 16-point
# Gauss-Legendre rules on [-1, 1], as numpy.polynomial.legendre.leggauss
# gives them (a test compares the two bit for bit). Written out, they spare
# every process the import of numpy.polynomial.
_GL_HALVES = {
    12: ([0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
          0.7699026741943047, 0.9041172563704748, 0.9815606342467192],
         [0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
          0.16007832854334642, 0.10693932599531907, 0.04717533638651141]),
    16: ([0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
          0.6178762444026438, 0.755404408355003, 0.8656312023878318,
          0.9445750230732326, 0.9894009349916499],
         [0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
          0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
          0.062253523938647456, 0.027152459411754176]),
}


def _gauss_legendre(m: int):
    """Nodes and weights of the m-point Gauss-Legendre rule on [-1, 1],
    m = 12 or 16: the rule is symmetric, so each half mirrors the other."""
    x, w = map(np.array, _GL_HALVES[m])
    return np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w))


# the 16-point Gauss-Legendre rule on [0, 1] both branches of G sum with
_GL_U, _GL_W = _gauss_legendre(16)
_GL_U, _GL_W = 0.5 * _GL_U + 0.5, 0.5 * _GL_W
_GL_U2, _GL_U4 = _GL_U**2, _GL_U**4
_GL_2WU2 = 2.0 * _GL_W * _GL_U2


def _as_array(z, name: str) -> np.ndarray:
    """z as a 1-d float array (a copy); DomainError on a non-finite entry.
    Scalars go through the same array loops as arrays, so the two agree
    to the bit."""
    arr = np.array(z, dtype=float, ndmin=1)
    if not np.isfinite(arr).all():
        bad = arr[~np.isfinite(arr)][0]
        raise DomainError(f"{name}: non-finite argument {bad}")
    return arr


def _g_head(a: np.ndarray) -> np.ndarray:
    """G(a) for an array 0 <= a <= 1. Below a = 1e-8 every term rounds to
    its weight, the weights sum to 1 row by row, and G(a) = a to the bit."""
    m = (1.0 + np.multiply.outer(a * a, _GL_U2)) ** -1.25
    return a * (m * _GL_W).sum(axis=1)


def _g_tail(a: np.ndarray) -> np.ndarray:
    """c0/2 - G(a) for an array a >= 1, without forming a^2."""
    ia = 1.0 / a
    m = (1.0 + np.multiply.outer(ia * ia, _GL_U4)) ** -1.25
    return a ** -1.5 * (m * _GL_2WU2).sum(axis=1)


def _odd(z, arr: np.ndarray, split: float, head, tail):
    """f(z) for an odd f, split by a = |z|, with arr = `_as_array(z)`:
    head(a) below split and tail(a) from there on, each branch on its own
    part of the array, then the signs of z put back; a float for a scalar
    z, else the array."""
    a = np.abs(arr)
    out = np.empty_like(a)
    low = a < split
    for part, branch in ((low, head), (~low, tail)):
        if part.any():
            out[part] = branch(a[part])
    np.negative(out, out=out, where=arr < 0.0)
    return float(out[0]) if np.ndim(z) == 0 else out


def g(s):
    """G(s) for a float or an array, by the Gauss-Legendre sums of the
    module docstring: below |s| = 1 the head sum, from there on c0/2
    minus the tail sum. Within 3.8e-16 relative of 40-digit values on
    +-[1e-8, 1e6], and G(s) = s to the bit below |s| = 1e-8. Odd, strictly
    increasing, |G| < c0/2. A float in gives a float out; a non-finite
    element is a DomainError.
    """
    return _odd(s, _as_array(s, "g"), 1.0, _g_head,
                lambda a: _HALF_C0 - _g_tail(a))


_G_ONE = float(_g_head(np.ones(1))[0])  # G(1), the split of g_inv
_GINV_LIMIT = _HALF_C0 - 1e-9 * c0()  # g_inv's guard band 1e-9 c0 starts here
_GINV_STEPS = 2  # Halley steps from the starts of g_inv


def _halley(s: np.ndarray, residual) -> np.ndarray:
    """_GINV_STEPS Halley steps on residual(s) = G(s) - y from s, with
    G' = (1 + s^2)^(-5/4) and G''/G' = -5s/(2(1 + s^2))."""
    for _ in range(_GINV_STEPS):
        q = 1.0 + s * s
        d = residual(s) * q**1.25  # the Newton step (G(s) - y) / G'(s)
        s = s - d / (1.0 + 1.25 * d * s / q)
    return s


def g_inv(y):
    """Inverse of G on (-c0/2, c0/2), for a float or an array.

    Two Halley steps on the G of `g`, split as g is at |y| = G(1). With
    G(theta) = int_0^theta cos^(1/2) for s = tan(theta), the starts invert
    the first terms of its two expansions:
      - |y| < G(1): theta = y + y^3/12 + 11 y^5/480, s = tan(theta);
      - |y| >= G(1): r = c0/2 - |y| = (2/3) e^(3/2) (1 - e^2/28
        + e^4/5280 - ...) in e = pi/2 - theta, so with p = (3r/2)^(2/3),
        e = p (1 + p^2/42 + 37 p^4/21560) and s = 1/tan(e); the tail
        steps take r - (c0/2 - G(s)) as the residual, with no c0/2 - G(s)
        subtracted from y.
    The start is within 3e-3 relative, and two steps leave Ginv(y) within
    1.33 eps (1 + kappa) relative of its 40-digit value, kappa =
    |y| (1+s^2)^(5/4)/|s| the condition number of Ginv (measured worst on
    G(+-[1e-8, 1e6])). Below |y| = 1e-8, Ginv(y) = y to the bit. A
    non-finite element is a DomainError, and an element within 1e-9 c0
    of saturation, |y| >= c0/2 - 1e-9 c0, a RangeError.
    """
    arr = _as_array(y, "g_inv")
    over = np.abs(arr) >= _GINV_LIMIT
    if over.any():
        raise RangeError(
            f"g_inv: |y|={abs(arr[over][0]):.17g} is within the guard band of "
            f"the saturation value c0/2={_HALF_C0:.17g}"
        )
    return _odd(y, arr, _G_ONE, _g_inv_head, _g_inv_tail)


def _g_inv_head(y: np.ndarray) -> np.ndarray:
    """Ginv(y) for an array 0 <= y < G(1), from the start of `g_inv`."""
    y2 = y * y
    s = np.tan(y * (1.0 + y2 * (1.0 / 12.0 + y2 * (11.0 / 480.0))))
    return _halley(s, lambda s: _g_head(s) - y)


def _g_inv_tail(y: np.ndarray) -> np.ndarray:
    """Ginv(y) for an array G(1) <= y < c0/2, from the start of `g_inv`."""
    r = _HALF_C0 - y
    p = (1.5 * r) ** (2.0 / 3.0)
    p2 = p * p
    e = p * (1.0 + p2 * (1.0 / 42.0 + p2 * (37.0 / 21560.0)))
    return _halley(1.0 / np.tan(e), lambda s: r - _g_tail(s))


_SERIES_TOL = 1e-14  # 2F1 sum ends after two terms below this share of it
_SERIES_MAX_TERMS = 50000  # ConvergenceError beyond this many terms


def hyp2f1(a: float, b: float, c: float, x: float) -> float:
    """Gauss hypergeometric series sum_n (a)_n (b)_n / ((c)_n n!) x^n on
    [0, 1), summed term by term.

    Validate's criterion 8 keeps it as the right side of the Pfaff
    identity, against an independent quadrature of Euler's integral. The
    sum ends at the second of two consecutive terms below _SERIES_TOL of
    the partial sum; a series still going after _SERIES_MAX_TERMS terms is
    a ConvergenceError. A nonpositive integer c, or x outside [0, 1), is a
    DomainError.
    """
    if c <= 0 and float(c).is_integer():
        raise DomainError(f"hyp2f1: parameter c={c} is a nonpositive integer")
    x = float(x)
    if not 0.0 <= x < 1.0:
        raise DomainError(f"hyp2f1: argument x={x} outside [0, 1)")
    s = term = 1.0
    small_before = False  # the latest term was below tolerance
    for n in range(_SERIES_MAX_TERMS):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * x
        s += term
        small = abs(term) <= _SERIES_TOL * abs(s)
        if small and small_before:
            return s
        small_before = small
    raise ConvergenceError(
        f"hyp2f1: series at x={x} not below tol {_SERIES_TOL} "
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
# route of H is within _H_ABS_ERR of 40-digit values up to here
_H_MAX_SLOPE, _H_ABS_ERR = 2.0**19, 5.1e-16
_H_TERMS = 56  # x^56 <= 2^-56 on the arguments x <= 1/2 the series run at


def _horner_pairs(c_left: float, c_right: float) -> list:
    """Coefficient pairs of 2F1(1, 1/4; c; .) = sum_n (1/4)_n/(c)_n (.)^n
    at c = c_left and c = c_right, highest power first, for `_horner2`."""
    pairs = [(1.0, 1.0)]
    for n in range(_H_TERMS - 1):
        p, q = pairs[-1]
        pairs.append((p * (0.25 + n) / (c_left + n),
                      q * (0.25 + n) / (c_right + n)))
    return pairs[::-1]


_H_IN_X = _horner_pairs(1.75, 0.75)  # the Pfaff series of H, in x
_H_IN_W = _horner_pairs(0.5, 1.5)  # their connection series, in w = 1 - x


def _horner2(pairs: list, x: float) -> tuple[float, float]:
    """Both series of `pairs` at 0 <= x <= 1/2, by Horner's rule in one
    loop over their first n terms, n the least with x^n <= 2^-56. Every
    coefficient is at most 1, so the terms left out sum to at most
    2 x^n <= 2^-55 of the series, which is at least 1."""
    n = 1 if x == 0.0 else min(_H_TERMS, math.ceil(-56.0 / math.log2(x)))
    p = q = 0.0
    for a, b in pairs[_H_TERMS - n:]:
        p = p * x + a
        q = q * x + b
    return p, q


def _h(a: float) -> float:
    """H(A) by the route of `h_of_A`, the one h_of_A and h_inv share."""
    a2 = a * a
    if a2 <= 1.0:  # x = A^2/(1+A^2) <= 1/2
        num, den = _horner2(_H_IN_X, a2 / (1.0 + a2))
        return a / 3.0 * num / den
    w = 1.0 / (1.0 + a2)
    x = a2 * w  # 1 - w, not subtracted
    rw, u = math.sqrt(w), math.sqrt(math.sqrt(x))
    f_num, f_den = _horner2(_H_IN_W, w)
    return u * (f_num - 0.5 * _HALF_C0 * rw * u / x) / (_HALF_C0
                                                        + rw * f_den / u)


def h_of_A(a_slope: float) -> float:
    """Cone height map H(A): midpoint height of the symmetric critical
    profile with initial slope A >= 0. Strictly increasing; H(A) ~ A/3 for
    small A and saturates near 0.8346 as A grows.

    H(A) = (1/2) int_0^A z W / int_0^A W with W = (A - z)^(-1/2)
    (1 + z^2)^(-5/4); each integral is a 2F1 of -A^2, and the Pfaff map
    takes both to x = A^2/(1+A^2):

        H(A) = (A/3) 2F1(1, 3/2; 7/4; -A^2) / 2F1(1, 1/2; 3/4; -A^2)
             = (A/3) 2F1(1, 1/4; 7/4; x) / 2F1(1, 1/4; 3/4; x).

    For x <= 1/2 (A <= 1) both series are summed by Horner's rule. Beyond,
    the 1 - x connection formula (Abramowitz and Stegun 15.3.6) in
    w = 1/(1+A^2) = 1 - x, where the Gamma factors reduce to 3/2, 1/2
    and c0/4, and the second terms to (1-w)^(-3/4) and (1-w)^(1/4), gives

        H(A) = x^(1/4) (F(1/2) - (c0/4) sqrt(w) x^(-3/4))
                 / (c0/2 + sqrt(w) x^(-1/4) F(3/2)),

    F(c) = 2F1(1, 1/4; c; w), again by Horner's rule; so H saturates at
    2/c0. Within 5.1e-16 (_H_ABS_ERR) of 40-digit values on [1e-6, 2^19]
    (measured worst 3.7e-16 on 1500 log-spaced slopes).
    Supported for 0 <= A <= 2^19, the range `h_inv` searches; a larger A
    is a RangeError. Validate's criterion 8 compares H with the
    Gauss-Legendre integrals of `critical._parametric_table`.
    """
    a = float(a_slope)
    if not math.isfinite(a) or a < 0.0:
        raise DomainError(f"h_of_A: slope must be finite and >= 0, got {a}")
    if a > _H_MAX_SLOPE:
        raise RangeError(f"h_of_A: slope A={a} is above {_H_MAX_SLOPE:g}, the "
                         f"largest for which H is supported")
    return _h(a)


def _bisect(below, lo: float, hi: float) -> tuple[float, float]:
    """Halve the float bracket [lo, hi] until its ends are adjacent floats,
    the one bisection of h_inv and of validate's flip search: the midpoint
    replaces lo where below(midpoint), else hi. It ends when
    the midpoint rounds to an end, which every finite bracket whose sum
    does not overflow reaches: at most 1,093 halvings take [0, 2^19] to
    adjacent floats."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return lo, hi
        if below(mid):
            lo = mid
        else:
            hi = mid


def h_inv(height: float) -> float:
    """A in (0, 2^19] with H(A) = height, the float the bisection brackets,
    at every positive height; residual below 1e-10 relative (one float
    step at a subnormal height).

    Bracketing by doubling, then bisection (`_bisect`) on the closed form
    of H that h_of_A returns, down to adjacent floats lo < hi with
    H(lo) < height <= H(hi); A is one of the two. H is flat to rounding
    near 2^19, where h_of_A gives heights up to H(2^19) + 2 _H_ABS_ERR
    (H(2^19) = 0.83462456, just below the supremum); higher heights raise
    RangeError. There many floats share one height, and A is one preimage
    among several: h_inv(h_of_A(2**19)) is 524287.9999965166, not 2^19.
    """
    height = float(height)
    if not (height > 0.0):
        raise RangeError(f"h_inv: height must be positive, got {height}")
    hi = 1.0
    while _h(hi) < height and hi < _H_MAX_SLOPE:
        hi *= 2.0
    if height > _h(hi) + 2.0 * _H_ABS_ERR:
        raise RangeError(f"h_inv: height {height} is above H({_H_MAX_SLOPE:g}), "
                         f"the largest height supported")
    lo, hi = _bisect(lambda a: _h(a) < height, 0.0, hi)
    a = 0.5 * (lo + hi)
    # relative, but never below the float spacing of a subnormal height
    if abs(_h(a) - height) > max(1e-10 * height, math.ulp(height)):
        raise ConvergenceError(f"h_inv: relative residual above 1e-10 at "
                               f"height {height}")
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
