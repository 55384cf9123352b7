import math

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bendflow import (
    DomainError,
    ConvergenceError,
    HypergeometricParams,
    RangeError,
    UniformGrid,
    c0,
    energy,
    g,
    g_inv,
    h_inv,
    h_of_A,
    hyp2f1,
    u_c_profile,
    u_c_value,
)
from bendflow.cli import main
from bendflow.critical import _parametric_table
from bendflow.specialfn import _SERIES_MAX_TERMS, _SERIES_TOL
from bendflow.validate import (C0_REF, C0_SQ4_REF, E_PARABOLA_REF,
                               G23_SQ_REF)

from conftest import simpson_adaptive

# frozen references, computed with 30-digit quadrature of (1+t^2)^(-5/4)
G1_REF = 0.7443030797604929          # G(1)
G2_REF = 0.9892840095005784          # G(2)
H_SMALL_REF = 0.0033332698439632937  # H(0.01), hypergeometric series
TWO_LN_TWO = 1.3862943611198906      # -ln(1/2)/(1/2) = 2F1(1,1;2;1/2)


def test_g_zero_and_odd():
    assert g(0.0) == 0.0
    assert g(-0.7) == -g(0.7)


def test_g_one_against_oracle():
    oracle = simpson_adaptive(lambda t: (1 + t * t) ** -1.25, 0.0, 1.0)
    assert abs(oracle - G1_REF) < 1e-11
    assert abs(g(1.0) - G1_REF) < 1e-12


def test_g_monotone_and_bounded():
    vals = [g(s) for s in np.linspace(-30, 30, 41)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert max(abs(v) for v in vals) < c0() / 2


def test_g_rejects_nonfinite():
    with pytest.raises(DomainError):
        g(float("nan"))
    with pytest.raises(DomainError):
        g(float("inf"))


def test_ginv_round_trips():
    assert g_inv(0.0) == 0.0
    assert abs(g_inv(g(2.0)) - 2.0) < 1e-12
    assert abs(g(g_inv(0.9)) - 0.9) < 1e-12
    # derived: G(1) maps back to 1
    assert abs(g_inv(G1_REF) - 1.0) < 1e-10


@settings(max_examples=50, deadline=None)
@given(s=st.floats(-1e4, 1e4))
def test_g_round_trip_on_random_arguments(s):
    y = g(s)
    assert abs(g(g_inv(y)) - y) <= 1e-12


def test_ginv_monotone():
    ys = np.linspace(-1.1, 1.1, 23)
    vals = [g_inv(y) for y in ys]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_ginv_range_guard():
    with pytest.raises(RangeError):
        g_inv(c0() / 2)
    with pytest.raises(RangeError):
        g_inv(-c0() / 2 + 1e-12)


def _g_40_digits(s):
    """G(s) = s 2F1(1/2, 5/4; 3/2; -s^2) at 40 digits: a route independent
    of the incomplete beta identity g uses."""
    with mpmath.workdps(40):
        s = mpmath.mpf(s)
        return s * mpmath.hyp2f1(0.5, 1.25, 1.5, -s * s)


def test_g_against_40_digits_on_twelve_decades():
    """On +-s in [1e-8, 1e6], log-spaced over both branches of g (|s| < 1
    and |s| >= 1), G is within 1e-15 relative of its 40-digit value."""
    s = np.logspace(-8.0, 6.0, 141)
    for sign in (1.0, -1.0):
        got = g(sign * s)
        for si, gi in zip(sign * s, got):
            exact = _g_40_digits(si)
            assert abs(mpmath.mpf(gi) - exact) <= 1e-15 * abs(exact), si


_Y_MAX = (1.0 - 1e-8) * c0() / 2


@settings(max_examples=200, deadline=None)
@given(y=st.floats(-_Y_MAX, _Y_MAX))
@example(y=_Y_MAX)
@example(y=-_Y_MAX)
@example(y=G1_REF)  # the split of g_inv, at s = 1
@example(y=1e-200)  # Ginv(y) = y below 2^-500
def test_g_of_g_inv_round_trips_to_4e_15(y):
    assert abs(g(g_inv(y)) - y) <= 4e-15 * abs(y)


def test_g_and_g_inv_arrays_equal_scalar_calls_bitwise():
    """One array call gives the bits of the element-by-element calls, on
    both branches, at zero and below 2^-500; a float in gives a float
    out."""
    rng = np.random.default_rng(7)
    s = np.concatenate([rng.normal(scale=10.0, size=200),
                        np.logspace(-9, 9, 37), -np.logspace(-300, 300, 13),
                        [0.0, -0.0, 1.0, -1.0]])
    got = g(s)
    assert got.tobytes() == np.array([g(float(x)) for x in s]).tobytes()
    # G(1e5) is 2.1e-8 below c0/2, off g_inv's guard band of 2.4e-9
    y = np.concatenate([got[np.abs(s) <= 1e5], [G1_REF, -G1_REF]])
    back = g_inv(y)
    assert back.tobytes() == np.array([g_inv(float(x)) for x in y]).tobytes()
    assert type(g(0.5)) is float and type(g_inv(0.5)) is float


def test_g_and_g_inv_check_every_element():
    """A non-finite element anywhere is a DomainError; an element of g_inv
    within the guard band 1e-9 c0 of saturation a RangeError."""
    ok = np.linspace(-1.0, 1.0, 9)
    for bad in (np.nan, np.inf, -np.inf):
        for fn in (g, g_inv):
            with pytest.raises(DomainError):
                fn(np.append(ok, bad))
    edge = c0() / 2 - 0.5e-9 * c0()
    for y in (edge, -edge, c0() / 2):
        with pytest.raises(RangeError, match="guard band"):
            g_inv(np.insert(ok, 4, y))


def test_c0_value_and_saturation():
    assert abs(c0() - C0_REF) < 1e-10
    assert abs(c0() ** 2 / 4 - 1.4355400220922600) < 1e-9
    gap = c0() / 2 - g(1e6)
    assert 0.0 < gap < 1e-6


def _is_correctly_rounded(x, exact):
    """x is the double nearest to the mpmath number `exact`."""
    err = abs(mpmath.mpf(x) - exact)
    return all(err <= abs(mpmath.mpf(np.nextafter(x, to)) - exact)
               for to in (-np.inf, np.inf))


def test_c0_and_the_frozen_references_at_40_digits():
    """c0's closed form is within 1 ulp of B(1/2, 3/4) (measured: 0.67 ulp
    below), and each frozen reference of validate is the correctly rounded
    double of its value."""
    with mpmath.workdps(40):
        beta = mpmath.beta(mpmath.mpf(1) / 2, mpmath.mpf(3) / 4)
        g23 = mpmath.quad(lambda t: (1 + t * t) ** mpmath.mpf(-1.25),
                          [0, mpmath.sqrt(mpmath.mpf(2) / 3)])
        assert abs(mpmath.mpf(c0()) - beta) <= math.ulp(c0())
        for ref, exact in ((C0_REF, beta), (C0_SQ4_REF, beta**2 / 4),
                           (E_PARABOLA_REF, 20 / (3 * mpmath.mpf(2) ** 1.5)),
                           (G23_SQ_REF, g23**2)):
            assert _is_correctly_rounded(ref, exact), (ref, exact)


def test_c0_against_oracle():
    # independent route: c0 = int_{-pi/2}^{pi/2} sqrt(cos) after t = tan(theta)
    oracle = 2.0 * simpson_adaptive(
        lambda th: math.sqrt(math.cos(th)), 0.0, math.pi / 2 - 1e-13, tol=1e-11)
    assert abs(oracle - c0()) < 1e-7


def test_hyp2f1_at_zero_is_one():
    assert hyp2f1(HypergeometricParams(0.3, 1.7, 2.2), 0.0) == 1.0


def test_hyp2f1_log_identity():
    val = hyp2f1(HypergeometricParams(1.0, 1.0, 2.0), 0.5)
    assert abs(val - TWO_LN_TWO) < 1e-14
    assert abs(val - (-math.log(0.5) / 0.5)) < 1e-14


def test_hyp2f1_pfaff_against_scipy():
    a = 1.3
    x = a * a / (1 + a * a)
    lhs = scipy.special.hyp2f1(1.0, 0.5, 0.75, -a * a)
    rhs = (1 / (1 + a * a)) * hyp2f1(HypergeometricParams(1.0, 0.25, 0.75), x)
    assert abs(lhs - rhs) < 1e-10
    # our negative-argument evaluation takes the Pfaff route internally
    ours = hyp2f1(HypergeometricParams(1.0, 0.5, 0.75), -a * a)
    assert abs(ours - lhs) < 1e-12


def test_hyp2f1_parameter_and_domain_errors():
    with pytest.raises(DomainError):
        HypergeometricParams(1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        HypergeometricParams(1.0, 1.0, -3.0)
    with pytest.raises(DomainError):
        hyp2f1(HypergeometricParams(1.0, 1.0, 2.0), 1.0)
    # 2F1(1,1;2;z) = -log(1-z)/z: near z = 1 the terms z^n/(n+1) are still
    # far above the series tolerance when the term budget runs out
    with pytest.raises(ConvergenceError):
        hyp2f1(HypergeometricParams(1.0, 1.0, 2.0), 0.9999)


@pytest.mark.parametrize("a, z, match", [
    (-5.0, -1e300, r"overflows at a=-5.0, z=-1e\+300"),
    (-200.0, -50.0, r"overflows at a=-200.0, z=-50.0"),
    (1.0, -1e300, r"image z/\(z-1\) of z=-1e\+300 rounds to 1"),
])
def test_hyp2f1_pfaff_failures_are_domain_errors_naming_z(a, z, match):
    with pytest.raises(DomainError, match=match):
        hyp2f1(HypergeometricParams(a, 1.0, 2.0), z)


def _hyp2f1_term_by_term(p, z):
    """The Gauss series summed one term at a time, with hyp2f1's domain,
    Pfaff map, tolerance, term budget and two-in-a-row stopping rule."""
    z = float(z)
    if not math.isfinite(z) or z >= 1.0:
        raise DomainError("z outside (-inf, 1)")
    if z < 0.0:
        q = HypergeometricParams(p.a, p.c - p.b, p.c)
        return (1.0 - z) ** (-p.a) * _hyp2f1_term_by_term(q, z / (z - 1.0))
    s = term = 1.0
    small_streak = 0
    for n in range(_SERIES_MAX_TERMS):
        term *= (p.a + n) * (p.b + n) / ((p.c + n) * (n + 1.0)) * z
        s += term
        if abs(term) <= _SERIES_TOL * abs(s):
            small_streak += 1
            if small_streak >= 2:
                return s
        else:
            small_streak = 0
    raise ConvergenceError("no convergence")


def _outcome(fn, p, z):
    try:
        return np.float64(fn(p, z)).tobytes()
    except (DomainError, ConvergenceError) as err:
        return type(err)


@settings(max_examples=200, deadline=None)
@given(a=st.floats(-5.0, 5.0), b=st.floats(-5.0, 5.0), c=st.floats(-5.0, 5.0),
       z=st.one_of(st.floats(-50.0, 1.0), st.floats(0.9, 1.0)))
@example(a=1.0, b=0.25, c=1.75, z=900.0 / 901.0)  # H(30), numerator
@example(a=1.0, b=1.0, c=2.0, z=0.9999)  # out of terms
@example(a=1.0, b=1.0, c=2.0, z=-1e300)  # Pfaff map to z/(z - 1) = 1
def test_hyp2f1_bits_match_term_by_term_sum(a, b, c, z):
    """Summing in chunks gives the bits, and the errors, of summing one
    term at a time."""
    assume(not (c <= 0 and c == int(c)))
    p = HypergeometricParams(a, b, c)
    assert _outcome(hyp2f1, p, z) == _outcome(_hyp2f1_term_by_term, p, z)


def test_h_of_a_zero_and_small_slope():
    assert h_of_A(0.0) == 0.0
    assert abs(h_of_A(0.01) - H_SMALL_REF) < 1e-8
    assert abs(h_of_A(0.01) - 0.01 / 3) < 1e-6  # leading behavior A/3


def test_h_of_a_dual_routes_agree():
    """The closed form against the midpoint height of the Gauss-Legendre
    table critical_profile integrates, the dual route of criterion 8."""
    for a in (0.3, 1.0, 3.3, 5.0, 30.0):
        assert abs(h_of_A(a) - _parametric_table(a)[1][-1]) < 1e-14


def _h_40_digits(a: float):
    """H(A) at 40 digits: the ratio (1/2) int_0^A z W / int_0^A W with
    W = (A - z)^(-1/2) (1 + z^2)^(-5/4), desingularized by z = A - w^2
    and split at w = sqrt(A - 10), where the mass of a large A sits."""
    a = mpmath.mpf(a)
    pts = [0, *([mpmath.sqrt(a - 10)] if a > 10 else []), mpmath.sqrt(a)]

    def weight(w):  # W dz in w, up to the factor 2 that cancels
        return (1 + (a - w * w) ** 2) ** mpmath.mpf(-1.25)

    num = mpmath.quad(lambda w: (a - w * w) * weight(w), pts)
    return num / mpmath.quad(weight, pts) / 2


def test_h_of_a_at_40_digits():
    """H within 2e-15 relative of 40-digit quadrature on [1e-6, 2^19]
    (measured worst 1.4e-15), the cap of its range included."""
    with mpmath.workdps(40):
        for a in [*np.geomspace(1e-6, 2.0**19, 40), 0.2, 5.0, 30.0, 1e3]:
            ref = _h_40_digits(a)
            assert abs(h_of_A(a) - ref) <= 2e-15 * ref, a


def test_h_of_a_domain():
    with pytest.raises(DomainError):
        h_of_A(-0.1)


def test_h_of_a_beyond_its_range_is_a_range_error(capsys):
    assert 0.8346 < h_of_A(2.0**19) < 0.8347
    with pytest.raises(RangeError, match=r"h_of_A: slope A=524288\.5 "):
        h_of_A(2.0**19 + 0.5)
    assert main(["specialfn", "eval", "--fn", "h", "--args", "1e3"]) == 0
    assert capsys.readouterr().out == f"{h_of_A(1e3):.15g}\n"
    for arg in ("1e6", "1e8", "1e200"):
        assert main(["specialfn", "eval", "--fn", "h", "--args", arg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: h_of_A: slope A={float(arg)} "), err


def test_h_of_a_inverts_h_inv_up_to_0_83():
    """Every slope h_inv returns is one h_of_A takes, and maps back to the
    height within 1e-11, from small heights to the flat end of H."""
    for y in [*np.linspace(0.01, 0.83, 83), h_of_A(30.0), h_of_A(1e3)]:
        assert abs(h_of_A(h_inv(y)) - y) <= 1e-11, y


@settings(max_examples=30, deadline=None)
@given(a=st.floats(1e-6, 2.0**19))
@example(a=1e-6)
@example(a=30.0)
@example(a=2.0**19)
def test_h_inv_round_trips_h_of_a(a):
    """h_of_A(h_inv(H(A))) gives H(A) back within 4e-15 relative: h_inv
    bisects the H that h_of_A returns, down to adjacent floats. Near the
    cap H is flat to rounding, and a height above H(2^19) is h_inv's
    RangeError."""
    y = h_of_A(a)
    assume(y <= h_of_A(2.0**19))
    assert abs(h_of_A(h_inv(y)) - y) <= 4e-15 * y
    if a <= 1.0:  # where H' >= 0.2, the slope comes back too
        assert abs(h_inv(y) - a) <= 1e-14 * a


@settings(max_examples=30, deadline=None)
@given(y=st.floats(1e-8, 0.834))
@example(y=1e-8)
@example(y=0.834)
def test_h_inv_is_a_float_bracket(y):
    """h_inv(y) is an end of the float bracket of y: either H(prev(a)) <
    y <= H(a) or H(a) < y <= H(next(a)), with H by h_of_A and prev,
    next the adjacent floats. No float lies strictly inside the bracket."""
    a = h_inv(y)
    below, above = np.nextafter(a, 0.0), np.nextafter(a, np.inf)
    ha = h_of_A(a)
    assert h_of_A(below) < y <= ha or ha < y <= h_of_A(above)


def test_h_strictly_increasing():
    a = np.linspace(1e-3, 10.0, 100)
    vals = np.array([h_of_A(x) for x in a])
    assert np.all(np.diff(vals) > 0)


def test_h_inv_round_trips():
    assert abs(h_inv(h_of_A(0.8)) - 0.8) < 1e-10
    assert abs(h_inv(H_SMALL_REF) - 0.01) < 1e-9
    a = h_inv(0.05)
    assert abs(h_of_A(a) - 0.05) < 1e-10


def test_h_inv_range_errors():
    with pytest.raises(RangeError):
        h_inv(0.0)
    with pytest.raises(RangeError):
        h_inv(-0.3)
    with pytest.raises(RangeError):
        h_inv(0.9)  # above the supremum of H (about 0.8346)


def test_u_c_endpoints_and_symmetry():
    for c in (0.25, 0.5, 1.0, 2.0):
        assert abs(u_c_value(c, 0.0)) < 1e-14
        assert abs(u_c_value(c, 1.0)) < 1e-14
        assert abs(u_c_value(c, 0.3) - u_c_value(c, 0.7)) < 1e-13
        assert u_c_value(c, 0.5) > 0.0


def test_u_c_domain_errors():
    with pytest.raises(DomainError):
        u_c_value(0.0, 0.5)
    with pytest.raises(DomainError):
        u_c_value(c0(), 0.5)
    with pytest.raises(DomainError):
        u_c_value(0.5, 1.5)


def test_u_c_profile_nonnegative_symmetric_zero_ends():
    grid = UniformGrid(400)
    for c in (0.25, 0.5, 1.0, 2.0):
        gf = u_c_profile(c, grid)
        v = gf.values
        assert v[0] == 0.0 and v[-1] == 0.0
        assert np.min(v) >= 0.0
        assert np.array_equal(v, v[::-1])


def test_u_c_profile_equals_u_c_value_bitwise():
    """The profile computes the constant term once, with the expression
    u_c_value uses, so its left half equals u_c_value node by node to the
    bit and its right half mirrors it."""
    for n in (16, 200, 801):
        grid = UniformGrid(n)
        m = n // 2
        for c in (0.25, 0.5, 2.0):
            v = u_c_profile(c, grid).values
            left = np.array([u_c_value(c, x) for x in grid.nodes[: m + 1]])
            assert v[: m + 1].tobytes() == left.tobytes()
            assert v.tobytes() == v[::-1].tobytes()
        with pytest.raises(DomainError):
            u_c_profile(c0(), grid)


def test_u_c_profile_energy_near_c_squared():
    grid = UniformGrid(1000)
    gf = u_c_profile(1.0, grid)
    assert abs(energy(gf) - 1.0) < 2e-3
