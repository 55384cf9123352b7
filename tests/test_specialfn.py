import math

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
from bendflow.specialfn import _SERIES_MAX_TERMS, _SERIES_TOL, _h_hyp, _h_quad

from conftest import simpson_adaptive

# frozen references, computed with 30-digit quadrature of (1+t^2)^(-5/4)
C0_REF = 2.3962804694711844
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


def test_c0_value_and_saturation():
    assert abs(c0() - C0_REF) < 1e-10
    assert abs(c0() ** 2 / 4 - 1.4355400220922600) < 1e-9
    gap = c0() / 2 - g(1e6)
    assert 0.0 < gap < 1e-6


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
    for a in (0.3, 1.0, 3.3, 5.0):
        assert abs(_h_hyp(a) - _h_quad(a)) < 1e-9


def test_h_of_a_domain():
    with pytest.raises(DomainError):
        h_of_A(-0.1)


def test_h_strictly_increasing():
    a = np.linspace(1e-3, 10.0, 100)
    vals = np.array([_h_hyp(x) for x in a])
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
