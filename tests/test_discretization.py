import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bendflow import (
    DomainError,
    GridFunction,
    GridMismatchError,
    UniformGrid,
    a_u,
    cone_obstacle,
    constant_obstacle,
    energy,
    energy_gradient,
    first_diff,
    first_variation,
    l2_inner,
    l2_norm,
    read_profile_csv,
    second_diff,
    trapezoid_weights,
    u_c_profile,
    write_profile_csv,
)
from bendflow.discretization import (
    _HESS_BW,
    _derivative_tables,
    _energy_gradient_raw,
    _energy_hessian_bands,
)
from bendflow.flow import _mirror_bands
from bendflow.specialfn import g

from conftest import mirrored, simpson_adaptive

# 4 int_0^1 (1+t^2)^(-5/2) dt = 20/(3 * 2^(3/2)): energy of x(1-x)
E_PARABOLA_REF = 2.3570226039551584


def parabola(grid):
    x = grid.nodes
    return GridFunction(grid, x * (1.0 - x))


def test_grid_validation():
    with pytest.raises(DomainError):
        UniformGrid(3)
    g_ = UniformGrid(10)
    assert g_.h == 0.1
    assert g_.nodes[-1] == 1.0
    assert g_.midpoint_index == 5
    assert UniformGrid(9).midpoint_index is None


def test_gridfunction_validation():
    grid = UniformGrid(8)
    with pytest.raises(DomainError):
        GridFunction(grid, np.zeros(8))
    with pytest.raises(DomainError):
        GridFunction(grid, [0.0] * 8 + [float("nan")])
    gf = GridFunction.zeros(grid)
    with pytest.raises(ValueError):
        gf.values[0] = 1.0  # nodal data is immutable


def test_obstacle_flags():
    grid = UniformGrid(16)
    cone = cone_obstacle(0.05, grid)
    assert cone.assumption1_ok
    v = cone.samples.values
    assert v[0] == -0.05 and v[-1] == -0.05
    assert v[grid.midpoint_index] == 0.05
    assert abs(v[4]) < 1e-15  # zero crossing at x = 1/4
    assert not constant_obstacle(-1.0, grid).assumption1_ok
    assert not constant_obstacle(0.0, grid).assumption1_ok
    with pytest.raises(DomainError):
        cone_obstacle(0.0, grid)


def test_first_diff_exact_for_quadratics():
    grid = UniformGrid(1000)
    up = first_diff(parabola(grid))
    x = grid.nodes
    assert np.allclose(up, 1.0 - 2.0 * x, atol=1e-10)
    assert abs(up[250] - 0.5) < 1e-10
    assert abs(up[500]) < 1e-12
    assert np.allclose(first_diff(GridFunction.zeros(grid)), 0.0)


def test_second_diff_values():
    grid = UniformGrid(1000)
    assert np.allclose(second_diff(parabola(grid)), -2.0, atol=1e-8)
    lin = GridFunction(grid, 0.3 * grid.nodes)
    # second differences amplify rounding by 1/h^2; 1e-9 covers that at N=1000
    assert np.allclose(second_diff(lin), 0.0, atol=1e-9)
    s = GridFunction(grid, np.sin(np.pi * grid.nodes))
    mid = second_diff(s)[499]  # interior index of node 500
    assert abs(mid + math.pi**2) < 1e-4


def test_energy_zero_and_parabola():
    grid = UniformGrid(2000)
    assert energy(GridFunction.zeros(grid)) == 0.0
    oracle = 4.0 * simpson_adaptive(lambda t: (1 + t * t) ** -2.5, 0.0, 1.0)
    assert abs(oracle - E_PARABOLA_REF) < 1e-11
    assert abs(energy(parabola(grid)) - E_PARABOLA_REF) < 1e-3


def test_energy_mesh_convergence_second_order():
    errs = []
    for n in (125, 250, 500, 1000):
        e = energy(parabola(UniformGrid(n)))
        errs.append(abs(e - E_PARABOLA_REF))
    order = -np.polyfit(np.log([125, 250, 500, 1000]), np.log(errs), 1)[0]
    assert order >= 1.8


def test_energy_of_uc_profile():
    gf = u_c_profile(0.5, UniformGrid(2000))
    assert abs(energy(gf) - 0.25) < 2e-3


def test_gradient_zero_at_zero():
    grid = UniformGrid(64)
    ge = energy_gradient(GridFunction.zeros(grid))
    assert np.array_equal(ge.values, np.zeros(grid.n + 1))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    grid = UniformGrid(160)
    w = trapezoid_weights(grid)
    for _ in range(20):
        u = np.clip(rng.standard_normal(grid.n + 1), -1, 1)
        u[0] = u[-1] = 0.0
        phi = rng.standard_normal(grid.n + 1)
        phi[0] = phi[-1] = 0.0
        gf = GridFunction(grid, u)
        analytic = float(np.sum(w * energy_gradient(gf).values * phi))
        eps = 1e-6
        fd = (energy(GridFunction(grid, u + eps * phi))
              - energy(GridFunction(grid, u - eps * phi))) / (2 * eps)
        assert abs(fd - analytic) / max(1e-30, abs(fd)) < 1e-5


def test_gradient_symmetric_for_symmetric_input(grid200):
    gf = mirrored(grid200, lambda x: 0.2 * math.sin(math.pi * x))
    ge = energy_gradient(gf).values
    assert np.array_equal(ge, ge[::-1])


def test_reversal_equivariance_exact():
    rng = np.random.default_rng(3)
    grid = UniformGrid(120)
    u = rng.standard_normal(grid.n + 1) * 0.4
    u[0] = u[-1] = 0.0
    gf = GridFunction(grid, u)
    rev = gf.reversed()
    assert np.array_equal(energy_gradient(rev).values,
                          energy_gradient(gf).values[::-1])
    assert abs(energy(rev) - energy(gf)) <= 1e-14 * max(1.0, energy(gf))


def _dense_from_bands(ab):
    """H[j, k] = ab[_HESS_BW + (j - k), k], zero outside the band."""
    size = ab.shape[1]
    dense = np.zeros((size, size))
    for off in range(-_HESS_BW, _HESS_BW + 1):
        cols = np.arange(max(0, -off), min(size, size - off))
        dense[cols + off, cols] = ab[_HESS_BW + off, cols]
    return dense


@settings(max_examples=25, deadline=None)
@given(n=st.integers(16, 64), seed=st.integers(0, 2**32 - 1))
def test_hessian_bands_fd_symmetry_and_reversal(n, seed):
    rng = np.random.default_rng(seed)
    grid = UniformGrid(n)
    x = grid.nodes
    u = sum(rng.uniform(-0.3, 0.3) * np.sin(k * np.pi * x) for k in range(1, 5))
    u = u + 1e-3 * rng.standard_normal(n + 1)
    u[0] = u[-1] = 0.0
    h = grid.h
    w = trapezoid_weights(grid)

    def euclid_grad(v):
        return w * _energy_gradient_raw(*_derivative_tables(v, h), h)

    ab = _energy_hessian_bands(*_derivative_tables(u, h), h)
    dense = _dense_from_bands(ab)
    # the raw gradient pins its end rows to 0, so compare interior rows
    eps = 1e-6
    fd = np.empty((n + 1, n + 1))
    for k in range(n + 1):
        e = np.zeros(n + 1)
        e[k] = eps
        fd[:, k] = (euclid_grad(u + e) - euclid_grad(u - e)) / (2.0 * eps)
    err = np.max(np.abs(fd[1:n] - dense[1:n]))
    assert err <= 1e-6 * np.max(np.abs(dense[1:n]))
    # Symmetric to rounding, not to the bit: the one-sided end rows form
    # (a * b1) * b2 and (a * b2) * b1, which can differ in the last place.
    asym = np.max(np.abs(dense - dense.T))
    assert asym <= 8.0 * np.finfo(float).eps * np.max(np.abs(dense))
    ab_rev = _energy_hessian_bands(*_derivative_tables(u[::-1].copy(), h), h)
    assert np.array_equal(ab_rev, _mirror_bands(ab))


def test_first_variation_basics(grid200):
    zero = GridFunction.zeros(grid200)
    phi = GridFunction(grid200, np.sin(np.pi * grid200.nodes))
    assert first_variation(parabola(grid200), zero) == 0.0
    assert first_variation(zero, phi) == 0.0


def test_first_variation_matches_fd():
    grid = UniformGrid(1000)
    u = parabola(grid)
    phi = GridFunction(grid, np.sin(np.pi * grid.nodes))
    dv = first_variation(u, phi)
    eps = 1e-6
    fd = (energy(GridFunction(grid, u.values + eps * phi.values))
          - energy(GridFunction(grid, u.values - eps * phi.values))) / (2 * eps)
    assert abs(dv - fd) < 1e-5
    # and against the gradient pairing: identical up to evaluation roundoff
    w = trapezoid_weights(grid)
    pairing = float(np.sum(w * energy_gradient(u).values * phi.values))
    assert abs(dv - pairing) < 1e-10 * max(1.0, abs(dv))


def test_first_variation_requires_zero_ends(grid200):
    bad = GridFunction(grid200, np.ones(grid200.n + 1))
    with pytest.raises(DomainError):
        first_variation(parabola(grid200), bad)


def test_a_u_identity_with_energy():
    grid = UniformGrid(500)
    for gf in (parabola(grid), u_c_profile(0.5, grid)):
        av = a_u(gf)
        w = trapezoid_weights(grid)
        assert abs(float(np.sum(w * av**2)) - energy(gf)) \
            <= 1e-13 * max(1.0, energy(gf))
    assert np.array_equal(a_u(GridFunction.zeros(grid)), np.zeros(grid.n + 1))
    mid = a_u(parabola(grid))[250]
    assert abs(mid + 2.0) < 1e-8  # u' = 0 there, so A_u = u'' = -2


def test_l2_norms():
    grid = UniformGrid(1000)
    assert l2_norm(GridFunction.zeros(grid)) == 0.0
    assert abs(l2_norm(GridFunction.constant(grid, 1.0)) - 1.0) < 1e-15
    s = GridFunction(grid, np.sin(np.pi * grid.nodes))
    assert abs(l2_norm(s) - math.sqrt(0.5)) < 1e-6
    with pytest.raises(GridMismatchError):
        l2_inner(s, GridFunction.zeros(UniformGrid(500)))


def test_standard_energy_estimate():
    # E(u) >= G(||u'||_inf)^2 up to mesh slack
    rng = np.random.default_rng(5)
    grid = UniformGrid(200)
    from bendflow import random_concave_profile
    for _ in range(5):
        gf = random_concave_profile(rng, grid)
        lhs = energy(gf)
        rhs = g(float(np.max(np.abs(first_diff(gf))))) ** 2
        assert lhs >= rhs - 50.0 * grid.h
    gf = u_c_profile(0.5, grid)
    assert energy(gf) >= g(float(np.max(np.abs(first_diff(gf))))) ** 2 - 1e-3


def test_profile_csv_round_trip(tmp_path):
    grid = UniformGrid(32)
    gf = parabola(grid)
    path = tmp_path / "profile.csv"
    write_profile_csv(path, gf)
    back = read_profile_csv(path)
    assert back.grid.n == 32
    assert np.allclose(back.values, gf.values, atol=1e-15)
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(DomainError):
        read_profile_csv(bad)
