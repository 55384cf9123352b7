import csv
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bendflow import (
    DomainError,
    GridFunction,
    UniformGrid,
    cone_obstacle,
    constant_obstacle,
    derivative_tables,
    energy,
    energy_gradient,
    first_variation,
    l2_norm,
    read_profile_csv,
    trapezoid_weights,
    u_c_profile,
    write_profile_csv,
)
from bendflow.discretization import (
    _HESS_BW,
    _derivative_tables,
    _energy_gradient_raw,
    _energy_hessian_bands,
    _energy_raw,
    _trapezoid_weights,
    write_csv,
)
from bendflow.flow import _mirror_bands
from bendflow.specialfn import g

from conftest import hessian_bands, kernel_point, mirrored, simpson_adaptive

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


def test_derivative_tables_first_derivative_exact_for_quadratics():
    grid = UniformGrid(1000)
    up = derivative_tables(parabola(grid))[0]
    x = grid.nodes
    assert np.allclose(up, 1.0 - 2.0 * x, atol=1e-10)
    assert abs(up[250] - 0.5) < 1e-10
    assert abs(up[500]) < 1e-12
    assert np.allclose(derivative_tables(GridFunction.zeros(grid))[0], 0.0)


def test_derivative_tables_second_derivative_values():
    grid = UniformGrid(1000)
    assert np.allclose(derivative_tables(parabola(grid))[1][1:-1], -2.0,
                       atol=1e-8)
    lin = GridFunction(grid, 0.3 * grid.nodes)
    # second differences amplify rounding by 1/h^2; 1e-9 covers that at N=1000
    assert np.allclose(derivative_tables(lin)[1][1:-1], 0.0, atol=1e-9)
    s = GridFunction(grid, np.sin(np.pi * grid.nodes))
    mid = derivative_tables(s)[1][500]
    assert abs(mid + math.pi**2) < 1e-4


@settings(max_examples=50, deadline=None)
@given(n=st.integers(4, 200), seed=st.integers(0, 2**32 - 1))
def test_derivative_tables_are_the_kernel_tables(n, seed):
    """The public tables are the bits of the kernel's, at every node."""
    grid = UniformGrid(n)
    u = GridFunction(grid, np.random.default_rng(seed).normal(size=n + 1))
    up, upp = derivative_tables(u)
    kp, kpp = _derivative_tables(u.values, grid.h)
    assert up.shape == upp.shape == (n + 1,)
    assert up.tobytes() == kp.tobytes() and upp.tobytes() == kpp.tobytes()


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
        return w * kernel_point(v, h)[1]

    ab = hessian_bands(u, h)
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
    ab_rev = hessian_bands(u[::-1].copy(), h)
    assert np.array_equal(ab_rev, _mirror_bands(ab))


def _energy_reference(up, upp, h):
    """The energy kernel as first written, its power formed in place."""
    q = upp**2 * (1.0 + up**2) ** -2.5
    return float(h * (0.5 * q[0] + q[1:-1].sum() + 0.5 * q[-1]))


def _gradient_reference(up, upp, h):
    """The gradient kernel as first written, scalar end rows and all."""
    n = len(up) - 1
    w = _trapezoid_weights(n, h)
    s = 1.0 + up**2
    # dE/d(upp_i) and dE/d(up_i)
    alpha = 2.0 * w * upp * s**-2.5
    beta = -5.0 * w * upp**2 * up * s**-3.5

    g = np.zeros(n + 1)
    a = np.zeros(n + 3)            # a[1+i] = alpha_i on interior rows
    a[2:n + 1] = alpha[1:-1]
    g += ((a[0:n + 1] + a[2:n + 3]) - 2.0 * a[1:n + 2]) / h**2
    b = np.zeros(n + 3)
    b[2:n + 1] = beta[1:-1]
    g += (b[0:n + 1] - b[2:n + 3]) / (2.0 * h)
    # one-sided end rows
    ca, cn = alpha[0] / h**2, alpha[-1] / h**2
    g[0] += 2.0 * ca; g[1] += -5.0 * ca; g[2] += 4.0 * ca; g[3] += -1.0 * ca
    g[-1] += 2.0 * cn; g[-2] += -5.0 * cn; g[-3] += 4.0 * cn; g[-4] += -1.0 * cn
    da, dn = beta[0] / (2.0 * h), beta[-1] / (2.0 * h)
    g[0] += -3.0 * da; g[1] += 4.0 * da; g[2] += -1.0 * da
    g[-1] += 3.0 * dn; g[-2] += -4.0 * dn; g[-3] += 1.0 * dn

    g /= w
    g[0] = g[-1] = 0.0
    return g


def _hessian_bands_reference(up, upp, h):
    """The Hessian kernel as first written: per-row closures, whole-band
    scatter sums and a dict of end-row offsets."""
    n = len(up) - 1
    w = _trapezoid_weights(n, h)
    s = 1.0 + up**2
    s35 = s**-3.5
    g1 = -5.0 * up * s35
    g2 = -5.0 * s35 + 35.0 * up**2 * s**-4.5
    ca = 2.0 * w * s**-2.5                    # (grad B)(grad B)^T
    cb = 2.0 * w * upp * g1                   # symmetric B-P coupling
    cc = w * upp**2 * g2                      # (grad P)(grad P)^T
    ab = np.zeros((2 * _HESS_BW + 1, n + 1))

    sb = np.array([1.0, -2.0, 1.0]) / h**2
    sp = np.array([-1.0, 0.0, 1.0]) / (2.0 * h)
    car, cbr, ccr = ca[1:-1], cb[1:-1], cc[1:-1]

    def qrow(o1, o2):
        """Per-interior-row contribution for stencil offsets (o1, o2)."""
        return (car * (sb[o1 + 1] * sb[o2 + 1])
                + cbr * (sb[o1 + 1] * sp[o2 + 1] + sp[o1 + 1] * sb[o2 + 1])
                + ccr * (sp[o1 + 1] * sp[o2 + 1]))

    def scatter(vals, o2):
        """Align a per-row array with its target column c = i + o2."""
        out = np.zeros(n + 1)
        out[1 + o2: n + o2] = vals
        return out

    # Each band is a fixed palindromic combination of at most three scatter
    # terms, so band values of mirrored data are bitwise mirrors; np.add.at
    # accumulation order would break that.
    ab[_HESS_BW + 0] = ((scatter(qrow(-1, -1), -1) + scatter(qrow(1, 1), 1))
                        + scatter(qrow(0, 0), 0))
    ab[_HESS_BW + 1] = scatter(qrow(0, -1), -1) + scatter(qrow(1, 0), 0)
    ab[_HESS_BW - 1] = scatter(qrow(-1, 0), 0) + scatter(qrow(0, 1), 1)
    ab[_HESS_BW + 2] = scatter(qrow(1, -1), -1)
    ab[_HESS_BW - 2] = scatter(qrow(-1, 1), 1)

    def add_end_row(i, bvec, boffs, pvec, poffs, ai, bi, ci):
        ents: dict[int, list[float]] = {}
        for o, ccf in zip(boffs, bvec):
            ents.setdefault(o, [0.0, 0.0])[0] += ccf
        for o, ccf in zip(poffs, pvec):
            ents.setdefault(o, [0.0, 0.0])[1] += ccf
        for o1, (b1, p1) in ents.items():
            for o2, (b2, p2) in ents.items():
                coef = ai * b1 * b2 + bi * (b1 * p2 + p1 * b2) + ci * p1 * p2
                ab[_HESS_BW + (o1 - o2), i + o2] += coef

    add_end_row(0, np.array([2.0, -5.0, 4.0, -1.0]) / h**2, (0, 1, 2, 3),
                np.array([-3.0, 4.0, -1.0]) / (2.0 * h), (0, 1, 2),
                ca[0], cb[0], cc[0])
    add_end_row(n, np.array([2.0, -5.0, 4.0, -1.0]) / h**2, (0, -1, -2, -3),
                np.array([3.0, -4.0, 1.0]) / (2.0 * h), (0, -1, -2),
                ca[-1], cb[-1], cc[-1])
    return ab


def _kernel_input(n, seed, kind):
    """Nodal values of one kernel test: random (scale 1e-3 to 1e2),
    mirrored, zero, or steep (scale 1e2 to 1e60, where the coefficient
    powers of 1 + u'^2 can underflow)."""
    rng = np.random.default_rng(seed)
    lo, hi = (2.0, 60.0) if kind == "steep" else (-3.0, 2.0)
    u = rng.standard_normal(n + 1) * 10.0 ** rng.uniform(lo, hi)
    if kind == "mirrored":
        u = u + u[::-1]
    elif kind == "zero":
        u = np.zeros(n + 1)
    return u


_KINDS = st.sampled_from(["random", "mirrored", "zero", "steep"])


@settings(max_examples=150, deadline=None)
@given(n=st.integers(4, 64), seed=st.integers(0, 2**32 - 1), kind=_KINDS)
@example(n=200, seed=0, kind="random")
@example(n=200, seed=1, kind="mirrored")
@example(n=3200, seed=2, kind="random")
@example(n=3200, seed=3, kind="mirrored")
@example(n=4, seed=4, kind="random")  # n < 7: the two end blocks overlap
@example(n=5, seed=5, kind="mirrored")
@example(n=6, seed=6, kind="random")
@example(n=200, seed=7, kind="steep")
@example(n=3200, seed=8, kind="steep")
@example(n=5, seed=9, kind="steep")
def test_kernels_bitwise_equal_to_reference(n, seed, kind):
    """The kernels chained as a step chains them (the gradient reads the
    energy's s^(-5/2), the Hessian both powers), with the half-band Hessian's
    shared products and array end blocks and the vectorised gradient end
    rows, keep every bit of the reference kernels, which form each power of
    s = 1 + u'^2 for themselves: same band sums in the same order, same
    end-row products. On steep data the powers underflow to 0."""
    u = _kernel_input(n, seed, kind)
    h = 1.0 / n
    up, upp = _derivative_tables(u, h)
    e, s25 = _energy_raw(up, upp, h)
    g, s35 = _energy_gradient_raw(up, upp, s25, h)
    assert np.float64(e).tobytes() == np.float64(_energy_reference(up, upp, h)).tobytes()
    assert (_energy_hessian_bands(up, upp, s25, s35, h).tobytes()
            == _hessian_bands_reference(up, upp, h).tobytes())
    assert g.tobytes() == _gradient_reference(up, upp, h).tobytes()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 64), seed=st.integers(0, 2**32 - 1), kind=_KINDS)
@example(n=200, seed=0, kind="random")
@example(n=3200, seed=2, kind="random")
@example(n=200, seed=7, kind="steep")
def test_reference_lower_bands_mirror_upper_outside_end_blocks(n, seed, kind):
    """In the reference Hessian, H[k + d, k] and H[k, k + d] have the same
    bits wherever neither lies in an end block (k + d > 3 and k < n - 3),
    for d = 1, 2, 3: what lets the kernel copy its lower interior bands
    from the upper ones."""
    h = 1.0 / n
    ab = _hessian_bands_reference(*_derivative_tables(_kernel_input(n, seed, kind), h), h)
    for d in range(1, _HESS_BW + 1):
        inside = slice(4 - d, n - 3)
        lower = ab[_HESS_BW + d, :n + 1 - d][inside]  # H[k + d, k]
        upper = ab[_HESS_BW - d, d:][inside]  # H[k, k + d]
        assert lower.tobytes() == upper.tobytes()


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
    # E_h is the trapezoid sum of A_u^2, A_u = u'' / (1 + u'^2)^(5/4)
    grid = UniformGrid(500)
    w = trapezoid_weights(grid)

    def a_u(gf):
        up, upp = _derivative_tables(gf.values, grid.h)
        return upp * (1.0 + up**2) ** -1.25

    for gf in (parabola(grid), u_c_profile(0.5, grid)):
        assert abs(float(np.sum(w * a_u(gf)**2)) - energy(gf)) \
            <= 1e-13 * max(1.0, energy(gf))
    assert np.array_equal(a_u(GridFunction.zeros(grid)), np.zeros(grid.n + 1))
    mid = a_u(parabola(grid))[250]
    assert abs(mid + 2.0) < 1e-8  # u' = 0 there, so A_u = u'' = -2


def test_trapezoid_weights_built_once_per_grid_and_read_only():
    grid = UniformGrid(64)
    w = trapezoid_weights(grid)
    assert w is trapezoid_weights(UniformGrid(64))
    assert not w.flags.writeable
    assert w[0] == w[-1] == grid.h / 2.0 and np.all(w[1:-1] == grid.h)


def test_l2_norms():
    grid = UniformGrid(1000)
    assert l2_norm(GridFunction.zeros(grid)) == 0.0
    assert abs(l2_norm(GridFunction.constant(grid, 1.0)) - 1.0) < 1e-15
    s = GridFunction(grid, np.sin(np.pi * grid.nodes))
    assert abs(l2_norm(s) - math.sqrt(0.5)) < 1e-6


def test_standard_energy_estimate():
    # E(u) >= G(||u'||_inf)^2 up to mesh slack
    rng = np.random.default_rng(5)
    grid = UniformGrid(200)
    from bendflow import random_concave_profile
    for _ in range(5):
        gf = random_concave_profile(rng, grid)
        lhs = energy(gf)
        rhs = g(float(np.max(np.abs(derivative_tables(gf)[0])))) ** 2
        assert lhs >= rhs - 50.0 * grid.h
    gf = u_c_profile(0.5, grid)
    assert energy(gf) >= g(float(np.max(np.abs(derivative_tables(gf)[0])))) ** 2 - 1e-3


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


def test_write_csv_formats_by_column_type(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["k", "a", "b"],
              [np.arange(1, 4), [0.1, 1 / 3, math.inf], np.array([2.0, -0.0, 1e-20])])
    assert path.read_bytes() == (b"k,a,b\r\n1,0.1,2\r\n2,0.333333333333333,-0\r\n"
                                 b"3,inf,1e-20\r\n")
    with pytest.raises(ValueError):
        write_csv(path, ["k", "a"], [np.arange(3), np.zeros(2)])
    with pytest.raises(ValueError):
        write_csv(path, ["k"], [np.arange(3), np.zeros(3)])


def _write_csv_reference(path, header, columns) -> None:
    """The csv.writer writer write_csv replaced: every field formatted on
    its own, rows written through the excel dialect a slice at a time."""
    cols = [np.asarray(c) for c in columns]
    fmts = [str if c.dtype.kind in "iu" else "{:.15g}".format for c in cols]
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for lo in range(0, len(cols[0]), 1024):
            wr.writerows(zip(*(map(fmt, c[lo:lo + 1024].tolist())
                               for fmt, c in zip(fmts, cols))))


# floats whose bits or text are edge cases: signed zeros, infinities, a NaN
# with a payload, subnormals, and values that need all 15 digits
_EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan,
                float(np.array(0x7FF8000000000001, dtype=np.uint64).view(float)),
                5e-324, -1e-310, 2.2250738585072014e-308, 0.1, 1 / 3, 1e16,
                -123456789012345.67]


@st.composite
def _csv_column(draw, n):
    """A column of n values: runs of values drawn from a small pool (a run
    may cross any slice edge), or n distinct values; an integer or float64
    array, or a Python list of floats as _write_trajectory_csv passes."""
    kind = draw(st.sampled_from(["int", "float", "list"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "int":
        pool = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=4))
        distinct = np.arange(n) * 7 - 3000
    else:
        pool = draw(st.lists(st.sampled_from(_EDGE_FLOATS) | st.floats(),
                             min_size=1, max_size=4))
        distinct = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    if draw(st.booleans()):
        values = distinct
    else:
        runs = []
        while sum(len(r) for r in runs) < n:
            runs.append([pool[rng.integers(len(pool))]] * int(rng.integers(1, 1500)))
        values = np.array(sum(runs, [])[:n], dtype=np.int64 if kind == "int" else float)
    return values.tolist() if kind == "list" else values


@pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2049])
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), width=st.integers(1, 4))
def test_write_csv_gives_the_bytes_of_csv_writer(tmp_path, n, data, width):
    """write_csv, which formats each distinct value once per slice, writes
    the bytes of the field-by-field csv.writer writer. The first column
    holds runs of 300 of each edge value, 0.0 and -0.0 in one slice."""
    header = [f"c{j}" for j in range(width + 1)]
    columns = [np.array(_EDGE_FLOATS)[np.arange(n) // 300 % len(_EDGE_FLOATS)]]
    columns += [data.draw(_csv_column(n)) for _ in range(width)]
    write_csv(tmp_path / "got.csv", header, columns)
    _write_csv_reference(tmp_path / "want.csv", header, columns)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def _peak_bytes(writer, path, header, columns) -> int:
    """Peak traced allocation of one call of writer, above its start."""
    tracemalloc.start()
    try:
        writer(path, header, columns)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_csv_holds_one_slice_of_text(tmp_path):
    """Writing 100,000 rows of a trajectory-like table (one column of
    distinct times, the others mostly constant) peaks within 1.5 times what
    the reference writer, which streams its rows, peaks at on the first
    5,000 (about 0.4 MB above start): text is held one slice at a time,
    where the whole table as text would take tens of MB."""
    n = 100_000
    rng = np.random.default_rng(0)
    steps = np.arange(1, n + 1)
    rest = np.full(n, 0.25)
    rest[:20] = rng.random(20)
    columns = [steps, steps * 1e-3, rest, rest - 0.25, steps // 20_000,
               np.zeros(n), steps % 3, rest * 1e-13, -rest]
    header = [f"c{j}" for j in range(len(columns))]
    want = _peak_bytes(_write_csv_reference, tmp_path / "want.csv", header,
                       [c[:5000] for c in columns])
    got = _peak_bytes(write_csv, tmp_path / "got.csv", header, columns)
    assert got <= 1.5 * want, (got, want)


def _table_with_nodes(tmp_path, xs):
    path = tmp_path / "table.csv"
    path.write_text("x,value\n" + "".join(f"{x!r},0\n" for x in xs))
    return path


@pytest.mark.parametrize("call, message", [
    (lambda tmp: GridFunction.from_symmetric_half(UniformGrid(32),
                                                  np.zeros(16)),
     "expected 17 left-half values"),
    (lambda tmp: read_profile_csv(_table_with_nodes(tmp, [0, 0.5, 0.75, 1])),
     "{path}: too few rows for a grid (4)"),
    (lambda tmp: read_profile_csv(_table_with_nodes(
        tmp, [0.0, 0.25, 0.5, 0.75, 0.8, 1.0])),
     "{path}: nodes are not a uniform grid on [0,1]"),
], ids=["half_of_the_wrong_length", "too_few_rows", "nonuniform_nodes"])
def test_input_guards_are_domain_errors(tmp_path, call, message):
    with pytest.raises(DomainError) as err:
        call(tmp_path)
    assert err.type is DomainError
    assert str(err.value) == message.format(path=tmp_path / "table.csv")
