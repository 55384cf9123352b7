"""Uniform-grid functions on [0,1] and the discrete elastic energy.

The energy of a graph u: [0,1] -> R with fixed ends is

    E(u) = int_0^1 u''(x)^2 / (1 + u'(x)^2)^(5/2) dx,

discretized with nodal central differences in the interior, second-order
one-sided differences at the two endpoints, and trapezoid quadrature weights.
This combination is second-order accurate for smooth u and keeps the exact
nodal gradient computable in closed form (chain rule through both stencils).

Floating-point reversal symmetry: every stencil is evaluated in a palindromic
order, e.g. ((u[i+1] + u[i-1]) - 2 u[i]) / h^2, so that reversing the nodal
values reverses every derived quantity exactly, with no roundoff asymmetry.
The flow solver relies on this to preserve symmetry to machine precision.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GridMismatchError


@dataclass(frozen=True)
class UniformGrid:
    """Uniform grid of n cells on [0,1]; nodes x_i = i/n, i = 0..n."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 4:
            raise DomainError(f"grid needs at least 4 cells, got n={self.n}")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.n + 1) / self.n

    @property
    def midpoint_index(self) -> int | None:
        """Index of the node at x = 1/2, or None for odd n."""
        return self.n // 2 if self.n % 2 == 0 else None


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Nodal values of a function on a UniformGrid. Immutable after construction."""

    grid: UniformGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float, copy=True)
        if vals.shape != (self.grid.n + 1,):
            raise DomainError(
                f"expected {self.grid.n + 1} nodal values, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise DomainError("nodal values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_symmetric_half(cls, grid: UniformGrid, left_values) -> "GridFunction":
        """Build u(x) = u(1-x) from values on nodes 0..floor(n/2).

        Mirroring copies bits, so the result is reversal-symmetric exactly,
        which direct sampling of a symmetric formula generally is not.
        """
        n = grid.n
        left = np.asarray(left_values, dtype=float)
        if left.shape != (n // 2 + 1,):
            raise DomainError(f"expected {n // 2 + 1} left-half values")
        vals = np.empty(n + 1)
        vals[: n // 2 + 1] = left
        vals[n - n // 2:] = left[::-1]
        return cls(grid, vals)

    @classmethod
    def zeros(cls, grid: UniformGrid) -> "GridFunction":
        return cls(grid, np.zeros(grid.n + 1))

    @classmethod
    def constant(cls, grid: UniformGrid, level: float) -> "GridFunction":
        return cls(grid, np.full(grid.n + 1, float(level)))

    @property
    def x(self) -> np.ndarray:
        return self.grid.nodes

    def reversed(self) -> "GridFunction":
        return GridFunction(self.grid, self.values[::-1])


@dataclass(frozen=True)
class Obstacle:
    """Lower obstacle psi on a grid.

    `assumption1_ok` records whether psi(0) < 0, psi(1) < 0 and max psi > 0,
    the standing smallness/sign assumption of the constrained problem. The
    library accepts obstacles violating it (useful for unconstrained tests);
    the CLI refuses them unless the run configuration sets
    allow_invalid_obstacle.
    """

    kind: str
    samples: GridFunction
    assumption1_ok: bool = field(init=False)
    height: float | None = None

    def __post_init__(self):
        v = self.samples.values
        ok = bool(v[0] < 0.0 and v[-1] < 0.0 and np.max(v) > 0.0)
        object.__setattr__(self, "assumption1_ok", ok)

    @property
    def grid(self) -> UniformGrid:
        return self.samples.grid


def cone_obstacle(height: float, grid: UniformGrid) -> Obstacle:
    """Symmetric cone psi(x) = height * (1 - 4|x - 1/2|).

    Affine on [0, 1/2] with psi(1/2) = height > 0 and psi(0) = psi(1) = -height.
    """
    if not (height > 0.0):
        raise DomainError(f"cone height must be positive, got {height}")
    xl = grid.nodes[: grid.n // 2 + 1]
    left = height * (1.0 - 4.0 * np.abs(xl - 0.5))
    gf = GridFunction.from_symmetric_half(grid, left)
    return Obstacle(kind="cone", samples=gf, height=float(height))


def table_obstacle(samples: GridFunction) -> Obstacle:
    return Obstacle(kind="table", samples=samples)


def constant_obstacle(level: float, grid: UniformGrid) -> Obstacle:
    return Obstacle(kind="constant", samples=GridFunction.constant(grid, level))


# ---------------------------------------------------------------------------
# stencils and quadrature
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=32)
def _trapezoid_weights(n: int, h: float) -> np.ndarray:
    """Trapezoid weights of the grid of n cells of width h, built once per
    grid and shared by every caller, hence read-only."""
    w = np.full(n + 1, h)
    w[0] = w[-1] = h / 2.0
    w.setflags(write=False)
    return w


def trapezoid_weights(grid: UniformGrid) -> np.ndarray:
    """Read-only trapezoid weights of `grid`, the same array on every call."""
    return _trapezoid_weights(grid.n, grid.h)


def _derivative_tables(u: np.ndarray, h: float):
    """(u', u'') at every node: central interior, second-order one-sided ends.

    The only place the difference stencils are applied to an iterate. The
    energy, gradient and Hessian kernels take these tables instead of u, so
    a caller that needs several of them at one point builds the tables once
    and hands the same pair to each.
    """
    n = len(u) - 1
    up = np.empty(n + 1)
    up[1:-1] = (u[2:] - u[:-2]) / (2.0 * h)
    up[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * h)
    up[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * h)
    upp = np.empty(n + 1)
    upp[1:-1] = ((u[2:] + u[:-2]) - 2.0 * u[1:-1]) / h**2
    upp[0] = (2.0 * u[0] - 5.0 * u[1] + 4.0 * u[2] - u[3]) / h**2
    upp[-1] = (2.0 * u[-1] - 5.0 * u[-2] + 4.0 * u[-3] - u[-4]) / h**2
    return up, upp


def first_diff(u: GridFunction) -> np.ndarray:
    """Nodal first derivative: central differences in the interior,
    second-order one-sided at the endpoints. Length n+1."""
    up, _ = _derivative_tables(u.values, u.grid.h)
    return up


def second_diff(u: GridFunction) -> np.ndarray:
    """Interior second differences (u[i+1] - 2u[i] + u[i-1]) / h^2, length n-1.

    Endpoint curvature is not defined by this operator; the energy and the
    Navier diagnostic use dedicated one-sided stencils there.
    """
    return _derivative_tables(u.values, u.grid.h)[1][1:-1]


def end_second_diffs(u: GridFunction) -> tuple[float, float]:
    """|u''| at x=0 and x=1 from one-sided second-order stencils.

    Converged flow iterates approach the natural conditions u''(0) = u''(1)
    = 0, so these decay with h; generic functions give O(1) values.
    """
    _, upp = _derivative_tables(u.values, u.grid.h)
    return float(abs(upp[0])), float(abs(upp[-1]))


def _energy_raw(up: np.ndarray, upp: np.ndarray, h: float) -> float:
    q = upp**2 * (1.0 + up**2) ** -2.5
    return float(h * (0.5 * q[0] + q[1:-1].sum() + 0.5 * q[-1]))


def energy(u: GridFunction) -> float:
    """Discrete elastic energy E_h(u), trapezoid rule over the nodal integrand.

    Second-order accurate: E_h -> E at O(h^2) for smooth u.
    """
    if not np.all(np.isfinite(u.values)):
        raise DomainError("non-finite nodal values")
    h = u.grid.h
    return _energy_raw(*_derivative_tables(u.values, h), h)


def _energy_gradient_raw(up: np.ndarray, upp: np.ndarray, h: float) -> np.ndarray:
    """Exact nodal gradient of E_h with respect to the trapezoid inner product.

    Returns g with sum_j w_j g_j phi_j = d/de E_h(u + e phi)|_0 for any phi
    vanishing at the ends; endpoint components are fixed to 0 (Dirichlet).
    Assembled through stencil adjoints in palindromic form.
    """
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


def energy_gradient(u: GridFunction) -> GridFunction:
    """Gradient of E_h as a nodal function; endpoints 0 (fixed ends).

    Pairing with the trapezoid inner product reproduces directional
    derivatives of E_h exactly (up to roundoff), see `first_variation`.
    """
    h = u.grid.h
    return GridFunction(u.grid,
                        _energy_gradient_raw(*_derivative_tables(u.values, h), h))


_HESS_BW = 3  # band half-width of the energy Hessian (one-sided end rows)


def _energy_hessian_bands(up: np.ndarray, upp: np.ndarray, h: float) -> np.ndarray:
    """Exact Euclidean Hessian d^2 E_h / du_j du_k as a symmetric band array.

    Storage: ab[_HESS_BW + (j - k), k] = H[j, k]. The integrand is smooth in
    the nodal values, so the Hessian exists everywhere; it is indefinite in
    general (the energy is nonconvex).
    """
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


def first_variation(u: GridFunction, phi: GridFunction) -> float:
    """Directional derivative DE_h(u)(phi) from the explicit two-integral form

        2 int u'' phi'' / (1+u'^2)^(5/2) - 5 int u''^2 u' phi' / (1+u'^2)^(7/2)

    with the same stencils and trapezoid weights as the energy. Agrees with
    the inner product of `energy_gradient` against phi to roundoff.
    """
    if u.grid != phi.grid:
        raise GridMismatchError("u and phi on different grids")
    pv = phi.values
    if max(abs(pv[0]), abs(pv[-1])) > 1e-12 * max(1.0, np.max(np.abs(pv))):
        raise DomainError("test function must vanish at the endpoints")
    h = u.grid.h
    up, upp = _derivative_tables(u.values, h)
    pvv = pv.copy()
    pvv[0] = pvv[-1] = 0.0
    pp, ppp = _derivative_tables(pvv, h)
    w = trapezoid_weights(u.grid)
    t1 = 2.0 * float(np.sum(w * upp * ppp * (1.0 + up**2) ** -2.5))
    t2 = 5.0 * float(np.sum(w * upp**2 * up * pp * (1.0 + up**2) ** -3.5))
    return t1 - t2


def l2_norm(u: GridFunction) -> float:
    w = trapezoid_weights(u.grid)
    return float(np.sqrt(np.sum(w * u.values**2)))


# ---------------------------------------------------------------------------
# CSV files: one writer for every table the package writes, and the profile
# format "x,value", one row per node
# ---------------------------------------------------------------------------

_CSV_ROWS = 1024  # rows formatted per slice, so no file is held as text


def write_csv(path, header, columns) -> None:
    """Write equal-length columns under `header`, one row per index.

    Integer columns print as `str`, every other column as `{:.15g}` (so
    inf prints as "inf"). Rows are formatted and written a slice at a time.
    """
    cols = [np.asarray(c) for c in columns]
    n = len(cols[0])
    if len(header) != len(cols) or any(len(c) != n for c in cols):
        raise ValueError("write_csv needs one equal-length column per header")
    fmts = [str if c.dtype.kind in "iu" else "{:.15g}".format for c in cols]
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for lo in range(0, n, _CSV_ROWS):
            wr.writerows(zip(*(map(fmt, c[lo:lo + _CSV_ROWS].tolist())
                               for fmt, c in zip(fmts, cols))))


def write_profile_csv(path, u: GridFunction) -> None:
    write_csv(path, ["x", "value"], [u.x, u.values])


def read_profile_csv(path) -> GridFunction:
    """Read a profile CSV. A file that cannot be read, or a row that is not
    two numbers, is a DomainError naming the path."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError) as err:
        raise DomainError(f"{path}: {err}") from err
    if not rows or [c.strip() for c in rows[0][:2]] != ["x", "value"]:
        raise DomainError(f"{path}: expected profile CSV with header 'x,value'")
    try:
        xs = [float(row[0]) for row in rows[1:] if row]
        vs = [float(row[1]) for row in rows[1:] if row]
    except (ValueError, IndexError) as err:
        raise DomainError(
            f"{path}: every row must hold two numbers x,value ({err})") from err
    n = len(xs) - 1
    if n < 4:
        raise DomainError(f"{path}: too few rows for a grid ({n + 1})")
    grid = UniformGrid(n)
    if not np.allclose(xs, grid.nodes, atol=1e-12):
        raise DomainError(f"{path}: nodes are not a uniform grid on [0,1]")
    return GridFunction(grid, np.array(vs))
