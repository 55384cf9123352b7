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
from itertools import chain

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
        if not np.isfinite(vals).all():
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

@functools.lru_cache(maxsize=64)
def _trapezoid_weights(n: int, h: float, c: float = 1.0) -> np.ndarray:
    """c times the trapezoid weights of the grid of n cells of width h, built
    once per grid and factor and shared by every caller, hence read-only."""
    w = np.full(n + 1, c * h)
    w[0] = w[-1] = c * h / 2.0
    w.setflags(write=False)
    return w


def trapezoid_weights(grid: UniformGrid) -> np.ndarray:
    """Read-only trapezoid weights of `grid`, the same array on every call."""
    return _trapezoid_weights(grid.n, grid.h)


# One-sided end stencils of h^2 u'' and 2h u' at x = 0, on u[0], u[1], ...;
# at x = 1 they run back from u[-1], the u' one with its sign flipped.
_D2_END, _D1_END = np.array([2.0, -5.0, 4.0, -1.0]), np.array([-3.0, 4.0, -1.0])
# the gradient's end rows, each entry of their adjoints once: x = 0 u'',
# x = 1 u'', x = 0 u', x = 1 u' (sign flipped), on rows counted from each end
_END_ROWS = np.array([0, 1, 2, 3, -1, -2, -3, -4, 0, 1, 2, -1, -2, -3])
_END_ADJOINTS = np.concatenate((_D2_END, _D2_END, _D1_END, -_D1_END))
_D2_END.flags.writeable = _D1_END.flags.writeable = False
_END_ROWS.flags.writeable = _END_ADJOINTS.flags.writeable = False


def _derivative_tables(u: np.ndarray, h: float):
    """(u', u'') at every node: central interior, second-order one-sided ends.

    The only place the difference stencils are applied to an iterate. The
    energy, gradient and Hessian kernels take these tables instead of u, so
    a caller that needs several of them at one point builds the tables once
    and hands them to each, with the powers of 1 + u'^2 the kernels return.
    """
    n = len(u) - 1
    up, upp = np.empty(n + 1), np.empty(n + 1)
    inner = up[1:-1]  # each interior formed in place, the same operations
    np.subtract(u[2:], u[:-2], out=inner)
    inner /= 2.0 * h
    inner = upp[1:-1]
    np.add(u[2:], u[:-2], out=inner)
    inner -= 2.0 * u[1:-1]
    inner /= h**2
    # the one-sided ends in Python floats, the same double operations
    a0, a1, a2, a3 = u[:4].tolist()
    b0, b1, b2, b3 = u[:-5:-1].tolist()
    up[0] = (-3.0 * a0 + 4.0 * a1 - a2) / (2.0 * h)
    up[-1] = (3.0 * b0 - 4.0 * b1 + b2) / (2.0 * h)
    upp[0] = (2.0 * a0 - 5.0 * a1 + 4.0 * a2 - a3) / h**2
    upp[-1] = (2.0 * b0 - 5.0 * b1 + 4.0 * b2 - b3) / h**2
    return up, upp


def derivative_tables(u: GridFunction) -> tuple[np.ndarray, np.ndarray]:
    """(u', u'') at every node: central differences inside, second-order
    one-sided at the ends, where u'' decays with h on converged flow
    iterates (the natural conditions u''(0) = u''(1) = 0)."""
    return _derivative_tables(u.values, u.grid.h)


def _energy_raw(up: np.ndarray, upp: np.ndarray, h: float):
    """(E_h, s^(-5/2)) from the tables, s = 1 + u'^2, formed once per point."""
    s25 = (1.0 + up**2) ** -2.5
    q = upp**2 * s25
    q0, qn = q[::len(q) - 1].tolist()
    return float(h * (0.5 * q0 + q[1:-1].sum() + 0.5 * qn)), s25


def energy(u: GridFunction) -> float:
    """Discrete elastic energy E_h(u), trapezoid rule over the nodal integrand.

    Second-order accurate: E_h -> E at O(h^2) for smooth u.
    """
    h = u.grid.h
    return _energy_raw(*_derivative_tables(u.values, h), h)[0]


def _energy_gradient_raw(up, upp, s25, h: float):
    """(g, s^(-7/2)) from the tables and the s^(-5/2) of `_energy_raw`: g is
    the exact nodal gradient of E_h for the trapezoid inner product,
    sum_j w_j g_j phi_j = d/de E_h(u + e phi)|_0 for any phi vanishing at
    the ends, 0 at both (Dirichlet), assembled through stencil adjoints in
    palindromic form."""
    n = len(up) - 1
    w = _trapezoid_weights(n, h)
    s35 = (1.0 + up**2) ** -3.5
    alpha = _trapezoid_weights(n, h, 2.0) * upp * s25          # dE/d(upp_i)
    beta = _trapezoid_weights(n, h, -5.0) * upp**2 * up * s35  # dE/d(up_i)
    g = np.zeros(n + 1)
    pad = np.zeros(n + 3)  # pad[1 + i] = alpha_i, then beta_i, on interior rows
    pad[2:n + 1] = alpha[1:-1]
    g += ((pad[0:n + 1] + pad[2:n + 3]) - 2.0 * pad[1:n + 2]) / h**2
    pad[2:n + 1] = beta[1:-1]
    g += (pad[0:n + 1] - pad[2:n + 3]) / (2.0 * h)
    # one-sided end rows: the adjoints of _D2_END and _D1_END, added entry
    # by entry in _END_ROWS order, which fixes the order where the two ends
    # overlap (n < 7); adding -x is subtracting x, bit for bit
    a0, a1 = alpha[::n].tolist()
    b0, b1 = beta[::n].tolist()
    h2, h1 = h**2, 2.0 * h
    np.add.at(g, _END_ROWS, _END_ADJOINTS * np.array(
        [a0 / h2] * 4 + [a1 / h2] * 4 + [b0 / h1] * 3 + [b1 / h1] * 3))
    g /= w
    g[0] = g[-1] = 0.0
    return g, s35


def energy_gradient(u: GridFunction) -> GridFunction:
    """Gradient of E_h as a nodal function; endpoints 0 (fixed ends).

    Pairing with the trapezoid inner product reproduces directional
    derivatives of E_h exactly (up to roundoff), see `first_variation`.
    """
    up, upp = derivative_tables(u)
    g, _ = _energy_gradient_raw(up, upp, (1.0 + up**2) ** -2.5, u.grid.h)
    return GridFunction(u.grid, g)


_HESS_BW = 3  # band half-width of the energy Hessian (one-sided end rows)


@functools.lru_cache(maxsize=32)
def _hessian_plan(n: int, h: float):
    """The grid's share of `_energy_hessian_bands`, formed once per (n, h)
    and shared, hence read-only: the interior stencil products B B,
    B P + P B, P P, B0 B0, B B0, P B0 of B = 1/h^2, B0 = -2/h^2,
    P = 1/(2h); the end stencils Bj, Bk, Pj, Pk, which broadcast to the two
    4x4 end blocks, and Bj Pk + Pj Bk; the flat index of each block entry."""
    b, b0, p = 1.0 / h**2, -2.0 / h**2, 1.0 / (2.0 * h)
    products = (b * b, b * p + p * b, p * p, b0 * b0, b * b0, p * b0)
    bk, pj, k = _D2_END / h**2, np.zeros((2, 4)), np.arange(4)
    pj[:, :3] = np.multiply.outer([1, -1], _D1_END) / (2.0 * h)
    bj, pj, pk = bk[:, None], pj[:, :, None], pj[:, None, :]
    cross = bj * pk + pj * bk
    bands = _HESS_BW + np.subtract.outer(k, k)  # band of H[k1, k2]
    index = np.stack([bands * (n + 1) + k, bands.T * (n + 1) + n - k])
    for x in (bj, bk, pj, pk, cross, index):
        x.setflags(write=False)
    return products, (bj, bk, pj, pk, cross), index


def _energy_hessian_bands(up, upp, s25, s35, h: float) -> np.ndarray:
    """Exact Euclidean Hessian d^2 E_h / du_j du_k in a fresh band array,
    ab[_HESS_BW + (j - k), k] = H[j, k] (indefinite in general), from the
    tables and the s^(-5/2), s^(-7/2) that `_energy_raw` and
    `_energy_gradient_raw` returned (s = 1 + u'^2); it forms s^(-9/2).

    H = sum_i a_i B_i B_i^T + b_i (B_i P_i^T + P_i B_i^T) + c_i P_i P_i^T, with
    B_i, P_i the u'', u' stencils of node i.

    Interior nodes: the pair (o1, o2) of (1, -2, 1)/h^2 and (-1, 0, 1)/(2h)
    adds (a B1 B2 + b (B1 P2 + P1 B2)) + c P1 P2 to band o1 - o2 by slice,
    for the diagonal and upper pairs, band 0 adding (0, 0) after (-1, -1)
    and (1, 1), so mirrored data give bitwise mirrored bands. Each of the
    six distinct nonzero stencil products (`_hessian_plan`) is multiplied
    into a coefficient array once; a zero one is left out and a negative
    one subtracted, which changes no bit of a finite band. Pairs (o1, o2)
    and (o2, o1) give the same sums in the same order, so the two lower
    interior bands are copies of the shifted upper ones.

    End rows: both 4x4 blocks of _D2_END/h^2 and +-_D1_END/(2h) are one
    (2, 4, 4) expression ((a Bj) Bk + b (Bj Pk + Pj Bk)) + (c Pj) Pk, added
    after the copy entry by entry, the x = 0 block first where the two
    overlap (n < 7). There (a Bj) Bk and (a Bk) Bj may differ in the last
    place, so H is symmetric to rounding in the end blocks and to the bit
    everywhere else.
    """
    n = len(up) - 1
    (bb, bp, pp, b0b0, bb0, pb0), (bj, bk, pj, pk, cross), index = _hessian_plan(n, h)
    w, w2, u2 = _trapezoid_weights(n, h), _trapezoid_weights(n, h, 2.0), up**2
    ca = w2 * s25                                      # a: B B^T
    cb = w2 * upp * (-5.0 * up * s35)                  # b: B P^T + P B^T
    cc = w * upp**2 * (-5.0 * s35 + 35.0 * u2 * (1.0 + u2) ** -4.5)  # c: P P^T
    ab = np.zeros((2 * _HESS_BW + 1, n + 1))
    car, cbr, ccr = ca[1:-1], cb[1:-1], cc[1:-1]
    abb, bbp, cpp = car * bb, cbr * bp, ccr * pp
    ab[_HESS_BW, :n - 1] += (abb - bbp) + cpp  # pair (-1, -1)
    ab[_HESS_BW, 2:] += (abb + bbp) + cpp  # (1, 1)
    ab[_HESS_BW, 1:n] += car * b0b0  # (0, 0)
    abb0, bpb0 = car * bb0, cbr * pb0
    ab[_HESS_BW - 1, 1:n] += abb0 - bpb0  # (-1, 0)
    ab[_HESS_BW - 1, 2:] += abb0 + bpb0  # (0, 1)
    ab[_HESS_BW - 2, 2:] += abb - cpp  # (-1, 1)
    for d in (1, 2):
        ab[_HESS_BW + d, :-d] = ab[_HESS_BW - d, d:]
    a, bi, c = ca[::n, None, None], cb[::n, None, None], cc[::n, None, None]
    np.add.at(ab.reshape(-1), index, ((a * bj) * bk + bi * cross) + (c * pj) * pk)
    return ab


def first_variation(u: GridFunction, phi: GridFunction) -> float:
    """Directional derivative DE_h(u)(phi) from the explicit two-integral form

        2 int u'' phi'' / (1+u'^2)^(5/2) - 5 int u''^2 u' phi' / (1+u'^2)^(7/2)

    with the same stencils and trapezoid weights as the energy. Agrees with
    the inner product of `energy_gradient` against phi to roundoff.
    """
    if u.grid != phi.grid:
        raise GridMismatchError("u and phi on different grids")
    h = u.grid.h
    return _first_variation_raw(*_derivative_tables(u.values, h), phi.values, h)


def _first_variation_raw(up, upp, pv, h: float) -> float:
    """`first_variation` from the tables (u', u'') of u and phi's values pv."""
    if max(abs(pv[0]), abs(pv[-1])) > 1e-12 * max(1.0, np.max(np.abs(pv))):
        raise DomainError("test function must vanish at the endpoints")
    pvv = pv.copy()
    pvv[0] = pvv[-1] = 0.0
    pp, ppp = _derivative_tables(pvv, h)
    w = _trapezoid_weights(len(pv) - 1, h)
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

# rows written per slice, by one `%` of the row template repeated: no file
# is held as text, and a slice's text is one C-level formatting pass
_CSV_ROWS = 1024


def write_csv(path, header, columns) -> None:
    """Write equal-length columns under `header`, one row per index.

    Integer columns print as `%d` (the text of `str`), every other column
    as `%.15g` (the text of `{:.15g}`, so inf prints as "inf"). Rows are
    written a slice of `_CSV_ROWS` at a time, by one `row_template * m %
    args`. Within a slice each column is cut into runs of equal bits: a
    column that is one run is formatted once, into the template; a column
    of more runs than three quarters of its rows passes its values to its
    format; any other formats each run once and passes the run texts,
    repeated, as `%s`. The bytes are those of `csv.writer`'s excel
    dialect, CRLF line ends included: no field either format produces
    needs quoting, and neither does any header name the package writes.
    """
    cols = [np.asarray(c) for c in columns]
    n = len(cols[0])
    if len(header) != len(cols) or any(len(c) != n for c in cols):
        raise ValueError("write_csv needs one equal-length column per header")
    fmts = ["%d" if c.dtype.kind in "iu" else "%.15g" for c in cols]
    keys = [c.view(f"u{c.itemsize}") for c in cols]  # so -0.0 and 0.0 differ
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, n, _CSV_ROWS):
            m = min(_CSV_ROWS, n - lo)
            fields, args = [], []
            for fmt, c, key in zip(fmts, cols, keys):
                c, key = c[lo:lo + m], key[lo:lo + m]
                starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
                if len(starts) == 1:  # one run: formatted into the template
                    fields.append((fmt % c[0].item()).replace("%", "%%"))
                    continue
                if 4 * len(starts) <= 3 * m:  # each run formatted once
                    text = np.array([fmt % v for v in c[starts].tolist()], dtype=object)
                    c, fmt = np.repeat(text, np.diff(starts, append=m)), "%s"
                fields.append(fmt)
                args.append(c.tolist())
            fh.write((",".join(fields) + "\r\n") * m % tuple(chain(*zip(*args))))


def write_profile_csv(path, u: GridFunction) -> None:
    write_csv(path, ["x", "value"], [u.x, u.values])


def read_profile_csv(path) -> GridFunction:
    """Read a profile CSV. A file that cannot be read, or a row that is not
    two finite numbers, is a DomainError naming the path."""
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
    if not np.isfinite(vs).all():
        raise DomainError(f"{path}: nodal values must be finite")
    n = len(xs) - 1
    if n < 4:
        raise DomainError(f"{path}: too few rows for a grid ({n + 1})")
    grid = UniformGrid(n)
    if not np.allclose(xs, grid.nodes, atol=1e-12):
        raise DomainError(f"{path}: nodes are not a uniform grid on [0,1]")
    return GridFunction(grid, np.array(vs))
