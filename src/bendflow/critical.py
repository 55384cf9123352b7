"""Symmetric critical points over cone obstacles, built from closed-form
parametric integrals.

For a symmetric cone obstacle of midpoint height psi(1/2), the unique
symmetric critical point u touches the cone only at x = 1/2 and is the graph
whose slope z = u'(x) runs monotonically from A = u'(0) down to 0 at the
midpoint. With the weight

    W(z) = (A - z)^(-1/2) (1 + z^2)^(-5/4)

the construction is parametric in z:

    x(z) = F(z) = int_z^A W / (2 int_0^A W),
    u(z) = (1/2) int_z^A z~ W(z~) dz~ / int_0^A W,

and the height constraint u(1/2) = psi(1/2) pins A = Hinv(psi(1/2)). The
sqrt singularity at z = A disappears under z = A - w^2, so all integrals are
evaluated on smooth integrands in w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

from .discretization import (
    GridFunction,
    Obstacle,
    UniformGrid,
    cone_obstacle,
    energy,
    energy_gradient,
    second_diff,
)
from .errors import ConvergenceError, DomainError
from .specialfn import h_inv, h_of_A

_QUAD_TOL = 1e-14
_N_PARAM = 1024  # parametric samples in w = sqrt(A - z), Chebyshev-distributed


def _den_integral(a: float) -> float:
    val, _ = quad(lambda w: 2.0 * (1.0 + (a - w * w) ** 2) ** -1.25,
                  0.0, math.sqrt(a), epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=200)
    return val


def f_of_z(z: float, a_slope: float) -> float:
    """x as a function of the slope: F(z) on [0, A], with F(A) = 0,
    F(0) = 1/2, strictly decreasing."""
    a = float(a_slope)
    z = float(z)
    if not (0.0 <= z <= a):
        raise DomainError(f"f_of_z: need 0 <= z <= A, got z={z}, A={a}")
    if z == a:
        return 0.0
    width = math.sqrt(a - z)
    # near z = A the interval is tiny and the absolute target 1e-14 would
    # trip spurious roundoff reports; a relative target is the right ask
    num, _ = quad(lambda w: 2.0 * (1.0 + (a - w * w) ** 2) ** -1.25,
                  0.0, width, epsabs=min(_QUAD_TOL, 1e-3 * width),
                  epsrel=1e-12, limit=200)
    return 0.5 * num / _den_integral(a)


@dataclass(frozen=True)
class CriticalPoint:
    """The symmetric critical point over a cone obstacle.

    `residuals` holds {vi_residual, ode_residual, concavity_min}: the worst
    directional derivative over admissible coordinate directions (should be
    >= -tol), the sup-norm mismatch of u' against the slope-from-height map,
    and the minimum of -u'' over the left-interior nodes (> 0 means strictly
    concave there).
    """

    height: float
    A: float
    grid: UniformGrid
    profile: GridFunction
    slope_profile: GridFunction
    energy: float
    residuals: dict
    _table: tuple = field(repr=False, default=())

    @property
    def obstacle(self) -> Obstacle:
        return cone_obstacle(self.height, self.grid)


def _parametric_table(a: float):
    """Dense table (X, U, Z): positions, heights and slopes along the left
    half, sampled at Chebyshev points in w so both steep regions (near the
    end point and near the midpoint) are resolved."""
    sa = math.sqrt(a)
    theta = np.linspace(0.0, math.pi, _N_PARAM)
    wc = sa * 0.5 * (1.0 - np.cos(theta))
    den = _den_integral(a)
    xs = np.empty(_N_PARAM)
    us = np.empty(_N_PARAM)
    xs[0] = 0.0
    us[0] = 0.0
    accx = accu = 0.0
    for j in range(1, _N_PARAM):
        ix, _ = quad(lambda w: 2.0 * (1.0 + (a - w * w) ** 2) ** -1.25,
                     wc[j - 1], wc[j], epsabs=_QUAD_TOL, epsrel=_QUAD_TOL)
        iu, _ = quad(lambda w: 2.0 * (a - w * w) * (1.0 + (a - w * w) ** 2) ** -1.25,
                     wc[j - 1], wc[j], epsabs=_QUAD_TOL, epsrel=_QUAD_TOL)
        accx += ix
        accu += iu
        xs[j] = 0.5 * accx / den
        us[j] = 0.5 * accu / den
    xs[-1] = 0.5
    zs = a - wc**2
    zs[-1] = max(zs[-1], 0.0)
    if np.any(np.diff(xs) <= 0.0):
        raise ConvergenceError("parametric position table is not increasing")
    return xs, us, zs


def critical_profile(height: float, grid: UniformGrid) -> CriticalPoint:
    """Compute the symmetric critical point for a cone of midpoint height > 0.

    Needs an even grid so the contact node x = 1/2 exists. The parametric
    table is resampled onto the grid with monotone cubic interpolation,
    mirrored, and then polished to the stationary point of the discrete
    energy over the cone constraint (a proximal step with a huge time
    constant, warm-started at the sample). The polish moves nodal values by
    O(h^2) at most but makes the stored profile satisfy the discrete
    variational inequality over coordinate directions exactly, including the
    contact node sitting bitwise on the cone tip. The parametric table is
    kept for the slope and first-order-equation cross-checks.
    """
    if grid.n % 2 != 0:
        raise DomainError("critical_profile needs an even number of cells")
    a = h_inv(height)
    xs, us, zs = _parametric_table(a)
    pu = PchipInterpolator(xs, us)
    pz = PchipInterpolator(xs, zs)
    m = grid.n // 2
    left_x = grid.nodes[: m + 1]
    left_u = pu(left_x)
    left_u[0] = 0.0
    left_u[-1] = height
    left_z = pz(left_x)
    left_z[0] = a
    left_z[-1] = 0.0
    profile = GridFunction.from_symmetric_half(grid, left_u)
    slope_vals = np.empty(grid.n + 1)
    slope_vals[: m + 1] = left_z
    slope_vals[m:] = -left_z[::-1]
    slope = GridFunction(grid, slope_vals)

    from .flow import FlowConfig, _mm_step_raw
    obstacle = cone_obstacle(height, grid)
    polish_cfg = FlowConfig(tau=1e6, t_end=1e6, inner_tol=1e-9)
    polished = _mm_step_raw(
        profile.values, obstacle.samples.values, grid.h, polish_cfg)[0]
    profile = GridFunction(grid, polished)

    cp = CriticalPoint(
        height=float(height), A=a, grid=grid, profile=profile,
        slope_profile=slope, energy=energy(profile),
        residuals={}, _table=(xs, us, zs),
    )
    upp = second_diff(profile)
    concavity_min = float(np.min(-upp[: m]))  # nodes x_1 .. x_m, i.e. (0, 1/2]
    report = check_critical(profile, cp.obstacle, tol=1e-5)
    residuals = {
        "vi_residual": report.vi_residual,
        "ode_residual": ode_residual(cp),
        "concavity_min": concavity_min,
    }
    object.__setattr__(cp, "residuals", residuals)
    return cp


def ode_residual(cp: CriticalPoint, window: tuple[float, float] = (0.05, 0.45)
                 ) -> float:
    """sup over grid nodes in `window` of |u'(x) - J(u(x))|, where J maps
    height to slope by inverting the monotone parametric height table.

    Both sides come from the parametric table through independent
    interpolations (position -> slope versus height -> slope composed with
    position -> height), so a small residual cross-validates the quadrature
    construction against the first-order characterization u' = J(u)."""
    xs, us, zs = cp._table
    if np.any(np.diff(us) <= 0.0):
        raise ConvergenceError("height table is not strictly increasing")
    j_interp = PchipInterpolator(us, zs)
    height_of_x = PchipInterpolator(xs, us)
    slope_of_x = PchipInterpolator(xs, zs)
    x = cp.grid.nodes
    mask = (x >= window[0]) & (x <= window[1])
    xl = np.minimum(x[mask], 1.0 - x[mask])  # fold onto the left half
    return float(np.max(np.abs(slope_of_x(xl) - j_interp(height_of_x(xl)))))


@dataclass(frozen=True)
class CriticalityReport:
    """check_critical output: one-sided variational-inequality residuals over
    the admissible direction family, plus shape diagnostics."""

    vi_residual: float        # min directional derivative; valid point >= -tol*scale
    stationarity_inactive: float
    multiplier_min: float
    concavity_min: float
    nonnegativity_min: float
    coincidence: np.ndarray
    scale: float
    tol: float

    @property
    def passes_vi(self) -> bool:
        return self.vi_residual >= -self.tol * self.scale


def check_critical(u: GridFunction, obstacle: Obstacle, tol: float
                   ) -> CriticalityReport:
    """Evaluate the discrete variational inequality DE(u)(v - u) >= 0 over
    the family of admissible coordinate directions (+e_i always, -e_i when
    the node is off the obstacle) and two global rescaling directions.

    For box constraints the coordinate family characterizes the KKT
    conditions exactly: inactive nodes need |grad E| small, active nodes
    need grad E bounded below (nonnegative multiplier).
    """
    if u.grid != obstacle.grid:
        raise DomainError("candidate and obstacle on different grids")
    psi = obstacle.samples.values
    if np.any(u.values < psi - 1e-12):
        raise DomainError("candidate is not admissible (below the obstacle)")
    ge = energy_gradient(u).values
    scale = 1.0 + float(np.max(np.abs(ge)))
    gap = u.values - psi
    # gap classification lives in solution units, not gradient units
    act_tol = 10.0 * tol * max(1.0, float(np.max(np.abs(u.values))))
    act = gap <= act_tol
    act[0] = act[-1] = False
    inact = ~act
    inact[0] = inact[-1] = False

    upward = float(np.min(ge[1:-1]))              # DE(u)(e_i) proportional to ge_i
    downward = (float(np.min(-ge[inact])) if inact.any() else math.inf)
    vi = min(upward, downward)

    # global directions v - u for v = (1 +- delta) u clipped to the box
    from .discretization import first_variation
    delta = 1e-3
    for factor in (1.0 + delta, 1.0 - delta):
        v = np.maximum(psi, factor * u.values)
        v[0] = v[-1] = 0.0
        d = v - u.values
        norm = float(np.max(np.abs(d)))
        if norm > 0:
            fv = first_variation(u, GridFunction(u.grid, d / norm))
            vi = min(vi, fv / u.grid.h)  # same nodal scaling as ge

    stat = float(np.max(np.abs(ge[inact]))) if inact.any() else 0.0
    mult = float(np.min(ge[act])) if act.any() else math.inf
    upp = second_diff(u)
    return CriticalityReport(
        vi_residual=vi,
        stationarity_inactive=stat,
        multiplier_min=mult,
        concavity_min=float(np.min(-upp)),
        nonnegativity_min=float(np.min(u.values)),
        coincidence=np.nonzero(act)[0],
        scale=scale,
        tol=tol,
    )
