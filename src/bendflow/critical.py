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
evaluated on smooth integrands in w, into a table that a numpy PCHIP
resamples onto the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .discretization import (
    GridFunction,
    Obstacle,
    UniformGrid,
    _first_variation_raw,
    cone_obstacle,
)
from .errors import ConvergenceError, DomainError, GridMismatchError, RangeError
from .flow import _evaluate, _vi_split
from .specialfn import _gauss_legendre, h_inv, h_of_A, quad

_QUAD_TOL = 1e-14
_N_PARAM = 1024  # parametric samples in w = sqrt(A - z), Chebyshev-distributed
# the 12-point Gauss-Legendre rule on [-1, 1], one per panel between
# consecutive samples
_GL_NODES, _GL_WEIGHTS = _gauss_legendre(12)
VI_TOL = 1e-5  # check_critical's VI tolerance, relative to its scale
# the lowest cone height served: below it (slopes A below about 1.08e-208)
# the products half * (A - w^2) * fx of `_parametric_table`'s height integral
# underflow, and its height table can stop increasing (scanned: the highest
# such height is 3.574e-209, and below 3.2e-210 every height is one)
_H_MIN = 3.6e-209


def _x_integrand(a: float, w):
    """Integrand of the position integral in w = sqrt(A - z): 2 (1+z^2)^(-5/4)."""
    return 2.0 * (1.0 + (a - w * w) ** 2) ** -1.25


def f_of_z(z: float, a_slope: float) -> float:
    """x as a function of the slope: F(z) on [0, A], with F(A) = 0,
    F(0) = 1/2, strictly decreasing. Adaptive quadrature, independent of
    the Gauss-Legendre table `critical_profile` builds."""
    a = float(a_slope)
    z = float(z)
    if not (0.0 <= z <= a):
        raise DomainError(f"f_of_z: need 0 <= z <= A, got z={z}, A={a}")
    if z == a:
        return 0.0
    width = math.sqrt(a - z)
    # near z = A the interval is tiny and the absolute target 1e-14 would
    # trip spurious roundoff reports; a relative target is the right ask
    num, _ = quad(lambda w: _x_integrand(a, w),
                  0.0, width, epsabs=min(_QUAD_TOL, 1e-3 * width),
                  epsrel=1e-12, limit=200)
    den, _ = quad(lambda w: _x_integrand(a, w), 0.0, math.sqrt(a),
                  epsabs=_QUAD_TOL, epsrel=1e-12, limit=200)
    return 0.5 * num / den


@dataclass(frozen=True)
class CriticalPoint:
    """The symmetric critical point over a cone obstacle.

    `ode_residual` is the sup-norm mismatch of u' against the
    slope-from-height map (see `critical_profile`). `report` is the
    `check_critical` report of the profile; its `vi_residual` (the worst
    directional derivative over admissible coordinate directions, should be
    >= -VI_TOL * scale) and `concavity_min` (the minimum of -u'' over the
    interior nodes, > 0 means strictly concave) are the profile's other two
    residuals. `obstacle` is the cone the polish ran over: the point's
    height is `obstacle.height`, and its grid is `profile.grid`.
    """

    A: float
    profile: GridFunction
    slope_profile: GridFunction
    energy: float
    ode_residual: float
    report: CriticalityReport = field(repr=False)
    obstacle: Obstacle = field(repr=False)

    def failures(self) -> list[str]:
        """One message for each test the point fails, none if it passes:
        the VI check, strict concavity, and u(1/2) within 1e-9 of the cone
        tip."""
        rep, tip = self.report, self.obstacle.height
        mid = self.profile.values[self.profile.grid.midpoint_index]
        failed = []
        if not rep.passes_vi:
            failed.append(f"vi_residual {rep.vi_residual:.15g} is below "
                          f"-{VI_TOL:g} * scale {rep.scale:.15g}")
        if not rep.concavity_min > 0.0:
            failed.append(f"concavity_min {rep.concavity_min:.15g} "
                          f"is not positive")
        if not abs(mid - tip) <= 1e-9:
            failed.append(f"u(1/2) = {mid:.15g} is off the cone tip "
                          f"{tip:.15g}")
        return failed


def _pchip(x: np.ndarray, y: np.ndarray, xq: np.ndarray) -> np.ndarray:
    """The monotone cubic (PCHIP) interpolant of y over at least three
    increasing nodes x, at the points xq in [x[0], x[-1]]. Inner slopes are
    the Fritsch-Carlson weighted harmonic mean of the two secants (0 where
    they differ in sign or one is 0); an end slope is the one-sided
    three-point estimate, 0 if its sign is not the end secant's, 3 times
    that secant at most if the first two secants differ in sign (Moler,
    Numerical Computing with MATLAB, 3.6). Each cell's cubic is summed in
    power form in the order of scipy's PchipInterpolator, which agrees to
    a few ulp (to the bit on the critical tables with scipy 1.17.1).

    x and xq are first scaled by the power of 2 that brings x[-1] into
    [1/2, 1). That moves no bit of the result, as every step scales
    exactly, but keeps the cubic's 1/h^2 finite on the height table of a
    tiny cone (at height 1e-200 the cells are 1e-203 wide)."""
    scale = 2.0 ** -math.frexp(x[-1])[1]
    x, xq = x * scale, xq * scale
    h = np.diff(x)
    m = np.diff(y) / h
    d = np.zeros_like(y)
    w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
    inner = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0) & (m[:-1] != 0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d[1:-1][inner] = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))[inner]
    for end, k in ((0, 1), (-1, -2)):
        e = ((2.0 * h[end] + h[k]) * m[end] - h[end] * m[k]) / (h[end] + h[k])
        if np.sign(e) != np.sign(m[end]):
            e = 0.0
        elif np.sign(m[end]) != np.sign(m[k]) and abs(e) > 3.0 * abs(m[end]):
            e = 3.0 * m[end]
        d[end] = e
    i = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, len(h) - 1)
    s, hi, di = xq - x[i], h[i], d[i]
    t = (di + d[i + 1] - 2.0 * m[i]) / hi
    s2 = s * s
    return ((y[i] + di * s) + ((m[i] - di) / hi - t) * s2) + t / hi * (s2 * s)


def _parametric_table(a: float):
    """Dense table (X, U, Z): positions, heights and slopes along the left
    half, sampled at Chebyshev points in w so both steep regions (near the
    end point and near the midpoint) are resolved. Each panel between
    consecutive samples is integrated by the fixed Gauss-Legendre rule (the
    integrands are smooth in w); the denominator int_0^A W is the sum of
    all panels."""
    theta = np.linspace(0.0, math.pi, _N_PARAM)
    wc = math.sqrt(a) * 0.5 * (1.0 - np.cos(theta))
    mid = 0.5 * (wc[1:] + wc[:-1])
    half = 0.5 * (wc[1:] - wc[:-1])
    w = mid[:, None] + half[:, None] * _GL_NODES
    fx = _x_integrand(a, w)
    accx = np.cumsum(half * (fx @ _GL_WEIGHTS))
    accu = np.cumsum(half * (((a - w * w) * fx) @ _GL_WEIGHTS))
    den = accx[-1]
    xs = np.zeros(_N_PARAM)
    us = np.zeros(_N_PARAM)
    xs[1:] = 0.5 * accx / den
    us[1:] = 0.5 * accu / den
    xs[-1] = 0.5
    zs = a - wc**2
    zs[-1] = max(zs[-1], 0.0)
    if np.any(np.diff(xs) <= 0.0):
        raise ConvergenceError("parametric position table is not increasing")
    return xs, us, zs


def critical_profile(height: float, grid: UniformGrid) -> CriticalPoint:
    """Compute the symmetric critical point for a cone of midpoint height > 0.

    Needs an even grid so the contact node x = 1/2 exists, and a height of
    at least `_H_MIN`: a lower one is a RangeError (`h_inv`'s for a height
    that is not positive, or NaN). The parametric table is resampled onto
    the grid with monotone cubic interpolation, mirrored, and then
    polished to the stationary point of the discrete energy over the cone
    constraint (a proximal step with a huge time constant, warm-started at
    the sample). The polish moves nodal values by
    O(h^2) at most but makes the stored profile satisfy the discrete
    variational inequality over coordinate directions exactly, including the
    contact node sitting bitwise on the cone tip. A polish that does not
    converge raises StepConvergenceError with the unconverged profile as
    `partial`. The energy, and the `check_critical` report kept as
    `report`, come from the polish's evaluation of its result.

    The table also gives the slope profile and the cross-check
    `ode_residual` = sup over nodes x in [0.05, 0.45] of |u'(x) - J(u(x))|,
    with J the inverse of the monotone height table (us, zs). The two sides
    are independent interpolations of the table (position -> slope against
    height -> slope composed with position -> height), so a small residual
    cross-validates the quadrature against the first-order equation u' = J(u).
    """
    if grid.n % 2 != 0:
        raise DomainError("critical_profile needs an even number of cells")
    if 0.0 < height < _H_MIN:
        raise RangeError(f"height {height:g} is below {_H_MIN:g}, the lowest served")
    a = h_inv(height)
    xs, us, zs = _parametric_table(a)
    if np.any(np.diff(us) <= 0.0):
        raise ConvergenceError("height table is not strictly increasing")
    left_x = grid.nodes[: grid.n // 2 + 1]
    left_u = _pchip(xs, us, left_x)
    left_z = _pchip(xs, zs, left_x)
    mask = (left_x >= 0.05) & (left_x <= 0.45)
    ode = float(np.max(np.abs(left_z[mask] - _pchip(us, zs, left_u[mask]))))
    left_u[0] = 0.0
    left_u[-1] = height
    left_z[0] = a
    left_z[-1] = 0.0
    profile = GridFunction.from_symmetric_half(grid, left_u)
    slope = GridFunction(grid, np.concatenate([left_z[:-1], -left_z[::-1]]))

    from .flow import FlowConfig, _mm_step_raw
    obstacle = cone_obstacle(height, grid)
    polish_cfg = FlowConfig(tau=1e6, t_end=1e6, inner_tol=1e-9)
    polished, _, evaluation = _mm_step_raw(
        profile.values, obstacle.samples.values, grid.h, polish_cfg)
    profile = GridFunction(grid, polished)

    # symmetric to the bit: the report's min of -u'' is the one over (0, 1/2]
    report = _criticality_report(profile, obstacle.samples.values, evaluation)
    return CriticalPoint(
        A=a, profile=profile, slope_profile=slope, energy=evaluation.energy,
        ode_residual=ode, report=report, obstacle=obstacle,
    )


@dataclass(frozen=True)
class CriticalityReport:
    """check_critical output: one-sided variational-inequality residuals over
    the admissible direction family, plus a shape diagnostic. Its
    stationarity and multiplier split is the flow's KKTReport split
    (`flow._vi_split`), with its own active-set rule and scale."""

    vi_residual: float        # min directional derivative; valid point >= -VI_TOL*scale
    stationarity_inactive: float
    multiplier_min: float
    concavity_min: float
    scale: float

    @property
    def passes_vi(self) -> bool:
        return self.vi_residual >= -VI_TOL * self.scale


def check_critical(u: GridFunction, obstacle: Obstacle) -> CriticalityReport:
    """Evaluate the discrete variational inequality DE(u)(v - u) >= 0 over
    the family of admissible coordinate directions (+e_i always, -e_i when
    the node is off the obstacle) and two global rescaling directions.

    For box constraints the coordinate family characterizes the KKT
    conditions exactly: inactive nodes need |grad E| small, active nodes
    need grad E bounded below (nonnegative multiplier).
    """
    if u.grid != obstacle.grid:
        raise GridMismatchError("candidate and obstacle on different grids")
    psi = obstacle.samples.values
    if np.any(u.values < psi - 1e-12):
        raise DomainError("candidate is not admissible (below the obstacle)")
    return _criticality_report(u, psi, _evaluate(u.values, u.grid.h))


def _criticality_report(u: GridFunction, psi, ev) -> CriticalityReport:
    """check_critical's report of the admissible u over the obstacle
    samples psi, from the evaluation `ev` of u (`flow._evaluate`)."""
    tables, ge = ev.tables, ev.grad
    scale = 1.0 + float(np.max(np.abs(ge)))
    # gap classification lives in solution units, not gradient units
    act_tol = 10.0 * VI_TOL * max(1.0, float(np.max(np.abs(u.values))))
    stat, mult, n_active = _vi_split(u.values, psi, ge, act_tol)

    # DE(u)(e_i) is proportional to ge_i on every interior node and
    # DE(u)(-e_i) to -ge_i on the inactive ones; on those both together
    # give -|ge_i|, so the coordinate minimum is min(min ge, -stat)
    vi = float(np.min(ge[1:-1]))
    if n_active < len(ge) - 2:
        vi = min(vi, -stat)

    # global directions v - u for v = (1 +- delta) u clipped to the box
    delta = 1e-3
    for factor in (1.0 + delta, 1.0 - delta):
        v = np.maximum(psi, factor * u.values)
        v[0] = v[-1] = 0.0
        d = v - u.values
        norm = float(np.max(np.abs(d)))
        if norm > 0:
            fv = _first_variation_raw(*tables, d / norm, u.grid.h)
            vi = min(vi, fv / u.grid.h)  # same nodal scaling as ge

    return CriticalityReport(
        vi_residual=vi,
        stationarity_inactive=stat,
        multiplier_min=mult,
        concavity_min=float(np.min(-tables[1][1:-1])),
        scale=scale,
    )
