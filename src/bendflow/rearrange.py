"""Decreasing and symmetric-decreasing rearrangements, and the nonlinear
comparison principle for -G(v')' = f.

At the discrete level a rearrangement is a sort of the nodal values, which
preserves every L^p norm of the piecewise-constant reading exactly. The
comparison solution is the explicit double integral

    v(x) = (1/2) int_{2|x-1/2|}^1 Ginv( (1/2) int_0^s f*(r) dr ) ds,

which solves -G(v')' = f_* with zero ends; for concave candidates u with
slopes bounded by 2 (where 1/Ginv is convex) it dominates the symmetric
rearrangement u_*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretization import (
    GridFunction,
    first_diff,
    l2_norm,
    second_diff,
)
from .errors import DomainError
from .specialfn import c0, g, g_inv


def decreasing_rearrangement(f: GridFunction) -> GridFunction:
    """Nodal values sorted in nonincreasing order (layer-cake rearrangement
    of the piecewise-constant reading). Requires f >= 0."""
    if np.any(f.values < 0.0):
        raise DomainError("decreasing rearrangement needs nonnegative values")
    return GridFunction(f.grid, np.sort(f.values)[::-1])


def symmetric_rearrangement(f: GridFunction) -> GridFunction:
    """f_*(x) = f^*(2|x - 1/2|). On a uniform grid 2|x_i - 1/2| lands on the
    node |2i - n|, so no interpolation is involved."""
    fstar = decreasing_rearrangement(f).values
    n = f.grid.n
    idx = np.abs(2 * np.arange(n + 1) - n)
    return GridFunction(f.grid, fstar[idx])


def _cumtrapz(y: np.ndarray, h: float) -> np.ndarray:
    out = np.empty(len(y))
    out[0] = 0.0
    np.cumsum(0.5 * h * (y[1:] + y[:-1]), out=out[1:])
    return out


def talenti_comparison(f: GridFunction) -> GridFunction:
    """Symmetric solution v of -G(v')' = f_* with v(0) = v(1) = 0, from the
    explicit nested quadrature. Requires f >= 0 and (1/2)||f||_L2 below the
    saturation value c0/2 so that Ginv stays in range."""
    if np.any(f.values < 0.0):
        raise DomainError("talenti_comparison needs nonnegative data")
    half_l2 = 0.5 * l2_norm(f)
    guard = 1e-9 * c0()
    if half_l2 >= c0() / 2.0 - guard:
        raise DomainError(
            f"(1/2)||f||_L2 = {half_l2:.12g} reaches the saturation value "
            f"c0/2 = {c0() / 2:.12g}; comparison solution undefined"
        )
    n, h = f.grid.n, f.grid.h
    fstar = decreasing_rearrangement(f).values
    inner = 0.5 * _cumtrapz(fstar, h)               # (1/2) int_0^s f*(r) dr
    ginv_vals = np.array([g_inv(val) for val in inner])
    outer = _cumtrapz(ginv_vals, h)                  # int_0^s Ginv(...)
    idx = np.abs(2 * np.arange(n + 1) - n)
    v = 0.5 * (outer[-1] - outer[idx])
    return GridFunction(f.grid, v)


@dataclass(frozen=True)
class TalentiReport:
    min_gap: float          # min over nodes of v - u_*
    tol_mesh: float
    f_sup: float
    holds: bool


def talenti_inequality_check(u: GridFunction, tol_mesh: float | None = None
                             ) -> TalentiReport:
    """For concave admissible u with ||u'||_inf <= 2: build f = -(G(u'))',
    solve the comparison problem for f_*, and verify v >= u_* - tol_mesh.

    tol_mesh defaults to 5 h (1 + ||f||_inf), covering the O(h) quadrature
    error both sides of the inequality carry.
    """
    v = u.values
    h = u.grid.h
    if v[0] != 0.0 or v[-1] != 0.0:
        raise DomainError("candidate must vanish at the endpoints")
    if np.any(v < -1e-12):
        raise DomainError("candidate must be nonnegative")
    upp = second_diff(u)
    if np.any(upp > 1e-10):
        raise DomainError("candidate must be concave (second differences <= 0)")
    up = first_diff(u)
    if np.max(np.abs(up)) > 2.0:
        raise DomainError(
            "slopes exceed 2; outside the window where 1/Ginv is convex"
        )
    f = _source_term(u)
    comp = talenti_comparison(f)
    u_star = symmetric_rearrangement(u)
    if tol_mesh is None:
        tol_mesh = 5.0 * h * (1.0 + float(np.max(f.values)))
    min_gap = float(np.min(comp.values - u_star.values))
    return TalentiReport(min_gap=min_gap, tol_mesh=tol_mesh,
                         f_sup=float(np.max(f.values)),
                         holds=min_gap >= -tol_mesh)


def one_over_ginv_second_derivative(s: float) -> float:
    """Closed form of (1/Ginv)''(s) on (0, c0/2):

        (2 - Ginv(s)^2 / 2) / Ginv(s)^3 * (1 + Ginv(s)^2)^(3/2).

    Positive up to s = G(2) and negative beyond: the convexity window of
    1/Ginv ends exactly where the slope reaches 2.
    """
    s = float(s)
    if not (0.0 < s < c0() / 2.0):
        raise DomainError(f"argument must lie in (0, c0/2), got {s}")
    gamma = g_inv(s)
    return (2.0 - 0.5 * gamma**2) / gamma**3 * (1.0 + gamma**2) ** 1.5


def random_concave_profile(rng: np.random.Generator, grid, slope_bound: float = 2.0
                           ) -> GridFunction:
    """Random concave admissible test function: cumulative sum of a strictly
    decreasing per-cell slope sequence, shifted so u(1) = 0 and scaled so
    ||u'||_inf stays inside `slope_bound`. Zero ends and concavity make the
    result nonnegative.

    The profile is rescaled until the source term f = -(G(u'))' satisfies
    the comparison hypothesis (1/2)||f||_L2 below the saturation value, so
    every draw is a legal input for talenti_inequality_check."""
    n, h = grid.n, grid.h
    slopes = np.sort(rng.uniform(-1.0, 1.0, size=n))[::-1]
    slopes = slopes - slopes.mean()
    peak = float(np.max(np.abs(slopes)))
    slopes *= 0.95 * slope_bound / peak if peak > 0 else 0.0

    def build(scaled):
        u = np.empty(n + 1)
        u[0] = 0.0
        np.cumsum(scaled * h, out=u[1:])
        u[-1] = 0.0
        return GridFunction(grid, np.maximum(u, 0.0))

    gf = build(slopes)
    limit = 0.85 * c0() / 2.0
    for _ in range(8):
        if 0.5 * l2_norm(_source_term(gf)) <= limit:
            break
        slopes *= 0.7
        gf = build(slopes)
    return gf


def _source_term(u: GridFunction) -> GridFunction:
    """f = -(G(u'))': central differences inside, first-order one-sided at
    the two ends. For concave u the slope sequence is nonincreasing, and
    these stencils (unlike the second-order one-sided ones) then give f >= 0
    without sign surprises on rough data.
    """
    n, h = u.grid.n, u.grid.h
    up = first_diff(u)
    gp = np.array([g(s) for s in up])
    f_vals = np.empty(n + 1)
    f_vals[1:-1] = -((gp[2:] - gp[:-2]) / (2.0 * h))
    f_vals[0] = -((gp[1] - gp[0]) / h)
    f_vals[-1] = -((gp[-1] - gp[-2]) / h)
    if np.any(f_vals < -1e-9 * max(1.0, float(np.max(np.abs(f_vals))))):
        raise DomainError("-(G(u'))' has a genuinely negative value")
    return GridFunction(u.grid, np.maximum(f_vals, 0.0))
