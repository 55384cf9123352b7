"""Minimizing-movements time stepper for the obstacle-constrained flow.

One step from f solves

    minimize  Phi(u) = E_h(u) + ||u - f||_{L2}^2 / (2 tau)
    over      u >= psi nodewise,  u(0) = u(1) = 0,

and certifies the discrete variational inequality through a KKT report:
stationarity on inactive nodes, nonnegative multiplier on active nodes.
Iterating the step yields a trajectory whose energies are nonincreasing and
which satisfies, step by step,

    ||u_{k+1} - u_k||^2 / (2 tau)  <=  E_h(u_k) - E_h(u_{k+1}),

the inequality all a-priori bounds of the scheme rest on.

Inner solver: projected Newton on the box constraint, with the two pinned
ends treated as two more active bounds. The search direction solves the
exact banded Hessian of Phi on all n+1 nodes (with Levenberg damping if it
is not positive definite) in which every active row, the two ends always
among them, is replaced by the identity with the gap on the right-hand
side, so the ends take a step of exactly 0. The line search walks the
projected arc once per Newton iteration (alpha = 1, 1/2, 1/4, ..., 40
tries) and evaluates each point at most once. It takes the first point
with Armijo decrease of Phi (constant 1e-4). Along the way it keeps the
points whose Phi does not rise beyond evaluation noise; if none passes
Armijo, because Phi differences have fallen below floating-point
resolution, it takes the first kept point with strict decrease of the
residual, building gradient and KKT arrays for kept points only. The walk
ends at the first point equal to the iterate: rounding of the arc is
monotone in alpha, so every later point equals it too, and neither test
can take it.

Reversal: every linear solve is mirror-averaged and every stencil is
palindromic, so reversal-symmetric data stays symmetric to the bit, and
so does each Newton system built from it. On other data the step commutes
with reversal only up to roundoff: the whole-array sums in Phi, in the
Armijo decrease and in the descent test are not taken in palindromic
order, so a decision near its threshold can go differently for f and its
reversal. A Newton system whose upper band rows equal those of its mirror
bit for bit, with a palindromic right-hand side, is factored once: the
mirrored solve would see the same bits, so its result is the first one
reversed. Other systems are factored twice. Pinning the ends leaves the
outermost (offset 3) bands exactly zero, and a zero band pair is left out
of the factorisation.

One stencil pass per trial point: the step builds the tables (u', u'') of
each trial point once, and every consumer at that point reads them: Phi,
the KKT arrays, the residual floor of the starting point and, once the
point is accepted, the next Hessian. Within a step `_derivative_tables`
therefore runs exactly as often as `_energy_raw`.

One evaluation per accepted iterate: the step returns the evaluation of the
point it accepts (tables, E_h, grad E_h, residual floor), and `run_flow`
hands it to the next step, which starts from that point, and takes the
recorded energy from it. A step at rest, which accepts its starting point
after no Newton iteration, therefore builds no tables and evaluates neither
E_h nor its gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import get_lapack_funcs

from .discretization import (
    GridFunction,
    Obstacle,
    UniformGrid,
    _HESS_BW,
    _derivative_tables,
    _energy_gradient_raw,
    _energy_hessian_bands,
    _energy_raw,
    _trapezoid_weights,
    energy,
    trapezoid_weights,
)
from .errors import DomainError, StepConvergenceError
from .specialfn import g, g_inv

_BW = _HESS_BW
_ARMIJO_C = 1e-4  # sufficient-decrease constant of the line search
_BACKTRACK = 0.5  # step-length factor between line-search tries
_PBSV, = get_lapack_funcs(("pbsv",), (np.zeros((1, 1)),))  # double precision


@dataclass(frozen=True)
class FlowConfig:
    """Time step, horizon, inner-solver tolerance and per-step iteration cap.

    `inner_tol` sets the stationarity tolerance of every step relative to
    its natural scale (see KKTReport), and with it the coincidence
    tolerance 10 * inner_tol * sqrt(h) of the recorded contact counts;
    `inner_max_iter` bounds the Newton iterations of one step.
    """

    tau: float
    t_end: float
    inner_tol: float = 1e-8
    inner_max_iter: int = 80

    def __post_init__(self):
        if not (self.tau > 0):
            raise DomainError("tau must be positive")
        if not (self.t_end >= self.tau):
            raise DomainError("t_end must be at least one step")
        if not (self.inner_tol > 0):
            raise DomainError("inner_tol must be positive")


@dataclass(frozen=True)
class KKTReport:
    """Certificate of the discrete variational inequality for one step.

    r = (u - f)/tau + grad E_h(u) is the nodal residual. Nodes with gap
    below `active_tol` (chosen to dominate the solver slack) are classified
    active; a valid step has |r| <= tol on inactive nodes and r >= -tol on
    active ones, with tol = inner_tol * scale and scale the natural size
    1 + ||grad E_h||_inf + ||udot||_inf.
    """

    stationarity_residual: float
    multiplier_min: float
    active_set: np.ndarray
    scale: float
    natural_residual: float
    active_tol: float
    inner_iterations: int

    def satisfies(self, inner_tol: float) -> bool:
        tol = inner_tol * self.scale
        return self.stationarity_residual <= tol and self.multiplier_min >= -tol


@dataclass
class Trajectory:
    """Flow iterates with per-step diagnostics."""

    grid: UniformGrid
    obstacle: Obstacle
    tau: float
    times: np.ndarray = field(default_factory=lambda: np.zeros(0))
    iterates: list[GridFunction] = field(default_factory=list)
    energies: np.ndarray = field(default_factory=lambda: np.zeros(0))
    step_norms: np.ndarray = field(default_factory=lambda: np.zeros(0))
    coincidence_counts: np.ndarray = field(default_factory=lambda: np.zeros(0, int))
    inner_iterations: np.ndarray = field(default_factory=lambda: np.zeros(0, int))
    symmetry_residuals: np.ndarray = field(default_factory=lambda: np.zeros(0))
    kkt_reports: list[KKTReport] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def n_steps(self) -> int:
        return len(self.iterates) - 1

    @property
    def t_end(self) -> float:
        return float(self.times[-1])


# ---------------------------------------------------------------------------
# inner solver
# ---------------------------------------------------------------------------

def _mirror_bands(ab: np.ndarray) -> np.ndarray:
    """Band array of the reversal-conjugated matrix R M R, as a view of ab:
    band k of R M R is band -k of M reversed."""
    return ab[::-1, ::-1]


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality of two float arrays (so -0.0 differs from 0.0)."""
    return bool((a.view(np.uint64) == b.view(np.uint64)).all())


def _cholesky_solve(upper: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Banded Cholesky solve (LAPACK pbsv) of the system whose upper band
    rows are `upper`, outermost first."""
    _, x, info = _PBSV(upper, b)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}th leading minor not positive definite")
    return x


def _solve_banded_mirror(ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cholesky solve averaged with its mirrored twin.

    For any symmetric banded system the average of M^{-1} b and the
    reversal of (RMR)^{-1} (Rb) equals M^{-1} b exactly in real arithmetic;
    averaging the two makes the floating-point result commute with
    reversal. When the upper band rows of RMR equal those of M bit for bit
    and b is a palindrome, the mirrored solve would repeat the first on the
    same bits, so its result is the first one reversed and only one
    factorisation is done. An all-zero outermost band pair (what pinning
    the ends leaves) is left out of the factorisation. Raises
    np.linalg.LinAlgError if M is not positive definite and ValueError if
    the system is not finite.
    """
    if not (np.isfinite(ab).all() and np.isfinite(b).all()):
        raise ValueError("banded system must not contain infs or NaNs")
    lo = 0 if ab[0].any() or ab[-1].any() else 1
    upper = ab[lo:_BW + 1]
    mirrored = _mirror_bands(ab)[lo:_BW + 1]
    d = _cholesky_solve(upper, b)
    if _same_bits(upper, mirrored) and _same_bits(b, b[::-1]):
        return 0.5 * (d + d[::-1])
    return 0.5 * (d + _cholesky_solve(mirrored, b[::-1])[::-1])


def _pin_active(ab: np.ndarray, rhs: np.ndarray, act: np.ndarray,
                gap: np.ndarray) -> None:
    """Replace rows/columns of active indices by the identity; the Newton
    step then moves them exactly onto the bound. The pinned ends are active
    with gap 0, so their step is exactly 0."""
    ni = ab.shape[1]
    for k in range(1, _BW + 1):
        pair = act[:ni - k] | act[k:]  # node j or node j + k is active
        ab[_BW + k, :ni - k][pair] = 0.0  # H[j + k, j], stored in column j
        ab[_BW - k, k:][pair] = 0.0  # H[j, j + k], stored in column j + k
    ab[_BW, act] = 1.0
    rhs[act] = -gap[act]


def _residual_floor(v: np.ndarray, upp: np.ndarray, h: float, tau: float) -> float:
    """Smallest meaningful stationarity residual at this state.

    Nodal values carry relative rounding eps, so the best representable
    point near the true minimizer has a residual of about
    ||hessian|| * eps * ||v||; certifying below that is noise. The row-sum
    bound 32/h^4 covers the leading fourth-order block, the u''-dependent
    term the first-order coupling, and 1/tau the proximal part. `upp` is
    u'' of v from `_derivative_tables`.
    """
    row_bound = 32.0 / h**4 + 20.0 * float(np.max(upp**2)) / h**2 + 1.0 / tau
    amp = max(float(np.max(np.abs(v))), h * h)
    return np.finfo(float).eps * row_bound * amp


@dataclass(frozen=True)
class _Eval:
    """One evaluation of an iterate: its stencil tables (u', u''), E_h,
    grad E_h and residual floor (the floor for one tau)."""

    tables: tuple[np.ndarray, np.ndarray]
    energy: float
    grad: np.ndarray
    floor: float


def _kkt_arrays(v, ge, f, psi, tau, floor_over_tol: float = 0.0):
    udot = (v - f) / tau
    r = ge + udot
    r[0] = r[-1] = 0.0
    scale = (1.0 + float(np.max(np.abs(ge))) + float(np.max(np.abs(udot)))
             + floor_over_tol)
    pi = v - np.maximum(psi, v - r)
    pi[0] = pi[-1] = 0.0
    return r, pi, scale


def _mm_step_raw(f: np.ndarray, psi: np.ndarray, h: float, cfg: FlowConfig,
                 start: _Eval | None = None):
    """Solve one proximal step; returns (v, r, max|pi|, scale, iterations,
    evaluation of v).

    `start`, if given, is the evaluation of f, which must then be a point a
    previous step with the same tau accepted (so f is its own projection
    onto the constraints); otherwise the starting point is evaluated here.

    Drives the natural-map residual pi = v - Pi_box(v - r) below a quarter
    of inner_tol * scale; anything <= inner_tol * scale at exit still counts
    as converged, the headroom is for the certificate.
    """
    n = len(f) - 1
    tau = cfg.tau
    w = _trapezoid_weights(n, h)

    def phi(u, e):
        return e + 0.5 / tau * float(np.sum(w * (u - f) ** 2))

    def trial(u):
        """Stencil tables of u, E_h(u) evaluated from them, and Phi(u)."""
        tables = _derivative_tables(u, h)
        e = _energy_raw(*tables, h)
        return tables, e, phi(u, e)

    v = np.maximum(f, psi)
    v[0] = v[-1] = 0.0
    v0 = v
    if start is None:
        tables = _derivative_tables(v, h)
        start = _Eval(tables, _energy_raw(*tables, h),
                      _energy_gradient_raw(*tables, h),
                      _residual_floor(v, tables[1], h, tau))
    tv, ev, gv = start.tables, start.energy, start.grad
    pv = phi(v, ev)
    fot = start.floor / cfg.inner_tol
    r, pi, scale = _kkt_arrays(v, gv, f, psi, tau, fot)

    def search():
        """Walk the projected arc max(psi, v + alpha d), alpha = 1, b, b^2,
        ... (40 tries), evaluating each point once. Returns (point, tables,
        E_h, (Phi, grad E_h, KKT arrays)) for the first point with Armijo
        decrease of Phi, else for the first kept point whose residual falls,
        else None. The walk ends at the first point equal to v: every later
        point equals v too, and neither test takes v (Armijo needs Phi below
        pv, which is at most Phi(v); the fallback a residual below v's)."""
        kept = []
        alpha = 1.0
        for _ in range(40):
            vt = np.maximum(psi, v + alpha * d)
            vt[0] = vt[-1] = 0.0
            if np.array_equal(vt, v):
                break
            tt, et, pt = trial(vt)
            dec = float(np.sum(w * r * (vt - v)))
            if pt <= pv + _ARMIJO_C * dec and pt < pv:
                gt = _energy_gradient_raw(*tt, h)
                return vt, tt, et, (pt, gt, _kkt_arrays(vt, gt, f, psi, tau, fot))
            if pt <= pv + 1e-13 * max(1.0, abs(pv)):
                kept.append((vt, tt, et, pt))
            alpha *= _BACKTRACK
        # Phi differences are below roundoff here; ask for strict progress
        # of the residual instead, among the kept points, whose Phi does not
        # rise beyond evaluation noise.
        for vt, tt, et, pt in kept:
            gt = _energy_gradient_raw(*tt, h)
            kkt = _kkt_arrays(vt, gt, f, psi, tau, fot)
            if float(np.max(np.abs(kkt[1]))) <= 0.9 * pimax:
                return vt, tt, et, (min(pt, pv), gt, kkt)
        return None

    nit = 0
    while True:
        pimax = float(np.max(np.abs(pi)))
        if pimax <= 0.25 * cfg.inner_tol * scale or nit == cfg.inner_max_iter:
            break
        nit += 1

        ab = _energy_hessian_bands(*tv, h)
        ab[_BW, :] += w / tau
        gap = v - psi
        act = (gap <= min(1e-9, pimax)) & (r > 0)
        act[0] = act[-1] = True  # the pinned ends sit on their bound
        gap[0] = gap[-1] = 0.0
        rhs = -(w * r)
        _pin_active(ab, rhs, act, gap)

        d = None
        lam = 0.0
        lam0 = 1e-12 * float(np.max(ab[_BW, :]))
        for _ in range(40):
            try:
                abl = ab if lam == 0.0 else _damped(ab, lam)
                cand = _solve_banded_mirror(abl, rhs)
                if float(np.sum(w * r * cand)) < 0.0 or not cand.any():
                    d = cand
                    break
            except np.linalg.LinAlgError:
                pass
            lam = lam0 if lam == 0.0 else lam * 10.0
        if d is None or not d.any():
            break

        step = search()
        if step is None:
            break
        v, tv, ev, (pv, gv, (r, pi, scale)) = step
    floor = start.floor if v is v0 else _residual_floor(v, tv[1], h, tau)
    return v, r, pimax, scale, nit, _Eval(tv, ev, gv, floor)


def _damped(ab: np.ndarray, lam: float) -> np.ndarray:
    out = ab.copy()
    out[_BW, :] += lam
    return out


def _build_report(v, psi, cfg: FlowConfig, r, scale, nit,
                  natural_residual: float) -> KKTReport:
    active_tol = 10.0 * cfg.inner_tol * scale
    gap = v - psi
    act = gap <= active_tol
    act[0] = act[-1] = False
    inact = ~act
    inact[0] = inact[-1] = False
    stat = float(np.max(np.abs(r[inact]))) if inact.any() else 0.0
    mult = float(np.min(r[act])) if act.any() else math.inf
    return KKTReport(
        stationarity_residual=stat,
        multiplier_min=mult,
        active_set=np.nonzero(act)[0],
        scale=scale,
        natural_residual=natural_residual,
        active_tol=active_tol,
        inner_iterations=nit,
    )


def mm_step(f: GridFunction, obstacle: Obstacle, cfg: FlowConfig, *,
            carry: list | None = None):
    """One minimizing-movement step from f. Returns (iterate, KKTReport).

    Guarantees Phi(u) <= Phi(f), hence E_h(u) <= E_h(f) and
    ||u - f||^2/(2 tau) <= E_h(f) - E_h(u), and that u >= psi exactly.
    Raises StepConvergenceError (with the partial iterate attached) if the
    residual is still above inner_tol * scale after inner_max_iter.

    `carry` is for callers that chain steps (run_flow): a one-slot list
    owned by the caller. After a successful step its slot holds
    (u.values, tau, evaluation of u); a later call whose f.values is that
    very array, with the same tau, starts from the held evaluation instead
    of evaluating f again. The values array is a read-only copy, so identity
    means the same bits. Without `carry` every step evaluates f itself.
    """
    if f.grid != obstacle.grid:
        raise DomainError("iterate and obstacle on different grids")
    psi = obstacle.samples.values
    fv = f.values
    if fv[0] != 0.0 or fv[-1] != 0.0:
        raise DomainError("iterate must vanish at the endpoints")
    if np.any(fv < psi):
        raise DomainError("iterate must lie above the obstacle nodewise")
    h = f.grid.h
    held = carry[0] if carry else None
    start = held[2] if held and held[0] is fv and held[1] == cfg.tau else None
    v, r, pimax, scale, nit, ev = _mm_step_raw(fv, psi, h, cfg, start)
    if pimax > cfg.inner_tol * scale:
        raise StepConvergenceError(
            f"inner solver stopped at residual {pimax:.3e} "
            f"(tolerance {cfg.inner_tol * scale:.3e})",
            partial=v,
        )
    report = _build_report(v, psi, cfg, r, scale, nit, pimax)
    u = GridFunction(f.grid, v)
    if carry is not None:
        carry[0] = (u.values, cfg.tau, ev)
    return u, report


def run_flow(u0: GridFunction, obstacle: Obstacle, cfg: FlowConfig,
             stop_when_stall_rate: float | None = None) -> Trajectory:
    """Iterate mm_step until t_end (or until the energy decrease per unit
    time falls below `stop_when_stall_rate`). Records all diagnostics.
    """
    from .specialfn import c0  # local import keeps module load light

    grid = u0.grid
    if grid != obstacle.grid:
        raise DomainError("initial datum and obstacle on different grids")
    psi = obstacle.samples.values
    if np.any(u0.values < psi):
        raise DomainError("initial datum must lie above the obstacle")
    if u0.values[0] != 0.0 or u0.values[-1] != 0.0:
        raise DomainError("initial datum must vanish at the endpoints")

    traj = Trajectory(grid=grid, obstacle=obstacle, tau=cfg.tau)
    e0 = energy(u0)
    threshold = c0() ** 2 / 4.0
    if e0 >= threshold:
        traj.warnings.append(
            f"initial energy {e0:.6g} is not below the well-posedness "
            f"threshold c0^2/4 = {threshold:.6g}; run is outside the proven regime"
        )
    elif e0 > g(2.0) ** 2:
        traj.warnings.append(
            f"initial energy {e0:.6g} exceeds G(2)^2 = {g(2.0) ** 2:.6g}; the "
            "limit is the unique symmetric critical point but is not proven "
            "to be a minimizer at this energy"
        )
    if not obstacle.assumption1_ok:
        traj.warnings.append(
            "obstacle violates the sign assumption (negative ends, positive "
            "maximum); constrained-run interpretation is off"
        )
    if cfg.tau > 10.0 * grid.h**2:
        traj.warnings.append(
            f"tau={cfg.tau:.3g} exceeds 10 h^2 = {10 * grid.h**2:.3g}; the scheme "
            "stays energy-stable but variational-inequality residuals blur"
        )

    ctol = 10.0 * cfg.inner_tol * math.sqrt(grid.h)
    n_steps = int(round(cfg.t_end / cfg.tau))
    times = [0.0]
    iterates = [u0]
    energies = [e0]
    step_norms = []
    counts = [int(np.sum((u0.values - psi) <= ctol))]
    inner = []
    sym = [symmetry_residual(u0)]
    w = trapezoid_weights(grid)

    u = u0
    carry = [None]  # evaluation of the latest iterate, for the next step
    slow_streak = 0
    for k in range(n_steps):
        try:
            un, report = mm_step(u, obstacle, cfg, carry=carry)
        except StepConvergenceError as err:
            err.step_index = k
            raise
        dn = float(np.sqrt(np.sum(w * (un.values - u.values) ** 2)))
        times.append((k + 1) * cfg.tau)
        iterates.append(un)
        energies.append(carry[0][2].energy)
        step_norms.append(dn)
        counts.append(int(np.sum((un.values - psi) <= ctol)))
        inner.append(report.inner_iterations)
        sym.append(symmetry_residual(un))
        traj.kkt_reports.append(report)
        u = un
        if stop_when_stall_rate is not None:
            rate = (energies[-2] - energies[-1]) / cfg.tau
            # a transient plateau is not a stall; ask for a streak
            slow_streak = slow_streak + 1 if rate < stop_when_stall_rate else 0
            if slow_streak >= 3:
                break

    traj.times = np.array(times)
    traj.iterates = iterates
    traj.energies = np.array(energies)
    traj.step_norms = np.array(step_norms)
    traj.coincidence_counts = np.array(counts, dtype=int)
    traj.inner_iterations = np.array(inner, dtype=int)
    traj.symmetry_residuals = np.array(sym)
    return traj


# ---------------------------------------------------------------------------
# interpolations and diagnostics
# ---------------------------------------------------------------------------

def interpolate_constant(traj: Trajectory, t: float) -> GridFunction:
    """Piecewise-constant interpolant: u_{(k+1)tau} on (k tau, (k+1) tau],
    u_0 at t = 0."""
    if not (0.0 <= t <= traj.t_end):
        raise DomainError(f"t={t} outside [0, {traj.t_end}]")
    if t == 0.0:
        return traj.iterates[0]
    k = math.ceil(t / traj.tau - 1e-12)
    k = min(max(k, 1), traj.n_steps)
    return traj.iterates[k]


def interpolate_linear(traj: Trajectory, t: float) -> GridFunction:
    """Piecewise-linear interpolant between consecutive iterates."""
    if not (0.0 <= t <= traj.t_end):
        raise DomainError(f"t={t} outside [0, {traj.t_end}]")
    k = min(int(t / traj.tau), traj.n_steps - 1)
    lam = (t - k * traj.tau) / traj.tau
    a = traj.iterates[k].values
    b = traj.iterates[k + 1].values
    return GridFunction(traj.grid, (1.0 - lam) * a + lam * b)


@dataclass(frozen=True)
class DissipationReport:
    lhs: float              # E(u_K) + sum ||du||^2 / (2 tau)
    rhs: float              # E(u_0) + n_steps * slack
    slack_per_step: float
    dissipated_sum: float   # sum ||du||^2 / tau, bounded by 2 E(u_0)
    udot_bound: float       # 2 E(u_0)
    holds: bool
    udot_bound_holds: bool


def dissipation_report(traj: Trajectory, slack_per_step: float | None = None
                       ) -> DissipationReport:
    """Check E(u_K) + sum_k ||u_{k+1}-u_k||^2/(2 tau) <= E(u_0) + K * slack
    and the square-sum bound sum ||du||^2 / tau <= 2 E(u_0)."""
    if traj.n_steps < 1:
        raise DomainError("trajectory has no steps")
    if slack_per_step is None:
        slack_per_step = 1e-12 * max(1.0, traj.energies[0])
    sumsq = float(np.sum(traj.step_norms**2))
    lhs = float(traj.energies[-1]) + sumsq / (2.0 * traj.tau)
    rhs = float(traj.energies[0]) + traj.n_steps * slack_per_step
    dsum = sumsq / traj.tau
    bound = 2.0 * float(traj.energies[0])
    return DissipationReport(
        lhs=lhs, rhs=rhs, slack_per_step=slack_per_step,
        dissipated_sum=dsum, udot_bound=bound,
        holds=lhs <= rhs, udot_bound_holds=dsum <= bound + traj.n_steps * slack_per_step,
    )


@dataclass(frozen=True)
class HolderReport:
    constant: float
    max_violation: float
    pairs_checked: int
    holds: bool


def holder_check(traj: Trajectory, pairs=None, rng=None, n_pairs: int = 100
                 ) -> HolderReport:
    """Verify ||u(t) - u(s)|| <= D sqrt(|t-s|) on the linear interpolant,
    with D = sqrt(sum ||du||^2 / tau) computed from the run itself."""
    if traj.n_steps < 1:
        raise DomainError("trajectory has no steps")
    d = math.sqrt(float(np.sum(traj.step_norms**2)) / traj.tau)
    if pairs is None:
        rng = rng or np.random.default_rng(0)
        pairs = rng.uniform(0.0, traj.t_end, size=(n_pairs, 2))
    w = trapezoid_weights(traj.grid)
    worst = -math.inf
    for s, t in pairs:
        us = interpolate_linear(traj, float(s)).values
        ut = interpolate_linear(traj, float(t)).values
        dist = math.sqrt(float(np.sum(w * (ut - us) ** 2)))
        bound = d * math.sqrt(abs(t - s))
        worst = max(worst, dist - bound)
    tol = 1e-12 * max(1.0, d)
    return HolderReport(constant=d, max_violation=worst,
                        pairs_checked=len(pairs), holds=worst <= tol)


def coincidence_set(u: GridFunction, obstacle: Obstacle, tol: float) -> np.ndarray:
    """Indices where u - psi <= tol."""
    if u.grid != obstacle.grid:
        raise DomainError("operands on different grids")
    return np.nonzero(u.values - obstacle.samples.values <= tol)[0]


def touch_window(e0: float, inf_energy: float) -> float:
    """Length L0 such that on every time window of length L0 the flow must
    touch the obstacle, valid for initial energies below G(sqrt(2/3))^2:

        L0 = Ginv(sqrt(E0))^2 / (2 infE) * 1 / (5/(1 + Ginv(sqrt(E0))^2) - 3).
    """
    if not (inf_energy > 0.0):
        raise DomainError("inf_energy must be positive")
    limit = g(math.sqrt(2.0 / 3.0)) ** 2
    if not (0.0 <= e0 < limit):
        raise DomainError(
            f"touch window needs initial energy below G(sqrt(2/3))^2 = "
            f"{limit:.12g}, got {e0:.12g} (denominator would not be positive)"
        )
    s = g_inv(math.sqrt(e0))
    denom = 5.0 / (1.0 + s * s) - 3.0
    return s * s / (2.0 * inf_energy) / denom


def symmetry_residual(u: GridFunction) -> float:
    """max_i |u_i - u_{n-i}|; zero iff the nodal data is reversal-symmetric."""
    v = u.values
    return float(np.max(np.abs(v - v[::-1])))
