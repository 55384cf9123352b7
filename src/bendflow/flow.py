"""Minimizing-movements time stepper for the obstacle-constrained flow.

One step from f solves

    minimize  Phi(u) = E_h(u) + ||u - f||_{L2}^2 / (2 tau)
    over      u >= psi nodewise,  u(0) = u(1) = 0,

and certifies the discrete variational inequality through a KKT report:
stationarity on inactive nodes, nonnegative multiplier on active nodes.
Iterating the step yields a trajectory whose energies are nonincreasing and
which satisfies, step by step,

    ||u_{k+1} - u_k||^2 / (2 tau)  <=  E_h(u_k) - E_h(u_{k+1}),

the inequality all a-priori bounds of the scheme rest on; both hold up to
the line search's no-rise slack 1e-13 * max(1, E_h(u_k)) (see `mm_step`).

Every entry point (`mm_step`, `run_flow`) checks admissibility of its
datum through one helper, `_check_admissible`: same grid as the obstacle
(else GridMismatchError), above it nodewise and zero at both ends (else
DomainError). The proximal solve itself, `_mm_step_raw`, certifies its
exit: a residual still above inner_tol * scale raises StepConvergenceError
carrying the last iterate, whoever the caller is.

Inner solver: projected Newton on the box constraint, with the two pinned
ends treated as two more active bounds. The search direction solves the
exact banded Hessian of Phi on all n+1 nodes (with Levenberg damping if it
is not positive definite) in which every active row, the two ends always
among them, is replaced by the identity with the gap on the right-hand
side, so the ends take a step of exactly 0. A step ends, certified, once
max|pi| falls to a quarter of inner_tol * scale, or, before any Newton
system is built, if its start is already within inner_tol * scale.

Line search. Each Newton direction is first classed by the decrease of
Phi its full step predicts, sum w r (v1 - v): within the no-rise slack
1e-13 * max(1, |Phi|), where differences of Phi are rounding noise, the
step is quiet, else loud. A quiet step whose residual is within
inner_tol * scale ends there, certified. Otherwise the search walks the
projected arc once (alpha = 1, 1/2, 1/4, ..., 40 tries) and evaluates each
point at most once. A loud walk takes the first point with Armijo decrease
of Phi (constant 1e-4). A quiet walk stops comparing rounded values of
Phi, as Hager and Zhang's approximate Wolfe conditions do (SIAM J. Optim.
16, 2005): it takes the first point whose exact change of Phi, formed from
the stencil tables of the step without subtracting two values of Phi
(`_phi_change`), is not positive and whose residual is at most half of
the iterate's. Failing that, either walk takes its first Armijo point,
else the first point whose Phi does not rise beyond the slack and whose
residual is at most 0.9 of the iterate's. Gradient and KKT arrays are
built only for points a residual test may read. The walk ends at the
first point equal to the iterate: rounding of the arc is monotone in
alpha, so every later point equals it too, and no test can take it.

Reversal: every linear solve is mirror-averaged and every stencil is
palindromic, so reversal-symmetric data stays symmetric to the bit, and
so does each Newton system built from it. On other data the step commutes
with reversal only up to roundoff: the whole-array sums in Phi and its
exact change, in the predicted and Armijo decreases and in the descent
test are not taken in palindromic order, so a decision near its threshold
can go differently for f and its reversal. A Newton system whose upper
band rows equal those of its mirror bit for bit, with a palindromic
right-hand side, is factored once: the mirrored solve would see the same
bits, so its result is the first one reversed. Other systems are factored
twice. Pinning the ends leaves the outermost (offset 3) bands exactly
zero, and a zero band pair is left out of the factorisation.

One stencil pass per trial point: the step builds the tables (u', u'') of
each trial point once, and every consumer at that point reads them: Phi,
the KKT arrays, the residual floor of the starting point and, once the
point is accepted, the next Hessian. An exact change of Phi builds the
tables of its step dv = vt - v, once. Within a step `_derivative_tables`
therefore runs exactly as often as `_energy_raw` and `_phi_change`
together.

One evaluation per accepted iterate: the step returns the evaluation of the
point it accepts (tables, E_h, grad E_h, residual floor), and `run_flow`
hands it to the next step, which starts from that point, and takes the
recorded energy from it. Phi at the starting point is formed only once a
Newton iteration starts, since only the line search reads it. A step at
rest, which accepts its starting point after no Newton iteration, therefore
builds no tables and evaluates none of E_h, its gradient and Phi. It is
still certified: its KKT arrays and report are built from its own arrays,
as for any step.

Rest: a step at rest whose result has the bits of its input returns the
input object itself. Within `run_flow` the obstacle and the config are
fixed and the step is a pure function of them and its input, so every
later step would return that input too: from there on `run_flow` records
that iterate and that step's report for each remaining step, with step
norm 0 and its input's contact count and symmetry residual, and calls
`mm_step` no more. Once the flow is at rest, a step costs no solver work.
"""

from __future__ import annotations

import math
import traceback
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
from .errors import DomainError, GridMismatchError, StepConvergenceError
from .specialfn import g, g_inv

_BW = _HESS_BW
_ARMIJO_C = 1e-4  # sufficient-decrease constant of the line search
_QUIET_DROP = 0.5  # residual factor a quiet walk asks for (0.9 lets it stall)
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
    """Bitwise equality of two float arrays of one shape (so -0.0 differs
    from 0.0)."""
    return a.tobytes() == b.tobytes()


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


def _phi_change(vt: np.ndarray, v: np.ndarray, tables, f: np.ndarray,
                h: float, tau: float) -> float:
    """Phi(vt) - Phi(v), free of the cancellation of subtracting two
    evaluations of Phi, from the stencil tables of dv = vt - v.

    With (u', u'') = `tables` of v, s = 1 + u'^2 and (du', du'') the tables
    of dv, the energy density q = u''^2 s^(-5/2) changes by

        du''(2u'' + du'') s_t^(-5/2) + q expm1(-5/2 log1p(ds/s)),

    ds = du'(2u' + du') and s_t = s + ds; the proximal part changes by
    1/(2 tau) sum w dv ((vt - f) + (v - f)).
    """
    w = _trapezoid_weights(len(v) - 1, h)
    dv = vt - v
    dp, dpp = _derivative_tables(dv, h)
    up, upp = tables
    s = 1.0 + up**2
    ds = dp * (2.0 * up + dp)
    dq = (dpp * (2.0 * upp + dpp) * (s + ds) ** -2.5
          + upp**2 * s**-2.5 * np.expm1(-2.5 * np.log1p(ds / s)))
    return (float(np.sum(w * dq))
            + 0.5 / tau * float(np.sum(w * dv * ((vt - f) + (v - f)))))


@dataclass(frozen=True)
class _Eval:
    """One evaluation of an iterate: its stencil tables (u', u''), E_h,
    grad E_h and residual floor (the floor for one tau)."""

    tables: tuple[np.ndarray, np.ndarray]
    energy: float
    grad: np.ndarray
    floor: float


def _kkt_arrays(v, ge, f, psi, tau, floor_over_tol: float):
    udot = (v - f) / tau
    r = ge + udot
    r[0] = r[-1] = 0.0
    scale = (1.0 + float(np.abs(ge).max()) + float(np.abs(udot).max())
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
    of inner_tol * scale, the headroom being for the certificate. Two stops
    end the step at inner_tol * scale itself: a start already within it
    builds no Newton system, and a quiet Newton step (one whose predicted
    decrease of Phi is within Phi's rounding slack, see the module
    docstring) ends once within it. A residual above inner_tol * scale at
    exit raises StepConvergenceError with the last iterate as `partial`, so
    every caller (mm_step, the polish of `critical_profile`) gets either a
    converged point or a typed error.
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
    fot = start.floor / cfg.inner_tol
    r, pi, scale = _kkt_arrays(v, gv, f, psi, tau, fot)

    def arc(alpha):
        """The point max(psi, v + alpha d) of the projected arc, pinned."""
        vt = np.maximum(psi, v + alpha * d)
        vt[0] = vt[-1] = 0.0
        return vt

    def search(quiet):
        """Walk the projected arc, alpha = 1, b, b^2, ... (40 tries),
        evaluating each point once, and return (point, tables, E_h,
        min(Phi, pv), grad E_h, KKT arrays) of
        - on a quiet step, the first point whose exact Phi change
          (`_phi_change`) is not positive and whose residual is at most
          _QUIET_DROP times v's;
        - else the first point with Armijo decrease of Phi;
        - else the first point whose Phi does not rise beyond the slack
          and whose residual is at most 0.9 times v's;
        - else None.
        A loud step stops at its first Armijo point. Gradient and KKT
        arrays are built only for points a residual test may read. The
        walk ends at the first point equal to v: every later point equals
        v too, and no test takes v (Armijo needs Phi below pv, which is at
        most Phi(v); the other two a residual below v's)."""
        armijo = kept = None
        alpha = 1.0
        for _ in range(40):
            vt = arc(alpha)
            if np.array_equal(vt, v):
                break
            alpha *= _BACKTRACK
            tt, et, pt = trial(vt)
            dec = float(np.sum(w * r * (vt - v)))
            is_armijo = (armijo is None and pt < pv
                         and pt <= pv + _ARMIJO_C * dec)
            is_kept = kept is None and pt <= pv + slack
            if not (quiet or is_armijo or is_kept):
                continue
            gt = _energy_gradient_raw(*tt, h)
            kkt = _kkt_arrays(vt, gt, f, psi, tau, fot)
            point = vt, tt, et, min(pt, pv), gt, kkt
            if is_armijo and not quiet:
                return point
            pit = float(np.abs(kkt[1]).max())
            if (quiet and pit <= _QUIET_DROP * pimax
                    and _phi_change(vt, v, tv, f, h, tau) <= 0.0):
                return point
            if is_armijo:
                armijo = point
            if is_kept and pit <= 0.9 * pimax:
                kept = point
        return armijo or kept

    nit = 0
    while True:
        pimax = float(np.abs(pi).max())
        tol = cfg.inner_tol * scale
        if pimax <= (0.25 if nit else 1.0) * tol or nit == cfg.inner_max_iter:
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

        if nit == 1:
            pv = phi(v, ev)  # Phi at the start, read only by the search
        # A step whose full length predicts a change of Phi within the
        # no-rise slack is quiet: Phi cannot tell its points apart, so a
        # quiet step already within tolerance ends here, certified.
        slack = 1e-13 * max(1.0, abs(pv))
        quiet = abs(float(np.sum(w * r * (arc(1.0) - v)))) <= slack
        if quiet and pimax <= tol:
            break
        step = search(quiet)
        if step is None:
            break
        v, tv, ev, pv, gv, (r, pi, scale) = step
    if pimax > tol:
        raise StepConvergenceError(
            f"inner solver stopped at residual {pimax:.3e} "
            f"(tolerance {tol:.3e})",
            partial=v,
        )
    if v is not v0:
        start = _Eval(tv, ev, gv, _residual_floor(v, tv[1], h, tau))
    return v, r, pimax, scale, nit, start


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
    active_set = act.nonzero()[0]
    active_set.setflags(write=False)
    return KKTReport(
        stationarity_residual=float(np.abs(r).max(where=inact, initial=0.0)),
        multiplier_min=float(r.min(where=act, initial=math.inf)),
        active_set=active_set,
        scale=scale,
        natural_residual=natural_residual,
        active_tol=active_tol,
        inner_iterations=nit,
    )


def _check_admissible(u: GridFunction, obstacle: Obstacle, what: str) -> None:
    """Raise unless u lives on the obstacle's grid, lies above it nodewise
    and vanishes at both ends; `what` names u in the message."""
    if u.grid != obstacle.grid:
        raise GridMismatchError(f"{what} and obstacle on different grids")
    if (u.values < obstacle.samples.values).any():
        raise DomainError(f"{what} must lie above the obstacle")
    if u.values[0] != 0.0 or u.values[-1] != 0.0:
        raise DomainError(f"{what} must vanish at the endpoints")


def mm_step(f: GridFunction, obstacle: Obstacle, cfg: FlowConfig, *,
            carry: list | None = None):
    """One minimizing-movement step from f. Returns (iterate, KKTReport).

    Guarantees Phi(u) <= Phi(f) + s, with s = 1e-13 * max(1, E_h(f)) the
    line search's no-rise slack (E_h rose within s in 3 of the 154 runs that
    finish on the 165-case ladder, c in 0.45..0.55 x N in 200..3200 x tau in
    1e-3..1e-7, 20 steps: all at tau = 1e-3, by up to 4.3e-15), hence
    E_h(u) <= E_h(f) + s and ||u - f||^2/(2 tau) <= E_h(f) - E_h(u) + s,
    and that u >= psi exactly.
    A step that does not move (no Newton iteration, result bitwise equal to
    f.values) returns f itself, with a report certifying it like any other.
    Raises GridMismatchError or DomainError if f is not admissible, and
    StepConvergenceError (from `_mm_step_raw`, with the partial iterate
    attached) if the residual is still above inner_tol * scale after
    inner_max_iter.

    `carry` is for callers that chain steps (run_flow): a one-slot list
    owned by the caller, holding (u.values, tau, evaluation of u) after a
    successful step. A later call whose f.values is that very array (values
    arrays are read-only copies, so identity means the same bits), with the
    same tau, starts from the held evaluation instead of evaluating f again.
    """
    psi = obstacle.samples.values
    fv = f.values
    _check_admissible(f, obstacle, "iterate")
    held = carry[0] if carry else None
    start = held[2] if held and held[0] is fv and held[1] == cfg.tau else None
    v, r, pimax, scale, nit, ev = _mm_step_raw(fv, psi, f.grid.h, cfg, start)
    report = _build_report(v, psi, cfg, r, scale, nit, pimax)
    u = f if nit == 0 and _same_bits(v, fv) else GridFunction(f.grid, v)
    if carry is not None:
        carry[0] = (u.values, cfg.tau, ev)
    return u, report


def run_flow(u0: GridFunction, obstacle: Obstacle, cfg: FlowConfig,
             stop_when_stall_rate: float | None = None) -> Trajectory:
    """Iterate mm_step until t_end (or until the energy decrease per unit
    time falls below `stop_when_stall_rate`). Records all diagnostics.

    The trajectory holds one KKTReport per step. From the first step that
    returns its input object on, every step records that iterate and that
    report without calling mm_step (see the module docstring, "Rest"). A
    StepConvergenceError leaves tagged with `step_index`, its `partial`
    iterate kept and the solver frames it passed through cleared.
    """
    from .specialfn import c0  # local import keeps module load light

    _check_admissible(u0, obstacle, "initial datum")
    grid = u0.grid
    psi = obstacle.samples.values

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
    rest = False
    slow_streak = 0
    for k in range(n_steps):
        if not rest:
            try:
                un, report = mm_step(u, obstacle, cfg, carry=carry)
            except StepConvergenceError as err:
                err.step_index = k
                # the finished solver frames hold the step's work arrays
                traceback.clear_frames(err.__traceback__)
                raise
            rest = un is u
        times.append((k + 1) * cfg.tau)
        iterates.append(un)
        energies.append(carry[0][2].energy)
        if rest:  # the step did not move: its diagnostics are u's
            step_norms.append(0.0)
            counts.append(counts[-1])
            sym.append(sym[-1])
        else:
            dn = float(np.sqrt(np.sum(w * (un.values - u.values) ** 2)))
            step_norms.append(dn)
            counts.append(int(np.sum((un.values - psi) <= ctol)))
            sym.append(symmetry_residual(un))
        inner.append(report.inner_iterations)
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
