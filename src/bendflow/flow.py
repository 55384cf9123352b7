"""Minimizing-movements time stepper for the obstacle-constrained flow.

One step from f solves

    minimize  Phi(u) = E_h(u) + ||u - f||_{L2}^2 / (2 tau)
    over      u >= psi nodewise,  u(0) = u(1) = 0,

by projected Newton (`_mm_step_raw`), and certifies the discrete
variational inequality through a KKT report: stationarity on inactive
nodes, nonnegative multiplier on active nodes. Iterating the step yields a
trajectory whose energies are nonincreasing and which satisfies, step by
step,

    ||u_{k+1} - u_k||^2 / (2 tau)  <=  E_h(u_k) - E_h(u_{k+1}),

the inequality all a-priori bounds of the scheme rest on; both hold up to
the line search's no-rise slack 1e-13 * max(1, E_h(u_k)) (see `mm_step`).

Every entry point (`mm_step`, `run_flow`) checks admissibility of its
datum through one helper, `_check_admissible`: same grid as the obstacle
(else GridMismatchError), above it nodewise and zero at both ends (else
DomainError). A step that does not certify its result raises
StepConvergenceError carrying its last iterate.

Reversal: every linear solve is mirror-averaged (`_solve_banded_mirror`)
and every stencil is palindromic, so reversal-symmetric data stays
symmetric to the bit, and so does each Newton system built from it. On
other data the step commutes with reversal only up to roundoff: the
whole-array sums in Phi and its exact change, in the predicted and Armijo
decreases and in the descent test are not taken in palindromic order, so
a decision near its threshold can go differently for f and its reversal.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import traceback
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

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
from .specialfn import c0, g, g_inv

_BW = _HESS_BW - 1  # half-width of the pinned Newton system (`_mm_step_raw`)
_ARMIJO_C = 1e-4  # sufficient-decrease constant of the line search
_QUIET_DROP = 0.5  # residual factor a quiet walk asks for (0.9 lets it stall)
_BACKTRACK = 0.5  # step-length factor between line-search tries
_EPS = float(np.finfo(float).eps)


def _lapack_band_cholesky():
    """LAPACK dpbtrf and dpbtrs from scipy's compiled LAPACK wrapper, the
    extension scipy/linalg/_flapack, loaded from its file: the routines
    that scipy.linalg.get_lapack_funcs(("pbtrf", "pbtrs")) returns for
    float64, without the 0.3 s of imports that scipy.linalg's package
    brings. The scipy package is located by importlib.util.find_spec,
    which does not import it, and the extension is registered under its
    own name, so a later import of scipy.linalg shares it."""
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec("scipy")
        folder = os.path.join(spec.submodule_search_locations[0], "linalg")
        paths = [os.path.join(folder, "_flapack" + suffix)
                 for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        path = next((p for p in paths if os.path.exists(p)), None)
        if path is None:
            raise ImportError(f"no {name} extension in {folder}")
        loader = importlib.machinery.ExtensionFileLoader(name, path)
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_file_location(name, path, loader=loader))
        loader.exec_module(module)
        sys.modules[name] = module
    return module.dpbtrf, module.dpbtrs


# double precision banded Cholesky factorisation, and solve with the factor
_PBTRF, _PBTRS = _lapack_band_cholesky()


@dataclass(frozen=True)
class FlowConfig:
    """Time step, horizon, inner-solver tolerance and per-step iteration cap.

    The horizon is a whole number of steps, `n_steps`: a t_end whose ratio
    to tau is farther than 1e-9 * n_steps from an integer is a DomainError,
    so a run never stops short of t_end or steps past it.
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
        k = self.t_end / self.tau
        if not (math.isfinite(k)
                and abs(k - self.n_steps) <= 1e-9 * self.n_steps):
            raise DomainError(f"t_end = {self.t_end!r} is not a whole number "
                              f"of steps of tau = {self.tau!r}")
        if not (self.inner_tol > 0):
            raise DomainError("inner_tol must be positive")
        if not (type(self.inner_max_iter) is int and self.inner_max_iter >= 0):
            raise DomainError(f"inner_max_iter must be an integer >= 0, "
                              f"got {self.inner_max_iter!r}")

    @property
    def n_steps(self) -> int:
        """The number of steps of tau to t_end."""
        return int(round(self.t_end / self.tau))


@dataclass(frozen=True)
class KKTReport:
    """Certificate of the discrete variational inequality for one step.

    r = (u - f)/tau + grad E_h(u) is the nodal residual. Interior nodes
    with gap u - psi <= 10 * inner_tol * scale (a bound that dominates the
    solver slack) are active; a valid step has |r| <= tol on inactive nodes
    and r >= -tol on active ones, with tol = inner_tol * scale and scale
    the natural size 1 + ||grad E_h||_inf + ||udot||_inf. `active_count`
    is the number of active nodes; no field is an array.
    """

    stationarity_residual: float
    multiplier_min: float
    active_count: int
    scale: float
    natural_residual: float
    inner_iterations: int

    def satisfies(self, inner_tol: float) -> bool:
        tol = inner_tol * self.scale
        return self.stationarity_residual <= tol and self.multiplier_min >= -tol


@dataclass
class Trajectory:
    """Flow iterates, iterate k at time k tau, with per-step diagnostics.
    The last `rest_steps` steps are the rest block: they repeat one iterate
    and one report (0 without a step at rest)."""

    grid: UniformGrid
    tau: float
    iterates: list[GridFunction] = field(default_factory=list)
    energies: np.ndarray = field(default_factory=lambda: np.zeros(0))
    step_norms: np.ndarray = field(default_factory=lambda: np.zeros(0))
    coincidence_counts: np.ndarray = field(default_factory=lambda: np.zeros(0, int))
    symmetry_residuals: np.ndarray = field(default_factory=lambda: np.zeros(0))
    kkt_reports: list[KKTReport] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    rest_steps: int = 0

    @property
    def n_steps(self) -> int:
        return len(self.iterates) - 1

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.tau

    @property
    def t_end(self) -> float:
        return self.n_steps * self.tau

    @property
    def inner_iterations(self) -> np.ndarray:
        return self.report_column("inner_iterations", int)

    @property
    def distinct_reports(self) -> list[KKTReport]:
        """Each report once: the moving steps', then the rest report."""
        return self.kkt_reports[:len(self.kkt_reports) - self.rest_steps + 1]

    def report_column(self, name: str, dtype=float) -> np.ndarray:
        """The KKTReport field `name` per step: the distinct reports'
        values, the rest report's repeated over its block by np.full."""
        values = np.array([getattr(r, name) for r in self.distinct_reports], dtype)
        if not self.rest_steps:
            return values
        return np.concatenate([values, np.full(self.rest_steps - 1, values[-1])])


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
    """Banded Cholesky solve of the system whose upper band rows are
    `upper`, outermost first: the solution LAPACK dpbsv gives.

    dpbsv factors A = U^T U in upper band storage (dpbtrf) and then solves
    with U (dpbtrs). Here dpbtrf factors the same values laid out in
    LAPACK's lower band storage, where row k is upper row kd - k shifted
    left by k, in a Fortran-ordered array, in place, into L = U^T. Both
    forms give each entry the same rank-one updates a - x_p x_q, with the
    same two factors in the same column order, so L has the bits of U; the
    lower form runs them on unit-stride columns, where the upper form reads
    rows of stride kd, and factors faster. L is laid back in upper storage
    for dpbtrs, the routine dpbsv calls. One caveat: OpenBLAS skips an
    update whose column multiplier is exactly zero, which is x_q in the
    upper form and x_p in the lower, so where the band holds exact zeros
    the factor and the solution can differ from dpbsv's in the sign of a
    zero, never in value. Raises np.linalg.LinAlgError if A is not
    positive definite.
    """
    kd, n = upper.shape[0] - 1, upper.shape[1]
    lower = np.empty((n, kd + 1)).T
    for k in range(kd + 1):
        lower[k, :n - k] = upper[kd - k, k:]
    factor, info = _PBTRF(lower, lower=1, overwrite_ab=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}th leading minor not positive definite")
    laid = np.empty((n, kd + 1)).T
    for k in range(kd + 1):
        laid[kd - k, k:] = factor[k, :n - k]
    return _PBTRS(laid, b)[0]


def _solve_banded_mirror(ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cholesky solve averaged with its mirrored twin.

    For any symmetric banded system the average of M^{-1} b and the
    reversal of (RMR)^{-1} (Rb) equals M^{-1} b exactly in real arithmetic;
    averaging the two makes the floating-point result commute with
    reversal. When the upper band rows of RMR equal those of M bit for bit
    and b is a palindrome, the mirrored solve would repeat the first on the
    same bits, so its result is the first one reversed and only one
    factorisation is done (b, the shorter, is compared first). Raises
    np.linalg.LinAlgError if M is not positive definite. The system must be
    finite: the Newton loop tests each of its systems once, before the
    first solve.
    """
    upper = ab[:_BW + 1]
    mirrored = _mirror_bands(ab)[:_BW + 1]
    d = _cholesky_solve(upper, b)
    if _same_bits(b, b[::-1]) and _same_bits(upper, mirrored):
        return 0.5 * (d + d[::-1])
    return 0.5 * (d + _cholesky_solve(mirrored, b[::-1])[::-1])


def _pin_active(ab: np.ndarray, rhs: np.ndarray, act: np.ndarray,
                gap: np.ndarray) -> None:
    """Replace rows/columns of active indices by the identity; the Newton
    step then moves them exactly onto the bound. The pinned ends are active
    with gap 0, so their step is exactly 0. Entries are set by index: the
    indices are few, where a boolean mask would pass over all n + 1 nodes
    at each assignment."""
    ni = ab.shape[1]
    for k in range(1, _BW + 1):
        j = (act[:ni - k] | act[k:]).nonzero()[0]  # node j or j + k active
        ab[_BW + k][j] = 0.0  # H[j + k, j], stored in column j
        ab[_BW - k][j + k] = 0.0  # H[j, j + k], stored in column j + k
    i = act.nonzero()[0]
    ab[_BW][i] = 1.0
    rhs[i] = -gap[i]


def _residual_floor(v: np.ndarray, upp: np.ndarray, h: float, tau: float) -> float:
    """Smallest meaningful stationarity residual at this state.

    Nodal values carry relative rounding eps, so the best representable
    point near the true minimizer has a residual of about
    ||hessian|| * eps * ||v||; certifying below that is noise. The row-sum
    bound 32/h^4 covers the leading fourth-order block, the u''-dependent
    term the first-order coupling, and 1/tau the proximal part. `upp` is
    u'' of v from `_derivative_tables`.
    """
    row_bound = 32.0 / h**4 + 20.0 * float((upp**2).max()) / h**2 + 1.0 / tau
    amp = max(float(np.abs(v).max()), h * h)
    return _EPS * row_bound * amp


@dataclass(frozen=True)
class _Eval:
    """One evaluation of an iterate: its stencil tables (u', u''), E_h,
    grad E_h and the powers (s^(-5/2), s^(-7/2)) of s = 1 + u'^2 that the
    energy and the gradient formed. None depends on tau."""

    tables: tuple[np.ndarray, np.ndarray]
    energy: float
    grad: np.ndarray
    powers: tuple[np.ndarray, np.ndarray]


def _evaluate(u: np.ndarray, h: float) -> _Eval:
    """The evaluation of the nodal values u: one stencil pass, E_h and
    s^(-5/2) from its tables, then grad E_h and s^(-7/2) from those.

    Every reader at a point shares its one pass and its powers: Phi, the
    KKT arrays, the residual floor, the quiet test's noise, the exact
    change of Phi and, once the point is accepted, the next Hessian (which
    forms only s^(-9/2)). Each power is the expression any of its readers
    would form, so sharing it moves no bit. The line search evaluates its
    trial points in this order, and forms the gradient only where a
    residual test reads it. Values that overflow come out inf or NaN with
    no numpy warning: the step's start tests them and names the failure."""
    with np.errstate(over="ignore", invalid="ignore"):
        tables = _derivative_tables(u, h)
        e, s25 = _energy_raw(*tables, h)
        g, s35 = _energy_gradient_raw(*tables, s25, h)
    return _Eval(tables, e, g, (s25, s35))


def _phi_change(vt: np.ndarray, v: np.ndarray, ev: _Eval, f: np.ndarray,
                h: float, tau: float) -> float:
    """Phi(vt) - Phi(v), free of the cancellation of subtracting two
    evaluations of Phi, from the evaluation `ev` of v and the stencil
    tables of dv = vt - v, built here once.

    With (u', u'') the tables of v, s = 1 + u'^2, s^(-5/2) as the energy
    formed it at v, and (du', du'') the tables of dv, the energy density
    q = u''^2 s^(-5/2) changes by

        du''(2u'' + du'') s_t^(-5/2) + q expm1(-5/2 log1p(ds/s)),

    ds = du'(2u' + du') and s_t = s + ds; the proximal part changes by
    1/(2 tau) sum w dv ((vt - f) + (v - f)).
    """
    w = _trapezoid_weights(len(v) - 1, h)
    dv = vt - v
    dp, dpp = _derivative_tables(dv, h)
    up, upp = ev.tables
    s = 1.0 + up**2
    ds = dp * (2.0 * up + dp)
    dq = (dpp * (2.0 * upp + dpp) * (s + ds) ** -2.5
          + upp**2 * ev.powers[0] * np.expm1(-2.5 * np.log1p(ds / s)))
    return (float((w * dq).sum())
            + 0.5 / tau * float((w * dv * ((vt - f) + (v - f))).sum()))


def _kkt_arrays(v, ge, f, psi, tau, floor_over_tol: float):
    """(r, pi, scale) at the point v of the step from f: the residual, the
    natural-map residual and the scale of KKTReport. r and pi end in +0.0
    with no end assigned here: ge's ends are +0.0 (`_energy_gradient_raw`),
    the step pins every point it evaluates to +0.0 at its ends, and an
    admissible f ends in +0.0 or -0.0."""
    udot = (v - f) / tau
    r = ge + udot
    scale = (1.0 + float(np.abs(ge).max()) + float(np.abs(udot).max())
             + floor_over_tol)
    pi = v - np.maximum(psi, v - r)
    return r, pi, scale


def _mm_step_raw(f: np.ndarray, psi: np.ndarray, h: float, cfg: FlowConfig,
                 start: _Eval | None = None):
    """Solve one proximal step; returns (v, KKTReport of v, evaluation of v).

    `start`, if given, is the evaluation of f, which must then be a point a
    previous step accepted (so f is its own projection onto the
    constraints); else f is evaluated here. The residual floor, which
    depends on tau, is formed here either way.

    Projected Newton on the box constraint, with the two pinned ends as two
    more active bounds. The direction solves the exact Hessian of Phi on
    all n+1 nodes, Levenberg-damped until the solve gives descent, with
    every active row, the ends among them, replaced by the identity and
    the gap on the right-hand side, so the ends take a step of exactly 0.
    Only the ends' one-sided stencils fill the Hessian's offset-3 bands,
    and pinning the ends clears them: the system is pentadiagonal, and the
    step keeps only the Hessian's five inner bands. It is dropped once its
    direction is solved for.

    The step drives the natural-map residual pi = v - Pi_box(v - r) below
    a quarter of inner_tol * scale, the headroom being for the
    certificate. A start whose energy or gradient is not finite raises
    StepConvergenceError, saying so, before any of it. The Newton loop
    then ends for one of five reasons:
    - the residual is within tolerance at the loop's top: inner_tol *
      scale at the start, where no Newton system is built, a quarter of it
      after an iteration;
    - inner_max_iter iterations are done;
    - there is no descent direction: the Newton system is not finite, and
      is not solved, or none of 40 tries (undamped, then damped by 1e-12
      of its largest diagonal entry, tenfold more at each try) factors and
      gives descent;
    - the direction is quiet, and the residual within inner_tol * scale;
    - the search takes no point.
    A zero direction needs a zero right-hand side, r = 0 on every free
    node and a zero gap on every active one; then pi = 0, and the loop's
    top has ended the step. A direction is quiet when the decrease of Phi
    its full step predicts, dec(1) = sum w r (v1 - v), is within Phi's
    rounding: the no-rise slack 1e-13 * max(1, |Phi|), or else the noise

        4 eps max|v| / h^2 * sum w 2 |u''| (1 + u'^2)^(-5/2),

    the first-order rounding of E_h through u'' (forming u'' costs about
    4 eps max|v| / h^2, and the density u''^2 (1 + u'^2)^(-5/2) moves by
    2 |u''| (1 + u'^2)^(-5/2) per unit of u''). The noise only classes
    directions; the search's tests and mm_step's guarantee keep the slack.
    Phi at the start is formed once a Newton iteration starts, since only
    the search reads it.

    A residual at exit that is not within inner_tol * scale (a NaN is not)
    raises StepConvergenceError with the last iterate as `partial`, so
    every caller (mm_step, the polish of `critical_profile`) gets either a
    converged point or a typed error. A certified exit returns v's report
    from v's own KKT arrays and the evaluation the search accepted v with.
    """
    n = len(f) - 1
    tau = cfg.tau
    w = _trapezoid_weights(n, h)
    w_tau = w / tau  # the proximal term's share of each Newton system

    def phi(u, e):
        return e + 0.5 / tau * float((w * (u - f) ** 2).sum())

    v = np.maximum(f, psi)
    v[0] = v[-1] = 0.0
    ev = _evaluate(v, h) if start is None else start
    if not (math.isfinite(ev.energy) and np.isfinite(ev.grad).all()):
        raise StepConvergenceError("the step's start has an energy or "
                                   "gradient that is not finite", partial=v)
    fot = _residual_floor(v, ev.tables[1], h, tau) / cfg.inner_tol
    r, pi, scale = _kkt_arrays(v, ev.grad, f, psi, tau, fot)

    def arc(alpha):
        """The point max(psi, v + alpha d) of the projected arc, pinned."""
        vt = np.maximum(psi, v + alpha * d)
        vt[0] = vt[-1] = 0.0
        return vt

    def search(quiet, vt, dec):
        """Walk the projected arc, alpha = 1, b, b^2, ... (40 tries),
        evaluating each point once, and return the step's next state
        (point, its evaluation, min(Phi, pv), its KKT arrays) at
        - on a quiet step, the first point whose exact Phi change
          (`_phi_change`) is not positive and whose residual is at most
          _QUIET_DROP times v's;
        - else the first point with Armijo decrease of Phi (constant
          _ARMIJO_C);
        - else the first point whose Phi does not rise beyond the slack
          and whose residual is at most 0.9 times v's;
        - else None.
        The first point, vt = arc(1), and its predicted decrease
        dec = sum w r (vt - v) are the quiet test's. A loud step stops at
        its first Armijo point. A quiet walk, as Hager and Zhang's
        approximate Wolfe conditions do (SIAM J. Optim. 16, 2005), stops
        comparing rounded values of Phi, which cannot tell its points
        apart. Gradient and KKT arrays are built only for points a residual
        test may read. The walk ends at the first point equal to v:
        rounding of the arc is monotone in alpha, so every later point
        equals v too, and no test takes v (Armijo needs Phi below pv, which
        is at most Phi(v); the other two a residual below v's)."""
        armijo = kept = None
        alpha = 1.0
        for _ in range(40):
            if alpha < 1.0:
                vt = arc(alpha)
                dec = float((wr * (vt - v)).sum())
            if (vt == v).all():
                break
            alpha *= _BACKTRACK
            tt = _derivative_tables(vt, h)
            et, s25 = _energy_raw(*tt, h)
            pt = phi(vt, et)
            is_armijo = (armijo is None and pt < pv
                         and pt <= pv + _ARMIJO_C * dec)
            is_kept = kept is None and pt <= pv + slack
            if not (quiet or is_armijo or is_kept):
                continue
            gt, s35 = _energy_gradient_raw(*tt, s25, h)
            kkt = _kkt_arrays(vt, gt, f, psi, tau, fot)
            point = vt, _Eval(tt, et, gt, (s25, s35)), min(pt, pv), kkt
            if is_armijo and not quiet:
                return point
            pit = float(np.abs(kkt[1]).max())
            if (quiet and pit <= _QUIET_DROP * pimax
                    and _phi_change(vt, v, ev, f, h, tau) <= 0.0):
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

        ab = _energy_hessian_bands(*ev.tables, *ev.powers, h)[1:-1]
        ab[_BW, :] += w_tau
        gap = v - psi
        act = (gap <= min(1e-9, pimax)) & (r > 0)
        act[0] = act[-1] = True  # the pinned ends sit on their bound
        gap[0] = gap[-1] = 0.0
        wr = w * r  # read by rhs, the descent test and every predicted decrease
        rhs = -wr
        _pin_active(ab, rhs, act, gap)

        if not (np.isfinite(ab).all() and np.isfinite(rhs).all()):
            break  # a system that is not finite has no descent direction
        d = None
        diag = ab[_BW].copy()  # the undamped diagonal
        lam = 0.0
        for _ in range(40):
            try:
                cand = _solve_banded_mirror(ab, rhs)
                if float((wr * cand).sum()) < 0.0:
                    d = cand
                    break
            except np.linalg.LinAlgError:
                pass  # not positive definite
            # damping starts at 1e-12 of the largest diagonal entry
            lam = 1e-12 * float(diag.max()) if lam == 0.0 else lam * 10.0
            ab[_BW] = diag + lam
        del ab, diag, rhs  # the system is read no more; the search runs without it
        if d is None:
            break

        if nit == 1:
            pv = phi(v, ev.energy)
        # quiet: the full step's predicted decrease is within Phi's rounding
        slack = 1e-13 * max(1.0, abs(pv))
        v1 = arc(1.0)
        dec1 = float((wr * (v1 - v)).sum())
        quiet = abs(dec1) <= slack or abs(dec1) <= (
            4.0 * _EPS * float(np.abs(v).max()) / (h * h) * float(
                (_trapezoid_weights(n, h, 2.0) * np.abs(ev.tables[1])
                 * ev.powers[0]).sum()))
        if quiet and pimax <= tol:
            break
        step = search(quiet, v1, dec1)
        if step is None:
            break
        v, ev, pv, (r, pi, scale) = step
    if not pimax <= tol:
        raise StepConvergenceError(
            f"inner solver stopped at residual {pimax:.3e} "
            f"(tolerance {tol:.3e})",
            partial=v,
        )
    return v, _build_report(v, psi, cfg, r, scale, nit, pimax), ev


def _vi_split(v, psi, r, gap_tol: float):
    """The variational inequality's certificate split of the residual r at
    v over psi: (max |r| over inactive interior nodes, min r over active
    interior nodes, the number of active nodes). An interior node is
    active when its gap v - psi is at most gap_tol; the pinned ends are
    never active. r must end in +0.0, as the residuals of both reports do,
    so the ends add nothing to the max. No inactive node gives 0, no
    active node inf."""
    act = v - psi <= gap_tol
    act[0] = act[-1] = False
    return (float(np.abs(r).max(where=~act, initial=0.0)),
            float(r.min(where=act, initial=math.inf)),
            int(np.count_nonzero(act)))


def _build_report(v, psi, cfg: FlowConfig, r, scale, nit,
                  natural_residual: float) -> KKTReport:
    # the split is (stationarity_residual, multiplier_min, active_count)
    return KKTReport(*_vi_split(v, psi, r, 10.0 * cfg.inner_tol * scale),
                     scale=scale, natural_residual=natural_residual,
                     inner_iterations=nit)


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
    """One minimizing-movement step from f. Returns (iterate, KKTReport),
    as `_mm_step_raw` certified them.

    Guarantees Phi(u) <= Phi(f) + s, with s = 1e-13 * max(1, E_h(f)) the
    line search's no-rise slack, hence
    E_h(u) <= E_h(f) + s and ||u - f||^2/(2 tau) <= E_h(f) - E_h(u) + s,
    and that u >= psi exactly.
    A step that does not move (no Newton iteration, result bitwise equal to
    f.values) returns f itself, with a report certifying it like any other.
    Raises GridMismatchError or DomainError if f is not admissible, and
    StepConvergenceError (from `_mm_step_raw`, with the partial iterate
    attached) if f's energy or gradient is not finite, or if the residual
    is not within inner_tol * scale when the Newton loop ends.

    `carry` is for callers that chain steps (run_flow): a one-slot list
    owned by the caller, holding (u.values, evaluation of u) after a
    successful step. A later call whose f.values is that very array (values
    arrays are read-only copies, so identity means the same bits), for any
    tau, starts from the held evaluation instead of evaluating f again: it
    forms its residual floor and its first Newton system from it. A step
    from a held evaluation that accepts its start after no Newton
    iteration (a step at rest) therefore builds no tables and evaluates
    none of E_h, its gradient and Phi; its KKT arrays and report are built
    from the held arrays, as for any step.
    """
    psi = obstacle.samples.values
    fv = f.values
    _check_admissible(f, obstacle, "iterate")
    held = carry[0] if carry else None
    start = held[1] if held and held[0] is fv else None
    v, report, ev = _mm_step_raw(fv, psi, f.grid.h, cfg, start)
    u = (f if report.inner_iterations == 0 and _same_bits(v, fv)
         else GridFunction(f.grid, v))
    if carry is not None:
        carry[0] = (u.values, ev)
    return u, report


def run_flow(u0: GridFunction, obstacle: Obstacle, cfg: FlowConfig,
             stop_when_stall_rate: float | None = None) -> Trajectory:
    """Iterate mm_step until t_end (or until the energy decrease per unit
    time falls below `stop_when_stall_rate` three steps in a row: a
    transient plateau is not a stall). Records all diagnostics, one row
    per iterate moved to and one for the rest block, and carries each
    step's evaluation to the next step.

    The trajectory holds one KKTReport per step. Rest: a step at rest
    returns its input object. The obstacle and the config are fixed and
    the step is a pure function of them and its input, so every later step
    would return that input too. So from the first step at rest on, mm_step
    is called no more, and one block records that step and every later one
    (with a stall rate set, up to where the streak would stop the run),
    each with that iterate, that report, step norm 0 and the input's
    energy, contact count and symmetry residual: the iterate and report
    lists repeat the two objects, each diagnostic array ends in one
    `np.full` of its rest value, and `rest_steps` is the block's length.
    A StepConvergenceError leaves tagged with `step_index`, its `partial`
    iterate kept and the solver frames it passed through cleared.
    """
    _check_admissible(u0, obstacle, "initial datum")
    grid = u0.grid
    psi = obstacle.samples.values
    with np.errstate(over="ignore", invalid="ignore"):
        e0 = energy(u0)  # not finite only on a datum the first step rejects
    warnings = []
    threshold = c0() ** 2 / 4.0
    if e0 >= threshold:
        warnings.append(
            f"initial energy {e0:.6g} is not below the well-posedness "
            f"threshold c0^2/4 = {threshold:.6g}; run is outside the proven regime"
        )
    elif e0 > g(2.0) ** 2:
        warnings.append(
            f"initial energy {e0:.6g} exceeds G(2)^2 = {g(2.0) ** 2:.6g}; the "
            "limit is the unique symmetric critical point but is not proven "
            "to be a minimizer at this energy"
        )
    if not obstacle.assumption1_ok:
        warnings.append(
            "obstacle violates the sign assumption (negative ends, positive "
            "maximum); constrained-run interpretation is off"
        )
    if cfg.tau > 10.0 * grid.h**2:
        warnings.append(
            f"tau={cfg.tau:.3g} exceeds 10 h^2 = {10 * grid.h**2:.3g}; the scheme "
            "stays energy-stable but variational-inequality residuals blur"
        )

    ctol = 10.0 * cfg.inner_tol * math.sqrt(grid.h)
    n_steps = cfg.n_steps
    w = trapezoid_weights(grid)

    def row(u, e, step_norm, report):
        """(iterate, energy, step norm, contact count, symmetry residual,
        report); the start has no step norm and no report."""
        return (u, e, step_norm, int(np.count_nonzero(u.values - psi <= ctol)),
                symmetry_residual(u), report)

    rows = [row(u0, e0, None, None)]
    rest, left = rows[0], 0  # the rest block's row and length (none yet)
    u = u0
    carry = [None]  # evaluation of the latest iterate, for the next step
    slow_streak = 0
    for k in range(n_steps):
        try:
            un, report = mm_step(u, obstacle, cfg, carry=carry)
        except StepConvergenceError as err:
            err.step_index = k
            # the finished solver frames hold the step's work arrays
            traceback.clear_frames(err.__traceback__)
            raise
        e = carry[0][1].energy
        if un is u:
            # this step and every later one return u, at an energy rate of 0:
            # record them all with u's diagnostics
            left = n_steps - k
            if stop_when_stall_rate is not None and 0.0 < stop_when_stall_rate:
                left = min(left, 3 - slow_streak)
            rest = (u, e, 0.0, *rows[-1][3:5], report)
            break
        step_norm = math.sqrt(float((w * (un.values - u.values) ** 2).sum()))
        rows.append(row(un, e, step_norm, report))
        u = un
        if stop_when_stall_rate is not None:
            rate = (rows[-2][1] - e) / cfg.tau
            slow_streak = slow_streak + 1 if rate < stop_when_stall_rate else 0
            if slow_streak >= 3:
                break

    # each column: the moving rows' entries, then the rest row's `left`
    # times; the start has no step norm and no report
    iterates, energies, step_norms, counts, sym, reports = zip(*rows)

    def column(entries, x, dtype=float):
        return np.concatenate([np.array(entries, dtype), np.full(left, x, dtype)])

    return Trajectory(
        grid=grid, tau=cfg.tau, iterates=[*iterates, *repeat(rest[0], left)],
        energies=column(energies, rest[1]),
        step_norms=column(step_norms[1:], 0.0),
        coincidence_counts=column(counts, rest[3], int),
        symmetry_residuals=column(sym, rest[4]),
        kkt_reports=[*reports[1:], *repeat(rest[5], left)], warnings=warnings,
        rest_steps=left)


# ---------------------------------------------------------------------------
# interpolations and diagnostics
# ---------------------------------------------------------------------------

def interpolate_linear(traj: Trajectory, t: float) -> GridFunction:
    """Piecewise-linear interpolant between consecutive iterates. A time
    past the last one by rounding only (1e-12 relative) reads the last."""
    if not (0.0 <= t <= traj.t_end * (1.0 + 1e-12)):
        raise DomainError(f"t={t} outside [0, {traj.t_end}]")
    t = min(t, traj.t_end)
    k = min(int(t / traj.tau), traj.n_steps - 1)
    lam = (t - k * traj.tau) / traj.tau
    a = traj.iterates[k].values
    b = traj.iterates[k + 1].values
    return GridFunction(traj.grid, (1.0 - lam) * a + lam * b)


@dataclass(frozen=True)
class DissipationReport:
    lhs: float              # E(u_K) + sum ||du||^2 / (2 tau)
    rhs: float              # E(u_0) + n_steps * slack
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
        lhs=lhs, rhs=rhs, holds=lhs <= rhs,
        udot_bound_holds=dsum <= bound + traj.n_steps * slack_per_step,
    )


# G(sqrt(2/3))^2, the initial energy below which `touch_window` holds
G23_SQ = g(math.sqrt(2.0 / 3.0)) ** 2


def touch_window(e0: float, inf_energy: float) -> float:
    """Length L0 such that on every time window of length L0 the flow must
    touch the obstacle, valid for initial energies below G(sqrt(2/3))^2:

        L0 = Ginv(sqrt(E0))^2 / (2 infE) * 1 / (5/(1 + Ginv(sqrt(E0))^2) - 3).
    """
    if not (inf_energy > 0.0):
        raise DomainError("inf_energy must be positive")
    if not (0.0 <= e0 < G23_SQ):
        raise DomainError(
            f"touch window needs initial energy below G(sqrt(2/3))^2 = "
            f"{G23_SQ:.12g}, got {e0:.12g} (denominator would not be positive)"
        )
    s = g_inv(math.sqrt(e0))
    denom = 5.0 / (1.0 + s * s) - 3.0
    return s * s / (2.0 * inf_energy) / denom


def symmetry_residual(u: GridFunction) -> float:
    """max_i |u_i - u_{n-i}|; zero iff the nodal data is reversal-symmetric."""
    v = u.values
    return float(np.abs(v - v[::-1]).max())
