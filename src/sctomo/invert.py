"""Joint state and process-parameter estimation from count records.

Three routes are provided and cross-checked against each other:

* `linear_invert` for protocols whose rotations are fully known (the
  statistics are linear in the Cartesian state coordinates);
* `reconstruct`, a variable-projection search: for fixed strengths the
  statistics are linear in the Cartesian state coordinates, so the state is
  solved by linear least squares at every point of a scan over the 0, 1 or
  2 strengths; the exact-tie reflection family of the best minimum is
  enumerated and ranked by a stated rule, and the chosen member is polished
  on the least-squares or the Poisson-deviance objective;
* `grid_oracle`, a brute-force zooming grid over the strengths on the
  same profile objective, which checks that the scan of `reconstruct`
  reaches the global minimum.

`block_solve_v` runs the same profile scan along the triangular information
structure of the V-type protocol, each block as rows and columns of the
one full profile: lam1 from ground-excited pair 1 on its own settings, then
lam2 from pair 2 on its own settings and coordinates, then the whole state
by one linear solve.  It must agree with the joint solve on exact data.

The reflections lam_j -> 2*pi - lam_j are exact ties of the data, and every
solver settles them by one rule, in one place: `resolve_twin_family`
reflects the strengths, re-solves the Cartesian state at each member, and
ranks the tied members by `_branch_key` (physical first, then the fewest
strengths above pi, then the order offered).

The solvers work on z = [Cartesian state coordinates, strengths]
(`_Profile`), and one damped Gauss-Newton loop, `_damped_gauss_newton`,
runs both the profile refine and the polish, with closed-form Jacobians
and no finite difference.  The inner linear least squares of the profile
is one batched Householder QR per call; only points whose design fails a
rank test (degenerate strengths) fall back to the pseudo-inverse.
Magnitude and phase appear only at the boundary: `_Profile.start` and
`_Profile.point`, and the result diagnostics (`ProtocolLayout.jacobian`).
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import identify
from .errors import (DimensionMismatch, InvalidRange, RankDeficient,
                     SingularAtSolutionWarning, StructuralSingularity)
from .forward import ProtocolLayout, observed_values
from .model import (COHERENCE_PAIRS, DensityParams, PHASE_NAMES, TWO_PI,
                    state_matrix, state_params_from_matrix, wrap_phase)
from .protocol import NAMES, Protocol, UnknownParams, V_BLOCKS, split_values

OBJECTIVES = ("least_squares", "poisson_mle")
LAM_FLOOR = 1e-9
TINY_MAG = 1e-8
GRAD_TOL = 1e-10  # times max(1, |y|^2), on the largest gradient component
STEP_TOL = 1e-12  # times 1 + max |z|, on the largest step component


@dataclass(frozen=True)
class SolverOptions:
    """The objective of the damped Gauss-Newton polish of `reconstruct` and
    `polish`, and its iteration limit (an integer >= 1).  `block_solve_v`
    fits by least squares and reports its residual and gradient under
    `objective`."""

    objective: str = "least_squares"
    max_iter: int = 200

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise InvalidRange(f"objective {self.objective!r} not in {OBJECTIVES}")
        if (isinstance(self.max_iter, bool)
                or not isinstance(self.max_iter, (int, np.integer))
                or self.max_iter < 1):
            raise InvalidRange(
                f"max_iter {self.max_iter!r}: must be an integer >= 1")


@dataclass(frozen=True)
class ReconstructionResult:
    """An estimate `x` in the order of `names`, its gauge-fixed, PSD-clipped
    `state` and its diagnostics.  `residual` is the objective at `x`, and
    `gradient_norm` the largest component of its gradient: for
    `reconstruct` the polish's projected gradient in its Cartesian
    coordinates and strengths (components held at a bound excluded), for
    `block_solve_v` the gradient in `names` (`objective_eval`).  The
    Jacobian figures are those of the statistics in `names` at `x`."""

    state: DensityParams
    unknowns: UnknownParams
    objective: str
    residual: float
    gradient_norm: float
    names: tuple
    x: np.ndarray
    jacobian_abs_det: float
    condition_number: float
    smallest_singular_value: float
    n_starts_tried: int
    converged: bool
    physicality: float
    psd_clip: float
    phase_undefined: tuple
    singular_at_solution: bool
    gauge: str

    def to_dict(self) -> dict:
        return {
            "state": self.state.to_dict(),
            "unknowns": self.unknowns.as_dict(),
            "objective": self.objective,
            "residual": self.residual,
            "gradient_norm": self.gradient_norm,
            "parameters": dict(zip(self.names, (float(v) for v in self.x))),
            "jacobian_abs_det": self.jacobian_abs_det,
            "condition_number": self.condition_number,
            "smallest_singular_value": self.smallest_singular_value,
            "n_starts_tried": self.n_starts_tried,
            "converged": self.converged,
            "physicality_min_eigenvalue": self.physicality,
            "psd_clip": self.psd_clip,
            "phase_undefined": list(self.phase_undefined),
            "singular_at_solution": self.singular_at_solution,
            "gauge": self.gauge,
        }


# ---------------------------------------------------------------------------
# Linear inversion (fully known rotations)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearInversionResult:
    state: DensityParams
    phase_undefined: tuple
    residual: float


def _count_vector(counts, protocol: Protocol) -> np.ndarray:
    """Observed statistics as an array: one per setting, all finite."""
    y = counts if isinstance(counts, np.ndarray) else observed_values(counts)
    if len(y) != protocol.n_settings:
        raise DimensionMismatch("count vector length differs from settings")
    if not np.all(np.isfinite(y)):
        raise InvalidRange("counts must be finite")
    return y


def _undefined_phases(state: DensityParams, protocol: Protocol) -> tuple:
    """The state with every phase whose magnitude is at most TINY_MAG times
    max(trace, 1) set to 0, and the names of those phases: the declared
    name of the phase slot (gamma or beta), else the state's."""
    declared = {NAMES[protocol.dim][n][:2]: n for n in protocol.unknown_names}
    phases, undefined = list(state.phases), []
    for k, mag in enumerate(state.coherences):
        if mag <= TINY_MAG * max(state.trace, 1.0):
            phases[k] = 0.0
            undefined.append(declared.get(("phase", k),
                                          PHASE_NAMES[protocol.dim][k]))
    return replace(state, phases=tuple(phases)), tuple(undefined)


def linear_invert(counts, protocol: Protocol) -> LinearInversionResult:
    """Least-squares solve in Cartesian coordinates, then magnitude/phase form.

    Only valid when every rotation is fully known (no process unknowns).
    Tiny negative recovered populations are clipped to zero; a coherence
    magnitude at numerical zero leaves its phase at 0 with a flag.
    """
    if protocol.process_unknown_names:
        raise InvalidRange("linear inversion needs fully known rotations")
    y = _count_vector(counts, protocol)
    profile = _Profile(protocol, y)
    no_strengths = np.zeros((1, 0))
    a = profile.layout.design(profile._at(no_strengths))[0][:, profile.cols]
    rank = np.linalg.matrix_rank(a)
    if rank < a.shape[1]:
        raise RankDeficient(f"design matrix rank {rank} < {a.shape[1]}")
    coords, resid = profile.fit(no_strengths)
    z = np.clip(coords[0], *profile.bounds())
    state, _ = split_values(protocol, profile.point(z))
    state, undefined = _undefined_phases(state, protocol)
    return LinearInversionResult(state, undefined, float((resid ** 2).sum()))


# ---------------------------------------------------------------------------
# Objective machinery
# ---------------------------------------------------------------------------


def _objective_values(n_model: np.ndarray, y: np.ndarray, kind: str) -> np.ndarray:
    """Objective per row of n_model (shape (P, S))."""
    if kind == "least_squares":
        return ((n_model - y) ** 2).sum(axis=1)
    # Poisson deviance (non-negative, zero at n = y); +inf when a model
    # statistic is negative, or zero where its count is not, which tells
    # the damping loop to back off.
    out = np.zeros(n_model.shape[0])
    bad = ((n_model < 0.0) | ((n_model == 0.0) & (y > 0))).any(axis=1)
    out[bad] = np.inf
    ok = ~bad
    if ok.any():
        n = n_model[ok]
        terms = n - y
        pos = y > 0
        if pos.any():
            yp = y[pos]
            terms[:, pos] += yp * (np.log(yp) - np.log(n[:, pos]))
        out[ok] = np.maximum(terms.sum(axis=1), 0.0)
    return out


def _grad_hess(n_model, jac, y, kind):
    """Gradient (P,K) and Gauss-Newton/Fisher normal matrix (P,K,K)."""
    if kind == "least_squares":
        r = n_model - y
        g = 2.0 * np.einsum("psk,ps->pk", jac, r)
        h = 2.0 * np.einsum("psj,psk->pjk", jac, jac)
        return g, h
    n = np.clip(n_model, 1e-12, None)
    g = np.einsum("psk,ps->pk", jac, 1.0 - y / n)
    w = y / (n * n)
    h = np.einsum("psj,ps,psk->pjk", jac, w, jac)
    h = h + 1e-12 * np.eye(jac.shape[2])
    return g, h


def objective_eval(params, counts, protocol: Protocol,
                   kind: str = "least_squares"):
    """Objective value and gradient at a Γ-ordered parameter vector.

    The gradient chains the analytic objective derivative through the
    closed-form Jacobian of the model statistics (`ProtocolLayout.jacobian`),
    so it can be validated against direct finite differences of the
    objective itself.  Under the Poisson objective a negative model
    statistic, or a zero one against a positive count, yields (+inf, zero
    gradient).  The counts are checked as by `reconstruct`.
    """
    if kind not in OBJECTIVES:
        raise InvalidRange(f"objective {kind!r} not in {OBJECTIVES}")
    y = _count_vector(counts, protocol)
    layout = ProtocolLayout(protocol)
    x = np.asarray(params, dtype=float)
    n_model = layout.statistics(x[None, :])
    f = float(_objective_values(n_model, y, kind)[0])
    if not math.isfinite(f):
        return f, np.zeros(x.size)
    g, _ = _grad_hess(n_model, layout.jacobian(x), y, kind)
    return f, g[0]


# ---------------------------------------------------------------------------
# Damped Gauss-Newton: the one iterative solver
# ---------------------------------------------------------------------------


def _projected_descent(z, n_model, jac, f, y, kind, lo, hi):
    """Gradient and normal matrix per row, holding each component at a bound
    whose descent leaves the box (projected gradient); a row whose objective
    is invalid (+inf, see `_objective_values`) descends on least squares."""
    g, h = _grad_hess(n_model, jac, y, kind)
    bad = ~np.isfinite(f)
    if bad.any():
        g[bad], h[bad] = _grad_hess(n_model[bad], jac[bad], y, "least_squares")
    blocked = ((z <= lo) & (g > 0)) | ((z >= hi) & (g < 0))
    g[blocked] = 0.0
    h[blocked[:, :, None] | blocked[:, None, :]] = 0.0
    return g, h


def _damped_gauss_newton(fun, z, lo, hi, y, kind, scale, max_iter, ftol=0.0):
    """Damped Gauss-Newton on the objective `kind` of fun(z) against y from
    every row of z at once, inside the box [lo, hi].

    `fun` maps rows (P, K) to values (P, S) and their Jacobian (P, S, K), so
    one call per iteration serves the trial and, once accepted, the next
    step.  Accepted steps never raise a row's objective.  A row stops
    converged at the floor objective (1e-30 * scale) or on a step that
    moves it by at most STEP_TOL, and unconverged when a rejected step
    leaves its damping at 1e12 or more; with `ftol` > 0 also on an accepted
    step that gains at most `ftol` of its objective.  Returns the rows,
    their objectives, whether each converged and the largest component of
    each one's projected gradient.
    """
    z = np.clip(np.array(z, dtype=float), lo, hi)
    n_model, jac = fun(z)
    f = _objective_values(n_model, y, kind)
    mu = np.full(len(z), 1e-3)
    floor = 1e-30 * scale
    converged = f <= floor
    done = converged.copy()
    eye = np.eye(z.shape[1])
    for _ in range(max_iter):
        act = np.flatnonzero(~done)
        if act.size == 0:
            break
        za = z[act]
        g, h = _projected_descent(za, n_model[act], jac[act], f[act], y, kind,
                                  lo, hi)
        step = np.linalg.solve(h + mu[act, None, None] * eye, -g[..., None])
        trial = np.clip(za + step[..., 0], lo, hi)
        n_trial, j_trial = fun(trial)
        f_trial = _objective_values(n_trial, y, kind)
        accept = f_trial <= f[act]
        acc, rej = act[accept], act[~accept]
        if ftol > 0:
            done[acc[f[acc] - f_trial[accept] <= ftol * f[acc]]] = True
        z[acc], f[acc] = trial[accept], f_trial[accept]
        n_model[acc], jac[acc] = n_trial[accept], j_trial[accept]
        mu[acc] = np.maximum(mu[acc] / 3.0, 1e-14)
        mu[rej] *= 7.0
        moved = np.abs(trial - za).max(axis=1)
        converged[act[moved <= STEP_TOL * (1.0 + np.abs(za).max(axis=1))]] = True
        converged[acc[f[acc] <= floor]] = True
        done |= converged
        done[rej[mu[rej] >= 1e12]] = True
    g, _ = _projected_descent(z, n_model, jac, f, y, kind, lo, hi)
    return z, f, converged, np.abs(g).max(axis=1, initial=0.0)


@dataclass
class _FitOutcome:
    x: np.ndarray
    f: float
    converged: bool
    gradient_norm: float


def _lm_multistart(profile: _Profile, y: np.ndarray, start: np.ndarray,
                   kind: str, options: SolverOptions) -> _FitOutcome:
    """The polish: `_damped_gauss_newton` on the objective `kind` of
    `_Profile.model` from the z `start`, inside `_Profile.bounds`; the
    outcome's `x` is in name order.  (`sctbench/tracer.py` hooks this name.)
    """
    z, f, converged, gnorm = _damped_gauss_newton(
        lambda rows: profile.model(rows, jacobian=True), start[None, :],
        *profile.bounds(), y, kind, profile.scale, options.max_iter)
    return _FitOutcome(profile.point(z[0]), float(f[0]), bool(converged[0]),
                       float(gnorm[0]))


# ---------------------------------------------------------------------------
# Variable projection: the strengths outside, the Cartesian state inside
# ---------------------------------------------------------------------------
#
# For fixed strengths the statistics are linear in the Cartesian state
# coordinates (`ProtocolLayout.design`), so the least-squares objective is
# minimized over the state exactly, by a QR factorization per point, and
# what remains is a function of the 0, 1 or 2 strengths alone (Golub &
# Pereyra, SIAM J. Numer. Anal. 10, 1973).
# That profile is scanned on a grid, its lowest grid minima are refined by
# `_damped_gauss_newton` on the projected residual, and the best one heads
# the exact-tie family that `resolve_twin_family` ranks.  `grid_oracle`
# searches the same profile by a zooming grid instead.

SCAN_POINTS = {1: 256, 2: 64}  # grid points per strength axis, by scan dimension
N_REFINE = 6                   # lowest grid minima refined per scan stage
REFINE_ITER = 60
REFINE_FTOL = 1e-8             # least relative gain of an accepted refine step
SCAN_CHUNK = 1024              # profile points per design evaluation
TIE_RTOL = 1e-9
TIE_ATOL = 1e-18               # times max(1, |y|^2)
RANK_RTOL = 1e-10              # least singular value of the inner solve, times the largest


def _full_rank(r: np.ndarray) -> tuple:
    """Which triangular factors r (P, K, K) of A = QR certainly have full
    rank at the pseudo-inverse's cutoff, sigma_min > RANK_RTOL sigma_max,
    and R⁻¹ on those rows (zero elsewhere).

    A row passes when |R|_F |R⁻¹|_F < 1/RANK_RTOL.  That product bounds
    sigma_max/sigma_min from above and exceeds it at most K times, so no
    row the pseudo-inverse truncates passes, and the few full-rank rows
    that fail keep its full solution.  The pivots only screen: a row
    whose smallest |r_kk| is not above RANK_RTOL times its largest fails
    (sigma_min <= min |r_kk| and sigma_max >= max |r_kk|) and R⁻¹ is
    formed only where no pivot is zero."""
    diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
    ok = diag.min(axis=1, initial=np.inf) > RANK_RTOL * diag.max(
        axis=1, initial=0.0)
    if ok.all():
        r_inv = np.linalg.inv(r)
    else:
        r_inv = np.zeros_like(r)
        r_inv[ok] = np.linalg.inv(r[ok])
    size = (r ** 2).sum(axis=(1, 2)) * (r_inv ** 2).sum(axis=(1, 2))
    return ok & (size < RANK_RTOL ** -2), r_inv


def _rows(sel, *arrays) -> list:
    """The rows `sel` of each array that is not None."""
    return [None if arr is None else arr[sel] for arr in arrays]


def _merge(ok, good, bad) -> np.ndarray:
    """Rows of `good` where ok, of `bad` elsewhere."""
    out = np.empty((len(ok),) + good.shape[1:])
    out[ok], out[~ok] = good, bad
    return out


def _lstsq(a, y, d_a=None) -> tuple:
    """Least squares min |A c - y| per row of a (P, S, K): the coordinates
    and the residuals A c - y; with the strength derivative d_a of A
    (P, S, K, F) also the Golub-Pereyra Jacobian P⊥ v - (A⁺)ᵀ w, with
    v = d_a c and w = d_aᵀ (A c - y).

    A row whose A passes `_full_rank` is solved by its Householder QR,
    A⁺ = R⁻¹Qᵀ and P⊥ = I - QQᵀ; the others by the pseudo-inverse with
    cutoff RANK_RTOL (`_pinv_solve`), which gives the minimum-norm
    coordinates."""
    if a.shape[1] < a.shape[2]:  # fewer equations than coordinates
        return _pinv_solve(a, y, d_a)
    q, r = np.linalg.qr(a)
    ok, r_inv = _full_rank(r)
    if ok.all():
        return _qr_solve(q, r_inv, y, d_a)
    out = _pinv_solve(a[~ok], y[~ok], *_rows(~ok, d_a))
    if ok.any():
        good = _qr_solve(q[ok], r_inv[ok], y[ok], *_rows(ok, d_a))
        out = [_merge(ok, g, b) for g, b in zip(good, out)]
    return out


def _qr_solve(q, r_inv, y, d_a=None) -> tuple:
    """`_lstsq` from A = QR of full rank: coordinates R⁻¹Qᵀy, residuals
    QQᵀy - y and Jacobian v - QQᵀv - QR⁻ᵀw."""
    qty = np.einsum("psc,ps->pc", q, y)
    coords = np.einsum("pck,pk->pc", r_inv, qty)
    resid = np.einsum("psc,pc->ps", q, qty) - y
    if d_a is None:
        return coords, resid
    v = np.einsum("psck,pc->psk", d_a, coords)
    w = np.einsum("psck,ps->pck", d_a, resid)
    v -= q @ (np.swapaxes(q, 1, 2) @ v)
    return coords, resid, v - q @ (np.swapaxes(r_inv, 1, 2) @ w)


def _pinv_solve(a, y, d_a=None) -> tuple:
    """`_lstsq` by the pseudo-inverse with cutoff RANK_RTOL."""
    a_pinv = np.linalg.pinv(a, rcond=RANK_RTOL)
    coords = np.einsum("pcs,ps->pc", a_pinv, y)
    resid = np.einsum("psc,pc->ps", a, coords) - y
    if d_a is None:
        return coords, resid
    v = np.einsum("psck,pc->psk", d_a, coords)
    v -= a @ (a_pinv @ v)
    w = np.einsum("psck,ps->pck", d_a, resid)
    return coords, resid, v - np.einsum("pcs,pck->psk", a_pinv, w)


def _free_coordinates(protocol: Protocol, names=None) -> list:
    """Cartesian coordinates, in order, that the state parameters `names`
    (default: the declared unknowns; gamma and beta names alike) move: a
    population its own, a magnitude its pair's x, and with the pair's phase
    its y too.  The rest stay at zero, as the layout holds undeclared
    parameters at zero."""
    dim = protocol.dim
    slots = {NAMES[dim][n][:2] for n in
             (protocol.unknown_names if names is None else names)}
    cols = [i for i in range(dim) if ("pop", i) in slots]
    for k in range(len(COHERENCE_PAIRS[dim])):
        if ("mag", k) in slots:
            cols.append(dim + 2 * k)
            if ("phase", k) in slots:
                cols.append(dim + 2 * k + 1)
    return cols


class _Profile:
    """One protocol and count vector as a function of z = [Cartesian state
    coordinates `cols` (default: all that the declared unknowns move),
    strengths in name order]; the other coordinates are 0.  `fit` solves
    the coordinates at fixed strengths (the scan and the refine), `model`
    gives the statistics of a whole z (the polish), `bounds` is the box of
    z, and `start` and `point` convert from and to the parameter vector in
    name order."""

    def __init__(self, protocol: Protocol, y: np.ndarray, cols=None):
        self.layout = ProtocolLayout(protocol)
        self.y = y
        self.lam_cols = self.layout.lam_cols
        self.cols = _free_coordinates(protocol) if cols is None else cols
        self.scale = max(1.0, float((y ** 2).sum()))

    def _at(self, lam) -> np.ndarray:
        """Parameter rows in name order carrying only the strengths lam."""
        x = np.zeros((len(lam), len(self.layout.protocol.unknown_names)))
        x[:, self.lam_cols] = lam
        return x

    def _full(self, coords) -> np.ndarray:
        """All coordinates: `coords` on `cols`, 0 elsewhere."""
        layout = self.layout
        c_full = np.zeros((len(coords), layout.dim + 2 * layout.npair))
        c_full[:, self.cols] = coords
        return c_full

    def fit(self, lam, rows=None, free=None):
        """Coordinates (P, C) and residual vectors (P, S) at each row of lam,
        fit on the settings `rows` (default all).

        With `free` (strength indices) also the Jacobian of the residuals in
        those strengths, (P, S, len(free)), in the full variable-projection
        form of Golub & Pereyra (Inverse Problems 19, R1, 2003):
        P⊥ (∂D/∂lam) c_full - (A⁺)ᵀ (∂A/∂lam)ᵀ r, where D is the design,
        A its columns `cols`, c_full the fitted coordinates on `cols` and 0
        elsewhere, and P⊥ = I - A A⁺, all on `rows`.

        Columns of A that are exactly zero at every row of lam are dropped
        and their coordinates left at zero, as the minimum-norm solution
        does; the rest is solved by `_lstsq`, a batched Householder QR with
        the pseudo-inverse for rows that fail its rank test.
        """
        x = self._at(np.atleast_2d(lam))
        rows = slice(None) if rows is None else rows
        d_a = None
        if free is None:
            design = self.layout.design(x)[:, rows]
        else:
            design, d_design = self.layout.design_and_derivative(x)
            design, d_design = design[:, rows], d_design[:, rows][..., free]
        a = design[:, :, self.cols]
        kept = a.any(axis=(0, 1))
        if not kept.all():
            a = a[..., kept]
        if free is not None:
            d_a = d_design[:, :, np.asarray(self.cols)[kept]]
        y = np.broadcast_to(self.y[rows], a.shape[:2])
        coords, *out = _lstsq(a, y, d_a)
        if not kept.all():
            full = np.zeros((len(a), len(self.cols)))
            full[:, kept] = coords
            coords = full
        return (coords, *out)

    def objective(self, lam, rows=None) -> np.ndarray:
        """Profile least-squares objective at each row of lam."""
        return np.concatenate([
            (self.fit(lam[i:i + SCAN_CHUNK], rows)[1] ** 2).sum(axis=1)
            for i in range(0, len(lam), SCAN_CHUNK)])

    def model(self, z, jacobian=False):
        """Statistics design @ c_full (P, S) at each row of z; with `jacobian`
        also their derivative [design[..., cols], ∂design/∂lam @ c_full]."""
        z = np.atleast_2d(z)
        n = len(self.cols)
        x, c_full = self._at(z[:, n:]), self._full(z[:, :n])
        if not jacobian:
            return np.einsum("psc,pc->ps", self.layout.design(x), c_full)
        design, d_design = self.layout.design_and_derivative(x)
        jac = np.concatenate(
            [design[..., self.cols], np.einsum("psck,pc->psk", d_design, c_full)],
            axis=2)
        return np.einsum("psc,pc->ps", design, c_full), jac

    def bounds(self) -> tuple:
        """The box of z: populations >= 0, coherence coordinates free,
        strengths in [LAM_FLOOR, 2*pi]."""
        n = len(self.cols)
        lo = np.full(n + len(self.lam_cols), -np.inf)
        hi = np.full(lo.size, np.inf)
        lo[:n][np.asarray(self.cols, dtype=int) < self.layout.dim] = 0.0
        lo[n:], hi[n:] = LAM_FLOOR, TWO_PI
        return lo, hi

    def start(self, x) -> np.ndarray:
        """z of a parameter vector in name order."""
        x = np.asarray(x, dtype=float)
        coords = self.layout.coordinates(x[None, :])[0]
        return np.concatenate([coords[self.cols], x[self.lam_cols]])

    def point(self, z) -> np.ndarray:
        """Parameter vector in name order of z: magnitude 0.5*hypot(x, y)
        and phase atan2(y, x) per coherence pair."""
        z = np.asarray(z, dtype=float)
        n, d = len(self.cols), self.layout.dim
        full = self._full(z[None, :n])[0]
        lam_values = iter(z[n:])
        names = self.layout.protocol.unknown_names
        out = np.empty(len(names))
        for k, name in enumerate(names):
            kind, idx, sign = NAMES[d][name]
            if kind == "pop":
                out[k] = full[idx]
            elif kind == "mag":
                out[k] = 0.5 * math.hypot(*full[d + 2 * idx:d + 2 * idx + 2])
            elif kind == "phase":
                xc, yc = full[d + 2 * idx:d + 2 * idx + 2]
                out[k] = wrap_phase(sign * math.atan2(yc, xc))
            else:
                out[k] = next(lam_values)
        return out

    def refine(self, lam, free, rows=None):
        """`_damped_gauss_newton` on the projected residual of `fit` over the
        strengths `free` from each row of lam (the other strengths are the
        same in every row); returns the end points and their objectives on
        `rows`.  A start also stops on an accepted step that gains at most
        REFINE_FTOL of its objective: one that creeps towards a degenerate
        strength (lam -> 0, 2*pi, or pi where sin(lam) silences settings)
        gains that little per step, one that converges to a root orders of
        magnitude more.
        """
        lam = np.array(lam, dtype=float)

        def residual(z):
            at = np.tile(lam[0], (len(z), 1))
            at[:, free] = z
            return self.fit(at, rows, free)[1:]

        lam[:, free], f, _, _ = _damped_gauss_newton(
            residual, lam[:, free], LAM_FLOOR, TWO_PI, 0.0, "least_squares",
            self.scale, REFINE_ITER, REFINE_FTOL)
        return lam, f


def _scan_stages(protocol: Protocol) -> list:
    """Strength groups scanned in turn, each with the settings it is fit on.

    When every strength has settings of its own, each gets a 1-D scan on the
    settings that involve no strength scanned later (V: lam1 on settings
    0-4, then lam2 with lam1 held, on all settings: settings 5-8 alone fit
    their four coordinates, rho00 included, exactly at every lam2, and
    settings 9-10 add as many equations as coordinates).  Otherwise the
    strengths are scanned jointly on every setting (C-alt: lam_z appears
    only next to lam_c).  Returns [(strength indices, setting rows)].
    """
    lams = protocol.process_unknown_names
    deps = [s.driven_strengths() & set(lams) for s in protocol.settings]
    if not all(any(d == {n} for d in deps) for n in lams):
        return [(list(range(len(lams))), None)] if lams else []
    return [([k], [i for i, d in enumerate(deps) if d <= set(lams[:k + 1])])
            for k in range(len(lams))]


def _grid_minima(f: np.ndarray, n: int) -> np.ndarray:
    """Flat indices of the n lowest local minima of a 1-D or 2-D grid."""
    pad = np.pad(f, 1, constant_values=np.inf)
    is_min = np.ones(f.shape, dtype=bool)
    for shift in itertools.product((-1, 0, 1), repeat=f.ndim):
        if any(shift):
            window = tuple(slice(1 + s, 1 + s + m) for s, m in zip(shift, f.shape))
            is_min &= f <= pad[window]
    idx = np.flatnonzero(is_min)
    return idx[np.argsort(f.ravel()[idx], kind="stable")][:n]


def _ties(f: np.ndarray, scale: float) -> np.ndarray:
    """Indices, in order, of the objectives f that tie with the lowest
    (within TIE_RTOL of it, or TIE_ATOL times scale)."""
    tol = max(TIE_RTOL * f.min(), TIE_ATOL * scale)
    return np.flatnonzero(f <= f.min() + tol)


def _best_minimum(cand: np.ndarray, f: np.ndarray, scale: float) -> int:
    """Index of the minimum to go on from: among the rows of strengths
    `cand` whose objective f ties with the lowest, the one with the fewest
    strengths above pi (the canonical member of a reflection pair), then
    the first in scan order, so that round-off among exact ties does not
    decide."""
    return min(_ties(f, scale),
               key=lambda i: (int((cand[i] > math.pi + 1e-12).sum()), i))


def _scan(profile: _Profile, stages) -> np.ndarray:
    """Refined profile minima, one row of strengths each."""
    n_lam = len(profile.lam_cols)
    lam = np.full(n_lam, math.pi / 2)  # placeholder for strengths not yet scanned
    cand = lam[None, :]
    for free, rows in stages:
        g = SCAN_POINTS[len(free)]
        axis = TWO_PI * (np.arange(g) + 0.5) / g
        grid = np.stack(np.meshgrid(*[axis] * len(free), indexing="ij"), axis=-1)
        pts = np.tile(lam, (g ** len(free), 1))
        pts[:, free] = grid.reshape(-1, len(free))
        f = profile.objective(pts, rows)
        starts = pts[_grid_minima(f.reshape((g,) * len(free)), N_REFINE)]
        cand, f_cand = profile.refine(starts, free, rows)
        lam = cand[_best_minimum(cand, f_cand, profile.scale)]
    if len(stages) > 1:
        cand, _ = profile.refine(cand, list(range(n_lam)))
    return cand


# ---------------------------------------------------------------------------
# Discrete twin degeneracy
# ---------------------------------------------------------------------------
#
# The five-setting single-coupling protocols (scenario B and each single-pair
# block of V) are exactly invariant under the reflection
#     lam -> 2*pi - lam,  the pair's coherence coordinates (x, y) -> -(x, y):
# the m=1 settings flip cos(lam/2), the m=2 settings flip sin(lam), and the
# negated coherence (its phase shifted by pi) restores every cross term, so
# the twins cannot be told apart by any data taken with those settings
# alone.  In V the two dual-coupling settings re-fit the excited-excited
# coherence exactly after either reflection, so all four members tie; the
# C-alt settings that drive the diagonal break the reflection of lam_c.
# `resolve_twin_family` is the only code that forms reflections: it reflects
# the strengths alone and re-solves the Cartesian state linearly, which
# finds the negated coherence.  Every solver settles the tie through it:
# `reconstruct` and `prefer_sparse_coherences` on their profile minima,
# `block_solve_v` on its block fits' strengths and `grid_oracle` on its
# grid's incumbent (`_settle_twins`).  Among exact ties the rule of
# `_branch_key` decides; otherwise the data do.


def _branch_key(dim: int, coords: np.ndarray, lam: np.ndarray,
                index: int) -> tuple:
    """Rank of an exact-tie member with all Cartesian state coordinates
    `coords` and strengths `lam`: physical first, then the fewest strengths
    above pi (the lam <= pi member is canonical, mirroring the continuous
    gauge fix), then the order offered.  The state has the populations on
    its diagonal and entry (i, j) = (x - i*y)/2 per coherence pair."""
    rho = np.diag(coords[:dim]).astype(complex)
    for k, (i, j) in enumerate(COHERENCE_PAIRS[dim]):
        rho[i, j] = 0.5 * complex(coords[dim + 2 * k], -coords[dim + 2 * k + 1])
        rho[j, i] = rho[i, j].conjugate()
    trace = float(coords[:dim].sum())
    unphysical = trace <= 0 or np.linalg.eigvalsh(rho)[0] / trace < -1e-9
    n_large = int((lam > math.pi + 1e-12).sum())
    return (bool(unphysical), n_large, index)


def resolve_twin_family(profile: _Profile, cand: np.ndarray) -> tuple:
    """Pick the member of the exact-tie family of the best profile minimum.

    The family is every row of strengths in `cand` (in the order offered:
    for a scan, lowest grid objective first) plus each reflection
    lam_j -> 2*pi - lam_j (one or more strengths at once) of the best one
    (`_best_minimum`), with the Cartesian state re-solved linearly at each.
    The members whose least-squares objective ties with the lowest are
    ranked by `_branch_key` on their Cartesian coordinates, so distinct
    exact roots that are both physical with every lam <= pi (a vanished
    coherence can leave two) go by the order offered.  Returns the chosen
    member's z (see `_Profile`) and the number of members compared.
    """
    best = cand[_best_minimum(cand, profile.objective(cand), profile.scale)]
    members = [cand]
    for flips in itertools.product((False, True), repeat=best.size):
        if any(flips):
            image = best.copy()
            mask = np.array(flips)
            image[mask] = TWO_PI - image[mask]
            members.append(image[None, :])
    members = np.vstack(members)
    coords, resid = profile.fit(members)
    c_full = profile._full(coords)
    chosen = min(_ties((resid ** 2).sum(axis=1), profile.scale),
                 key=lambda i: _branch_key(profile.layout.dim, c_full[i],
                                           members[i], i))
    return np.concatenate([coords[chosen], members[chosen]]), len(members)


def _settle_twins(profile: _Profile, cand: np.ndarray,
                  kind: str = "least_squares") -> tuple:
    """The member `resolve_twin_family` picks for the strength rows `cand`,
    held in the box of `_Profile.bounds`: its parameter vector in name
    order, its objective `kind` and the number of members compared."""
    z, n_members = resolve_twin_family(profile, cand)
    z = np.clip(z, *profile.bounds())
    f = float(_objective_values(profile.model(z), profile.y, kind)[0])
    return profile.point(z), f, n_members


def prefer_sparse_coherences(protocol: Protocol, x: np.ndarray, f: float,
                             y: np.ndarray, kind: str) -> tuple:
    """Among exact ties, adopt the representative with a coherence at zero.

    When a true coherence vanishes, its phase drops out of the statistics and
    the exact solutions form a tie manifold (the Jacobian is singular along
    it), on which even the strengths can wander.  For each coherence pair
    the profile search of `reconstruct` is rerun without that pair's
    coordinates; if it reaches the same objective, the sparse representative
    is adopted (its phase is then flagged undefined).  A refit that worsens
    the objective beyond the tie tolerance is discarded, so genuine
    coherences are never suppressed.
    """
    dim = protocol.dim
    slots = [NAMES[dim][n][:2] for n in protocol.unknown_names]
    tie_tol = max(1e-12 * max(1.0, float((y ** 2).sum())), 1e-9 * abs(f))
    cols = _free_coordinates(protocol)
    for k in range(len(COHERENCE_PAIRS[dim])):
        if ("mag", k) not in slots or x[slots.index(("mag", k))] <= TINY_MAG:
            continue
        keep = [c for c in cols if c not in (dim + 2 * k, dim + 2 * k + 1)]
        profile = _Profile(protocol, y, keep)
        x_cand, f_cand, _ = _settle_twins(
            profile, _scan(profile, _scan_stages(protocol)), kind)
        if f_cand <= f + tie_tol:
            x, f, cols = x_cand, f_cand, keep
    return x, float(f)


# ---------------------------------------------------------------------------
# Reconstruction
# ---------------------------------------------------------------------------


def _package_result(protocol: Protocol, x: np.ndarray, outcome_f: float,
                    grad_norm: float, n_starts: int, converged: bool,
                    objective: str, y: np.ndarray) -> ReconstructionResult:
    report = identify.jacobian_from_vector(protocol, x)
    if report.near_singular:
        # a singular solution can sit on an exact-tie manifold from a
        # vanished coherence; report its zero-coherence member if so
        x_sparse, outcome_f = prefer_sparse_coherences(
            protocol, x, outcome_f, y, objective)
        if not np.array_equal(x_sparse, x):
            x = x_sparse
            report = identify.jacobian_from_vector(protocol, x)
    if report.near_singular:
        warnings.warn("Jacobian is near-singular at the solution",
                      SingularAtSolutionWarning, stacklevel=3)
    state0, unknowns = split_values(protocol, x)
    n_scale = state0.trace

    physicality = 0.0
    psd_clip = 0.0
    state = state0
    if n_scale > 0:
        normalized = state_matrix(state0) / n_scale
        evs = np.linalg.eigvalsh(normalized)
        physicality = float(evs[0])
        if evs[0] < -1e-12:
            w, v = np.linalg.eigh(normalized)
            clipped = (v * np.clip(w, 0.0, None)) @ v.conj().T
            clipped *= n_scale / np.trace(clipped).real
            state = state_params_from_matrix(clipped)
            psd_clip = float(-evs[0])

    state, undefined = _undefined_phases(state, protocol)

    gauge = ("controls-known" if protocol.phase_known
             else "generator-phases-zeroed")
    return ReconstructionResult(
        state=state, unknowns=unknowns, objective=objective,
        residual=float(outcome_f), gradient_norm=float(grad_norm),
        names=tuple(protocol.unknown_names), x=np.asarray(x, dtype=float),
        jacobian_abs_det=report.abs_determinant,
        condition_number=report.condition_number,
        smallest_singular_value=report.smallest_singular_value,
        n_starts_tried=n_starts, converged=converged,
        physicality=physicality, psd_clip=psd_clip,
        phase_undefined=undefined,
        singular_at_solution=report.near_singular, gauge=gauge)


def _check_structure(protocol: Protocol) -> None:
    dead = identify.structural_zero_columns(protocol)
    if dead:
        hint = (" Use scenario 'C-alt' (two settings drive the coupling and "
                "the diagonal together) for an invertible variant."
                if protocol.name == "C" else "")
        raise StructuralSingularity(
            f"protocol {protocol.name!r}: statistics carry no information about "
            f"{', '.join(dead)} anywhere in parameter space.{hint}")


def reconstruct(counts, protocol: Protocol,
                options: SolverOptions = None) -> ReconstructionResult:
    """Variable-projection estimate of all declared unknowns.

    1. Scan.  At fixed strengths the state is solved by linear least squares
       in its Cartesian coordinates, which leaves a profile objective over
       the 0, 1 or 2 strengths.  It is evaluated on a grid over (0, 2*pi]
       per strength (SCAN_POINTS per axis) in the stages of `_scan_stages`:
       V scans lam1 on settings 0-4 and then lam2, C-alt scans
       (lam_c, lam_z) jointly, and a protocol without strengths (A) is a
       single linear solve.  The N_REFINE lowest grid minima of each stage
       are refined by damped Gauss-Newton on the projected residual, with
       its closed-form Jacobian; a start whose steps stall stops early.
    2. Branch rule.  The best minimum, its reflections lam_j -> 2*pi - lam_j
       and any other refined minimum are compared; among those tied with
       the lowest objective the member chosen is physical first, then has
       the fewest strengths above pi (`resolve_twin_family`).
    3. Polish.  The same damped Gauss-Newton loop as the refine, now over
       the coordinates and the strengths together, from the chosen member
       on the selected objective (`_lm_multistart`); the Poisson deviance
       thus starts from the least-squares profile solution.  Populations
       stay >= 0 and strengths in [LAM_FLOOR, 2*pi].  Accepted steps never
       increase the objective, and `converged` reports whether the floor
       objective or the step tolerance was met.

    Only the end point is converted to magnitude and phase.  The result is
    gauge-fixed and PSD-clipped, with Jacobian diagnostics at the
    solution.  A structurally singular protocol (scenario C as shipped)
    is refused, and so are non-finite counts.
    """
    options = options or SolverOptions()
    y = _count_vector(counts, protocol)
    _check_structure(protocol)
    profile = _Profile(protocol, y)
    z0, n_members = resolve_twin_family(
        profile, _scan(profile, _scan_stages(protocol)))
    outcome = _lm_multistart(profile, y, z0, options.objective, options)
    return _package_result(protocol, outcome.x, outcome.f, outcome.gradient_norm,
                           n_members, outcome.converged, options.objective, y=y)


def polish(counts, protocol: Protocol, x0, options: SolverOptions = None
           ) -> _FitOutcome:
    """The polish of `reconstruct` from a parameter vector x0 in name order
    (used after the oracle); the outcome's `x` is in name order too."""
    options = options or SolverOptions()
    y = _count_vector(counts, protocol)
    profile = _Profile(protocol, y)
    return _lm_multistart(profile, y, profile.start(x0), options.objective,
                          options)


# ---------------------------------------------------------------------------
# Block-sequential solve for scenario V
# ---------------------------------------------------------------------------


def _block_fit(profile: _Profile, k: int, rows) -> float:
    """Strength k of the best minimum of the profile scan of strength k on
    the settings `rows` alone."""
    rows = list(rows)
    cand = _scan(profile, [([k], rows)])
    resid = profile.fit(cand, rows)[1]
    return cand[_best_minimum(cand, (resid ** 2).sum(axis=1), profile.scale), k]


def block_solve_v(counts, protocol: Protocol,
                  options: SolverOptions = None) -> ReconstructionResult:
    """Solve the V-type protocol block by block along its triangular structure.

    Every block is a set of rows of the one full profile of `reconstruct`.
    Block 1 (settings 0-4: rho00, rho11, rho01, lam1, gamma01) is fit on its
    own settings by the profile scan, which finds lam1; block 2 (settings
    5-8: rho22, rho02, lam2, gamma02) likewise, on a profile that moves only
    its own coordinates, which finds lam2.  Of block 1 only rho00 enters
    settings 5-8, and there its column is 1 minus the rho22 column, with
    the constant in the span of block 2's columns at every lam2 but pi/2,
    pi and 3*pi/2, so block 1's state shifts block 2's coordinates but not
    its residual, and is not held.  The state is then one linear
    least-squares solve over all settings at those strengths and at each of
    their reflections, and the member is picked by the rule of
    `reconstruct` (`_settle_twins`).  V is square, so at the block fits'
    strengths this solve reproduces the blocks' state and fits the
    excited-excited coherence (block 3, settings 9-10) exactly.  No stage
    runs the polish, so this is a different decomposition from the joint
    solve, and on exact data the two must agree.  The fits are least
    squares; `options.objective` sets the reported residual and gradient,
    and `converged` reports whether that gradient meets GRAD_TOL.
    """
    options = options or SolverOptions()
    if protocol.name.split("~")[0] != "V" or protocol.dim != 3:
        raise InvalidRange("block solve is defined for the V-type protocol")
    y = _count_vector(counts, protocol)
    joint = _Profile(protocol, y)
    lam1 = _block_fit(joint, 0, V_BLOCKS[0][0])
    rows, names = V_BLOCKS[1]
    lam2 = _block_fit(_Profile(protocol, y, _free_coordinates(protocol, names)),
                      1, rows)
    x, _, n_members = _settle_twins(joint, np.array([[lam1, lam2]]))
    f, grad = objective_eval(x, y, protocol, options.objective)
    gnorm = float(np.abs(grad).max())
    converged = gnorm <= GRAD_TOL * max(1.0, float((y ** 2).sum()))
    return _package_result(protocol, x, f, gnorm, n_members, converged,
                           options.objective, y=y)


# ---------------------------------------------------------------------------
# Brute-force grid oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleResult:
    names: tuple
    values: np.ndarray
    objective: float


def grid_oracle(counts, protocol: Protocol, grid: int = 15,
                refine_levels: int = 4) -> OracleResult:
    """Least-squares search over the strengths on a zooming grid.

    The state is solved by linear least squares at every grid point, so
    the search runs over the 0, 1 or 2 strengths alone, jointly on every
    setting, and scores each point by the exact profile objective
    (`_Profile.objective`).  Level 0 puts `grid` points per strength at
    2*pi*(k+1)/grid; each of the `refine_levels` later levels puts
    `grid` points per strength on a window that shrinks by (grid-1)/2 (at
    least 2) around the incumbent, clipped to [LAM_FLOOR, 2*pi].  The
    incumbent changes only on a strictly lower objective, with the points
    in `itertools.product` order, so the search is deterministic.  It
    shares the inner linear solve with `reconstruct` but none of its
    outer search (scan stages, grid minima, refine).

    The incumbent goes to the reflection rule of `reconstruct`
    (`_settle_twins`); `values` is the chosen member and `objective` its
    least-squares objective.  The zoom keeps a single incumbent, so this
    is not a global oracle everywhere: on draws 0-39 of `sample_truth`
    from default_rng(54) with exact counts, at the defaults, it misses
    the truth by more than 1e-3 on none of B and V but on 7/40 of C-alt,
    where a `polish` from its values still misses by more than 1e-6 on
    5/40.
    """
    y = _count_vector(counts, protocol)
    profile = _Profile(protocol, y)
    n = len(profile.lam_cols)
    zoom = max(2.0, (grid - 1) / 2.0)
    windows = [(0.0, TWO_PI)] * n
    best, best_obj = None, np.inf
    for level in range(refine_levels + 1):
        axes = [hi * (np.arange(grid) + 1) / grid if level == 0
                else np.linspace(lo, hi, grid) for lo, hi in windows]
        pts = np.array(list(itertools.product(*axes))).reshape(grid ** n, n)
        f = profile.objective(pts)
        i = int(np.argmin(f))
        if f[i] < best_obj:
            best, best_obj = pts[i], f[i]
        windows = [(max(c - (hi - lo) / zoom / 2, LAM_FLOOR),
                    min(c + (hi - lo) / zoom / 2, TWO_PI))
                   for c, (lo, hi) in zip(best, windows)]
    values, objective, _ = _settle_twins(profile, best[None, :])
    return OracleResult(tuple(protocol.unknown_names), values, objective)
