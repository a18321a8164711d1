"""Joint state and process-parameter estimation from count records.

Three routes are provided and cross-checked against each other:

* `linear_invert` for protocols whose rotations are fully known (the
  statistics are linear in the Cartesian state coordinates);
* `reconstruct`, a variable-projection search: for fixed strengths the
  statistics are linear in the Cartesian state coordinates, so the state is
  solved by linear least squares and what is left is a profile over the 0,
  1 or 2 strengths; its minima are found stage by stage, the exact-tie
  reflection family of the chosen one is enumerated and ranked by a stated
  rule, and the chosen member is polished on the least-squares or the
  Poisson-deviance objective;
* `grid_oracle`, a brute-force zooming grid over the strengths on the
  same profile objective, which checks that the scan of `reconstruct`
  reaches the global minimum.

The scan runs in stages derived from the protocol (`_scan_stages`) and
solves them by back-substitution (`_scan`).  On the V-type protocol they are
its triangular blocks: lam1 on the settings and coordinates of
ground-excited pair 1, then lam2 on those of pair 2 with pair 1's fit held.
A stage with one strength whose design is a trigonometric polynomial of it
(B and both V blocks) has the profile N/D, a ratio of two Gram determinants
that are trigonometric polynomials of a degree fixed by the setting
multipliers, so its stationary points are the roots of one polynomial,
found by `np.roots` from the determinants at 2K+1 strengths
(`_stage_starts`); no strength grid is evaluated.  Other stages (C-alt's
joint one) are scanned on a grid.  Either way the candidates that tie with
the lowest are refined by damped Gauss-Newton, and exact ties are ordered
by a stated rule (`_stage_minima`).  A stage that fits the data exactly
along a whole curve of strengths (a vanished coherence: N is identically
zero), or that a later stage holds at a near-singular fit (a degenerate
strength), is re-solved with its coherence at zero.
`reconstruct` polishes the scan's solution jointly and `block_solve_v`
does not; the two must agree on exact data.

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
from .protocol import NAMES, STRENGTHS, Protocol, UnknownParams, split_values

OBJECTIVES = ("least_squares", "poisson_mle")
LAM_FLOOR = 1e-9
TINY_MAG = 1e-8
GRAD_TOL = 1e-10  # times max(1, |y|^2), on the largest gradient component
STEP_TOL = 1e-12  # times 1 + max |z|, on the largest step component
COUNT_MAX = 1e100  # largest |count|, so that sums of squares stay finite


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
    Jacobian figures are those of the statistics in `names` at `x`.
    `n_starts_tried` counts the reflection-family members that
    `resolve_twin_family` compared (the name is the result file's key)."""

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
    """Observed statistics as an array: one per setting, all finite and at
    most COUNT_MAX in size, so that the objectives stay finite."""
    y = counts if isinstance(counts, np.ndarray) else observed_values(counts)
    if len(y) != protocol.n_settings:
        raise DimensionMismatch("count vector length differs from settings")
    if not np.all(np.isfinite(y)):
        raise InvalidRange("counts must be finite")
    if np.abs(y).max(initial=0.0) > COUNT_MAX:
        raise InvalidRange(f"counts must be at most {COUNT_MAX:g} in size")
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
# On a stage with one strength whose design is a trigonometric polynomial
# of it (B, both V blocks) the profile is N/D, a ratio of two Gram
# determinants that are trigonometric polynomials too, and its stationary
# points come from the roots of one polynomial (`_stage_starts`).  Other
# stages (C-alt's joint one) are scanned on a grid.  The candidates that
# can tie with the lowest are refined by `_damped_gauss_newton` on the
# projected residual, and the chosen one heads the exact-tie family that
# `resolve_twin_family` ranks.  `grid_oracle` searches the same profile by
# a zooming grid instead.

# grid stages only (a joint or a non-polynomial stage):
SCAN_POINTS = {1: 256, 2: 64}  # grid points per strength axis, by scan dimension
N_REFINE = 6                   # lowest grid minima refined per grid stage
# every stage:
REFINE_ITER = 60
REFINE_FTOL = 1e-8             # least relative gain of an accepted refine step
SCAN_CHUNK = 1024              # profile points per design evaluation
TIE_RTOL = 1e-9
TIE_ATOL = 1e-18               # times max(1, |y|^2), or |y|^2 where stated
# stages with a degree (`_stage_degree`):
ROOT_RTOL = 1e-8               # |D| where rank is lost, times sum |d_k|
ROOT_EPS = 4 * np.finfo(float).eps  # round-off of N/D per sample
SMIN_RTOL = 1e-6               # relative gap of equal smallest singular values
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


def _lstsq(a, y, d_a=None, v0=None) -> tuple:
    """Least squares min |A c - y| per row of a (P, S, K): the coordinates
    and the residuals A c - y; with the strength derivative d_a of A
    (P, S, K, F) also the Golub-Pereyra Jacobian P⊥ v - (A⁺)ᵀ w, with
    v = d_a c (plus v0, (P, S, F), if given) and w = d_aᵀ (A c - y).

    A row whose A passes `_full_rank` is solved by its Householder QR,
    A⁺ = R⁻¹Qᵀ and P⊥ = I - QQᵀ; the others by the pseudo-inverse with
    cutoff RANK_RTOL (`_pinv_solve`), which gives the minimum-norm
    coordinates."""
    if a.shape[1] < a.shape[2]:  # fewer equations than coordinates
        return _pinv_solve(a, y, d_a, v0)
    q, r = np.linalg.qr(a)
    ok, r_inv = _full_rank(r)
    if ok.all():
        return _qr_solve(q, r_inv, y, d_a, v0)
    out = _pinv_solve(a[~ok], y[~ok], *_rows(~ok, d_a, v0))
    if ok.any():
        good = _qr_solve(q[ok], r_inv[ok], y[ok], *_rows(ok, d_a, v0))
        out = [_merge(ok, g, b) for g, b in zip(good, out)]
    return out


def _qr_solve(q, r_inv, y, d_a=None, v0=None) -> tuple:
    """`_lstsq` from A = QR of full rank: coordinates R⁻¹Qᵀy, residuals
    QQᵀy - y and Jacobian v - QQᵀv - QR⁻ᵀw."""
    qty = np.einsum("psc,ps->pc", q, y)
    coords = np.einsum("pck,pk->pc", r_inv, qty)
    resid = np.einsum("psc,pc->ps", q, qty) - y
    if d_a is None:
        return coords, resid
    v = np.einsum("psck,pc->psk", d_a, coords)
    if v0 is not None:
        v += v0
    w = np.einsum("psck,ps->pck", d_a, resid)
    v -= q @ (np.swapaxes(q, 1, 2) @ v)
    return coords, resid, v - q @ (np.swapaxes(r_inv, 1, 2) @ w)


def _pinv_solve(a, y, d_a=None, v0=None) -> tuple:
    """`_lstsq` by the pseudo-inverse with cutoff RANK_RTOL."""
    a_pinv = np.linalg.pinv(a, rcond=RANK_RTOL)
    coords = np.einsum("pcs,ps->pc", a_pinv, y)
    resid = np.einsum("psc,pc->ps", a, coords) - y
    if d_a is None:
        return coords, resid
    v = np.einsum("psck,pc->psk", d_a, coords)
    if v0 is not None:
        v += v0
    v -= a @ (a_pinv @ v)
    w = np.einsum("psck,ps->pck", d_a, resid)
    return coords, resid, v - np.einsum("pcs,pck->psk", a_pinv, w)


def _free_coordinates(protocol: Protocol) -> list:
    """Cartesian coordinates, in order, that the declared unknowns (gamma
    and beta names alike) move: a population its own, a magnitude its
    pair's x, and with the pair's phase its y too.  The rest stay at zero,
    as the layout holds undeclared parameters at zero."""
    dim = protocol.dim
    slots = {NAMES[dim][n][:2] for n in protocol.unknown_names}
    cols = [i for i in range(dim) if ("pop", i) in slots]
    for k in range(len(COHERENCE_PAIRS[dim])):
        if ("mag", k) in slots:
            cols.append(dim + 2 * k)
            if ("phase", k) in slots:
                cols.append(dim + 2 * k + 1)
    return cols


class _Profile:
    """One protocol and count vector as a function of z = [Cartesian state
    coordinates `cols` (all that the declared unknowns move), strengths in
    name order]; the other coordinates are 0.  `fit` solves the
    coordinates at fixed strengths (the scan and the refine), `model` gives
    the statistics of a whole z (the polish), `bounds` is the box of z, and
    `start` and `point` convert from and to the parameter vector in name
    order."""

    def __init__(self, protocol: Protocol, y: np.ndarray):
        self.layout = ProtocolLayout(protocol)
        self.y = y
        self.lam_cols = self.layout.lam_cols
        self.cols = _free_coordinates(protocol)
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

    def fit(self, lam, rows=None, cols=None, free=None, held=None):
        """Coordinates (P, len(cols)) and residual vectors (P, S) at each
        row of lam, fit on the settings `rows` (default all) with the
        coordinates `cols` (default the profile's `cols`).  The other
        coordinates are held at `held` (all coordinates, 0 on `cols`;
        default 0): the fit is to the counts less D @ held on `rows`.

        With `free` (strength indices) also the Jacobian of the residuals in
        those strengths, (P, S, len(free)), in the full variable-projection
        form of Golub & Pereyra (Inverse Problems 19, R1, 2003):
        P⊥ (∂D/∂lam) c_full - (A⁺)ᵀ (∂A/∂lam)ᵀ r, where D is the design,
        A its columns `cols`, c_full the held coordinates with the fitted
        ones on `cols`, and P⊥ = I - A A⁺, all on `rows`.  The least
        squares is `_lstsq`, a batched Householder QR with the
        pseudo-inverse, which gives the minimum-norm coordinates, for rows
        that fail its rank test.
        """
        x = self._at(np.atleast_2d(lam))
        rows = slice(None) if rows is None else rows
        cols = self.cols if cols is None else cols
        if free is None:
            design = self.layout.design(x)[:, rows]
        else:
            design, d_design = self.layout.design_and_derivative(x)
            design, d_design = design[:, rows], d_design[:, rows][..., free]
        a = design[:, :, cols]
        y = np.broadcast_to(self.y[rows], a.shape[:2])
        if held is not None:
            y = y - design @ held
        if free is None:
            return _lstsq(a, y)
        v0 = None if held is None else np.einsum("psck,c->psk", d_design, held)
        return _lstsq(a, y, d_design[:, :, cols], v0)

    def objective(self, lam, rows=None, cols=None, held=None) -> np.ndarray:
        """Profile least-squares objective at each row of lam (see `fit`)."""
        return np.concatenate([
            (self.fit(lam[i:i + SCAN_CHUNK], rows, cols, held=held)[1] ** 2
             ).sum(axis=1)
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

    def refine(self, lam, free, rows, cols, held) -> tuple:
        """`_damped_gauss_newton` on the projected residual of `fit` on
        `rows` and `cols`, with `held` held, over the strengths `free` from
        each row of strengths `lam` (the other strengths are the same in
        every row); returns the end rows and their objectives.  A start
        also stops on an accepted step that gains at most REFINE_FTOL of
        its objective: one that creeps towards a degenerate strength
        (lam -> 0, 2*pi, or pi where sin(lam) silences settings) gains that
        little per step, one that converges to a root orders of magnitude
        more.
        """
        lam = np.array(lam, dtype=float)

        def residual(z):
            at = np.tile(lam[0], (len(z), 1))
            at[:, free] = z
            return self.fit(at, rows, cols, free, held)[1:]

        lam[:, free], f, _, _ = _damped_gauss_newton(
            residual, lam[:, free], LAM_FLOOR, TWO_PI, 0.0, "least_squares",
            self.scale, REFINE_ITER, REFINE_FTOL)
        return lam, f


def _scan_stages(profile: _Profile) -> list:
    """The blocks the profile is scanned on in turn, derived from its
    protocol: [(strength indices, setting rows, coordinates)].

    When every strength has settings that drive it alone, each strength is
    a stage on those settings (the first also on the settings that drive
    none) and on the coordinates of `cols` they move that no earlier stage
    moved; a column moves when it is non-zero at the generic probe points
    of `identify.structural_zero_columns`.  On V that is block 1 (lam1;
    settings 0-4; rho00, rho11, x01, y01) and block 2 (lam2; settings 5-8;
    rho22, x02, y02), which also see rho00 and rho11 and hold them at
    block 1's fit (`_scan`).  Otherwise the strengths are one joint stage on
    every setting and coordinate (C-alt).
    """
    protocol = profile.layout.protocol
    lams = protocol.process_unknown_names
    deps = [s.driven_strengths() & set(lams) for s in protocol.settings]
    if not all(any(d == {n} for d in deps) for n in lams):
        return [(list(range(len(lams))), None, profile.cols)]
    moves = profile.layout.design(identify._probe_vectors(protocol)).any(axis=0)
    stages, moved = [], set()
    for k, name in enumerate(lams):
        rows = [i for i, d in enumerate(deps) if d == {name} or not (k or d)]
        cols = [c for c in profile.cols
                if c not in moved and moves[rows, c].any()]
        moved.update(cols)
        stages.append(([k], rows, cols))
    return stages


def _stage_degree(profile: _Profile, free, rows):
    """Degree K of a one-strength stage's Gram determinants as
    trigonometric polynomials of its strength, or None when its design is
    not a trigonometric polynomial of it (two strengths, a non-integer
    multiplier, or a setting that also drives another generator).

    A setting with multiplier m on the strength and no other generator
    term rotates by m*lam (plus a fixed angle on the same generator), so
    its design row is a trigonometric polynomial of degree |m|.  By
    Cauchy-Binet det Gram(M) is a sum of squared minors of M, one row
    each, so K = 2 * sum |m| over the rows bounds both determinants.
    """
    if len(free) != 1:
        return None
    protocol = profile.layout.protocol
    name = protocol.process_unknown_names[free[0]]
    degree = 0
    for i in range(protocol.n_settings) if rows is None else rows:
        s = protocol.settings[i]
        terms = {n: (m, fixed) for n, m, fixed in zip(
            STRENGTHS[protocol.dim], s.multipliers + (s.mz,),
            s.fixed_couplings + (s.fixed_diag,))}
        m = terms.pop(name)[0]
        if m == 0.0:
            continue
        if m != round(m) or any(any(t) for t in terms.values()):
            return None
        degree += abs(int(m))
    return 2 * degree


def _stage_points(profile: _Profile, lam, free, rows) -> np.ndarray:
    """The strength rows a stage is sampled at, `lam` in the other
    strengths: the 2K+1 equispaced points that fix trigonometric
    polynomials of degree K (`_stage_degree`), or else a grid of
    SCAN_POINTS per strength."""
    k = _stage_degree(profile, free, rows)
    if k is None:
        g = SCAN_POINTS[len(free)]
        axis = TWO_PI * (np.arange(g) + 0.5) / g
        grid = np.stack(np.meshgrid(*[axis] * len(free), indexing="ij"),
                        axis=-1).reshape(-1, len(free))
    else:
        grid = (TWO_PI * np.arange(2 * k + 1) / (2 * k + 1))[:, None]
    pts = np.tile(lam, (len(grid), 1))
    pts[:, free] = grid
    return pts


def _gram_determinants(profile: _Profile, pts, rows, cols, held) -> tuple:
    """N = det Gram([A b]) and D = det Gram(A) at each strength row of
    pts, with A the design's columns `cols` on the settings `rows` and b
    the counts there less design @ held, from the diagonal of the R factor
    of [A b] (N/D is the stage's least-squares objective, its last pivot
    squared).  Missing rows count as zero rows, which make N vanish."""
    design = profile.layout.design(profile._at(pts))[:, rows]
    m = np.concatenate([design[..., cols],
                        (profile.y[rows] - design @ held)[..., None]], axis=2)
    m = np.pad(m, ((0, 0), (0, max(0, len(cols) + 1 - m.shape[1])), (0, 0)))
    r2 = np.abs(np.diagonal(np.linalg.qr(m, mode="r"), axis1=1, axis2=2)) ** 2
    return r2.prod(axis=1), r2[:, :-1].prod(axis=1)


def _stage_starts(profile: _Profile, pts, rows, cols, held) -> tuple:
    """The strength rows a stage's refine starts from, and whether the
    stage is flat (fits the counts exactly at every strength), from its
    samples at `pts` (`_stage_points`; the free strengths are the ones
    that vary there).

    A stage with a degree (`_stage_degree`) is flat when N is zero
    relative to TIE_ATOL * |y|^2 * D at every sample.  Otherwise the
    stationary points of N/D are the roots of F = N'D - ND', a
    trigonometric polynomial of degree 2K - 1, so e^{i(2K-1) lam} F is a
    polynomial of degree 4K - 2 in e^{i lam} whose coefficients come from
    the Fourier coefficients of N and D (Boyd, J. Eng. Math. 56, 203,
    2006).  Every root is kept and mapped to an angle in [LAM_FLOOR,
    2*pi]; roots off the unit circle only add candidates, and F vanishes
    at D's multiple zeros, so the limits where the design loses rank
    (lam -> 0, pi, 2*pi) are among them.  Each candidate is ranked by N/D
    from the Fourier coefficients n_k and d_k, with the bound
    ROOT_EPS * (2K+1) * (sum |n_k| + N/D sum |d_k|) / D on its round-off.
    Where D is at most ROOT_RTOL * sum |d_k| (rank lost) that bound is
    void: those candidates are ranked by `fit` instead, unless another
    candidate already fits exactly.  The refine starts from every
    candidate that can tie with the lowest, lowest first.

    Any other stage is flat when its objective (`_Profile.objective`) is
    at most TIE_ATOL * |y|^2 at more than half of its grid, and its refine
    starts from the N_REFINE lowest grid minima (`_grid_minima`).
    """
    free = list(np.flatnonzero(pts.min(axis=0) < pts.max(axis=0)))
    ysq = float((profile.y ** 2).sum())
    if _stage_degree(profile, free, rows) is None:
        g = SCAN_POINTS[len(free)]
        f = profile.objective(pts, rows, cols, held)
        flat = np.sum(f <= TIE_ATOL * ysq) > f.size / 2
        return pts[_grid_minima(f.reshape((g,) * len(free)), N_REFINE)], flat
    n, d = _gram_determinants(profile, pts, rows, cols, held)
    if n.max() <= TIE_ATOL * ysq * d.max():
        return pts, True
    # len(pts) times the Fourier coefficients, frequencies -K..K
    k = np.arange(len(pts)) - len(pts) // 2
    dft = np.exp(-1j * np.outer(k, pts[:, free[0]]))
    cn, cd = dft @ n, dft @ d
    # F's coefficients at e^{+-2iK lam}, i(K - K) n_K d_K, vanish
    roots = np.roots((np.convolve(1j * k * cn, cd)
                      - np.convolve(cn, 1j * k * cd))[-2:0:-1])
    theta = np.clip(np.mod(np.angle(roots), TWO_PI), LAM_FLOOR, TWO_PI)
    waves = np.exp(1j * np.outer(theta, k))
    num, den = (waves @ cn).real, (waves @ cd).real
    lost = den <= ROOT_RTOL * np.abs(cd).sum()
    value = num / np.where(lost, 1.0, den)
    err = ROOT_EPS * len(pts) * (np.abs(cn).sum() + np.abs(value)
                                 * np.abs(cd).sum()) / np.where(lost, 1.0, den)
    starts = np.tile(pts[0], (len(theta), 1))
    starts[:, free[0]] = theta
    if lost.any() and not np.any((value - err)[~lost] <= 0.0):
        value[lost] = profile.objective(starts[lost], rows, cols, held)
        err[lost], lost[:] = 0.0, False
    best = (value + err)[~lost].min()
    tied = ~lost & (value - err <= best + max(TIE_RTOL * best,
                                               TIE_ATOL * ysq))
    order = np.flatnonzero(tied)
    return starts[order[np.argsort(value[order], kind="stable")]], False


def _grid_minima(f: np.ndarray, n: int) -> np.ndarray:
    """Flat indices of the n lowest local minima of a 1-D or 2-D grid (the
    refine starts of a grid stage)."""
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


def _stage_jacobian(profile: _Profile, lam, free, rows, cols, held):
    """A stage's Jacobian at its fit at each row of strengths lam: the
    derivative of the statistics on its settings `rows` in its coordinates
    `cols` and strengths `free`, the other coordinates at `held`."""
    c_full = np.tile(held, (len(lam), 1))
    c_full[:, cols] = profile.fit(lam, rows, cols, held=held)[0]
    _, jac = profile.model(
        np.concatenate([c_full[:, profile.cols], lam], axis=1), True)
    n = len(profile.cols)
    return jac[:, rows][..., [profile.cols.index(c) for c in cols]
                        + [n + k for k in free]]


def _near_singular(profile: _Profile, lam, free, rows, cols, held) -> bool:
    """Whether a stage's Jacobian at its fit at the strengths lam is
    near-singular by the rule of `singular_at_solution`."""
    jac = _stage_jacobian(profile, lam[None, :], free, rows, cols, held)[0]
    smin = np.linalg.svd(jac, compute_uv=False)[-1]
    return bool(identify.near_singular(jac, smin))


def _stage_minima(profile: _Profile, starts, free, rows, cols, held) -> tuple:
    """A stage's refined minima from the strength rows `starts`, the one
    to go on from first, and that one.

    It is, among the end points whose objective ties with the lowest
    relative to |y|^2 (`_ties`), the one with the fewest strengths above pi
    (the canonical member of a reflection pair), then the one whose stage
    Jacobian (`_stage_jacobian`) has the largest smallest singular value
    (values within SMIN_RTOL of each other count as equal, so copies of
    one root do not), then the first offered.  Distinct exact roots are
    ordered by their conditioning, which round-off cannot flip."""
    cand, f = profile.refine(starts, free, rows, cols, held)
    ties = _ties(f, float((profile.y ** 2).sum()))
    n_large = (cand[ties] > math.pi + 1e-12).sum(axis=1)
    group = ties[n_large == n_large.min()]
    best = group[0]
    if len(group) > 1:
        jac = _stage_jacobian(profile, cand[group], free, rows, cols, held)
        smin = np.linalg.svd(jac, compute_uv=False)[:, -1]
        best = group[np.flatnonzero(smin >= (1.0 - SMIN_RTOL) * smin.max())[0]]
    order = [best] + [i for i in range(len(cand)) if i != best]
    return cand[order], cand[best]


def _scan(profile: _Profile) -> np.ndarray:
    """Refined profile minima of the last stage of `_scan_stages`, one row
    of strengths each, the one to go on from first, by back-substitution:
    every later stage holds the strengths and the coordinates that an
    earlier one fitted at its chosen minimum, so on exact data each
    stage's profile vanishes at the true strengths.  Each stage refines
    the starts of `_stage_starts` and picks by the rule of
    `_stage_minima`.  `prefer_sparse_coherences` re-solves a flat stage
    and one that a later stage would hold at a near-singular fit
    (`_near_singular`)."""
    lam = np.full(len(profile.lam_cols), math.pi / 2)  # not yet scanned
    cand = lam[None, :]
    held = np.zeros(profile.layout.dim + 2 * profile.layout.npair)
    stages = _scan_stages(profile)
    for k, (free, rows, cols) in enumerate(stages):
        last = k + 1 == len(stages)
        pts = _stage_points(profile, lam, free, rows)
        starts, flat = _stage_starts(profile, pts, rows, cols, held)
        if not flat:
            cand, lam = _stage_minima(profile, starts, free, rows, cols, held)
        if flat or not last and _near_singular(profile, lam, free, rows,
                                               cols, held):
            cols, starts = prefer_sparse_coherences(profile, pts, rows, cols,
                                                    held)
            cand, lam = _stage_minima(profile, starts, free, rows, cols, held)
        if not last:
            held[cols] = profile.fit(lam, rows, cols, held=held)[0][0]
    return cand


def prefer_sparse_coherences(profile: _Profile, pts: np.ndarray, rows, cols,
                             held) -> tuple:
    """A stage of `_scan` re-solved on its populations alone, with its
    coherence at zero: the stage's coordinates left and the strength rows
    its refine starts from, from its samples at `pts` (`_stage_starts`).
    (`sctbench/tracer.py` hooks this name.)

    When a coherence vanishes (the zero locus |J_A| = rho01 of B, and
    rho01 or rho02 on the V blocks), its phase drops out of the statistics
    and the stage fits the data exactly along a whole curve of strengths,
    each with a coherence of its own: N vanishes identically.  A stage
    profile that fits exactly at isolated strengths only has an N that is
    a non-zero trigonometric polynomial.  At a degenerate strength
    (lam -> 0, where the coherence's columns vanish) noisy counts are fit
    by coordinates that grow without bound.  Without the coherence the
    populations single the strength out up to its reflection, or leave a
    few exact roots, which the rule of `_stage_minima` orders.  The state
    is then fitted on every coordinate (`resolve_twin_family`), and a
    vanished coherence's phase is reported undefined."""
    cols = [c for c in cols if c < profile.layout.dim]
    return cols, _stage_starts(profile, pts, rows, cols, held)[0]


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
# `reconstruct` and `block_solve_v` on the minima of their staged scan and
# `grid_oracle` on its grid's incumbent (`_settle_twins`).  Among exact ties
# the rule of `_branch_key` decides; otherwise the data do.


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
    for a scan, its chosen minimum first) plus each reflection
    lam_j -> 2*pi - lam_j (one or more strengths at once) of the best one
    (`_best_minimum`), with the Cartesian state re-solved linearly at each.
    The members whose least-squares objective ties with the lowest are
    ranked by `_branch_key` on their Cartesian coordinates, so distinct
    exact roots that are both physical with every lam <= pi (a vanished
    coherence can leave two) go by the order offered, which for a scan is
    the rule of `_stage_minima`.  Returns the chosen
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


def _settle_twins(profile: _Profile, cand: np.ndarray) -> tuple:
    """The member `resolve_twin_family` picks for the strength rows `cand`,
    held in the box of `_Profile.bounds`: its parameter vector in name
    order, its least-squares objective and the number of members compared."""
    z, n_members = resolve_twin_family(profile, cand)
    z = np.clip(z, *profile.bounds())
    f = float(_objective_values(profile.model(z), profile.y,
                                "least_squares")[0])
    return profile.point(z), f, n_members


# ---------------------------------------------------------------------------
# Reconstruction
# ---------------------------------------------------------------------------


def _package_result(protocol: Protocol, x: np.ndarray, outcome_f: float,
                    grad_norm: float, n_starts: int, converged: bool,
                    objective: str) -> ReconstructionResult:
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
       the 0, 1 or 2 strengths, searched in the stages of `_scan_stages`,
       each on its own settings and coordinates: B scans lam_c, V scans
       lam1 on block 1 and then lam2 on block 2 with block 1's fit held,
       C-alt scans (lam_c, lam_z) jointly on every setting, and a protocol
       without strengths (A) is a single linear solve.  A one-strength
       stage whose design is a trigonometric polynomial of its strength
       (B, both V blocks) takes its candidates from the roots of
       N'D - ND', N and D the Gram determinants whose ratio is its profile
       (`_stage_starts`); another stage takes the N_REFINE lowest minima of
       a grid of SCAN_POINTS per strength.  The candidates that can tie
       with the lowest are refined by damped Gauss-Newton on the projected
       residual, with its closed-form Jacobian, and a start whose steps
       stall stops early; exact ties at distinct strengths go by the rule
       of `_stage_minima`.  A flat stage, one that fits the data exactly at
       every strength (a vanished coherence), and a stage that a later one
       holds at a near-singular fit (a degenerate strength) are re-solved
       with their coherence at zero (`_scan`).
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
    z0, n_members = resolve_twin_family(profile, _scan(profile))
    outcome = _lm_multistart(profile, y, z0, options.objective, options)
    return _package_result(protocol, outcome.x, outcome.f, outcome.gradient_norm,
                           n_members, outcome.converged, options.objective)


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


def block_solve_v(counts, protocol: Protocol,
                  options: SolverOptions = None) -> ReconstructionResult:
    """Solve the V-type protocol block by block along its triangular structure.

    The staged scan of `reconstruct` (`_scan`): block 1 finds lam1 on the
    settings that drive it alone (rho00, rho11 and the 0-1 pair), then
    block 2 finds lam2 on its own (rho22 and the 0-2 pair) with block 1's
    fit held.  The state is then one linear least-squares solve over all
    settings at those strengths and at each of their reflections, and the
    member is picked by the rule of `reconstruct` (`_settle_twins`).  V is
    square, so at the blocks' strengths this solve reproduces the blocks'
    state and fits the excited-excited coherence (block 3, the settings
    that drive both couplings) exactly.  There is no polish, so on exact
    data the agreement with `reconstruct` checks it.  The fits are least
    squares; `options.objective` sets the reported residual and
    gradient, and `converged` reports whether that gradient meets GRAD_TOL.
    """
    options = options or SolverOptions()
    if protocol.name.split("~")[0] != "V" or protocol.dim != 3:
        raise InvalidRange("block solve is defined for the V-type protocol")
    y = _count_vector(counts, protocol)
    profile = _Profile(protocol, y)
    x, _, n_members = _settle_twins(profile, _scan(profile))
    f, grad = objective_eval(x, y, protocol, options.objective)
    gnorm = float(np.abs(grad).max())
    converged = gnorm <= GRAD_TOL * max(1.0, float((y ** 2).sum()))
    return _package_result(protocol, x, f, gnorm, n_members, converged,
                           options.objective)


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
    outer search (scan stages, roots, grid minima, refine).

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
