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
and even in it (B and both V blocks, `_stage_degree`) has the profile N/D, a
ratio of two Gram determinants that are cosine series of a degree fixed by
the setting multipliers, so its stationary points come from the roots of one
real polynomial in cos(lam), the eigenvalues of a colleague matrix built
from the determinants at 2K+1 strengths (`_stage_starts`).  Other stages
(C-alt's joint one, a stage with a fixed angle on its own generator) are
scanned on a fixed grid, each sample valued by its residual |b - QQᵀb|².
Either way the candidates that tie with the lowest are refined by damped
Gauss-Newton, and exact ties are ordered by a stated rule
(`_stage_minima`).  A stage that fits the data exactly along a whole curve
of strengths (a vanished coherence: N is identically zero), or that a
later stage holds at a near-singular fit (a degenerate strength), is
re-solved with its coherence at zero.
`reconstruct` polishes the scan's solution jointly and `block_solve_v`
does not; the two must agree on exact data.

What depends on the protocol alone is compiled once per protocol into a
plan (`_plan`, a bounded cache keyed on the protocol's value, so a protocol
loaded anew for each solve hits it too): the layout, shared with
`identify`; the free coordinates; the structural verdict; and the stages,
each compiled alike: its layout on its own settings, its degree and sample
strengths, its design at those samples, and the Q factor, Gram
determinant and per-sample rank verdict of its columns; a stage with a
degree also the Fourier coefficients of its design, from which its
refine takes the design and its derivative at any strength without the
kernel (`_Stage.evaluate`).  A solve pays only for what depends on its
counts: each stage's sample residuals from the plan's factors (the
determinants N and the roots for an exact stage, the grid values for any
other), the refines, the twin family, the polish and the report.

The reflections lam_j -> 2*pi - lam_j are exact ties of the data, and every
solver settles them by one rule, in one place: `resolve_twin_family`
reflects the strengths, re-solves the Cartesian state at each member, and
ranks the tied members by `_branch_keys` (physical first, then the fewest
strengths above pi, then the order offered).

The solvers work on z = [Cartesian state coordinates, strengths]
(`_Profile`), and one damped Gauss-Newton loop, `_damped_gauss_newton`,
runs both the profile refine and the polish, with closed-form Jacobians
and no finite difference.  The inner linear least squares of the profile
is one batched Householder QR per call; only points whose design fails a
rank test (degenerate strengths) fall back to the pseudo-inverse.
Magnitude and phase appear only at the boundary: `_Profile.start` and
`_Profile.point`, and the result diagnostics (`ProtocolLayout.jacobian`).

A solve hands each kernel evaluation (the design and its strength
derivative) on instead of redoing it.  `_damped_gauss_newton` returns
its last evaluation of the rows it ends on: the refine's gives
`_stage_minima` the stage Jacobians, the near-singular verdict and the
coordinates a later stage holds, the polish's gives `_package_result` its
report.  `resolve_twin_family` fits the minima and all their reflections
in one batch.  An exact solve whose refines start at their roots calls
the kernel twice: the twin family and the polish.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import identify
from .errors import (DimensionMismatch, EmptyRegion, InvalidRange,
                     RankDeficient, SingularAtSolutionWarning,
                     StructuralSingularity)
from .forward import ProtocolLayout, layout_of, observed_values, read_only
from .model import (COHERENCE_PAIRS, DensityParams, PHASE_NAMES, TWO_PI,
                    state_matrix, state_params_from_matrix, wrap_phase)
from .protocol import NAMES, STRENGTHS, Protocol, UnknownParams, split_values

OBJECTIVES = ("least_squares", "poisson_mle")
LAM_FLOOR = 1e-9
TINY_MAG = 1e-8
GRAD_TOL = 1e-10  # times max(1, |y|^2), on the largest gradient component
STEP_TOL = 1e-12  # times 1 + max |z|, on the largest step component
COUNT_MAX = 1e100  # largest |count|, so that sums of squares stay finite


def _check_count(name: str, value, least: int, error=InvalidRange) -> None:
    """Refuse, by `error`, a value that is not an integer (a bool is not)
    of at least `least`."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < least):
        raise error(f"{name} {value!r}: must be an integer >= {least}")


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
        _check_count("max_iter", self.max_iter, 1)


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
    """Observed statistics as a 1-D real array: one per setting, all finite
    and at most COUNT_MAX in size, so that the objectives stay finite."""
    y = counts if isinstance(counts, np.ndarray) else observed_values(counts)
    if y.ndim != 1 or len(y) != protocol.n_settings:
        raise DimensionMismatch(f"need one count per setting, not {y.shape}")
    if y.dtype.kind not in "iuf":
        raise InvalidRange(f"counts must be real numbers, not {y.dtype}")
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
    profile = _Profile(protocol, counts)
    no_strengths = np.zeros((1, 0))
    a = profile.layout.design(profile.plan.at(no_strengths))[0][:, profile.cols]
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
    layout = layout_of(protocol)
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

    `fun` maps rows (P, K) to values (P, S), their Jacobian (P, S, K) and
    any further per-row arrays, so one call per iteration serves the trial
    and, once accepted, the next step.  Accepted steps never raise a row's
    objective.  A row stops converged at the floor objective (1e-30 *
    scale) or on a step that moves it by at most STEP_TOL, and unconverged
    when a rejected step leaves its damping at 1e12 or more; with `ftol` >
    0 also on an accepted step that gains at most `ftol` of its objective.
    Returns the rows, their objectives, whether each converged, and the
    last evaluation of `fun` at the rows returned (values, Jacobian and
    the further arrays).
    """
    z = np.clip(np.array(z, dtype=float), lo, hi)
    n_model, jac, *extra = fun(z)
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
        n_trial, j_trial, *e_trial = fun(trial)
        f_trial = _objective_values(n_trial, y, kind)
        accept = f_trial <= f[act]
        acc, rej = act[accept], act[~accept]
        if ftol > 0:
            done[acc[f[acc] - f_trial[accept] <= ftol * f[acc]]] = True
        z[acc], f[acc] = trial[accept], f_trial[accept]
        n_model[acc], jac[acc] = n_trial[accept], j_trial[accept]
        for kept, new in zip(extra, e_trial):
            kept[acc] = new[accept]
        mu[acc] = np.maximum(mu[acc] / 3.0, 1e-14)
        mu[rej] *= 7.0
        moved = np.abs(trial - za).max(axis=1)
        converged[act[moved <= STEP_TOL * (1.0 + np.abs(za).max(axis=1))]] = True
        converged[acc[f[acc] <= floor]] = True
        done |= converged
        done[rej[mu[rej] >= 1e12]] = True
    return z, f, converged, (n_model, jac, *extra)


@dataclass
class _FitOutcome:
    x: np.ndarray
    f: float
    converged: bool
    gradient_norm: float
    evaluation: tuple  # design and its strength derivative at x, one row


def _lm_multistart(profile: _Profile, y: np.ndarray, start: np.ndarray,
                   kind: str, options: SolverOptions) -> _FitOutcome:
    """The polish: `_damped_gauss_newton` on the objective `kind` of
    `_Profile.model` from the z `start`, inside `_Profile.bounds`; the
    outcome's `x` is in name order, and its `gradient_norm` the largest
    component of the projected gradient at the end point
    (`_projected_descent`).  (`sctbench/tracer.py` hooks this name.)
    """
    lo, hi = profile.bounds()
    z, f, converged, (n_model, jac, *evaluation) = _damped_gauss_newton(
        lambda rows: profile.model(rows, jacobian=True), start[None, :],
        lo, hi, y, kind, profile.scale, options.max_iter)
    g, _ = _projected_descent(z, n_model, jac, f, y, kind, lo, hi)
    return _FitOutcome(profile.point(z[0]), float(f[0]), bool(converged[0]),
                       float(np.abs(g[0]).max(initial=0.0)), tuple(evaluation))


# ---------------------------------------------------------------------------
# Variable projection: the strengths outside, the Cartesian state inside
# ---------------------------------------------------------------------------
#
# For fixed strengths the statistics are linear in the Cartesian state
# coordinates (`ProtocolLayout.design`), so the least-squares objective is
# minimized over the state exactly, by a QR factorization per point, and
# what remains is a function of the 0, 1 or 2 strengths alone (Golub &
# Pereyra, SIAM J. Numer. Anal. 10, 1973), searched as the module
# docstring describes.

# grid stages only (a joint or a non-polynomial stage):
SCAN_POINTS = {1: 256, 2: 64}  # grid points per strength axis, by scan dimension
N_REFINE = 6                   # lowest grid minima refined per grid stage
# every stage:
REFINE_ITER = 60
REFINE_FTOL = 1e-8             # least relative gain of an accepted refine step
SCAN_CHUNK = 1024              # profile points per design evaluation
PLAN_CACHE = 64                # protocols whose plans `_plan` keeps
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
    """One count vector (checked by `_count_vector`) on its protocol's
    plan (`_plan`) as a function of z = [Cartesian state coordinates `cols`
    (all that the declared unknowns move), strengths in name order]; the
    other coordinates are 0.  `fit` solves the coordinates at fixed
    strengths (the scan and the refine), `model` gives the statistics of a
    whole z (the polish), `bounds` is the box of z, and `start` and `point`
    convert from and to the parameter vector in name order."""

    def __init__(self, protocol: Protocol, counts):
        self.plan = _plan(protocol)
        self.layout = self.plan.layout
        self.y = _count_vector(counts, protocol)
        self.lam_cols = self.layout.lam_cols
        self.cols = self.plan.cols
        self.scale = max(1.0, float((self.y ** 2).sum()))

    def _full(self, coords) -> np.ndarray:
        """All coordinates: `coords` on `cols`, 0 elsewhere."""
        layout = self.layout
        c_full = np.zeros((len(coords), layout.dim + 2 * layout.npair))
        c_full[:, self.cols] = coords
        return c_full

    def counts(self, layout) -> np.ndarray:
        """The counts on the settings of `layout` (`ProtocolLayout.rows`)."""
        return self.y if layout.rows is None else self.y[layout.rows]

    def fit(self, lam, layout=None, cols=None, free=None, held=None):
        """Coordinates (P, len(cols)) and residual vectors (P, S) at each
        row of lam, fit on the settings of `layout` (default the protocol's,
        all settings; a stage's covers its rows) with the coordinates `cols`
        (default the profile's `cols`).  The other coordinates are held at
        `held` (all coordinates, 0 on `cols`; default 0): the fit is to the
        counts less D @ held on those settings.

        With `free` (strength indices) also the Jacobian of the residuals in
        those strengths, (P, S, len(free)), in the full variable-projection
        form of Golub & Pereyra (Inverse Problems 19, R1, 2003):
        P⊥ (∂D/∂lam) c_full - (A⁺)ᵀ (∂A/∂lam)ᵀ r, where D is the design,
        A its columns `cols`, c_full the held coordinates with the fitted
        ones on `cols`, and P⊥ = I - A A⁺, all on those settings, by
        `_lstsq`.
        """
        x = self.plan.at(np.atleast_2d(lam))
        layout = self.layout if layout is None else layout
        if free is None:
            return self.solve(layout, layout.design(x), cols, held=held)
        design, d_design = layout.design_and_derivative(x)
        return self.solve(layout, design, cols, d_design[..., free], held)

    def solve(self, layout, design, cols=None, d_design=None, held=None):
        """`fit` on a design (P, S, C) made on the settings of `layout`, and
        for the Jacobian its derivative in the strengths `free` (P, S, C, F)."""
        cols = self.cols if cols is None else cols
        a = design[:, :, cols]
        y = np.broadcast_to(self.counts(layout), a.shape[:2])
        if held is not None:
            y = y - design @ held
        if d_design is None:
            return _lstsq(a, y)
        v0 = None if held is None else np.einsum("psck,c->psk", d_design, held)
        return _lstsq(a, y, d_design[:, :, cols], v0)

    def objective(self, lam, layout=None, cols=None, held=None) -> np.ndarray:
        """Profile least-squares objective at each row of lam (see `fit`)."""
        return np.concatenate([
            (self.fit(lam[i:i + SCAN_CHUNK], layout, cols, held=held)[1] ** 2
             ).sum(axis=1)
            for i in range(0, len(lam), SCAN_CHUNK)])

    def model(self, z, jacobian=False):
        """Statistics design @ c_full (P, S) at each row of z; with `jacobian`
        also their derivative [design[..., cols], ∂design/∂lam @ c_full],
        the design and ∂design/∂lam."""
        z = np.atleast_2d(z)
        n = len(self.cols)
        x, c_full = self.plan.at(z[:, n:]), self._full(z[:, :n])
        if not jacobian:
            return np.einsum("psc,pc->ps", self.layout.design(x), c_full)
        design, d_design = self.layout.design_and_derivative(x)
        jac = np.concatenate(
            [design[..., self.cols], np.einsum("psck,pc->psk", d_design, c_full)],
            axis=2)
        return np.einsum("psc,pc->ps", design, c_full), jac, design, d_design

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
        """z of a parameter vector in name order, which must be finite."""
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise InvalidRange("a start must be finite")
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

    def refine(self, stage, lam, held) -> tuple:
        """`_damped_gauss_newton` on the projected residual of `solve` on
        the settings and coordinates of a `_Stage`, with `held` held, over
        its strengths `free` from each row of strengths `lam` (the other
        strengths are the same in every row); returns the end rows, their
        objectives and (coordinates, design, ∂design/∂free) at them.  The
        design and its derivative come from `_Stage.evaluate`: from the
        plan's Fourier coefficients on a stage with a degree, from the
        kernel on its settings otherwise.  A start also stops on an
        accepted step that gains at most REFINE_FTOL of its objective: one
        that creeps towards a degenerate strength (lam -> 0, 2*pi, or pi
        where sin(lam) silences settings) gains that little per step, one
        that converges to a root orders of magnitude more.
        """
        lam, free = np.array(lam, dtype=float), stage.free

        def residual(z):
            design, d_design = stage.evaluate(z)
            coords, resid, jac = self.solve(stage.layout, design, stage.cols,
                                            d_design, held)
            return resid, jac, coords, design, d_design

        lam[:, free], f, _, (_, _, *evaluation) = _damped_gauss_newton(
            residual, lam[:, free], LAM_FLOOR, TWO_PI, 0.0, "least_squares",
            self.scale, REFINE_ITER, REFINE_FTOL)
        return lam, f, evaluation


# ---------------------------------------------------------------------------
# The solve plan: the work that depends on the protocol alone, done once
# ---------------------------------------------------------------------------


def _scan_stages(layout: ProtocolLayout, cols) -> list:
    """The blocks a protocol's profile is scanned on in turn, derived from
    the protocol of `layout` and its free coordinates `cols`
    (`_free_coordinates`): [(strength indices, setting rows, coordinates)].

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
    protocol = layout.protocol
    lams = protocol.process_unknown_names
    deps = [s.driven_strengths() & set(lams) for s in protocol.settings]
    if not all(any(d == {n} for d in deps) for n in lams):
        return [(list(range(len(lams))), None, cols)]
    moves = layout.design(identify._probe_vectors(protocol)).any(axis=0)
    stages, moved = [], set()
    for k, name in enumerate(lams):
        rows = [i for i, d in enumerate(deps) if d == {name} or not (k or d)]
        stage_cols = [c for c in cols
                      if c not in moved and moves[rows, c].any()]
        moved.update(stage_cols)
        stages.append(([k], rows, stage_cols))
    return stages


def _stage_degree(protocol: Protocol, free, rows):
    """Degree K of a one-strength stage's Gram determinants as cosine
    series of its strength, or None when they are not: two strengths, a
    non-integer multiplier, a setting that also drives another generator,
    or a fixed angle on the stage's own generator in any of its settings.

    A setting with multiplier m on the strength and no other generator
    term rotates by m*lam, so its design row is a trigonometric polynomial
    of degree |m|.  By Cauchy-Binet det Gram(M) is a sum of squared minors
    of M, one row each, so K = 2 * sum |m| over the rows bounds both.
    Both are even in lam.  Let Σ flip the sign of the excited level of the
    stage's coupling: Σ negates that coupling's generator, so
    U(-lam) = Σ U(lam) Σ, and commutes with the measured projectors and
    every other generator term.  The statistics at -lam are those at lam
    of Σ rho Σ, so the design at -lam is the one at lam with the columns of
    that level's coherences negated (none of which an earlier stage holds),
    and no Gram determinant changes.  A fixed angle a on the own generator
    breaks this (m*lam + a does not go to its negative, even at m = 0), so
    evenness comes from the protocol, never from a trial on the data.
    """
    if len(free) != 1:
        return None
    name = protocol.process_unknown_names[free[0]]
    degree = 0
    for i in range(protocol.n_settings) if rows is None else rows:
        s = protocol.settings[i]
        terms = {n: (m, fixed) for n, m, fixed in zip(
            STRENGTHS[protocol.dim], s.multipliers + (s.mz,),
            s.fixed_couplings + (s.fixed_diag,))}
        m, offset = terms.pop(name)
        if offset:
            return None
        if m == 0.0:
            continue
        if m != round(m) or any(any(t) for t in terms.values()):
            return None
        degree += abs(int(m))
    return 2 * degree


def _stage_samples(degree, n_free: int) -> np.ndarray:
    """The values of a stage's free strengths it is sampled at, one row
    each: the 2K+1 equispaced points that fix trigonometric polynomials of
    degree K (`_stage_degree`), or else a grid of SCAN_POINTS per
    strength."""
    if degree is None:
        g = SCAN_POINTS[n_free]
        axis = TWO_PI * (np.arange(g) + 0.5) / g
        return np.stack(np.meshgrid(*[axis] * n_free, indexing="ij"),
                        axis=-1).reshape(-1, n_free)
    return (TWO_PI * np.arange(2 * degree + 1) / (2 * degree + 1))[:, None]


class _Stage:
    """One stage of the scan (`_scan_stages`), compiled: its strength
    indices `free`, setting rows `rows` (None: all) and coordinates `cols`;
    `layout`, the protocol's layout on those settings alone; its `degree`
    (`_stage_degree`) and `samples`, the values of its free strengths it is
    sampled at (`_stage_samples`).

    Every stage holds `design`, the design at its samples, and with A its
    columns `cols` padded with zero rows to len(cols) + 1 (missing rows
    count as zero rows) and A = QR: `q`, Q on the stage's own rows (b is
    zero on the padded ones, and so is its residual), d = det Gram(A) from
    the diagonal of R (`_gram_determinants`), and `full_rank`, the verdict
    of `_full_rank` on R per sample, the one a per-point solve (`_lstsq`)
    reaches.  A stage with a degree also holds the frequencies `freqs` and
    `cosines` its determinants are expanded in (`_stage_starts`), and
    `fourier` (L+1, S, C), the one-sided Fourier coefficients of its design
    up to L, the largest |m| of its strength over its settings: each design
    row is a trigonometric polynomial of degree |m| (`_stage_degree`), and
    the 2K+1 samples (K >= L) fix every frequency up to K, so c_0 is the
    mean of the samples and c_k = (2/n) sum_j design(theta_j) e^{-ik theta_j}
    exactly (`evaluate`).  A per-strength stage's settings drive its own
    strength alone, and the joint stage frees every strength, so none of
    these depends on the strengths that the scan holds.  `sparse` is the
    stage on its populations alone (`prefer_sparse_coherences`)."""

    def __init__(self, free, rows, cols, layout, degree, samples, design):
        self.free, self.rows, self.cols = free, rows, cols
        self.layout, self.degree, self.samples = layout, degree, samples
        self.design = design
        a = design[..., cols]
        pad = max(0, len(cols) + 1 - a.shape[1])
        q, r = np.linalg.qr(np.pad(a, ((0, 0), (0, pad), (0, 0))))
        self.q = q[:, :a.shape[1]]
        self.d = (np.abs(np.diagonal(r, axis1=1, axis2=2)) ** 2).prod(axis=1)
        self.full_rank = _full_rank(r)[0]
        self.freqs = self.cosines = self.fourier = None
        if degree is not None:
            self.freqs = np.arange(len(samples)) - len(samples) // 2
            self.cosines = np.cos(np.outer(self.freqs, samples[:, 0]))
            protocol = layout.protocol
            on = STRENGTHS[protocol.dim].index(
                protocol.process_unknown_names[free[0]])
            settings = protocol.settings if rows is None else [
                protocol.settings[i] for i in rows]
            top = max(abs(int((s.multipliers + (s.mz,))[on]))
                      for s in settings)
            waves = np.exp(-1j * np.outer(np.arange(top + 1), samples[:, 0]))
            waves[1:] *= 2.0
            self.fourier = np.tensordot(waves / len(samples), design, axes=1)
        self.sparse = self
        read_only(self)

    def evaluate(self, z) -> tuple:
        """The design on the stage's settings at each row of its free
        strengths z (P, F), which its settings alone see, and its
        derivative in them (P, S, C, F).  A stage with a degree takes both
        from `fourier` in one product, design = Re sum_k c_k e^{ik lam} and
        its derivative Re sum_k ik c_k e^{ik lam}; any other stage calls
        the kernel."""
        if self.fourier is None:
            x = np.zeros((len(z), len(self.layout.protocol.unknown_names)))
            x[:, np.asarray(self.layout.lam_cols)[self.free]] = z
            design, d_design = self.layout.design_and_derivative(x)
            return design, d_design[..., self.free]
        k = np.arange(len(self.fourier))
        waves = np.exp(1j * z * k)
        out = (np.concatenate([waves, 1j * k * waves])
               @ self.fourier.reshape(len(k), -1)).real.reshape(
                   (2 * len(z),) + self.fourier.shape[1:])
        return out[:len(z)], out[len(z):, ..., None]


class _Plan:
    """Everything a solve needs that depends on the protocol alone: its
    `layout` (`forward.layout_of`, which `identify` shares), the free
    coordinates `cols` (`_free_coordinates`), the parameters the protocol
    carries no information about (`dead`,
    `identify.structural_zero_columns`), and the `stages` of the scan,
    every one compiled alike (`_Stage`), its design taken with the
    strengths it does not free at pi, which its settings do not see.
    Built once per protocol (`_plan`); it holds no tolerance (its rank
    verdicts are taken at RANK_RTOL), and its arrays are read-only."""

    def __init__(self, protocol: Protocol):
        self.layout = layout_of(protocol)
        self.cols = _free_coordinates(protocol)
        self.dead = identify.structural_zero_columns(protocol)
        self.stages = [self._stage(*stage)
                       for stage in _scan_stages(self.layout, self.cols)]

    def at(self, lam) -> np.ndarray:
        """Parameter rows in name order carrying only the strengths lam."""
        x = np.zeros((len(lam), len(self.layout.protocol.unknown_names)))
        x[:, self.layout.lam_cols] = lam
        return x

    def _stage(self, free, rows, cols) -> _Stage:
        """A stage of `_scan_stages` compiled, with its `sparse` one."""
        protocol = self.layout.protocol
        layout = self.layout if rows is None else self.layout.restrict(rows)
        degree = _stage_degree(protocol, free, rows)
        samples = _stage_samples(degree, len(free))
        at = np.full((len(samples), len(self.layout.lam_cols)), math.pi)
        at[:, free] = samples
        design = layout.design(self.at(at))
        stage = _Stage(free, rows, cols, layout, degree, samples, design)
        pops = [c for c in cols if c < protocol.dim]
        stage.sparse = _Stage(free, rows, pops, layout, degree, samples,
                              design)
        return stage


@functools.lru_cache(maxsize=PLAN_CACHE)
def _plan(protocol: Protocol) -> _Plan:
    """The plan of a protocol, built on its first solve and kept in a
    bounded cache keyed on the protocol's value, so that equal protocols
    (one loaded from a file for each solve) share it."""
    return _Plan(protocol)


# ---------------------------------------------------------------------------
# The staged scan
# ---------------------------------------------------------------------------


def _stage_points(stage: _Stage, lam) -> np.ndarray:
    """The strength rows a stage is sampled at: its `samples` in its free
    strengths, `lam` in the others."""
    pts = np.tile(lam, (len(stage.samples), 1))
    pts[:, stage.free] = stage.samples
    return pts


def _residual_norms(profile: _Profile, stage: _Stage, held) -> np.ndarray:
    """|b - QQᵀb|² at each of a stage's samples, with Q the plan's factor
    of the design's columns `cols` on the stage's settings (`_Stage`) and
    b the counts there less design @ held: the stage's least-squares
    objective wherever the samples keep full rank (`_Stage.full_rank`)."""
    b = profile.counts(stage.layout) - stage.design @ held
    q = stage.q
    resid = b - np.einsum("psc,pc->ps", q, np.einsum("psc,ps->pc", q, b))
    return (resid ** 2).sum(axis=1)


def _gram_determinants(profile: _Profile, stage: _Stage, held) -> tuple:
    """N = det Gram([A b]) and D = det Gram(A) at each of a stage's samples,
    with A and b as in `_residual_norms`; N/D is the stage's least-squares
    objective.  D comes from the plan, so N = D |b - QQᵀb|² takes a few
    products per solve.  Missing rows count as zero rows, which make N
    vanish."""
    return stage.d * _residual_norms(profile, stage, held), stage.d


def _stage_starts(profile: _Profile, stage: _Stage, pts, held) -> tuple:
    """The strength rows a stage's refine starts from, and whether the
    stage is flat (fits the counts exactly at every strength), from its
    samples at `pts` (`_stage_points`).

    A stage with a degree (`_stage_degree`) is flat when N is zero
    relative to TIE_ATOL * |y|^2 * D at every sample.  Otherwise N and D
    are cosine series with coefficients n_k and d_k from the samples, and
    the stationary points of N/D are the roots of
    F = N'D - ND' = -sin(lam) G(cos lam).  G's coefficient on U_j, the
    Chebyshev polynomial of the second kind, is F's on sin((j+1) lam); the
    top ones up to their round-off ROOT_EPS (2K+1) sum |n_k| sum |d_k| are
    dropped (the Cauchy-Binet degree is a bound), and the roots x are the
    eigenvalues of G's real colleague matrix (Good, Q. J. Math. 12, 61,
    1961; Boyd, J. Eng. Math. 56, 203, 2006).  The candidates are
    arccos(Re x), x clipped to [-1, 1], and 0 and pi (the zeros of sin,
    where the design loses rank), each with its reflection 2*pi - lam, in
    [LAM_FLOOR, 2*pi].  Each is ranked by N/D from the cosine sums, with
    the bound ROOT_EPS * (2K+1) * (sum |n_k| + N/D sum |d_k|) / D on its
    round-off.  Where D is at most ROOT_RTOL * sum |d_k| (rank lost) that
    bound is void: those candidates are ranked by `_Profile.solve` on the
    stage's design at them (`_Stage.evaluate`) instead, unless another
    candidate already fits exactly.  The refine starts from every
    candidate that can tie with the lowest, lowest first.

    Any other stage values each grid sample by |b - QQᵀb|² from the plan
    (`_residual_norms`), the value the per-point QR gives, and the samples
    that fail the rank verdict by `fit`, which takes the pseudo-inverse
    there.  It is flat when that objective is at most TIE_ATOL * |y|^2 at
    more than half of its grid, and its refine starts from the N_REFINE
    lowest grid minima (`_grid_minima`).
    """
    free, layout, cols = stage.free, stage.layout, stage.cols
    ysq = float((profile.y ** 2).sum())
    if stage.degree is None:
        g = SCAN_POINTS[len(free)]
        f = _residual_norms(profile, stage, held)
        lost = ~stage.full_rank
        if lost.any():
            f[lost] = profile.objective(pts[lost], layout, cols, held)
        flat = np.sum(f <= TIE_ATOL * ysq) > f.size / 2
        return pts[_grid_minima(f.reshape((g,) * len(free)), N_REFINE)], flat
    n, d = _gram_determinants(profile, stage, held)
    if n.max() <= TIE_ATOL * ysq * d.max():
        return pts, True
    # len(pts) times the cosine coefficients, frequencies -K..K (even in k)
    k = stage.freqs
    cn, cd = stage.cosines @ n, stage.cosines @ d
    # F = -2 sum_m psi_m sin(m lam) / len(pts)^2 with psi odd in m, and
    # sin(m lam) = sin(lam) U_{m-1}(cos lam); psi at m = 2K vanishes
    psi = np.convolve(k * cn, cd) - np.convolve(cn, k * cd)
    g = psi[len(pts):-1]  # G on U_0..U_{2K-2}
    m = np.flatnonzero(np.abs(g) > ROOT_EPS * len(pts) * np.abs(cn).sum()
                       * np.abs(cd).sum()).max(initial=0)
    colleague = 0.5 * (np.eye(m, k=1) + np.eye(m, k=-1))
    colleague[-1:] -= g[:m] / (2.0 * g[m])
    x = np.clip(np.linalg.eigvals(colleague).real, -1.0, 1.0)
    theta = np.concatenate([np.arccos(x), [0.0, math.pi]])
    waves = np.cos(np.outer(theta, k))
    num, den = np.tile(waves @ cn, 2), np.tile(waves @ cd, 2)
    theta = np.clip(np.concatenate([theta, TWO_PI - theta]), LAM_FLOOR, TWO_PI)
    lost = den <= ROOT_RTOL * np.abs(cd).sum()
    value = num / np.where(lost, 1.0, den)
    err = ROOT_EPS * len(pts) * (np.abs(cn).sum() + np.abs(value)
                                 * np.abs(cd).sum()) / np.where(lost, 1.0, den)
    starts = np.tile(pts[0], (len(theta), 1))
    starts[:, free[0]] = theta
    if lost.any() and not np.any((value - err)[~lost] <= 0.0):
        design = stage.evaluate(theta[lost, None])[0]
        resid = profile.solve(layout, design, cols, held=held)[1]
        value[lost] = (resid ** 2).sum(axis=1)
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


def _stage_minima(profile: _Profile, stage: _Stage, starts, held) -> tuple:
    """A stage's refined minima from the strength rows `starts`, the one
    to go on from first; that one and its fitted coordinates; and whether
    its stage Jacobian (of the statistics on its settings in its `cols` and
    `free`, the rest at `held`) is near-singular (`singular_at_solution`).

    The one to go on from is, among the end points whose objective ties
    with the lowest relative to |y|^2 (`_ties`), the one with the fewest
    strengths above pi (the canonical member of a reflection pair), then
    the one whose stage Jacobian has the largest smallest singular value
    (values within SMIN_RTOL of each other count as equal, so copies of
    one root do not), then the first offered.  Distinct exact roots are
    ordered by their conditioning, which round-off cannot flip."""
    cand, f, (coords, design, d_design) = profile.refine(stage, starts, held)
    ties = _ties(f, float((profile.y ** 2).sum()))
    n_large = (cand[ties] > math.pi + 1e-12).sum(axis=1)
    group = ties[n_large == n_large.min()]
    c_full = np.tile(held, (len(group), 1))
    c_full[:, stage.cols] = coords[group]
    jac = np.concatenate(
        [design[group][..., stage.cols],
         np.einsum("psck,pc->psk", d_design[group], c_full)], axis=2)
    smin = np.linalg.svd(jac, compute_uv=False)[:, -1]
    pick = np.flatnonzero(smin >= (1.0 - SMIN_RTOL) * smin.max())[0]
    best = group[pick]
    order = [best] + [i for i in range(len(cand)) if i != best]
    singular = bool(identify.near_singular(jac[pick], smin[pick]))
    return cand[order], cand[best], coords[best], singular


def _scan(profile: _Profile) -> np.ndarray:
    """Refined profile minima of the last stage of the plan, one row of
    strengths each, the one to go on from first, by back-substitution:
    every later stage holds the strengths and the coordinates that an
    earlier one fitted at its chosen minimum, so on exact data each
    stage's profile vanishes at the true strengths.  Each stage refines
    the starts of `_stage_starts` and picks by the rule of
    `_stage_minima`.  `prefer_sparse_coherences` re-solves a flat stage
    and one that a later stage would hold at a near-singular fit."""
    lam = np.full(len(profile.lam_cols), math.pi / 2)  # not yet scanned
    cand = lam[None, :]
    held = np.zeros(profile.layout.dim + 2 * profile.layout.npair)
    stages = profile.plan.stages
    for k, stage in enumerate(stages):
        last = k + 1 == len(stages)
        pts = _stage_points(stage, lam)
        starts, flat = _stage_starts(profile, stage, pts, held)
        if not flat:
            cand, lam, coords, singular = _stage_minima(profile, stage,
                                                        starts, held)
        if flat or not last and singular:
            stage, starts = prefer_sparse_coherences(profile, stage, pts,
                                                     held)
            cand, lam, coords, _ = _stage_minima(profile, stage, starts, held)
        if not last:
            held[stage.cols] = coords
    return cand


def prefer_sparse_coherences(profile: _Profile, stage: _Stage,
                             pts: np.ndarray, held) -> tuple:
    """A stage of `_scan` re-solved on its populations alone, with its
    coherence at zero: that stage (`_Stage.sparse`) and the strength rows
    its refine starts from, from its samples at `pts` (`_stage_starts`).
    (`sctbench/tracer.py` hooks this name.)

    When a coherence vanishes (the zero locus |J_A| = rho01 of B, and
    rho01 or rho02 on the V blocks), its phase drops out of the statistics
    and the stage fits the data exactly along a whole curve of strengths,
    each with a coherence of its own: N vanishes identically.  At a
    degenerate strength (lam -> 0, where the coherence's columns vanish)
    noisy counts are fit by coordinates that grow without bound.  Without
    the coherence the populations single the strength out up to its
    reflection, or leave a few exact roots, which the rule of
    `_stage_minima` orders.  The state is then fitted on every coordinate
    (`resolve_twin_family`), and a vanished coherence's phase is reported
    undefined."""
    return stage.sparse, _stage_starts(profile, stage.sparse, pts, held)[0]


# ---------------------------------------------------------------------------
# Discrete twin degeneracy
# ---------------------------------------------------------------------------
#
# The single-coupling protocols (scenario B and each single-pair block of
# V) are exactly invariant under lam -> 2*pi - lam with the pair's
# coherence coordinates (x, y) -> -(x, y) (the argument of `_stage_degree`),
# so the twins cannot be told apart by any data taken with those settings
# alone.  In V the two dual-coupling settings re-fit the excited-excited
# coherence exactly after either reflection, so all four members tie; the
# C-alt settings that drive the diagonal break the reflection of lam_c.
# Every solver settles the tie through `resolve_twin_family` (see the
# module docstring): `reconstruct` and `block_solve_v` on the minima of
# their staged scan and `grid_oracle` on its incumbent (`_settle_twins`).


def _branch_keys(dim: int, coords: np.ndarray, lam: np.ndarray,
                 index: np.ndarray) -> list:
    """Rank of each exact-tie member, with all Cartesian state coordinates
    `coords` (M, C), strengths `lam` (M, K) and place `index` in the order
    offered: physical first, then the fewest strengths above pi (the
    lam <= pi member is canonical, mirroring the continuous gauge fix),
    then the order offered.  The state has the populations on its diagonal
    and entry (i, j) = (x - i*y)/2 per coherence pair."""
    rho = np.zeros((len(coords), dim, dim), dtype=complex)
    rho[:, range(dim), range(dim)] = coords[:, :dim]
    i, j = np.array(COHERENCE_PAIRS[dim]).T
    rho[:, i, j] = 0.5 * (coords[:, dim::2] - 1j * coords[:, dim + 1::2])
    rho[:, j, i] = rho[:, i, j].conj()
    trace = coords[:, :dim].sum(axis=1)
    low = np.linalg.eigvalsh(rho)[:, 0] / np.where(trace > 0, trace, 1.0)
    unphysical = (trace <= 0) | (low < -1e-9)
    n_large = (lam > math.pi + 1e-12).sum(axis=1)
    return list(zip(unphysical.tolist(), n_large.tolist(), index.tolist()))


def resolve_twin_family(profile: _Profile, cand: np.ndarray) -> tuple:
    """Pick the member of the exact-tie family of the best profile minimum.

    The family is every row of strengths in `cand` (in the order offered:
    for a scan, its chosen minimum first) plus each reflection
    lam_j -> 2*pi - lam_j (one or more strengths at once) of the best one
    (`_best_minimum`), with the Cartesian state re-solved linearly at each
    (one fit covers `cand` and the reflections of all its rows).  The
    members whose least-squares objective ties with the lowest are ranked
    by `_branch_keys` on their Cartesian coordinates, so distinct exact
    roots that are both physical with every lam <= pi (a vanished coherence
    can leave two) go by the order offered, which for a scan is the rule of
    `_stage_minima`.  Returns the chosen member's z (see `_Profile`) and
    the number of members compared.
    """
    (n, k), m = cand.shape, 2 ** cand.shape[1] - 1
    flips = np.array(list(itertools.product((False, True), repeat=k))[1:],
                     dtype=bool).reshape(m, k)
    images = np.where(flips, TWO_PI - cand[:, None, :], cand[:, None, :])
    coords, resid = profile.fit(np.concatenate([cand,
                                                images.reshape(n * m, k)]))
    f = (resid ** 2).sum(axis=1)
    best = _best_minimum(cand, f[:n], profile.scale)
    rows = np.concatenate([np.arange(n), n + m * best + np.arange(m)])
    members = np.concatenate([cand, images[best]])
    coords, f = coords[rows], f[rows]
    ties = _ties(f, profile.scale)
    chosen = min(_branch_keys(profile.layout.dim, profile._full(coords[ties]),
                              members[ties], ties))[2]
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
                    objective: str, evaluation=None) -> ReconstructionResult:
    report = identify.jacobian_from_vector(protocol, x, evaluation)
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


def _check_structure(plan: _Plan) -> None:
    """Refuse a protocol whose statistics carry no information about some
    parameter (the plan's structural verdict)."""
    protocol, dead = plan.layout.protocol, plan.dead
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
       the 0, 1 or 2 strengths, searched in the stages of `_scan_stages`:
       B scans lam_c, V scans lam1 on block 1 and then lam2 on block 2 with
       block 1's fit held, C-alt scans (lam_c, lam_z) jointly on every
       setting, and a protocol without strengths (A) is a single linear
       solve.  B and the V blocks take their candidates from one real
       eigenproblem in cos(lam) (`_stage_starts`), C-alt from the N_REFINE
       lowest minima of a grid of SCAN_POINTS per strength.  The candidates
       that can tie with the lowest are refined by damped Gauss-Newton on
       the projected residual, and a start whose steps stall stops early;
       exact ties at distinct strengths go by the rule of `_stage_minima`.
       A flat stage (a vanished coherence) and a stage that a later one
       holds at a near-singular fit (a degenerate strength) are re-solved
       with their coherence at zero.
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
    is refused, and so are non-finite counts.  Evaluations of the design
    are handed on, not redone: the refine's last one gives the stage
    choice, its near-singular test and the held coordinates, one fit
    covers the twin family, and the polish's last one the diagnostics.

    The first solve on a protocol compiles its plan (`_plan`): the layout,
    the structural check, and the stages with their layouts, degrees and
    sample strengths, each with its design at its samples and the Q
    factor, Gram determinant and rank verdict of its columns, and a stage
    with a degree with the Fourier coefficients of its design.  Every
    solve on an equal protocol reuses it, so per count vector only the
    steps above run, on the stages' own settings; a grid stage's samples
    are valued from the plan's factors, not solved point by point, and a
    stage with a degree is refined on its Fourier design, so an exact
    solve calls the kernel twice, for the twin family and the polish.
    """
    options = options or SolverOptions()
    profile = _Profile(protocol, counts)
    _check_structure(profile.plan)
    z0, n_members = resolve_twin_family(profile, _scan(profile))
    outcome = _lm_multistart(profile, profile.y, z0, options.objective,
                             options)
    return _package_result(protocol, outcome.x, outcome.f, outcome.gradient_norm,
                           n_members, outcome.converged, options.objective,
                           outcome.evaluation)


def polish(counts, protocol: Protocol, x0, options: SolverOptions = None
           ) -> _FitOutcome:
    """The polish of `reconstruct` from a parameter vector x0 in name order
    (used after the oracle); the outcome's `x` is in name order too.  A
    structurally singular protocol is refused, as by `reconstruct`."""
    options = options or SolverOptions()
    profile = _Profile(protocol, counts)
    _check_structure(profile.plan)
    return _lm_multistart(profile, profile.y, profile.start(x0),
                          options.objective, options)


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
    profile = _Profile(protocol, counts)
    x, _, n_members = _settle_twins(profile, _scan(profile))
    f, grad = objective_eval(x, profile.y, protocol, options.objective)
    gnorm = float(np.abs(grad).max())
    converged = gnorm <= GRAD_TOL * profile.scale
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
    least-squares objective.  `grid` must be an integer >= 2 (else
    `EmptyRegion`, as for `identify.singularity_scan`) and `refine_levels`
    one >= 0, and a structurally singular protocol is refused, as by
    `reconstruct`.  The zoom keeps a single incumbent, so this
    is not a global oracle everywhere: on draws 0-39 of `sample_truth`
    from default_rng(54) with exact counts, at the defaults, it misses
    the truth by more than 1e-3 on none of B and V but on 7/40 of C-alt,
    where a `polish` from its values still misses by more than 1e-6 on
    5/40.
    """
    _check_count("grid", grid, 2, EmptyRegion)
    _check_count("refine_levels", refine_levels, 0)
    profile = _Profile(protocol, counts)
    _check_structure(profile.plan)
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
