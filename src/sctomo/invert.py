"""Joint state and process-parameter estimation from count records.

Three routes are provided and cross-checked against each other:

* `linear_invert` for protocols whose rotations are fully known (the
  statistics are linear in the Cartesian state coordinates);
* `reconstruct`, a variable-projection search: for fixed strengths the
  statistics are linear in the Cartesian state coordinates, so the state is
  solved by linear least squares at every point of a scan over the 0, 1 or
  2 strengths; the exact-tie reflection family of the best minimum is
  enumerated and ranked by a stated rule, and the chosen member is polished
  by damped Gauss-Newton on the least-squares or the Poisson-deviance
  objective;
* `grid_oracle`, a brute-force recursive grid search used to validate the
  solver.

`block_solve_v` runs the same profile scan along the triangular information
structure of the V-type protocol: ground-excited pair 1 on its own settings,
then pair 2 on its own settings with pair 1 held, then the excited-excited
coherence by one linear solve.  It must agree with the joint solve on exact
data.  The damped Gauss-Newton polish is the one iterative solver over the
full parameter vector.  Every Jacobian here is closed-form: the polish and
the result diagnostics take `ProtocolLayout.jacobian`, and the profile
refine the variable-projection Jacobian built from
`ProtocolLayout.design_and_derivative`; no finite difference is taken.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import identify
from .errors import (DimensionMismatch, InvalidRange, RankDeficient,
                     SingularAtSolutionWarning, StructuralSingularity,
                     TooManyDims)
from .forward import ProtocolLayout, observed_values
from .model import (COHERENCE_PAIRS, DensityParams, TWO_PI, state_matrix,
                    state_params_from_matrix, wrap_phase)
from .protocol import (COUPLING_UNKNOWNS, DIAG_UNKNOWN, PHASE_TO_BETA, Protocol,
                       UnknownParams, V_BLOCKS, split_values)

OBJECTIVES = ("least_squares", "poisson_mle")
LAM_FLOOR = 1e-9
TINY_MAG = 1e-8
PHASE_NAMES = {2: ("gamma",), 3: ("gamma01", "gamma02", "gamma12")}
GRAD_TOL = 1e-10  # times max(1, |y|^2), on the largest gradient component
STEP_TOL = 1e-12  # times 1 + max |x|, on the largest step component


@dataclass(frozen=True)
class SolverOptions:
    """The objective of the damped Gauss-Newton polish of `reconstruct` and
    `polish`, and its iteration limit.  `block_solve_v` fits by least
    squares and reports its residual and gradient under `objective`."""

    objective: str = "least_squares"
    max_iter: int = 200

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise InvalidRange(f"objective {self.objective!r} not in {OBJECTIVES}")


@dataclass(frozen=True)
class ReconstructionResult:
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


def linear_invert(counts, protocol: Protocol) -> LinearInversionResult:
    """Least-squares solve in Cartesian coordinates, then magnitude/phase form.

    Only valid when every rotation is fully known (no process unknowns).
    Tiny negative recovered populations are clipped to zero; a coherence
    magnitude at numerical zero leaves its phase at 0 with a flag.
    """
    if protocol.process_unknown_names:
        raise InvalidRange("linear inversion needs fully known rotations")
    y = _count_vector(counts, protocol)
    # rows: settings; columns: Cartesian state coordinates (pops, x, y per pair)
    a = ProtocolLayout(protocol, names=()).design(np.zeros((1, 0)))[0]
    ncols = a.shape[1]
    sol, _, rank, _ = np.linalg.lstsq(a, y, rcond=None)
    if rank < ncols:
        raise RankDeficient(f"design matrix rank {rank} < {ncols}")
    dim = protocol.dim
    pops = [max(float(v), 0.0) for v in sol[:dim]]
    mags, phases, undefined = [], [], []
    scale = max(sum(pops), 1.0)
    for k, _pair in enumerate(COHERENCE_PAIRS[dim]):
        x, yv = float(sol[dim + 2 * k]), float(sol[dim + 2 * k + 1])
        mag = 0.5 * math.hypot(x, yv)
        mags.append(mag)
        if mag <= TINY_MAG * scale:
            phases.append(0.0)
            undefined.append(PHASE_NAMES[dim][k])
        else:
            phases.append(wrap_phase(math.atan2(yv, x)))
    state = DensityParams(tuple(pops), tuple(mags), tuple(phases))
    residual = float(((a @ sol - y) ** 2).sum())
    return LinearInversionResult(state, tuple(undefined), residual)


# ---------------------------------------------------------------------------
# Objective machinery
# ---------------------------------------------------------------------------


def _objective_values(n_model: np.ndarray, y: np.ndarray, kind: str) -> np.ndarray:
    """Objective per row of n_model (shape (P, S))."""
    if kind == "least_squares":
        return ((n_model - y) ** 2).sum(axis=1)
    # Poisson deviance (non-negative, zero at n = y); +inf when a model
    # statistic is non-positive, which tells the damping loop to back off.
    out = np.zeros(n_model.shape[0])
    bad = (n_model <= 0.0).any(axis=1)
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


def objective_eval(params, counts, protocol: Protocol, kind: str = "least_squares",
                   names=None, fixed=None):
    """Objective value and gradient at a Γ-ordered parameter vector.

    The gradient chains the analytic objective derivative through the
    closed-form Jacobian of the model statistics (`ProtocolLayout.jacobian`),
    so it can be validated against direct finite differences of the
    objective itself.  A non-positive model statistic under the Poisson
    objective yields (+inf, zero gradient).
    """
    if kind not in OBJECTIVES:
        raise InvalidRange(f"objective {kind!r} not in {OBJECTIVES}")
    y = counts if isinstance(counts, np.ndarray) else observed_values(counts)
    layout = ProtocolLayout(protocol, names=names, fixed=fixed)
    x = np.asarray(params, dtype=float)
    n_model = layout.statistics(x[None, :])
    f = float(_objective_values(n_model, y, kind)[0])
    if not math.isfinite(f):
        return f, np.zeros(x.size)
    g, _ = _grad_hess(n_model, layout.jacobian(x), y, kind)
    return f, g[0]


# ---------------------------------------------------------------------------
# Damped Gauss-Newton (the polish)
# ---------------------------------------------------------------------------


def _param_kind(name: str) -> str:
    if name.startswith("lam"):
        return "lam"
    if name.startswith("rho"):
        return "mag"
    return "phase"


def _bounds_for(names, cap):
    lo = np.empty(len(names))
    hi = np.empty(len(names))
    phase_mask = np.zeros(len(names), dtype=bool)
    for k, n in enumerate(names):
        kind = _param_kind(n)
        if kind == "lam":
            lo[k], hi[k] = LAM_FLOOR, TWO_PI
        elif kind == "mag":
            lo[k], hi[k] = 0.0, cap
        else:
            lo[k], hi[k] = -np.inf, np.inf
            phase_mask[k] = True
    return lo, hi, phase_mask


def _project(x, lo, hi, phase_mask):
    out = np.clip(x, lo, hi)
    out[..., phase_mask] = np.mod(out[..., phase_mask], TWO_PI)
    return out


def _cap_for(y: np.ndarray, mags=()) -> float:
    """Upper bound on populations and magnitudes: twice the largest count or
    the largest of `mags` (a start's), since a protocol that projects on one
    label can see counts well below a population."""
    top = max(float(np.max(y, initial=0.0)), float(np.max(mags, initial=0.0)))
    return max(2.0 * top, 1e-6)


@dataclass
class _FitOutcome:
    x: np.ndarray
    f: float
    converged: bool
    gradient_norm: float


def _lm_multistart(layout: ProtocolLayout, y: np.ndarray, start: np.ndarray,
                   kind: str, options: SolverOptions) -> _FitOutcome:
    """Damped Gauss-Newton on the objective `kind` from one start.

    Strengths stay in [LAM_FLOOR, 2*pi], populations and magnitudes in
    [0, `_cap_for`] with the cap covering the start, and phases are wrapped.
    Accepted steps never increase the objective; `converged` reports whether
    the gradient (GRAD_TOL) or the step (STEP_TOL) test was met.  (The name
    is the one the benchmark's tracer hooks, `sctbench/tracer.py`.)
    """
    names = layout.names
    x = np.array(start, dtype=float)
    mags = [k for k, n in enumerate(names) if _param_kind(n) == "mag"]
    lo, hi, phase_mask = _bounds_for(names, _cap_for(y, x[mags]))
    x = _project(x, lo, hi, phase_mask)
    scale = max(1.0, float((y ** 2).sum()))
    eye = np.eye(x.size)
    n_model = layout.statistics(x[None, :])
    f = float(_objective_values(n_model, y, kind)[0])
    mu, converged, gnorm, jac = 1e-3, False, math.inf, None
    for _ in range(options.max_iter):
        if jac is None:
            jac = layout.jacobian(x)[0]
        # an invalid Poisson point descends on least squares
        g, h = _grad_hess(n_model, jac[None], y,
                          kind if math.isfinite(f) else "least_squares")
        g, h = g[0], h[0]
        # a component at a bound whose descent direction leaves the box is
        # held (projected gradient), so a constrained optimum can converge
        blocked = ((x <= lo) & (g > 0)) | ((x >= hi) & (g < 0))
        g[blocked] = 0.0
        h[blocked[:, None] | blocked[None, :]] = 0.0
        gnorm = float(np.abs(g).max())
        if gnorm <= GRAD_TOL * scale:
            converged = True
            break
        try:
            delta = -np.linalg.solve(h + mu * eye, g)
        except np.linalg.LinAlgError:
            delta = -np.linalg.solve(h + mu * eye + 1e-8 * eye, g)
        small = np.abs(delta).max() <= STEP_TOL * (1.0 + np.abs(x).max())
        trial = _project(x + delta, lo, hi, phase_mask)
        n_trial = layout.statistics(trial[None, :])
        f_trial = float(_objective_values(n_trial, y, kind)[0])
        if f_trial <= f:
            x, f, n_model, jac = trial, f_trial, n_trial, None
            mu = max(mu / 3.0, 1e-14)
        else:
            mu = min(mu * 7.0, 1e14)
        if small:
            converged = True
            break
        if mu >= 1e14:
            break
    return _FitOutcome(x, f, converged, gnorm)


# ---------------------------------------------------------------------------
# Variable projection: the strengths outside, the Cartesian state inside
# ---------------------------------------------------------------------------
#
# For fixed strengths the statistics are linear in the Cartesian state
# coordinates (`ProtocolLayout.design`), so the least-squares objective is
# minimized over the state exactly and what remains is a function of the 0,
# 1 or 2 strengths alone (Golub & Pereyra, SIAM J. Numer. Anal. 10, 1973).
# That profile is scanned on a grid, its lowest grid minima are refined by
# Levenberg-Marquardt on the projected residual, and the best one heads the
# exact-tie family that `resolve_twin_family` ranks.

SCAN_POINTS = {1: 256, 2: 64}  # grid points per strength axis, by scan dimension
N_REFINE = 6                   # lowest grid minima refined per scan stage
REFINE_ITER = 60
REFINE_FTOL = 1e-8             # least relative gain of an accepted refine step
SCAN_CHUNK = 1024              # profile points per design evaluation
TIE_RTOL = 1e-9
TIE_ATOL = 1e-18               # times max(1, |y|^2)


def _free_coordinates(protocol: Protocol) -> list:
    """Cartesian coordinates the declared state unknowns can move; the rest
    stay at zero, as the layout holds undeclared parameters at zero."""
    names, dim = protocol.unknown_names, protocol.dim
    cols = [i for i in range(dim) if f"rho{i}{i}" in names]
    for k, (i, j) in enumerate(COHERENCE_PAIRS[dim]):
        phase = PHASE_NAMES[dim][k]
        if f"rho{i}{j}" in names:
            cols.append(dim + 2 * k)
            if phase in names or PHASE_TO_BETA[phase] in names:
                cols.append(dim + 2 * k + 1)
    return cols


class _Profile:
    """Least-squares state at fixed strengths for one protocol and count
    vector, over the Cartesian coordinates `cols` (default: all that the
    declared unknowns move), with the parameters in `held` (name -> value,
    as `ProtocolLayout` takes `fixed`) held; strengths are passed as rows
    in name order."""

    def __init__(self, protocol: Protocol, y: np.ndarray, cols=None,
                 held=None):
        self.layout = ProtocolLayout(protocol, fixed=held)
        self.y = y
        self.lam_cols = self.layout.lam_cols
        self.cols = _free_coordinates(protocol) if cols is None else cols
        self.scale = max(1.0, float((y ** 2).sum()))
        # coordinates of the held state alone: every declared parameter at 0
        self.held = self.layout.coordinates(
            np.zeros((1, len(self.layout.names))))[0]

    def fit(self, lam, rows=None, free=None):
        """Coordinates (P, C) and residual vectors (P, S) at each row of lam,
        fit on the settings `rows` (default all) to the counts less the
        held state's statistics.

        With `free` (strength indices) also the Jacobian of the residuals in
        those strengths, (P, S, len(free)), in the full variable-projection
        form of Golub & Pereyra (Inverse Problems 19, R1, 2003):
        P⊥ (∂D/∂lam) c_full - (A⁺)ᵀ (∂A/∂lam)ᵀ r, where D is the design,
        A its columns `cols`, c_full the fitted coordinates with the held
        ones and P⊥ = I - A A⁺, all on `rows`.
        """
        lam = np.atleast_2d(lam)
        x = np.zeros((lam.shape[0], len(self.layout.names)))
        x[:, self.lam_cols] = lam
        rows = slice(None) if rows is None else rows
        if free is None:
            design = self.layout.design(x)[:, rows]
        else:
            design, d_design = self.layout.design_and_derivative(x)
            design, d_design = design[:, rows], d_design[:, rows][..., free]
        a = design[:, :, self.cols]
        y = self.y[rows] - design @ self.held
        a_pinv = np.linalg.pinv(a, rcond=1e-10)
        coords = np.einsum("pcs,ps->pc", a_pinv, y)
        resid = np.einsum("psc,pc->ps", a, coords) - y
        if free is None:
            return coords, resid
        c_full = np.tile(self.held, (len(lam), 1))
        c_full[:, self.cols] += coords
        v = np.einsum("psck,pc->psk", d_design, c_full)
        v -= a @ (a_pinv @ v)
        w = np.einsum("psck,ps->pck", d_design[:, :, self.cols], resid)
        return coords, resid, v - np.einsum("pcs,pck->psk", a_pinv, w)

    def objective(self, lam, rows=None) -> np.ndarray:
        """Profile least-squares objective at each row of lam."""
        return np.concatenate([
            (self.fit(lam[i:i + SCAN_CHUNK], rows)[1] ** 2).sum(axis=1)
            for i in range(0, len(lam), SCAN_CHUNK)])

    def point(self, lam, coords) -> np.ndarray:
        """Parameter vector in name order for strengths and coordinates."""
        d = self.layout.dim
        full = np.zeros(d + 2 * self.layout.npair)
        full[self.cols] = coords
        lam_values = iter(lam)
        out = np.empty(len(self.layout.names))
        for k, (kind, idx, sign) in enumerate(self.layout._slots):
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
        """Levenberg-Marquardt on the projected residual over the strengths
        `free`, from each row of lam, with the Jacobian of `fit`; returns
        the end points and their objectives on `rows`.

        The fit of each trial point also gives the Jacobian there, so an
        iteration costs one design evaluation.  A start stops at the floor
        objective, on a step that no longer moves it, when its damping
        saturates, or on an accepted step that lowers its objective by at
        most REFINE_FTOL of it: a start that creeps towards a degenerate
        strength (lam -> 0, 2*pi, or pi where sin(lam) silences settings)
        gains that little per step, while one that converges to a root
        gains orders of magnitude.
        """
        lam = np.array(lam, dtype=float)
        k = len(free)
        _, r, jac = self.fit(lam, rows, free)
        f = (r ** 2).sum(axis=1)
        mu = np.full(lam.shape[0], 1e-3)
        floor = 1e-30 * self.scale
        done = f <= floor
        for _ in range(REFINE_ITER):
            act = np.flatnonzero(~done)
            if act.size == 0:
                break
            x = lam[act]
            g = np.einsum("ask,as->ak", jac[act], r[act])
            hess = np.einsum("ask,asj->akj", jac[act], jac[act])
            step = -np.linalg.solve(hess + mu[act, None, None] * np.eye(k),
                                    g[..., None])[..., 0]
            trial = x.copy()
            trial[:, free] = np.clip(x[:, free] + step, LAM_FLOOR, TWO_PI)
            _, rt, jt = self.fit(trial, rows, free)
            ft = (rt ** 2).sum(axis=1)
            accept = ft <= f[act]
            acc, rej = act[accept], act[~accept]
            stalled = acc[f[acc] - ft[accept] <= REFINE_FTOL * f[acc]]
            lam[acc], r[acc], f[acc] = trial[accept], rt[accept], ft[accept]
            jac[acc] = jt[accept]
            mu[acc] = np.maximum(mu[acc] / 3.0, 1e-14)
            mu[rej] *= 7.0
            moved = np.abs(trial[:, free] - x[:, free]).max(axis=1)
            done[act[moved <= 1e-12 * (1.0 + np.abs(x[:, free]).max(axis=1))]] = True
            done[rej[mu[rej] >= 1e12]] = True
            done[stalled] = True
            done[f <= floor] = True
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
    deps = []
    for s in protocol.settings:
        used = {n for n, m in zip(COUPLING_UNKNOWNS[protocol.dim], s.multipliers)
                if m != 0}
        if protocol.dim == 2 and s.mz != 0:
            used.add(DIAG_UNKNOWN)
        deps.append(used & set(lams))
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
#     lam -> 2*pi - lam,  pair phase -> pair phase + pi:
# the m=1 settings flip cos(lam/2), the m=2 settings flip sin(lam), and the
# phase shift restores every cross term, so the twins cannot be told apart by
# any data taken with those settings alone.  In V the two dual-coupling
# settings re-fit the excited-excited coherence exactly after either
# reflection, so all four members tie; the C-alt settings that drive the
# diagonal break the reflection of lam_c.  Among exact ties the rule of
# `_branch_key` decides; otherwise the data do.

_TWIN_PHASE_OF = {
    "lam_c": ("gamma", "beta"),
    "lam1": ("gamma01", "beta01"),
    "lam2": ("gamma02", "beta02"),
}


def _twin_index_pairs(names) -> list:
    pairs = []
    for lam_name, phase_options in _TWIN_PHASE_OF.items():
        if lam_name not in names:
            continue
        for pname in phase_options:
            if pname in names:
                pairs.append((names.index(lam_name), names.index(pname)))
                break
    return pairs


def _twin_image(x: np.ndarray, li: int, pi_: int) -> np.ndarray:
    out = np.array(x, dtype=float, copy=True)
    out[li] = TWO_PI - out[li]
    out[pi_] = wrap_phase(out[pi_] + math.pi)
    return out


def canonicalize_twins(layout: ProtocolLayout, x: np.ndarray) -> np.ndarray:
    """Replace x by its lam <= pi twin wherever the statistics cannot tell."""
    x = np.array(x, dtype=float, copy=True)
    pairs = _twin_index_pairs(layout.names)
    if not pairs:
        return x
    base = layout.statistics(x[None, :])[0]
    tol = 1e-10 * max(1.0, float(np.abs(base).max()))
    for li, pi_ in pairs:
        twin = _twin_image(x, li, pi_)
        twin_stats = layout.statistics(twin[None, :])[0]
        if np.abs(twin_stats - base).max() <= tol and x[li] > math.pi:
            x = twin
    return x


def _branch_key(layout: ProtocolLayout, x: np.ndarray, index: int) -> tuple:
    """Rank of an exact-tie member: physical first, then the fewest strengths
    above pi (the lam <= pi member is canonical, mirroring the continuous
    gauge fix), then the order offered."""
    rho = layout.density(x[None, :])[0]
    trace = float(np.trace(rho).real)
    unphysical = trace <= 0 or np.linalg.eigvalsh(rho)[0] / trace < -1e-9
    n_large = sum(1 for v, n in zip(x, layout.names)
                  if _param_kind(n) == "lam" and v > math.pi + 1e-12)
    return (bool(unphysical), n_large, index)


def _tie_choice(layout: ProtocolLayout, points, f: np.ndarray,
                scale: float) -> int:
    """Index of the member chosen by `_branch_key` among those whose
    objective f ties with the lowest."""
    return min(_ties(f, scale),
               key=lambda i: _branch_key(layout, points[i], i))


def resolve_twin_family(profile: _Profile, cand: np.ndarray) -> tuple:
    """Pick the member of the exact-tie family of the best profile minimum.

    The family is every refined minimum in `cand` (in scan order: lowest
    grid objective first) plus each reflection lam_j -> 2*pi - lam_j (one
    or more strengths at once) of the best one (`_best_minimum`), with the
    state re-solved linearly at each.  The members whose objective ties
    with the lowest are ranked by `_branch_key`, so distinct exact roots
    that are both physical with every lam <= pi (a vanished coherence can
    leave two) go by scan order.  Returns the chosen parameter vector, its
    objective and the number of members compared.
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
    f = (resid ** 2).sum(axis=1)
    points = [profile.point(lam, c) for lam, c in zip(members, coords)]
    chosen = _tie_choice(profile.layout, points, f, profile.scale)
    return points[chosen], float(f[chosen]), len(members)


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
    layout = ProtocolLayout(protocol)
    dim = protocol.dim
    tie_tol = max(1e-12 * max(1.0, float((y ** 2).sum())), 1e-9 * abs(f))
    box = _bounds_for(layout.names, np.inf)
    cols = _free_coordinates(protocol)
    for k, (i, j) in enumerate(COHERENCE_PAIRS[dim]):
        mag_name = f"rho{i}{j}"
        if (mag_name not in layout.names
                or x[layout.names.index(mag_name)] <= TINY_MAG):
            continue
        keep = [c for c in cols if c not in (dim + 2 * k, dim + 2 * k + 1)]
        profile = _Profile(protocol, y, keep)
        candidate, _, _ = resolve_twin_family(
            profile, _scan(profile, _scan_stages(protocol)))
        candidate = _project(candidate, *box)
        f_cand = float(_objective_values(
            layout.statistics(candidate[None, :]), y, kind)[0])
        if f_cand <= f + tie_tol:
            x, f, cols = candidate, f_cand, keep
    return x, float(f)


# ---------------------------------------------------------------------------
# Reconstruction
# ---------------------------------------------------------------------------


def _package_result(protocol: Protocol, x: np.ndarray, outcome_f: float,
                    grad_norm: float, n_starts: int, converged: bool,
                    objective: str, y: np.ndarray = None) -> ReconstructionResult:
    report = identify.analytic_jacobian(protocol, x)
    jmax = float(np.abs(report.matrix).max())
    singular = report.smallest_singular_value <= 1e-9 * max(1.0, jmax)
    if singular and y is not None:
        # a singular solution can sit on an exact-tie manifold from a
        # vanished coherence; report its zero-coherence member if so
        x_sparse, outcome_f = prefer_sparse_coherences(
            protocol, x, outcome_f, y, objective)
        if not np.array_equal(x_sparse, x):
            x = x_sparse
            report = identify.analytic_jacobian(protocol, x)
            jmax = float(np.abs(report.matrix).max())
            singular = report.smallest_singular_value <= 1e-9 * max(1.0, jmax)
    if singular:
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

    undefined = []
    mags = list(state.coherences)
    phases = list(state.phases)
    for k, mag in enumerate(mags):
        if mag <= TINY_MAG * max(n_scale, 1.0):
            phases[k] = 0.0
            base_name = PHASE_NAMES[protocol.dim][k]
            shown = base_name if protocol.phase_known else \
                PHASE_TO_BETA.get(base_name, base_name)
            undefined.append(shown)
    state = DensityParams(state.populations, tuple(mags), tuple(phases))

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
        phase_undefined=tuple(undefined),
        singular_at_solution=bool(singular), gauge=gauge)


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
       are refined by Levenberg-Marquardt on the projected residual, with
       its closed-form Jacobian; a start whose steps stall stops early.
    2. Branch rule.  The best minimum, its reflections lam_j -> 2*pi - lam_j
       and any other refined minimum are compared; among those tied with
       the lowest objective the member chosen is physical first, then has
       the fewest strengths above pi (`resolve_twin_family`).
    3. Polish.  Damped Gauss-Newton from the chosen member on the selected
       objective (`_lm_multistart`); the Poisson deviance thus starts from
       the least-squares profile solution.  Accepted steps never increase
       the objective, and `converged` reports whether the gradient or step
       tolerance was met.

    The result is gauge-fixed and PSD-clipped, with Jacobian diagnostics at
    the solution.  A structurally singular protocol (scenario C as shipped)
    is refused, and so are non-finite counts.
    """
    options = options or SolverOptions()
    y = _count_vector(counts, protocol)
    if len(y) < len(protocol.unknown_names):
        raise InvalidRange("fewer settings than unknowns")
    _check_structure(protocol)
    profile = _Profile(protocol, y)
    x0, _, n_members = resolve_twin_family(
        profile, _scan(profile, _scan_stages(protocol)))
    outcome = _lm_multistart(profile.layout, y, x0, options.objective, options)
    return _package_result(protocol, outcome.x, outcome.f, outcome.gradient_norm,
                           n_members, outcome.converged, options.objective, y=y)


def polish(counts, protocol: Protocol, x0, options: SolverOptions = None,
           names=None, fixed=None) -> _FitOutcome:
    """Damped Gauss-Newton from an explicit vector (used after the oracle).

    The same descent and box as the last stage of `reconstruct`: the
    population and magnitude bound covers the start, so a start outside
    twice the largest count is not clipped back into it.
    """
    options = options or SolverOptions()
    y = _count_vector(counts, protocol)
    layout = ProtocolLayout(protocol, names=names, fixed=fixed)
    return _lm_multistart(layout, y, np.asarray(x0, dtype=float),
                          options.objective, options)


# ---------------------------------------------------------------------------
# Block-sequential solve for scenario V
# ---------------------------------------------------------------------------


def _beta_names(names, beta_mode):
    if not beta_mode:
        return tuple(names)
    return tuple(PHASE_TO_BETA.get(n, n) for n in names)


def _block_fit(protocol: Protocol, y: np.ndarray, block: int,
               held: dict) -> dict:
    """Profile fit of V block `block` (an index into V_BLOCKS) on its own
    settings, with the values in `held` held; returns the block's values by
    name.  A block without a strength (block 3) is one linear solve."""
    indices, base_names = V_BLOCKS[block]
    names = _beta_names(base_names, not protocol.phase_known)
    sub = Protocol(name=f"V#b{block + 1}", dim=3,
                   settings=tuple(protocol.settings[i] for i in indices),
                   unknown_names=names, phase_known=protocol.phase_known)
    profile = _Profile(sub, y[list(indices)], held=held)
    cand = _scan(profile, _scan_stages(sub))
    coords, resid = profile.fit(cand)
    best = _best_minimum(cand, (resid ** 2).sum(axis=1), profile.scale)
    return dict(zip(names, profile.point(cand[best], coords[best])))


def _v_branches(protocol: Protocol, y: np.ndarray, b12: dict) -> tuple:
    """Resolve the reflection twins of V blocks 1 and 2 (values in b12).

    Neither single-pair block can tell its strength from the reflection
    lam_j -> 2*pi - lam_j with its pair phase shifted by pi.  For each of
    the four combinations block 3 is re-solved linearly with blocks 1 and 2
    held; the members whose least-squares objective over all settings ties
    with the lowest go by `_branch_key`.  Returns the chosen parameter
    vector, its objective and the number of members compared.
    """
    keys = list(b12)
    base = np.array([b12[n] for n in keys])
    pairs = _twin_index_pairs(keys)
    members = []
    for flips in itertools.product((False, True), repeat=len(pairs)):
        x = base
        for flip, pair in zip(flips, pairs):
            if flip:
                x = _twin_image(x, *pair)
        held = dict(zip(keys, x))
        solved = {**held, **_block_fit(protocol, y, 2, held)}
        members.append([solved[n] for n in protocol.unknown_names])
    members = np.array(members)
    layout = ProtocolLayout(protocol)
    f = _objective_values(layout.statistics(members), y, "least_squares")
    chosen = _tie_choice(layout, members, f, max(1.0, float((y ** 2).sum())))
    return members[chosen], float(f[chosen]), len(members)


def block_solve_v(counts, protocol: Protocol,
                  options: SolverOptions = None) -> ReconstructionResult:
    """Solve the V-type protocol block by block along its triangular structure.

    Block 1 (settings 0-4: rho00, rho11, rho01, lam1, gamma01) is fit on its
    own settings by the profile scan of `reconstruct`; block 2 (settings
    5-8: rho22, rho02, lam2, gamma02) likewise, with block 1 held (only
    rho00 enters its statistics); block 3 (settings 9-10: rho12, gamma12)
    is one linear solve with both held, once for each reflection
    combination of blocks 1 and 2 (`_v_branches`).  No stage runs the
    polish, so this is a different decomposition from the joint solve, and
    on exact data the two must agree.  The fits are least squares;
    `options.objective` sets the reported residual and gradient, and
    `converged` reports whether that gradient meets the polish's gradient
    test.
    """
    options = options or SolverOptions()
    if protocol.name.split("~")[0] != "V" or protocol.dim != 3:
        raise InvalidRange("block solve is defined for the V-type protocol")
    y = _count_vector(counts, protocol)
    b1 = _block_fit(protocol, y, 0, {})
    b2 = _block_fit(protocol, y, 1, b1)
    x, _, n_members = _v_branches(protocol, y, {**b1, **b2})
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


def _axis_points(name: str, lo: float, hi: float, grid: int,
                 initial: bool) -> np.ndarray:
    kind = _param_kind(name)
    if kind == "phase":
        return lo + (hi - lo) * np.arange(grid) / grid
    if kind == "lam" and initial:
        return hi * (np.arange(grid) + 1) / grid
    return np.linspace(lo, hi, grid)


def _oracle_core(protocol: Protocol, indices, names, fixed, y, grid,
                 levels, cap) -> OracleResult:
    names = tuple(names)
    lam_names = [n for n in names if _param_kind(n) == "lam"]
    state_names = [n for n in names if _param_kind(n) != "lam"]
    fixed = dict(fixed or {})
    # the design depends on the strengths alone, the coordinates on the state
    lam_layout = ProtocolLayout(protocol, names=lam_names, fixed=fixed)
    state_layout = ProtocolLayout(protocol, names=state_names, fixed=fixed)

    windows = {n: (0.0, cap if _param_kind(n) == "mag" else TWO_PI)
               for n in names}
    zoom = max(2.0, (grid - 1) / 2.0)
    best_vals, best_obj = None, np.inf
    for level in range(levels + 1):
        initial = level == 0
        lam_pts = [_axis_points(n, *windows[n], grid, initial)
                   for n in lam_names]
        state_pts = [_axis_points(n, *windows[n], grid, initial)
                     for n in state_names]
        if state_pts:
            meshes = np.meshgrid(*state_pts, indexing="ij")
            state_combo = np.stack([m.ravel() for m in meshes], axis=1)
        else:
            state_combo = np.zeros((1, 0))
        coords = state_layout.coordinates(state_combo)
        lam_combos = list(itertools.product(*lam_pts))
        designs = lam_layout.design(np.array(lam_combos).reshape(
            len(lam_combos), len(lam_names)))[:, list(indices)]
        for lam_combo, a in zip(lam_combos, designs):
            lam_values = dict(zip(lam_names, lam_combo))
            obj = ((coords @ a.T - y) ** 2).sum(axis=1)
            idx = int(np.argmin(obj))
            if obj[idx] < best_obj:
                best_obj = float(obj[idx])
                vals = dict(lam_values)
                vals.update(dict(zip(state_names, state_combo[idx])))
                best_vals = vals
        if level == levels:
            break
        for n in names:
            lo, hi = windows[n]
            span = (hi - lo) / zoom
            center = best_vals[n]
            nlo, nhi = center - span / 2, center + span / 2
            kind = _param_kind(n)
            if kind == "mag":
                nlo = max(nlo, 0.0)
            elif kind == "lam":
                nlo, nhi = max(nlo, LAM_FLOOR), min(nhi, TWO_PI)
            windows[n] = (nlo, nhi)
    values = np.array([wrap_phase(best_vals[n])
                       if _param_kind(n) == "phase" else best_vals[n]
                       for n in names])
    return OracleResult(names, values, best_obj)


def grid_oracle(counts, protocol: Protocol, grid: int = 15,
                refine_levels: int = 4) -> OracleResult:
    """Exhaustive least-squares search on a recursively refined grid.

    Statistics are linear in the Cartesian state coordinates for fixed
    coupling strengths, so each strength combination costs one small design
    matrix and the state grid is swept with dense linear algebra.  The
    refinement window shrinks by (grid-1)/2 per level (at least 2) around
    the incumbent.  Deterministic.  The V-type protocol is searched block by
    block: blocks 1 and 2 on the grid, each on its own settings, and block 3
    by the linear re-solve of `_v_branches`, which also settles the
    reflection twins.  Any other protocol with more than six unknowns is
    refused.
    """
    y = _count_vector(counts, protocol)
    cap = _cap_for(y)
    names = protocol.unknown_names
    if protocol.name.split("~")[0] == "V" and protocol.dim == 3:
        beta_mode = not protocol.phase_known

        def block_oracle(block, fixed):
            indices, base_names = V_BLOCKS[block]
            block_names = _beta_names(base_names, beta_mode)
            res = _oracle_core(protocol, indices, block_names, fixed,
                               y[list(indices)], grid, refine_levels, cap)
            return dict(zip(res.names, res.values))

        b1 = block_oracle(0, {})
        b2 = block_oracle(1, b1)
        values, total, _ = _v_branches(protocol, y, {**b1, **b2})
        return OracleResult(tuple(names), values, total)
    if len(names) > 6:
        raise TooManyDims(f"{len(names)} unknowns exceed the full-grid limit of 6")
    result = _oracle_core(protocol, range(protocol.n_settings), names, {},
                          y, grid, refine_levels, cap)
    layout = ProtocolLayout(protocol)
    canonical = canonicalize_twins(layout, result.values)
    return OracleResult(result.names, canonical, result.objective)
