"""Identifiability analysis: numeric Jacobians of the measurement map,
determinant and conditioning diagnostics, closed-form cross-checks, and
singularity scans.

Central differences (`central_differences`) are the reference for the
Jacobian reports of `numeric_jacobian`, `jacobian_from_vector` and
`singularity_scan`; the solver and `structural_zero_columns` use the
closed-form Jacobian of `ProtocolLayout.jacobian`, which the tests check
against them.  The closed-form determinant expressions for the shipped
scenarios are transcriptions kept as cross-checks; two of them carry
documented defects (see `closed_form_jacobian`), so the numeric result
always wins.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, EmptyRegion, MissingSymbol)
from .forward import ProtocolLayout
from .protocol import Protocol, UnknownParams, pack_values
from .model import DensityParams

FD_SCALE = 1e-6
NEAR_ZERO_FLAG_RTOL = 1e-8
PATTERN_ABS_TOL = 1e-10


@dataclass(frozen=True)
class JacobianReport:
    """Jacobian of the measurement map at a point (central differences or,
    from `analytic_jacobian`, closed form).

    Rows follow protocol setting order; columns the canonical Γ order.  The
    determinant is reported only when the matrix is square.
    """

    names: tuple
    matrix: np.ndarray
    determinant: float
    smallest_singular_value: float
    condition_number: float
    point: dict
    steps: dict

    @property
    def abs_determinant(self) -> float:
        return abs(self.determinant) if self.determinant is not None else None

    def near_zero_mask(self, tol: float = PATTERN_ABS_TOL) -> np.ndarray:
        """Boolean mask of entries with |J_ij| < tol."""
        return np.abs(self.matrix) < tol


def central_differences(fn, x: np.ndarray, cols=None,
                        step_scale: float = 1.0):
    """Central-difference Jacobians of fn at each row of x.

    fn maps rows of parameters (N, K) to rows of values (N, S).  Only the
    columns `cols` (default all) are differenced, each with the step
    FD_SCALE * max(1, |x|) times step_scale.  Returns the Jacobians
    (P, S, len(cols)) and the steps (P, len(cols)).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    cols = list(range(x.shape[1])) if cols is None else list(cols)
    p, k = x.shape[0], len(cols)
    steps = step_scale * (FD_SCALE * np.maximum(1.0, np.abs(x[:, cols])))
    probes = np.repeat(x[:, None, :], 2 * k, axis=1)
    for c, col in enumerate(cols):
        probes[:, 2 * c, col] += steps[:, c]
        probes[:, 2 * c + 1, col] -= steps[:, c]
    values = fn(probes.reshape(p * 2 * k, -1)).reshape(p, 2 * k, -1)
    jac = (values[:, 0::2] - values[:, 1::2]) / (2 * steps)[:, :, None]
    return jac.transpose(0, 2, 1), steps


def _jacobian_from_vector(layout: ProtocolLayout, x0: np.ndarray,
                          step_scale: float = 1.0):
    jac, steps = central_differences(layout.statistics, x0,
                                     step_scale=step_scale)
    return jac[0], steps[0]


def _layout_at(protocol: Protocol, x0, names, fixed):
    layout = ProtocolLayout(protocol, names=names, fixed=fixed)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (len(layout.names),):
        raise DimensionMismatch(
            f"point has {x0.size} values for {len(layout.names)} parameters")
    return layout, x0


def jacobian_from_vector(protocol: Protocol, x0, names=None, fixed=None,
                         step_scale: float = 1.0) -> JacobianReport:
    """Numeric Jacobian for an explicit Γ-ordered value vector."""
    layout, x0 = _layout_at(protocol, x0, names, fixed)
    jac, steps = _jacobian_from_vector(layout, x0, step_scale)
    return _report(layout, x0, jac, steps)


def analytic_jacobian(protocol: Protocol, x0) -> JacobianReport:
    """Closed-form Jacobian (`ProtocolLayout.jacobian`) for an explicit
    Γ-ordered value vector; its steps are 0."""
    layout, x0 = _layout_at(protocol, x0, None, None)
    return _report(layout, x0, layout.jacobian(x0)[0], np.zeros(x0.size))


def _report(layout: ProtocolLayout, x0: np.ndarray, jac: np.ndarray,
            steps: np.ndarray) -> JacobianReport:
    det = float(np.linalg.det(jac)) if jac.shape[0] == jac.shape[1] else None
    svals = np.linalg.svd(jac, compute_uv=False)
    smin = float(svals[-1])
    smax = float(svals[0])
    cond = math.inf if smin == 0.0 else smax / smin
    return JacobianReport(
        names=tuple(layout.names), matrix=jac, determinant=det,
        smallest_singular_value=smin, condition_number=cond,
        point=dict(zip(layout.names, x0)),
        steps=dict(zip(layout.names, steps)))


def numeric_jacobian(protocol: Protocol, state: DensityParams,
                     unknowns: UnknownParams = None) -> JacobianReport:
    """Central-difference Jacobian of every setting's exact statistic."""
    if state.dim != protocol.dim:
        raise DimensionMismatch(
            f"state dim {state.dim} != protocol dim {protocol.dim}")
    x0 = pack_values(protocol.unknown_names, state, unknowns)
    return jacobian_from_vector(protocol, x0)


# ---------------------------------------------------------------------------
# Closed-form determinants (cross-checks)
# ---------------------------------------------------------------------------

CLOSED_FORM_NAMES = ("A", "B", "J1", "J2", "J3", "Vtotal")

# Two documented defects in the transcribed expressions, both confirmed by
# the numeric Jacobian and by direct expansion of the 2x2 coherence block:
#  * the trig factors of B, J1, J2 are stated in the flipped phase
#    convention: they match the numeric map only after gamma -> -gamma
#    (the same sign ambiguity the coefficient functions carry for d = 2);
#  * J3 as printed reads (lam1^2 + lam2^2 cos(Omega/2))^2, but the 2x2
#    block determinant is 4 rho12 (a1 a2)^2 with a1 = (cos(Omega/2) lam1^2
#    + lam2^2)/Omega^2, i.e. the cosine belongs with lam1^2.
# `phase_sign=-1` (default) and `j3_corrected=True` (not default) select the
# conventions under which the cross-check reproduces the numeric result.


def closed_form_jacobian(name: str, point: dict, phase_sign: int = 1,
                         j3_corrected: bool = False) -> float:
    """Evaluate a catalog determinant expression at a named point.

    With phase_sign=+1 and j3_corrected=False this is the literal
    transcription; see the module notes for the conventions under which the
    expressions agree with the numeric Jacobian.
    """
    def need(*keys):
        missing = [k for k in keys if k not in point]
        if missing:
            raise MissingSymbol(f"{name} needs symbols {missing}")
        return [float(point[k]) * (phase_sign if k.startswith("gamma") else 1.0)
                for k in keys]

    if name == "A":
        (r01,) = need("rho01")
        return r01
    if name in ("B", "J1"):
        keys = ("rho01", "lam_c", "gamma") if name == "B" else \
            ("rho01", "lam1", "gamma01")
        r01, lam, gam = need(*keys)
        return (64 * r01 ** 2 * math.sin(lam / 2) ** 6 * math.cos(lam / 2) ** 4
                * (math.sin(gam) - math.cos(gam)))
    if name == "J2":
        r02, lam, gam = need("rho02", "lam2", "gamma02")
        return (2 * math.sin(lam) ** 4 * math.cos(lam) * r02 ** 2
                * (math.cos(gam) - math.sin(gam)))
    if name == "J3":
        lam1, lam2, r12 = need("lam1", "lam2", "rho12")
        om = math.hypot(lam1, lam2)
        if om == 0:
            return 0.0
        if j3_corrected:
            core = math.cos(om / 2) * lam1 ** 2 + lam2 ** 2
        else:
            core = lam1 ** 2 + lam2 ** 2 * math.cos(om / 2)
        return (-16 * lam1 ** 2 * lam2 ** 2 * math.sin(om / 4) ** 4 * r12
                * core ** 2 / om ** 8)
    if name == "Vtotal":
        return (closed_form_jacobian("J1", point, phase_sign)
                * closed_form_jacobian("J2", point, phase_sign)
                * closed_form_jacobian("J3", point, phase_sign, j3_corrected))
    raise MissingSymbol(f"no closed form named {name!r} (have {CLOSED_FORM_NAMES})")


# ---------------------------------------------------------------------------
# Singularity scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanResult:
    axis_names: tuple
    rows: tuple  # (axis values..., abs_det, flag) per grid point
    flag_threshold: float

    def to_csv(self, stream) -> None:
        header = list(self.axis_names) + ["abs_det", "flag"]
        stream.write(",".join(header) + "\n")
        for row in self.rows:
            *vals, flag = row
            cells = [f"{v:.17g}" for v in vals] + [str(int(flag))]
            stream.write(",".join(cells) + "\n")


def singularity_scan(protocol: Protocol, state: DensityParams,
                     unknowns: UnknownParams, axes: dict,
                     grid: int) -> ScanResult:
    """|det| of the numeric Jacobian over a Cartesian grid of axis intervals.

    For a protocol with more settings than unknowns (C-alt) the reported
    value is sqrt(det(J^T J)), the product of the singular values, which is
    |det J| when J is square.  axes maps parameter names to (lo, hi); each
    axis gets `grid` points at lo + (hi-lo) * k / grid (half-open, so phase
    axes over [0, 2*pi) avoid the duplicate endpoint).  Points with |det|
    below 1e-8 times the grid median are flagged near-singular.
    """
    if not axes:
        raise EmptyRegion("no scan axes given")
    if int(grid) < 2:
        raise EmptyRegion(f"grid must be >= 2, got {grid}")
    grid = int(grid)
    names = list(protocol.unknown_names)
    for axis in axes:
        if axis not in names:
            raise MissingSymbol(f"axis {axis!r} is not a parameter of this protocol")
    base = pack_values(protocol.unknown_names, state, unknowns)
    layout = ProtocolLayout(protocol)
    axis_names = tuple(axes.keys())
    axis_pts = []
    for axis in axis_names:
        lo, hi = (float(v) for v in axes[axis])
        axis_pts.append(lo + (hi - lo) * np.arange(grid) / grid)
    results = []
    for combo in itertools.product(*axis_pts):
        x = base.copy()
        for axis, val in zip(axis_names, combo):
            x[names.index(axis)] = val
        jac, _ = _jacobian_from_vector(layout, x)
        results.append((combo, float(np.prod(
            np.linalg.svd(jac, compute_uv=False)))))
    dets = np.array([r[1] for r in results])
    threshold = NEAR_ZERO_FLAG_RTOL * float(np.median(dets))
    rows = tuple(tuple(combo) + (det, det < threshold)
                 for combo, det in results)
    return ScanResult(axis_names, rows, threshold)


# ---------------------------------------------------------------------------
# Structural singularity check
# ---------------------------------------------------------------------------

_STRUCTURAL_CACHE: dict = {}


def _probe_vectors(protocol: Protocol, n_probe: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    out = np.empty((n_probe, len(protocol.unknown_names)))
    for i in range(n_probe):
        vals = []
        for name in protocol.unknown_names:
            if name.startswith("rho") and name[3] == name[4]:
                vals.append(rng.uniform(0.25, 0.45))
            elif name.startswith("rho"):
                vals.append(rng.uniform(0.08, 0.16))
            elif name.startswith("lam"):
                vals.append(rng.uniform(0.7, 2.3))
            else:  # phase-like
                vals.append(rng.uniform(0.3, 5.9))
        out[i] = vals
    return out


def structural_zero_columns(protocol: Protocol, n_probe: int = 4,
                            seed: int = 90125) -> tuple:
    """Parameters whose Jacobian column vanishes at every generic probe point.

    A column that is zero at several generic interior points is structurally
    dead: the protocol's statistics carry no information about it anywhere.
    """
    key = repr(protocol.to_dict())
    if key in _STRUCTURAL_CACHE:
        return _STRUCTURAL_CACHE[key]
    jac = ProtocolLayout(protocol).jacobian(
        _probe_vectors(protocol, n_probe, seed))
    col_max = np.abs(jac).max(axis=(0, 1))
    scale = max(col_max.max(), 1.0)
    dead = tuple(name for name, cm in zip(protocol.unknown_names, col_max)
                 if cm < 1e-9 * scale)
    _STRUCTURAL_CACHE[key] = dead
    return dead
