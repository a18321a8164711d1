"""Identifiability analysis: the Jacobian of the measurement map,
determinant and conditioning diagnostics, closed-form cross-checks, and
singularity scans.

Every Jacobian reported here (`jacobian_from_vector`, `numeric_jacobian`,
`singularity_scan`, `structural_zero_columns`) is the closed-form
`ProtocolLayout.jacobian` that the solver uses too, on the protocol's
shared layout (`forward.layout_of`).  The closed-form determinant
expressions for the shipped scenarios are transcriptions kept as
cross-checks; two of them carry documented defects (see
`closed_form_jacobian`), so the computed Jacobian always wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, EmptyRegion, MissingSymbol)
from .forward import layout_of
from .protocol import NAMES, Protocol, UnknownParams, pack_values
from .model import DensityParams

NEAR_ZERO_FLAG_RTOL = 1e-8
PATTERN_ABS_TOL = 1e-10
SINGULAR_RTOL = 1e-9
# grid points per Jacobian evaluation of `singularity_scan`
SCAN_CHUNK = 1024


def near_singular(jac: np.ndarray, smin) -> np.ndarray:
    """True where a Jacobian of the stack (..., S, K) is near-singular: its
    smallest singular value `smin` is at most SINGULAR_RTOL * max(1, max |J|)."""
    jmax = np.abs(jac).max(axis=(-2, -1))
    return smin <= SINGULAR_RTOL * np.maximum(1.0, jmax)


@dataclass(frozen=True)
class JacobianReport:
    """Closed-form Jacobian of the measurement map at a point.

    Rows follow protocol setting order; columns the canonical Γ order.  The
    determinant is reported only when the matrix is square.
    """

    names: tuple
    matrix: np.ndarray
    determinant: float
    smallest_singular_value: float
    condition_number: float

    @property
    def near_singular(self) -> bool:
        return bool(near_singular(self.matrix, self.smallest_singular_value))

    @property
    def abs_determinant(self) -> float:
        return abs(self.determinant) if self.determinant is not None else None

    def near_zero_mask(self, tol: float = PATTERN_ABS_TOL) -> np.ndarray:
        """Boolean mask of entries with |J_ij| < tol."""
        return np.abs(self.matrix) < tol


def jacobian_from_vector(protocol: Protocol, x0,
                         evaluation=None) -> JacobianReport:
    """Jacobian report for an explicit Γ-ordered value vector (`evaluation`
    as in `ProtocolLayout.jacobian`)."""
    names = protocol.unknown_names
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (len(names),):
        raise DimensionMismatch(
            f"point has {x0.size} values for {len(names)} parameters")
    jac = layout_of(protocol).jacobian(x0, evaluation)[0]
    det = float(np.linalg.det(jac)) if jac.shape[0] == jac.shape[1] else None
    svals = np.linalg.svd(jac, compute_uv=False)
    smin = float(svals[-1])
    cond = math.inf if smin == 0.0 else float(svals[0]) / smin
    return JacobianReport(
        names=names, matrix=jac, determinant=det,
        smallest_singular_value=smin, condition_number=cond)


def numeric_jacobian(protocol: Protocol, state: DensityParams,
                     unknowns: UnknownParams = None) -> JacobianReport:
    """Jacobian of every setting's exact statistic at a state and unknowns."""
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
# the computed Jacobian and by direct expansion of the 2x2 coherence block:
#  * the trig factors of B, J1, J2 are stated in the flipped phase
#    convention: they match the statistics only after gamma -> -gamma
#    (the same sign ambiguity the coefficient functions carry for d = 2);
#  * J3 as printed reads (lam1^2 + lam2^2 cos(Omega/2))^2, but the 2x2
#    block determinant is 4 rho12 (a1 a2)^2 with a1 = (cos(Omega/2) lam1^2
#    + lam2^2)/Omega^2, i.e. the cosine belongs with lam1^2.
# `phase_sign=-1` (default) and `j3_corrected=True` (not default) select the
# conventions under which the cross-check reproduces the computed Jacobian.


def closed_form_jacobian(name: str, point: dict, phase_sign: int = 1,
                         j3_corrected: bool = False) -> float:
    """Evaluate a catalog determinant expression at a named point.

    With phase_sign=+1 and j3_corrected=False this is the literal
    transcription; see the module notes for the conventions under which the
    expressions agree with the computed Jacobian.
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
    rows: np.ndarray  # (N, axes + 2): axis values..., abs_det, flag (0 or 1)
    flag_threshold: float

    def to_csv(self, stream) -> None:
        """Header, then one line per row with 17 significant digits and an
        integer flag, written SCAN_CHUNK rows at a time."""
        header = list(self.axis_names) + ["abs_det", "flag"]
        stream.write(",".join(header) + "\n")
        line = ",".join(["%.17g"] * (len(header) - 1) + ["%d"]) + "\n"
        for start in range(0, len(self.rows), SCAN_CHUNK):
            chunk = self.rows[start:start + SCAN_CHUNK].tolist()
            stream.write("".join(line % tuple(row) for row in chunk))


def singularity_scan(protocol: Protocol, state: DensityParams,
                     unknowns: UnknownParams, axes: dict,
                     grid: int) -> ScanResult:
    """|det| of the Jacobian over a Cartesian grid of axis intervals.

    For a protocol with more settings than unknowns (C-alt) the reported
    value is sqrt(det(J^T J)), the product of the singular values, which is
    |det J| when J is square.  axes maps parameter names to (lo, hi); each
    axis gets `grid` points at lo + (hi-lo) * k / grid (half-open, so phase
    axes over [0, 2*pi) avoid the duplicate endpoint).  A point is flagged
    near-singular when |det| is below 1e-8 times the grid median, or when
    its Jacobian is near-singular by the rule of `near_singular`, so that a
    grid singular everywhere (a structurally dead column) is flagged
    throughout.  The Jacobians are evaluated SCAN_CHUNK points at a time.
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
    axis_names = tuple(axes.keys())
    axis_pts = []
    for axis in axis_names:
        lo, hi = (float(v) for v in axes[axis])
        axis_pts.append(lo + (hi - lo) * np.arange(grid) / grid)
    # grid rows in itertools.product order: the last axis varies fastest
    combos = np.stack(np.meshgrid(*axis_pts, indexing="ij"),
                      axis=-1).reshape(-1, len(axis_names))
    x = np.tile(pack_values(protocol.unknown_names, state, unknowns),
                (len(combos), 1))
    x[:, [names.index(axis) for axis in axis_names]] = combos
    layout = layout_of(protocol)
    rows = np.empty((len(x), len(axis_names) + 2))
    rows[:, :-2] = combos
    singular = np.empty(len(x), dtype=bool)
    for start in range(0, len(x), SCAN_CHUNK):
        chunk = slice(start, start + SCAN_CHUNK)
        jac = layout.jacobian(x[chunk])
        svals = np.linalg.svd(jac, compute_uv=False)
        rows[chunk, -2] = np.prod(svals, axis=1)
        singular[chunk] = near_singular(jac, svals[:, -1])
    threshold = NEAR_ZERO_FLAG_RTOL * float(np.median(rows[:, -2]))
    rows[:, -1] = (rows[:, -2] < threshold) | singular
    return ScanResult(axis_names, rows, threshold)


# ---------------------------------------------------------------------------
# Structural singularity check
# ---------------------------------------------------------------------------

N_PROBE = 4
PROBE_SEED = 90125


def _probe_vectors(protocol: Protocol) -> np.ndarray:
    """N_PROBE generic points: each parameter uniform on the range of its
    kind (`protocol.NAMES`), drawn in name order from PROBE_SEED."""
    rng = np.random.default_rng(PROBE_SEED)
    ranges = {"pop": (0.25, 0.45), "mag": (0.08, 0.16), "lam": (0.7, 2.3),
              "phase": (0.3, 5.9)}
    kinds = [NAMES[protocol.dim][n][0] for n in protocol.unknown_names]
    return np.array([[rng.uniform(*ranges[kind]) for kind in kinds]
                     for _ in range(N_PROBE)])


def structural_zero_columns(protocol: Protocol) -> tuple:
    """Parameters whose Jacobian column vanishes at every generic probe point.

    A column that is zero at N_PROBE generic interior points (drawn from
    PROBE_SEED) is structurally dead: the protocol's statistics carry no
    information about it anywhere.  The solver takes this verdict once per
    protocol, in its plan (`invert._plan`).
    """
    jac = layout_of(protocol).jacobian(_probe_vectors(protocol))
    col_max = np.abs(jac).max(axis=(0, 1))
    scale = max(col_max.max(), 1.0)
    return tuple(name for name, cm in zip(protocol.unknown_names, col_max)
                 if cm < 1e-9 * scale)
