"""Forward measurement model: evolution, exact statistics, closed-form
coefficient cross-checks, and noisy count simulation.

A statistic is the direct trace n = tr(rho' U^dag |j><j| U) with
U = exp(-iG).  Two paths compute it:

* the scalar path (`evolve`, `probability`, `predicted_statistics`, and so
  `simulate_counts`) takes U from the Hermitian eigensolver of `smallmat`;
* `ProtocolLayout`, the batched path every solver uses, takes the label row
  of U from a closed form in the rotation angle, and the derivative of the
  statistics in the strengths and the state in closed form too.  The tests
  hold it to the scalar path and to central differences.

The closed-form coefficient functions are transcriptions of the paper whose
residual sign ambiguity (the statistics are odd in the phase differences
beta through their sine terms) is resolved empirically against the trace
path, per dimension, and cached.  The resolved convention is reported by the
validation suite.

Counts are sampled deterministically: each record draws from an independent
PCG64 stream seeded by (seed, setting_index), so results do not depend on
evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import smallmat
from .errors import BadLabel, DimensionMismatch, InvalidRange
from .model import (COHERENCE_PAIRS, DensityParams, GeneratorParams,
                    assemble_generator, derived_angles, state_matrix)
from .protocol import (COUPLING_UNKNOWNS, BETA_TO_PHASE, DIAG_UNKNOWN,
                       Protocol, UnknownParams, resolve)

NOISE_KINDS = ("exact", "poisson", "gaussian")
# the strengths a generator is affine in, in `ProtocolLayout` order
STRENGTHS = {2: COUPLING_UNKNOWNS[2] + (DIAG_UNKNOWN,), 3: COUPLING_UNKNOWNS[3]}


@dataclass(frozen=True)
class NoiseModel:
    """Sampling model for observed statistics.

    poisson: value = Poisson(shots * n / N) * N / shots  (N = truth trace)
    gaussian: value = max(0, n + Normal(0, sigma * N))
    exact ignores shots and sigma.
    """

    kind: str = "exact"
    shots: int = 1_000_000
    sigma: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise InvalidRange(f"noise kind {self.kind!r} not one of {NOISE_KINDS}")
        if self.kind == "poisson" and int(self.shots) <= 0:
            raise InvalidRange("poisson noise needs a positive shot count")
        if self.kind == "gaussian" and self.sigma < 0:
            raise InvalidRange("gaussian noise needs sigma >= 0")
        object.__setattr__(self, "shots", int(self.shots))
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class CountRecord:
    setting_index: int
    value: float
    shots: int
    noise_kind: str

    def to_dict(self) -> dict:
        return {"setting_index": self.setting_index, "value": self.value,
                "shots": self.shots, "noise_kind": self.noise_kind}


@dataclass(frozen=True)
class CoefficientSet:
    """Real coefficients of the expansion n = sum_{i<=j} coeff[i,j] * rho_ij."""

    label: int
    entries: tuple  # ((i, j), value) pairs, i <= j

    def as_dict(self) -> dict:
        return dict(self.entries)

    def contract(self, state: DensityParams) -> float:
        coeff = self.as_dict()
        total = 0.0
        for i, pop in enumerate(state.populations):
            total += coeff[(i, i)] * pop
        for k, pair in enumerate(COHERENCE_PAIRS[state.dim]):
            total += coeff[pair] * state.coherences[k]
        return total


def evolve(rho, gen: GeneratorParams) -> np.ndarray:
    """U rho U^dag with U = exp(-iG); preserves trace and spectrum."""
    mat = smallmat.as_cmatrix(rho)
    if mat.shape[0] != gen.dim:
        raise DimensionMismatch(f"state dim {mat.shape[0]} != generator dim {gen.dim}")
    u = smallmat.expi_neg(assemble_generator(gen))
    return u @ mat @ u.conj().T


def probability(state: DensityParams, gen: GeneratorParams, label: int) -> float:
    """Exact statistic tr(rho' U^dag |label><label| U) by direct matrix algebra."""
    if state.dim != gen.dim:
        raise DimensionMismatch(f"state dim {state.dim} != generator dim {gen.dim}")
    if not 0 <= int(label) < state.dim:
        raise BadLabel(f"label {label} out of range for dim {state.dim}")
    evolved = evolve(state_matrix(state), gen)
    return float(evolved[int(label), int(label)].real)


def probabilities(state: DensityParams, gen: GeneratorParams) -> np.ndarray:
    """All statistics for one generator; sums to the state trace."""
    evolved = evolve(state_matrix(state), gen)
    return np.diag(evolved).real.copy()


# ---------------------------------------------------------------------------
# Closed-form coefficient families
# ---------------------------------------------------------------------------
#
# For each projector label the diagonal coefficients are squares of amplitude
# factors a_i; the off-diagonal coefficient for pair (i, j) is
# 2 * trig(beta_ij) * a_i * a_j with trig = sin for ground-excited pairs and
# cos for the excited-excited pair.  The signed amplitudes (not their
# absolute values) are what make the contraction reproduce the trace path.


def _amplitudes(gen: GeneratorParams, label: int):
    om = gen.omega
    c, s = math.cos(om / 2), math.sin(om / 2)
    if gen.dim == 2:
        htc = gen.couplings[0] / om
        htz = gen.hz / om
        return c, s, (htc,), htz
    ht1 = gen.couplings[0] / om
    ht2 = gen.couplings[1] / om
    return c, s, (ht1, ht2), 0.0


def coefficients(gen: GeneratorParams, label: int, sign_convention: int = None,
                 betas=None) -> CoefficientSet:
    """Closed-form coefficients for one projector label.

    betas supplies the phase combinations per coherence pair (as produced by
    model.derived_angles); they enter the off-diagonal terms only.  The
    sine-bearing terms are evaluated at sign_convention * beta; passing None
    uses the empirically resolved convention for the dimension.  Zero
    rotation angle returns the identity-limit coefficients (diagonal label
    coefficient 1, everything else 0).
    """
    label = int(label)
    if not 0 <= label < gen.dim:
        raise BadLabel(f"label {label} out of range for dim {gen.dim}")
    sign = resolved_sign_convention(gen.dim) if sign_convention is None \
        else int(sign_convention)
    if sign not in (1, -1):
        raise InvalidRange("sign_convention must be +1 or -1")
    pairs = COHERENCE_PAIRS[gen.dim]
    if betas is None:
        betas = tuple(0.0 for _ in pairs)
    else:
        betas = tuple(float(b) for b in betas)
        if len(betas) != len(pairs):
            raise DimensionMismatch(f"need {len(pairs)} beta values")

    entries = {}
    if gen.omega == 0.0:
        for i in range(gen.dim):
            entries[(i, i)] = 1.0 if i == label else 0.0
        for pair in pairs:
            entries[pair] = 0.0
        return CoefficientSet(label, tuple(sorted(entries.items())))

    c, s, ht, htz = _amplitudes(gen, label)
    if gen.dim == 2:
        b = sign * betas[0]
        if label == 0:
            entries[(0, 0)] = c * c + s * s * htz * htz
            entries[(1, 1)] = s * s * ht[0] * ht[0]
            entries[(0, 1)] = 2 * (c * math.sin(b) + s * math.cos(b) * htz) * (s * ht[0])
        else:
            entries[(0, 0)] = s * s * ht[0] * ht[0]
            entries[(1, 1)] = c * c + s * s * htz * htz
            entries[(0, 1)] = -2 * (c * math.sin(b) + s * math.cos(b) * htz) * (s * ht[0])
        return CoefficientSet(label, tuple(sorted(entries.items())))

    # d = 3: signed amplitude per level, per label family
    if label == 0:
        amp = (c, -s * ht[0], -s * ht[1])
    elif label == 1:
        amp = (s * ht[0], c * ht[0] ** 2 + ht[1] ** 2, (c - 1) * ht[0] * ht[1])
    else:
        amp = (s * ht[1], (c - 1) * ht[0] * ht[1], ht[0] ** 2 + c * ht[1] ** 2)
    for i in range(3):
        entries[(i, i)] = amp[i] * amp[i]
    b01, b02, b12 = (sign * b for b in betas)
    entries[(0, 1)] = 2 * math.sin(b01) * amp[0] * amp[1]
    entries[(0, 2)] = 2 * math.sin(b02) * amp[0] * amp[2]
    entries[(1, 2)] = 2 * math.cos(b12) * amp[1] * amp[2]
    return CoefficientSet(label, tuple(sorted(entries.items())))


def closed_form_statistic(state: DensityParams, gen: GeneratorParams,
                          label: int, sign_convention: int = None) -> float:
    """Statistic reconstructed from the coefficient functions (cross-check path)."""
    angles = derived_angles(state, gen)
    return coefficients(gen, label, sign_convention, angles.betas).contract(state)


_SIGN_CACHE: dict = {}


def resolve_sign_convention(dim: int, n_draws: int = 200, seed: int = 715) -> int:
    """Pick the sign (+1 or -1) minimizing |closed form - direct trace|.

    Random states and generators are drawn from a fixed-seed generator; the
    winning convention reproduces the trace path to round-off, the losing one
    disagrees at order one, so the choice is unambiguous.
    """
    if dim not in (2, 3):
        raise DimensionMismatch(f"dim {dim} not supported")
    rng = np.random.default_rng(seed + dim)
    worst = {1: 0.0, -1: 0.0}
    for _ in range(n_draws):
        state = _random_state(dim, rng)
        gen = _random_generator(dim, rng)
        for label in range(dim):
            exact = probability(state, gen, label)
            for sign in (1, -1):
                approx = closed_form_statistic(state, gen, label, sign)
                worst[sign] = max(worst[sign], abs(approx - exact))
    return 1 if worst[1] <= worst[-1] else -1


def resolved_sign_convention(dim: int) -> int:
    """Cached empirical sign convention for the dimension."""
    if dim not in _SIGN_CACHE:
        _SIGN_CACHE[dim] = resolve_sign_convention(dim)
    return _SIGN_CACHE[dim]


def _random_state(dim: int, rng) -> DensityParams:
    # PSD by construction: random pure-ensemble mixture, scaled
    vecs = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    weights = rng.uniform(0.2, 1.0, dim)
    m = sum(w * np.outer(v, v.conj()) / (v.conj() @ v) for w, v in zip(weights, vecs))
    from .model import state_params_from_matrix
    return state_params_from_matrix(m)


def _random_generator(dim: int, rng) -> GeneratorParams:
    if dim == 2:
        return GeneratorParams(2, rng.uniform(-4, 4), (rng.uniform(0, 6),),
                               (rng.uniform(0, 2 * np.pi),))
    return GeneratorParams(3, 0.0, tuple(rng.uniform(0, 6, 2)),
                           tuple(rng.uniform(0, 2 * np.pi, 2)))


# ---------------------------------------------------------------------------
# Batched protocol evaluation
# ---------------------------------------------------------------------------


class ProtocolLayout:
    """Precomputed decoding of a Γ name list against a protocol.

    Maps vectors of parameter values (rows of X) to the full arrays the
    vectorized statistics kernel needs.  Parameters absent from the name
    list are held at the values in `fixed` (default 0).

    The kernel is closed-form.  Every generator has the spectrum
    {-Ω/2, (0,) +Ω/2} with Ω² = 2 tr G², so
        U = exp(-iG) = I - i f1(Ω) G + f2(Ω) G²,
        f1 = sin(Ω/2)/(Ω/2),  f2 = 4 (cos(Ω/2) - 1)/Ω²,
    both entire in Ω.  G is affine in the strengths (`STRENGTHS`): per
    setting, G = base + sum_l lam_l * unit_l, so ∂G/∂lam_l = unit_l and
    ∂Ω/∂lam_l = 2 tr(G unit_l)/Ω, which gives the strength derivative of the
    design in closed form too.  Only the label row of U is formed.
    """

    def __init__(self, protocol: Protocol, names=None, fixed=None):
        self.protocol = protocol
        self.dim = d = protocol.dim
        self.names = tuple(names if names is not None else protocol.unknown_names)
        self.fixed = dict(fixed or {})
        self.npair = len(COHERENCE_PAIRS[d])
        # slots: populations, coherence mags, state phases (with sign), strengths
        self._pop = {f"rho{i}{i}": i for i in range(d)}
        self._mag = {f"rho{i}{j}": k for k, (i, j) in
                     enumerate(COHERENCE_PAIRS[d])}
        phase_names = {2: ("gamma",), 3: ("gamma01", "gamma02", "gamma12")}[d]
        self._phase = {n: k for k, n in enumerate(phase_names)}
        self._lam = {n: k for k, n in enumerate(STRENGTHS[d])}

        def decode(name):
            if name in self._pop:
                return ("pop", self._pop[name], 1.0)
            if name in self._mag:
                return ("mag", self._mag[name], 1.0)
            if name in self._phase:
                return ("phase", self._phase[name], 1.0)
            if name in BETA_TO_PHASE:
                target = BETA_TO_PHASE[name]
                sign = 1.0 if target == "gamma12" else -1.0
                return ("phase", self._phase[target], sign)
            if name in self._lam:
                return ("lam", self._lam[name], 1.0)
            raise InvalidRange(f"unrecognized parameter name {name!r}")

        self._slots = [decode(n) for n in self.names]
        # positions in `names` of the strengths, and their indices in STRENGTHS
        self.lam_cols = [k for k, s in enumerate(self._slots) if s[0] == "lam"]
        self._lam_idx = [self._slots[k][1] for k in self.lam_cols]
        # a row of x maps to [populations, magnitudes, signed state phases,
        # strengths] as offset + x @ select; a named parameter beats `fixed`
        n_lam = len(STRENGTHS[d])
        start = {"pop": 0, "mag": d, "phase": d + self.npair,
                 "lam": d + 2 * self.npair}
        self._split = np.cumsum([d, self.npair, self.npair])
        self._select = np.zeros((len(self.names), self._split[-1] + n_lam))
        for k, (kind, idx, sign) in enumerate(self._slots):
            self._select[k, start[kind] + idx] = sign
        self._offset = np.zeros(self._select.shape[1])
        for name, value in self.fixed.items():
            kind, idx, sign = decode(name)
            if not self._select[:, start[kind] + idx].any():
                self._offset[start[kind] + idx] = sign * float(value)

        settings = protocol.settings
        n_set = len(settings)
        self.labels = np.array([st.label for st in settings], dtype=int)
        base = np.zeros((n_set, d, d), dtype=complex)
        unit = np.zeros((n_set, n_lam, d, d), dtype=complex)
        for si, st in enumerate(settings):
            for k in range(d - 1):
                e = 0.5 * np.exp(-1j * st.phases[k])
                base[si, 0, k + 1] = st.fixed_couplings[k] * e
                unit[si, k, 0, k + 1] = st.multipliers[k] * e
            if d == 2:
                base[si] += np.diag([0.5, -0.5]) * st.fixed_diag
                unit[si, 1] += np.diag([0.5, -0.5]) * st.mz
        low = np.tril_indices(d, -1)
        for g in (base, unit):
            g[..., low[0], low[1]] = g[..., low[1], low[0]].conj()
        self._base, self._unit = base, unit
        self._unit_rows = self._unit[np.arange(n_set), :, self.labels]  # (S, L, d)
        self._eye_rows = np.eye(d)[self.labels]                          # (S, d)
        self._pair_levels = np.array(COHERENCE_PAIRS[d]).T

    def _decode(self, x: np.ndarray):
        """Populations, magnitudes, signed state phases and strengths per row."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != len(self.names):
            raise DimensionMismatch(
                f"vector length {x.shape[1]} != {len(self.names)} parameters")
        return np.split(self._offset + x @ self._select, self._split, axis=1)

    def _label_rows(self, lam: np.ndarray, derivative: bool = False):
        """Row `label` of U = exp(-iG) for every point and setting, (P, S, d),
        and with `derivative` also its strength derivatives, (P, S, L, d)."""
        p, (s, n_lam, d, _) = len(lam), self._unit.shape
        gen = self._base + (lam @ self._unit.transpose(1, 0, 2, 3).reshape(
            n_lam, -1)).reshape(p, s, d, d)
        g_row = gen[:, np.arange(s), self.labels]                 # (P, S, d)
        g2_row = (g_row[..., None, :] @ gen)[..., 0, :]
        half = np.sqrt(0.5 * (gen.real ** 2 + gen.imag ** 2).sum(axis=(2, 3)))
        # f1 and f2 at Ω = 0 are their limits, 1 and -1/2
        safe = np.where(half == 0.0, 1e-300, half)
        f1 = np.sin(safe) / safe
        f2 = -0.5 * (np.sin(0.5 * safe) / (0.5 * safe)) ** 2
        rows = self._eye_rows - 1j * f1[..., None] * g_row + f2[..., None] * g2_row
        if not derivative:
            return rows
        # (df/dΩ)/Ω for both factors; a series where the closed form cancels
        small = half < 0.05
        h2 = np.where(small, half * half, 1.0)
        hs = np.where(small, 1.0, half)
        g1 = np.where(small, -1 / 12 + h2 / 120 - h2 * h2 / 3360,
                      (np.cos(hs) - f1) / (4 * hs * hs))
        g2 = np.where(small, 1 / 48 - h2 / 720 + h2 * h2 / 26880,
                      -(f1 + 2 * f2) / (4 * hs * hs))
        # tr(G unit_l) = dΩ²/dlam_l / 4
        tr = np.einsum("psij,slij->psl", gen, self._unit.conj()).real
        d_g2_row = (g_row[:, :, None, None, :] @ self._unit)[..., 0, :] \
            + (self._unit_rows[..., None, :] @ gen[:, :, None])[..., 0, :]
        d_rows = (-1j * (2 * (g1[..., None] * tr)[..., None] * g_row[:, :, None]
                         + f1[..., None, None] * self._unit_rows)
                  + 2 * (g2[..., None] * tr)[..., None] * g2_row[:, :, None]
                  + f2[..., None, None] * d_g2_row)
        return rows, d_rows

    def _columns(self, rows: np.ndarray, d_rows: np.ndarray = None) -> np.ndarray:
        """Design columns from label rows u: |u_i|², then Re and Im of
        u_i conj(u_j) per pair; with d_rows (strength axis before the level
        axis) their derivatives, the column axis moved before the strength
        axis."""
        i, j = self._pair_levels
        if d_rows is None:
            z = rows[..., i] * rows[..., j].conj()
            pops = rows.real ** 2 + rows.imag ** 2
        else:
            u = rows[:, :, None]
            z = d_rows[..., i] * u[..., j].conj() + u[..., i] * d_rows[..., j].conj()
            pops = 2.0 * (u.conj() * d_rows).real
        pairs = np.stack([z.real, z.imag], axis=-1).reshape(
            z.shape[:-1] + (2 * z.shape[-1],))
        cols = np.concatenate([pops, pairs], axis=-1)
        return cols if d_rows is None else np.swapaxes(cols, -1, -2)

    @staticmethod
    def _density(pops, mags, sph) -> np.ndarray:
        p, d = pops.shape
        rho = np.zeros((p, d, d), dtype=complex)
        for i in range(d):
            rho[:, i, i] = pops[:, i]
        for k, (i, j) in enumerate(COHERENCE_PAIRS[d]):
            off = mags[:, k] * np.exp(-1j * sph[:, k])
            rho[:, i, j] = off
            rho[:, j, i] = off.conj()
        return rho

    def density(self, x: np.ndarray) -> np.ndarray:
        """State matrix for each row of x; shape (P, d, d)."""
        return self._density(*self._decode(x)[:3])

    @staticmethod
    def _coordinates(pops, mags, sph) -> np.ndarray:
        pairs = np.stack([2.0 * mags * np.cos(sph), 2.0 * mags * np.sin(sph)],
                         axis=2)
        return np.concatenate([pops, pairs.reshape(len(pops), -1)], axis=1)

    def statistics(self, x: np.ndarray) -> np.ndarray:
        """Model statistics for each row of x; shape (P, n_settings)."""
        pops, mags, sph, lam = self._decode(x)
        design = self._columns(self._label_rows(lam))
        return np.einsum("psc,pc->ps", design,
                         self._coordinates(pops, mags, sph))

    def design(self, x: np.ndarray) -> np.ndarray:
        """Linear map from Cartesian state coordinates to statistics: (P, S, C).

        Only the strengths of each row of x (and of `fixed`) matter.  The
        coordinates are the populations, then x = 2*mag*cos(phase) and
        y = 2*mag*sin(phase) per coherence pair, so that state entry (i, j)
        is (x - i*y)/2; the statistics of a state are design @ coordinates.
        """
        return self._columns(self._label_rows(self._decode(x)[3]))

    def design_and_derivative(self, x: np.ndarray) -> tuple:
        """The design (P, S, C) and its derivative (P, S, C, K) in the K
        strengths among `names` (positions `lam_cols`), in name order."""
        lam = self._decode(x)[3]
        rows, d_rows = self._label_rows(lam, derivative=True)
        d_design = self._columns(rows, d_rows[:, :, self._lam_idx])
        return self._columns(rows), d_design

    def coordinates(self, x: np.ndarray) -> np.ndarray:
        """Cartesian state coordinates of each row of x (and of `fixed`):
        (P, C), in the column order of `design`, so that
        statistics(x) = design(x) @ coordinates(x) row by row."""
        return self._coordinates(*self._decode(x)[:3])

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """Derivative of the statistics in every parameter of `names`, for
        each row of x: (P, S, K).  Since s = design(lam) @ coordinates(state),
        a state column is design @ ∂coordinates and a strength column
        ∂design @ coordinates."""
        pops, mags, sph, _ = self._decode(x)
        design, d_design = self.design_and_derivative(x)
        coords = self._coordinates(pops, mags, sph)
        jac = np.empty(design.shape[:2] + (len(self.names),))
        jac[..., self.lam_cols] = np.einsum("psck,pc->psk", d_design, coords)
        d = self.dim
        for k, (kind, idx, sign) in enumerate(self._slots):
            if kind == "pop":
                jac[..., k] = design[..., idx]
            elif kind != "lam":
                # (x, y) = 2 mag (cos, sin)(sign * phase)
                cos, sin = np.cos(sph[:, idx, None]), np.sin(sph[:, idx, None])
                if kind == "mag":
                    dx, dy = 2.0 * cos, 2.0 * sin
                else:
                    scale = 2.0 * sign * mags[:, idx, None]
                    dx, dy = -scale * sin, scale * cos
                jac[..., k] = (design[..., d + 2 * idx] * dx
                               + design[..., d + 2 * idx + 1] * dy)
        return jac


def predicted_statistics(protocol: Protocol, state: DensityParams,
                         unknowns: UnknownParams = None,
                         phase_ref=None) -> np.ndarray:
    """Exact per-setting statistics via the scalar trace path."""
    if state.dim != protocol.dim:
        raise DimensionMismatch(
            f"state dim {state.dim} != protocol dim {protocol.dim}")
    return np.array([
        probability(state, resolve(st, unknowns, phase_ref), st.label)
        for st in protocol.settings
    ])


def _record_rng(seed: int, setting_index: int):
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(setting_index)]))


def simulate_counts(truth_state: DensityParams, truth_unknowns: UnknownParams,
                    protocol: Protocol, noise: NoiseModel,
                    phase_ref=None) -> list:
    """One CountRecord per setting; deterministic for a fixed seed."""
    exact = predicted_statistics(protocol, truth_state, truth_unknowns, phase_ref)
    scale = truth_state.trace
    records = []
    for idx, n in enumerate(exact):
        if noise.kind == "exact":
            value, shots = float(n), 0
        elif noise.kind == "poisson":
            rng = _record_rng(noise.seed, idx)
            lam = noise.shots * max(float(n), 0.0) / scale
            value = float(rng.poisson(lam)) * scale / noise.shots
            shots = noise.shots
        else:
            rng = _record_rng(noise.seed, idx)
            value = max(0.0, float(n) + rng.normal(0.0, noise.sigma * scale))
            shots = 0
        records.append(CountRecord(idx, value, shots, noise.kind))
    return records


def observed_values(records) -> np.ndarray:
    return np.array([r.value for r in records], dtype=float)
