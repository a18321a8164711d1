"""Forward measurement model: evolution, exact statistics, closed-form
coefficient cross-checks, and noisy count simulation.

The single source of truth for a statistic is the direct trace
n = tr(rho' U^dag |j><j| U) with U = exp(-iG); the closed-form coefficient
functions are transcriptions whose residual sign ambiguity (the statistics
are odd in the phase differences beta through their sine terms) is resolved
empirically against the trace path, per dimension, and cached.  The resolved
convention is reported by the validation suite.

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
from .protocol import (COUPLING_UNKNOWNS, BETA_TO_PHASE, Protocol,
                       UnknownParams, resolve)

NOISE_KINDS = ("exact", "poisson", "gaussian")


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
    """

    def __init__(self, protocol: Protocol, names=None, fixed=None):
        self.protocol = protocol
        self.dim = protocol.dim
        self.names = tuple(names if names is not None else protocol.unknown_names)
        self.fixed = dict(fixed or {})
        npair = len(COHERENCE_PAIRS[self.dim])
        # slots: populations, coherence mags, state phases (with sign), lambdas
        self._pop = {f"rho{i}{i}": i for i in range(self.dim)}
        self._mag = {f"rho{i}{j}": k for k, (i, j) in
                     enumerate(COHERENCE_PAIRS[self.dim])}
        phase_names = {2: ("gamma",), 3: ("gamma01", "gamma02", "gamma12")}[self.dim]
        self._phase = {n: k for k, n in enumerate(phase_names)}
        self._lam = {n: k for k, n in enumerate(COUPLING_UNKNOWNS[self.dim])}
        self.npair = npair

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
            if name == "lam_z":
                return ("lam_z", 0, 1.0)
            raise InvalidRange(f"unrecognized parameter name {name!r}")

        self._slots = [decode(n) for n in self.names]
        self._fixed_slots = [(decode(n), float(v)) for n, v in self.fixed.items()]

        s = protocol.settings
        self.labels = np.array([st.label for st in s], dtype=int)
        self.mult = np.array([st.multipliers for st in s], dtype=float)
        self.fixed_h = np.array([st.fixed_couplings for st in s], dtype=float)
        self.theta = np.array([st.phases for st in s], dtype=float)
        if self.dim == 2:
            self.mz = np.array([st.mz for st in s], dtype=float)
            self.fixed_hz = np.array([st.fixed_diag for st in s], dtype=float)

    def _decode(self, x: np.ndarray):
        """Populations, magnitudes, signed state phases and strengths per row."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        p = x.shape[0]
        if x.shape[1] != len(self.names):
            raise DimensionMismatch(
                f"vector length {x.shape[1]} != {len(self.names)} parameters")
        pops = np.zeros((p, self.dim))
        mags = np.zeros((p, self.npair))
        sph = np.zeros((p, self.npair))
        lam = np.zeros((p, len(COUPLING_UNKNOWNS[self.dim])))
        lamz = np.zeros(p)

        def put(slot, col):
            kind, idx, sign = slot
            if kind == "pop":
                pops[:, idx] = col
            elif kind == "mag":
                mags[:, idx] = col
            elif kind == "phase":
                sph[:, idx] = sign * col
            elif kind == "lam":
                lam[:, idx] = col
            else:
                lamz[:] = col

        for slot, value in self._fixed_slots:
            put(slot, value)
        for k, slot in enumerate(self._slots):
            put(slot, x[:, k])
        return pops, mags, sph, lam, lamz

    def _label_rows(self, lam: np.ndarray, lamz: np.ndarray) -> np.ndarray:
        """Row `label` of U = exp(-iG) for every (point, setting): (P*S, d)."""
        d = self.dim
        p, s = lam.shape[0], len(self.labels)
        gens = np.zeros((p, s, d, d), dtype=complex)
        for si in range(s):
            hs = self.mult[si] * lam + self.fixed_h[si]  # (P, ncoup)
            if d == 2:
                hz = self.mz[si] * lamz + self.fixed_hz[si]
                gens[:, si, 0, 0] = 0.5 * hz
                gens[:, si, 1, 1] = -0.5 * hz
                off = 0.5 * hs[:, 0] * np.exp(-1j * self.theta[si, 0])
                gens[:, si, 0, 1] = off
                gens[:, si, 1, 0] = off.conj()
            else:
                for k in range(2):
                    off = 0.5 * hs[:, k] * np.exp(-1j * self.theta[si, k])
                    gens[:, si, 0, k + 1] = off
                    gens[:, si, k + 1, 0] = off.conj()
        u = smallmat.expi_neg_batch(gens.reshape(p * s, d, d))
        return u[np.arange(p * s), np.tile(self.labels, p), :]

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

    def statistics(self, x: np.ndarray) -> np.ndarray:
        """Model statistics for each row of x; shape (P, n_settings)."""
        pops, mags, sph, lam, lamz = self._decode(x)
        rho = self._density(pops, mags, sph)
        p, s = rho.shape[0], len(self.labels)
        rows = self._label_rows(lam, lamz)
        flat_rho = np.repeat(rho, s, axis=0)
        vals = np.einsum("bi,bij,bj->b", rows, flat_rho, rows.conj()).real
        return vals.reshape(p, s)

    def design(self, x: np.ndarray) -> np.ndarray:
        """Linear map from Cartesian state coordinates to statistics: (P, S, C).

        Only the strengths of each row of x (and of `fixed`) matter.  The
        coordinates are the populations, then x = 2*mag*cos(phase) and
        y = 2*mag*sin(phase) per coherence pair, so that state entry (i, j)
        is (x - i*y)/2; the statistics of a state are design @ coordinates.
        """
        _, _, _, lam, lamz = self._decode(x)
        p, s, d = lam.shape[0], len(self.labels), self.dim
        rows = self._label_rows(lam, lamz)
        cols = [np.abs(rows[:, i]) ** 2 for i in range(d)]
        for i, j in COHERENCE_PAIRS[d]:
            z = rows[:, i] * rows[:, j].conj()
            cols.extend([z.real, z.imag])
        return np.stack(cols, axis=1).reshape(p, s, len(cols))

    def coordinates(self, x: np.ndarray) -> np.ndarray:
        """Cartesian state coordinates of each row of x (and of `fixed`):
        (P, C), in the column order of `design`, so that
        statistics(x) = design(x) @ coordinates(x) row by row."""
        pops, mags, sph, _, _ = self._decode(x)
        pairs = np.stack([2.0 * mags * np.cos(sph), 2.0 * mags * np.sin(sph)],
                         axis=2)
        return np.concatenate([pops, pairs.reshape(len(pops), -1)], axis=1)


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
