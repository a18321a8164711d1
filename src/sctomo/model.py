"""Parametrized states and rotation generators for d = 2 and d = 3.

States are carried unnormalized: the trace N absorbs collection time,
detector efficiency and loss, so populations live on the counts scale and
N = sum of populations by construction.  Off-diagonal entries are stored as
magnitude/phase pairs, entry (i, j) for i < j being mag * exp(-i * phase).

The generator couples levels with strengths h/2 and phases exp(-i*phi) on the
upper triangle.  For d = 2 there is an additional diagonal strength h_z; for
the V-type d = 3 topology the two excited levels couple only to the ground
state and the diagonal vanishes.

The diagonal-phase gauge freedom (multiplying level j by exp(i*eta_j)) shifts
state and generator phases together without touching any measurement
statistic; `gauge_transform` applies it and `gauge_fix` picks the canonical
representative with real positive generator couplings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import smallmat
from .errors import InvalidRange, WrongDimension

TWO_PI = 2.0 * math.pi

# Off-diagonal pair ordering per dimension.
COHERENCE_PAIRS = {2: ((0, 1),), 3: ((0, 1), (0, 2), (1, 2))}
# The phase of each pair, in the same order.
PHASE_NAMES = {2: ("gamma",), 3: ("gamma01", "gamma02", "gamma12")}

# Canonical serialization keys.
STATE_KEYS = {
    2: ("rho00", "rho11", "rho01", "gamma"),
    3: ("rho00", "rho11", "rho22", "rho01", "rho02", "rho12",
        "gamma01", "gamma02", "gamma12"),
}


def wrap_phase(x):
    """Reduce an angle (or array of angles) to [0, 2*pi)."""
    wrapped = np.mod(x, TWO_PI)
    # mod can return 2*pi exactly for tiny negative inputs
    wrapped = np.where(wrapped >= TWO_PI, wrapped - TWO_PI, wrapped)
    if np.ndim(x) == 0:
        return float(wrapped)
    return wrapped


def circular_distance(a, b) -> float:
    """Distance between two angles on the circle, in [0, pi]."""
    d = wrap_phase(a - b)
    return float(min(d, TWO_PI - d))


@dataclass(frozen=True)
class DensityParams:
    """Unnormalized density-matrix parameters (populations, coherences, phases)."""

    populations: tuple
    coherences: tuple
    phases: tuple

    def __post_init__(self):
        pops = tuple(float(p) for p in self.populations)
        mags = tuple(float(c) for c in self.coherences)
        phs = tuple(wrap_phase(float(p)) for p in self.phases)
        if len(pops) not in (2, 3):
            raise WrongDimension(f"dim {len(pops)} not supported (need 2 or 3)")
        npairs = len(COHERENCE_PAIRS[len(pops)])
        if len(mags) != npairs or len(phs) != npairs:
            raise InvalidRange(
                f"dim {len(pops)} needs {npairs} coherence magnitude/phase pairs")
        if any(p < 0 for p in pops):
            raise InvalidRange(f"negative population in {pops}")
        if any(c < 0 for c in mags):
            raise InvalidRange(f"negative coherence magnitude in {mags}")
        object.__setattr__(self, "populations", pops)
        object.__setattr__(self, "coherences", mags)
        object.__setattr__(self, "phases", phs)

    @property
    def dim(self) -> int:
        return len(self.populations)

    @property
    def trace(self) -> float:
        """The scale N (counts absorbed into the state)."""
        return float(sum(self.populations))

    def to_dict(self) -> dict:
        vals = list(self.populations) + list(self.coherences) + list(self.phases)
        return dict(zip(STATE_KEYS[self.dim], vals))


def qubit_state(rho00, rho11, rho01, gamma) -> DensityParams:
    return DensityParams((rho00, rho11), (rho01,), (gamma,))


def vtype_state(rho00, rho11, rho22, rho01, rho02, rho12,
                gamma01, gamma02, gamma12) -> DensityParams:
    return DensityParams((rho00, rho11, rho22), (rho01, rho02, rho12),
                         (gamma01, gamma02, gamma12))


def state_from_dict(d: dict) -> DensityParams:
    keys = set(d)
    for dim, names in STATE_KEYS.items():
        if keys == set(names):
            vals = [float(d[k]) for k in names]
            npop = dim
            npair = len(COHERENCE_PAIRS[dim])
            return DensityParams(tuple(vals[:npop]),
                                 tuple(vals[npop:npop + npair]),
                                 tuple(vals[npop + npair:]))
    raise InvalidRange(f"state keys {sorted(keys)} match neither dimension")


@dataclass(frozen=True)
class GeneratorParams:
    """Rotation-generator parameters: couplings h >= 0 with phases, plus h_z (d=2)."""

    dim: int
    hz: float
    couplings: tuple
    phases: tuple

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise WrongDimension(f"dim {self.dim} not supported")
        ncoup = 1 if self.dim == 2 else 2
        hs = tuple(float(h) for h in self.couplings)
        phs = tuple(wrap_phase(float(p)) for p in self.phases)
        if len(hs) != ncoup or len(phs) != ncoup:
            raise InvalidRange(f"dim {self.dim} needs {ncoup} coupling(s)")
        if any(h < 0 for h in hs):
            raise InvalidRange(f"negative coupling strength in {hs}")
        if self.dim == 3 and self.hz != 0.0:
            raise InvalidRange("d=3 generator has no diagonal term (hz must be 0)")
        object.__setattr__(self, "hz", float(self.hz))
        object.__setattr__(self, "couplings", hs)
        object.__setattr__(self, "phases", phs)

    @property
    def omega(self) -> float:
        """Rotation angle: the spectral span sqrt(hz^2 + sum h^2)."""
        return math.sqrt(self.hz ** 2 + sum(h * h for h in self.couplings))


def qubit_generator(hz, hc, phi) -> GeneratorParams:
    return GeneratorParams(2, hz, (hc,), (phi,))


def vtype_generator(h1, h2, phi1, phi2) -> GeneratorParams:
    return GeneratorParams(3, 0.0, (h1, h2), (phi1, phi2))


def derived_angles(state: DensityParams, gen: GeneratorParams) -> tuple:
    """Per coherence pair, the convention-invariant phase combination the
    statistics depend on: phi_j - gamma_0j for ground-excited pairs and
    gamma_12 + phi_1 - phi_2 for the excited-excited pair (d = 3)."""
    if state.dim != gen.dim:
        raise WrongDimension(f"state dim {state.dim} != generator dim {gen.dim}")
    if state.dim == 2:
        return (wrap_phase(gen.phases[0] - state.phases[0]),)
    return (
        wrap_phase(gen.phases[0] - state.phases[0]),
        wrap_phase(gen.phases[1] - state.phases[1]),
        wrap_phase(state.phases[2] + gen.phases[0] - gen.phases[1]),
    )


def state_matrix(p: DensityParams) -> np.ndarray:
    """Assemble the (unchecked) matrix for a DensityParams."""
    m = np.zeros((p.dim, p.dim), dtype=complex)
    for i, pop in enumerate(p.populations):
        m[i, i] = pop
    for k, (i, j) in enumerate(COHERENCE_PAIRS[p.dim]):
        off = p.coherences[k] * np.exp(-1j * p.phases[k])
        m[i, j] = off
        m[j, i] = off.conjugate()
    return m


def assemble_generator(g: GeneratorParams) -> np.ndarray:
    """Hermitian generator matrix (traceless for d=3, trace 0 for d=2)."""
    m = np.zeros((g.dim, g.dim), dtype=complex)
    if g.dim == 2:
        m[0, 0] = 0.5 * g.hz
        m[1, 1] = -0.5 * g.hz
        off = 0.5 * g.couplings[0] * np.exp(-1j * g.phases[0])
        m[0, 1] = off
        m[1, 0] = off.conjugate()
    else:
        for k in range(2):
            off = 0.5 * g.couplings[k] * np.exp(-1j * g.phases[k])
            m[0, k + 1] = off
            m[k + 1, 0] = off.conjugate()
    return m


def state_params_from_matrix(m) -> DensityParams:
    """Extract magnitude/phase parameters from a Hermitian density matrix.

    Phases of zero coherences are set to 0 (they are undefined there).  Tiny
    negative populations (round-off) are clipped.
    """
    arr = smallmat.as_cmatrix(m)
    dim = arr.shape[0]
    if dim not in (2, 3):
        raise WrongDimension(f"dim {dim} not supported")
    pops = tuple(max(float(arr[i, i].real), 0.0) for i in range(dim))
    mags, phases = [], []
    for (i, j) in COHERENCE_PAIRS[dim]:
        entry = arr[i, j]
        mag = float(abs(entry))
        mags.append(mag)
        # entry = mag * exp(-i*phase)
        phases.append(wrap_phase(-math.atan2(entry.imag, entry.real))
                      if mag > 0.0 else 0.0)
    return DensityParams(pops, tuple(mags), tuple(phases))


def _as_eta_tuple(dim: int, eta) -> tuple:
    if dim == 2:
        if np.ndim(eta) != 0:
            raise WrongDimension("dim 2 gauge transform takes a single angle")
        return (float(eta),)
    etas = tuple(float(e) for e in np.atleast_1d(eta))
    if len(etas) != 2:
        raise WrongDimension("dim 3 gauge transform takes two angles (eta1, eta2)")
    return etas


def gauge_transform(state: DensityParams, gen: GeneratorParams, eta):
    """Apply the diagonal-phase gauge: level j>0 picks up exp(i*eta_j).

    Qubit: gamma -> gamma + eta, phi -> phi + eta.  V-type: gamma_0j and
    phi_j shift by eta_j and gamma_12 by eta_2 - eta_1, preserving every
    statistics-relevant combination.
    """
    if state.dim != gen.dim:
        raise WrongDimension("state and generator dimensions differ")
    etas = _as_eta_tuple(state.dim, eta)
    if state.dim == 2:
        new_state = replace(state, phases=(wrap_phase(state.phases[0] + etas[0]),))
        new_gen = replace(gen, phases=(wrap_phase(gen.phases[0] + etas[0]),))
    else:
        sp = state.phases
        new_state = replace(state, phases=(
            wrap_phase(sp[0] + etas[0]),
            wrap_phase(sp[1] + etas[1]),
            wrap_phase(sp[2] - etas[0] + etas[1]),
        ))
        new_gen = replace(gen, phases=(
            wrap_phase(gen.phases[0] + etas[0]),
            wrap_phase(gen.phases[1] + etas[1]),
        ))
    return new_state, new_gen


def gauge_fix(state: DensityParams, gen: GeneratorParams):
    """Canonical gauge: make generator couplings real positive (phases 0).

    Equivalent to gauge_transform with eta_j = -phi_j.  A coupling with zero
    magnitude leaves its phase unconstrained; by convention that level's
    phase is set to 0 and the state is untouched.  Idempotent.
    """
    if state.dim != gen.dim:
        raise WrongDimension("state and generator dimensions differ")
    etas = tuple(-p if h > 0 else 0.0
                 for h, p in zip(gen.couplings, gen.phases))
    fixed_state, fixed_gen = gauge_transform(
        state, gen, etas[0] if state.dim == 2 else etas)
    # force exact zeros on constrained phases (wrap noise) and on
    # unconstrained ones (convention)
    fixed_gen = replace(fixed_gen, phases=tuple(0.0 for _ in fixed_gen.phases))
    return fixed_state, fixed_gen


def random_physical_state(dim: int, rng, min_coherence: float = 0.0,
                          eig_margin: float = 0.0) -> DensityParams:
    """Rejection-sample magnitude/phase parameters of a unit-trace state."""
    while True:
        pops = rng.dirichlet(np.full(dim, 2.5))
        npair = 1 if dim == 2 else 3
        mags = rng.uniform(min_coherence, 0.5 if dim == 2 else 0.25, npair)
        phases = rng.uniform(0.0, TWO_PI, npair)
        state = DensityParams(tuple(pops), tuple(mags), tuple(phases))
        if np.linalg.eigvalsh(state_matrix(state))[0] >= eig_margin:
            return state


def random_generator(dim: int, rng) -> GeneratorParams:
    if dim == 2:
        return GeneratorParams(2, rng.uniform(-4, 4), (rng.uniform(0, 6),),
                               (rng.uniform(0, TWO_PI),))
    return GeneratorParams(3, 0.0, tuple(rng.uniform(0, 6, 2)),
                           tuple(rng.uniform(0, TWO_PI, 2)))
