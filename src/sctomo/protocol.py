"""Measurement-protocol catalog and control-setting resolution.

A protocol is data: an ordered list of measurement settings (control
multipliers and phases plus a projector label) together with the declared
unknown set, in a fixed canonical order.  Shipped scenarios:

  A      four fully known qubit rotations (projective set with known pi/2
         pulses); unknowns are the four state parameters.
  B      five settings with one unknown coupling strength lam_c entering as
         h_c = m * lam_c, m in {0, 1, 2}, control phase in {0, pi/2}.
  C      B plus a sixth setting rotating about the diagonal with unknown
         lam_z.  As published this construction is structurally singular
         (the sixth statistic does not depend on lam_z); it ships verbatim
         and the reconstruction layer refuses it, pointing to C-alt.
  C-alt  artifact extension: B plus two settings that drive the coupling
         and the diagonal together, U(h_z = m_z * lam_z, h_c = lam_c, 0) with
         m_z in {1, 2}.  Only these rows carry lam_z.  One of them alone
         makes the Jacobian generically invertible, but one scalar equation
         in lam_z generally has several roots in (0, 2*pi], so that design
         admits exact ties at other strengths; the doubled m_z, like B's
         m in {1, 2}, removes them, and the profile scan of `reconstruct`
         finds a single exact root.
  V      eleven settings for the V-type three-level system with unknown
         coupling strengths lam1, lam2 (h_j = m_j * lam_j): one bare
         projector, four single-coupling settings per excited level, and two
         dual-coupling settings for the excited-excited coherence.

Settings resolve to generators via h_j = m_j * lam_j + fixed_j (the fixed
offsets express fully known rotations such as scenario A's) and phi_j equal
to the control phases.  A protocol may declare, in place of a state phase,
the corresponding control-relative combination (beta), which is all the
statistics can determine when the control phases carry an unknown reference
offset; `Protocol.phase_known` is derived from the names, never set.

`NAMES` is the one place a Γ name is decoded, to (kind, index, sign): a
population by level, a coherence magnitude or a state phase (sign times the
named value) by pair, or a strength by its index in `STRENGTHS`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (DimensionMismatch, InvalidRange, MissingUnknown,
                     UnknownScenario, WrongDimension)
from .model import (COHERENCE_PAIRS, PHASE_NAMES, DensityParams,
                    GeneratorParams, TWO_PI, wrap_phase)

# the strengths a generator is affine in: one per coupling, then (d=2) the
# diagonal's
STRENGTHS = {2: ("lam_c", "lam_z"), 3: ("lam1", "lam2")}

# Γ name catalogs, in canonical (reporting and Jacobian-column) order.
GAMMA_ORDER = {
    "A": ("rho00", "rho01", "rho11", "gamma"),
    "B": ("rho00", "rho01", "rho11", "lam_c", "gamma"),
    "C": ("rho00", "rho01", "rho11", "lam_c", "gamma", "lam_z"),
    "C-alt": ("rho00", "rho01", "rho11", "lam_c", "gamma", "lam_z"),
    "V": ("rho00", "rho11", "rho01", "lam1", "gamma01",
          "rho22", "rho02", "lam2", "gamma02", "rho12", "gamma12"),
}

# gamma <-> beta substitutions for protocols with uncalibrated control phases.
PHASE_TO_BETA = {"gamma": "beta", "gamma01": "beta01", "gamma02": "beta02",
                 "gamma12": "beta12"}
BETA_TO_PHASE = {v: k for k, v in PHASE_TO_BETA.items()}


def _name_table(dim: int) -> dict:
    """`NAMES` of one dimension.  A beta name decodes to its pair's phase
    with gamma_0j = -beta_0j and gamma_12 = beta_12."""
    table = {f"rho{i}{i}": ("pop", i, 1.0) for i in range(dim)}
    for k, (i, j) in enumerate(COHERENCE_PAIRS[dim]):
        phase = PHASE_NAMES[dim][k]
        table[f"rho{i}{j}"] = ("mag", k, 1.0)
        table[phase] = ("phase", k, 1.0)
        table[PHASE_TO_BETA[phase]] = ("phase", k, 1.0 if i else -1.0)
    table.update((n, ("lam", k, 1.0)) for k, n in enumerate(STRENGTHS[dim]))
    return table


NAMES = {dim: _name_table(dim) for dim in (2, 3)}


@dataclass(frozen=True)
class UnknownParams:
    """Declared process unknowns: rotation angle per unit control, in (0, 2*pi]."""

    dim: int
    items: tuple  # tuple of (name, value) pairs, canonical name order

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise WrongDimension(f"dim {self.dim} not supported")
        cleaned = []
        for name, value in self.items:
            if name not in STRENGTHS[self.dim]:
                raise InvalidRange(f"unknown parameter name {name!r} for dim {self.dim}")
            value = float(value)
            if not 0.0 < value <= TWO_PI:
                raise InvalidRange(f"{name} = {value} outside (0, 2*pi]")
            cleaned.append((name, value))
        cleaned.sort()
        object.__setattr__(self, "items", tuple(cleaned))

    def as_dict(self) -> dict:
        return dict(self.items)


def qubit_unknowns(lam_c=None, lam_z=None) -> UnknownParams:
    items = [(n, v) for n, v in (("lam_c", lam_c), ("lam_z", lam_z)) if v is not None]
    return UnknownParams(2, tuple(items))


def vtype_unknowns(lam1, lam2) -> UnknownParams:
    return UnknownParams(3, (("lam1", lam1), ("lam2", lam2)))


def unknowns_from_dict(dim: int, d: dict) -> UnknownParams:
    return UnknownParams(dim, tuple(sorted((k, float(v)) for k, v in d.items())))


@dataclass(frozen=True)
class MeasurementSetting:
    """One measurement: control multipliers/offsets/phases and projector label.

    Resolved couplings are h_j = multipliers[j] * lam_j + fixed_couplings[j];
    the d=2 diagonal is h_z = mz * lam_z + fixed_diag.
    """

    multipliers: tuple
    phases: tuple
    label: int
    fixed_couplings: tuple = None
    mz: float = 0.0
    fixed_diag: float = 0.0

    def __post_init__(self):
        mult = tuple(float(m) for m in self.multipliers)
        phs = tuple(wrap_phase(float(p)) for p in self.phases)
        if len(mult) not in (1, 2) or len(phs) != len(mult):
            raise InvalidRange("need 1 (d=2) or 2 (d=3) multiplier/phase slots")
        if any(m < 0 for m in mult):
            raise InvalidRange("negative control multiplier")
        fixed = self.fixed_couplings
        fixed = tuple(0.0 for _ in mult) if fixed is None else tuple(float(f) for f in fixed)
        if len(fixed) != len(mult):
            raise InvalidRange("fixed_couplings length mismatch")
        dim = 2 if len(mult) == 1 else 3
        if dim == 3 and (self.mz != 0.0 or self.fixed_diag != 0.0):
            raise InvalidRange("diagonal control is a d=2 concept")
        if not 0 <= int(self.label) < dim:
            raise InvalidRange(f"label {self.label} out of range for dim {dim}")
        object.__setattr__(self, "multipliers", mult)
        object.__setattr__(self, "phases", phs)
        object.__setattr__(self, "fixed_couplings", fixed)
        object.__setattr__(self, "mz", float(self.mz))
        object.__setattr__(self, "fixed_diag", float(self.fixed_diag))
        object.__setattr__(self, "label", int(self.label))

    @property
    def dim(self) -> int:
        return 2 if len(self.multipliers) == 1 else 3

    def driven_strengths(self) -> set:
        """Names of the strengths this setting's rotation depends on: those
        with a non-zero multiplier, and lam_z with a non-zero mz."""
        # d=3 has no diagonal strength, so zip drops its mz (always 0)
        return {n for n, m in zip(STRENGTHS[self.dim],
                                  self.multipliers + (self.mz,)) if m != 0}

    def to_dict(self) -> dict:
        return {
            "multipliers": list(self.multipliers),
            "phases": list(self.phases),
            "label": self.label,
            "fixed_couplings": list(self.fixed_couplings),
            "mz": self.mz,
            "fixed_diag": self.fixed_diag,
        }

    @staticmethod
    def from_dict(d: dict) -> "MeasurementSetting":
        return MeasurementSetting(
            multipliers=tuple(d["multipliers"]),
            phases=tuple(d["phases"]),
            label=d["label"],
            fixed_couplings=tuple(d.get("fixed_couplings", ())) or None,
            mz=d.get("mz", 0.0),
            fixed_diag=d.get("fixed_diag", 0.0),
        )


@dataclass(frozen=True)
class Protocol:
    """Ordered settings plus the declared unknown set in canonical order.
    Each unknown is a name of `NAMES`, and no two name one coordinate."""

    name: str
    dim: int
    settings: tuple
    unknown_names: tuple

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise WrongDimension(f"dim {self.dim} not supported")
        for s in self.settings:
            if s.dim != self.dim:
                raise DimensionMismatch(
                    f"setting dim {s.dim} inside dim-{self.dim} protocol")
        object.__setattr__(self, "settings", tuple(self.settings))
        object.__setattr__(self, "unknown_names", tuple(self.unknown_names))
        table, seen = NAMES[self.dim], {}
        for k, name in enumerate(self.unknown_names):
            if name not in table:
                raise InvalidRange(
                    f"unknowns[{k}]: {name!r} is not a dim-{self.dim} "
                    f"parameter ({', '.join(table)})")
            slot = table[name][:2]
            if slot in seen:
                j = seen[slot]
                raise InvalidRange(
                    f"unknowns[{k}]: {name!r} names the same coordinate as "
                    f"unknowns[{j}] ({self.unknown_names[j]!r})")
            seen[slot] = k
        if len(self.settings) < len(self.unknown_names):
            raise InvalidRange("fewer settings than declared unknowns")

    @property
    def phase_known(self) -> bool:
        """Whether the control phases are calibrated: no beta name declared."""
        return not any(n in BETA_TO_PHASE for n in self.unknown_names)

    @property
    def n_settings(self) -> int:
        return len(self.settings)

    @property
    def process_unknown_names(self) -> tuple:
        return tuple(n for n in self.unknown_names
                     if NAMES[self.dim][n][0] == "lam")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "dim": self.dim,
            "phase_known": self.phase_known,
            "unknowns": list(self.unknown_names),
            "settings": [s.to_dict() for s in self.settings],
        }

    @staticmethod
    def from_dict(d: dict) -> "Protocol":
        """The protocol of `to_dict`'s form; a `phase_known` (absent means
        true) that the unknown names contradict is refused."""
        protocol = Protocol(
            name=str(d["name"]),
            dim=int(d["dim"]),
            settings=tuple(MeasurementSetting.from_dict(s) for s in d["settings"]),
            unknown_names=tuple(d["unknowns"]),
        )
        stated = bool(d.get("phase_known", True))
        if stated != protocol.phase_known:
            raise InvalidRange(
                f"phase_known: {str(stated).lower()} contradicts unknowns, "
                f"which name {'no' if stated else 'a'} beta phase")
        return protocol


def _qubit_setting(m, phi, label, fixed=0.0, mz=0.0):
    return MeasurementSetting(multipliers=(m,), phases=(phi,), label=label,
                              fixed_couplings=(fixed,), mz=mz)


def _vtype_setting(m1, m2, th1, th2, label):
    return MeasurementSetting(multipliers=(m1, m2), phases=(th1, th2), label=label)


HALF_PI = np.pi / 2


def scenario(name: str) -> Protocol:
    """Return a shipped protocol by name (A, B, C, C-alt, V)."""
    key = str(name).strip()
    norm = key.upper().replace("_", "-")
    if norm == "A":
        settings = (
            _qubit_setting(0.0, 0.0, 0),
            _qubit_setting(0.0, 0.0, 1),
            _qubit_setting(0.0, 0.0, 1, fixed=HALF_PI),
            _qubit_setting(0.0, HALF_PI, 1, fixed=HALF_PI),
        )
        return Protocol("A", 2, settings, GAMMA_ORDER["A"])
    if norm == "B":
        settings = (_qubit_setting(0.0, 0.0, 1),) + tuple(
            _qubit_setting(m, phi, 1)
            for m, phi in ((1, 0.0), (2, 0.0), (1, HALF_PI), (2, HALF_PI)))
        return Protocol("B", 2, settings, GAMMA_ORDER["B"])
    if norm in ("C", "C-ALT"):
        base = scenario("B").settings
        if norm == "C":
            sixth = _qubit_setting(0.0, 0.0, 1, mz=1.0)
            return Protocol("C", 2, base + (sixth,), GAMMA_ORDER["C"])
        mixed = tuple(_qubit_setting(1.0, 0.0, 1, mz=mz) for mz in (1.0, 2.0))
        return Protocol("C-alt", 2, base + mixed, GAMMA_ORDER["C-alt"])
    if norm == "V":
        block1 = tuple(_vtype_setting(m, 0.0, th, 0.0, 1)
                       for m, th in ((1, 0.0), (1, HALF_PI), (2, 0.0), (2, HALF_PI)))
        block2 = tuple(_vtype_setting(0.0, m, 0.0, th, 2)
                       for m, th in ((1, 0.0), (1, HALF_PI), (2, 0.0), (2, HALF_PI)))
        block3 = (_vtype_setting(1.0, 1.0, 0.0, 0.0, 1),
                  _vtype_setting(1.0, 1.0, 0.0, HALF_PI, 1))
        settings = (_vtype_setting(0.0, 0.0, 0.0, 0.0, 1),) + block1 + block2 + block3
        return Protocol("V", 3, settings, GAMMA_ORDER["V"])
    raise UnknownScenario(f"no scenario named {name!r} (have A, B, C, C-alt, V)")


def scenario_names() -> tuple:
    return ("A", "B", "C", "C-alt", "V")


def resolve(setting: MeasurementSetting, unknowns: UnknownParams,
            phase_ref=None) -> GeneratorParams:
    """Resolve a setting's controls against the process unknowns.

    phase_ref, when given, is an unknown reference offset added to every
    control phase (one value for d=2, a pair for d=3); it models dials whose
    zero point is not calibrated and is what the protocols declaring beta
    phases quotient out.
    """
    dim = setting.dim
    if unknowns is not None and unknowns.dim != dim:
        raise DimensionMismatch("unknowns dimension differs from setting")
    values = unknowns.as_dict() if unknowns is not None else {}
    # h per strength, the d=2 diagonal's last: multiplier * strength + offset
    hs = []
    for name, m, fixed in zip(STRENGTHS[dim],
                              setting.multipliers + (setting.mz,),
                              setting.fixed_couplings + (setting.fixed_diag,)):
        if m != 0.0:
            if name not in values:
                raise MissingUnknown(f"setting needs {name} (multiplier {m})")
            hs.append(m * values[name] + fixed)
        else:
            hs.append(fixed)
    refs = (0.0,) * len(setting.phases)
    if phase_ref is not None:
        refs = tuple(float(r) for r in np.atleast_1d(phase_ref))
        if len(refs) != len(setting.phases):
            raise DimensionMismatch("phase_ref length mismatch")
    phases = tuple(wrap_phase(p + r) for p, r in zip(setting.phases, refs))
    if dim == 2:
        return GeneratorParams(2, hs[1], (hs[0],), phases)
    return GeneratorParams(3, 0.0, tuple(hs), phases)


def with_unknown_phase(protocol: Protocol) -> Protocol:
    """Variant whose declared unknowns use control-relative phases (beta)."""
    names = tuple(PHASE_TO_BETA.get(n, n) for n in protocol.unknown_names)
    return replace(protocol, unknown_names=names, name=protocol.name + "~beta")


def values_dict(state: DensityParams, unknowns: UnknownParams = None) -> dict:
    """Flat name -> value map for a (state, unknowns) point."""
    out = state.to_dict()
    if unknowns is not None:
        if unknowns.dim != state.dim:
            raise DimensionMismatch("state and unknowns dimensions differ")
        out.update(unknowns.as_dict())
    return out


def pack_values(names, state: DensityParams, unknowns: UnknownParams = None,
                phase_ref=None) -> np.ndarray:
    """Order a point's values along a Γ name list.  A beta name of pair
    (i, j) takes sign * (gamma_ij + R_i - R_j) (`NAMES`), with R the
    reference offset of each level: 0 for the ground level, phase_ref
    (default 0) for the excited ones."""
    vals = values_dict(state, unknowns)
    refs = np.zeros(state.dim)
    if phase_ref is not None:
        refs[1:] = np.atleast_1d(phase_ref)
    out = []
    for n in names:
        if n in BETA_TO_PHASE and n in NAMES[state.dim]:
            _, k, sign = NAMES[state.dim][n]
            i, j = COHERENCE_PAIRS[state.dim][k]
            gamma = vals[BETA_TO_PHASE[n]]
            out.append(wrap_phase(sign * (gamma + refs[i] - refs[j])))
        elif n in vals:
            out.append(vals[n])
        else:
            raise MissingUnknown(f"no value for parameter {n!r}")
    return np.array(out, dtype=float)


def split_values(protocol: Protocol, values):
    """Split a Γ-ordered vector into (DensityParams, UnknownParams).

    Undeclared state parameters are 0, and beta-style phases are mapped to
    the canonical gauge representative (reference offsets zero):
    gamma_0j = -beta_0j and gamma_12 = beta_12 (`NAMES`).
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (len(protocol.unknown_names),):
        raise DimensionMismatch("value vector length differs from unknown set")
    npair = len(COHERENCE_PAIRS[protocol.dim])
    parts = {"pop": [0.0] * protocol.dim, "mag": [0.0] * npair,
             "phase": [0.0] * npair, "lam": []}
    for name, value in zip(protocol.unknown_names, values):
        kind, idx, sign = NAMES[protocol.dim][name]
        if kind == "lam":
            parts["lam"].append((name, value))
        else:
            parts[kind][idx] = sign * value
    return (DensityParams(parts["pop"], parts["mag"], parts["phase"]),
            UnknownParams(protocol.dim, tuple(parts["lam"])))
