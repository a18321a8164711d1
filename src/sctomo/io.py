"""File schemas, canonical serialization, and the protocol fingerprint.

All files are UTF-8 JSON, one object per file, with a mandatory
schema_version and unknown fields rejected.  Floats are rendered with 17
significant digits so every numeric field round-trips exactly, and emission
is byte-deterministic (sorted keys), which also makes the FNV-1a protocol
fingerprint stable.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

from .errors import DimensionMismatch, SchemaError
from .forward import NOISE_KINDS, CountRecord, NoiseModel
from .model import DensityParams, state_from_dict, STATE_KEYS
from .protocol import (Protocol, UnknownParams, scenario, scenario_names,
                       unknowns_from_dict)

SCHEMA_VERSION = 1


def format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise SchemaError(f"cannot serialize non-finite value {x}")
    return format(float(x), ".17g")


def canonical_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise SchemaError(f"non-string key {key!r}")
            items.append(f'{pad}  {json.dumps(key)}: '
                         f'{canonical_json(obj[key], indent + 1)}')
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = [f"{pad}  {canonical_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return "null"
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    # numpy scalars and similar
    if hasattr(obj, "item"):
        return canonical_json(obj.item(), indent)
    raise SchemaError(f"cannot serialize {type(obj).__name__}")


def write_text(path, text: str) -> None:
    """Write a UTF-8 file; an unwritable path is a SchemaError."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc}") from exc


def write_json(path, obj) -> None:
    write_text(path, canonical_json(obj) + "\n")


def read_json(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc


def fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def protocol_fingerprint(protocol: Protocol) -> str:
    """64-bit FNV-1a of the canonical protocol serialization, as hex."""
    return format(fnv1a64(canonical_json(protocol.to_dict()).encode()), "016x")


# ---------------------------------------------------------------------------
# Schema validation helpers
# ---------------------------------------------------------------------------


def _has_type(value, kind: type) -> bool:
    """JSON type test: a float field accepts an integer (1.0 is written as
    1), and true/false count only as bool, never as a number."""
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float))
    return isinstance(value, kind)


def _check_fields(obj: dict, required: dict, optional: dict, context: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"{context}: expected an object")
    for name in obj:
        if name not in required and name not in optional:
            raise SchemaError(f"{context}: unknown field {name!r}")
    for name in required:
        if name not in obj:
            raise SchemaError(f"{context}: missing field {name!r}")
    for name, value in obj.items():
        kind = required.get(name, optional.get(name))
        if not _has_type(value, kind):
            raise SchemaError(f"{context}.{name}: expected {kind.__name__}, "
                              f"got {type(value).__name__}")


def _check_version(obj: dict, context: str) -> None:
    if obj.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError(
            f"{context}: schema_version must be {SCHEMA_VERSION}, "
            f"got {obj.get('schema_version')!r}")


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    dim: int
    protocol: Protocol
    truth_state: DensityParams
    truth_unknowns: UnknownParams
    noise: NoiseModel
    seed: int


def _parse_noise(obj, seed: int) -> NoiseModel:
    _check_fields(obj, {"kind": str}, {"shots": int, "sigma": float,
                                       "seed": int}, "noise")
    kind = obj["kind"]
    if kind not in NOISE_KINDS:
        raise SchemaError(f"noise.kind: unknown kind {kind!r}")
    kwargs = {"kind": kind, "seed": obj.get("seed", seed)}
    if "shots" in obj:
        kwargs["shots"] = int(obj["shots"])
    if "sigma" in obj:
        kwargs["sigma"] = float(obj["sigma"])
    return NoiseModel(**kwargs)


def _finite_values(obj: dict, context: str) -> dict:
    """The values of a name -> number object as floats; each must be a
    finite JSON number."""
    for name, value in obj.items():
        if not (_has_type(value, float) and math.isfinite(value)):
            raise SchemaError(
                f"{context}.{name}: expected a finite number, got {value!r}")
    return {name: float(value) for name, value in obj.items()}


def _parse_state(obj, dim: int, context: str) -> DensityParams:
    """State of a config (context "truth.state") or point file."""
    expected = set(STATE_KEYS[dim])
    if not isinstance(obj, dict):
        raise SchemaError(f"{context}: expected an object")
    for name in obj:
        if name not in expected:
            raise SchemaError(f"{context}: unknown field {name!r}")
    missing = expected - set(obj)
    if missing:
        raise SchemaError(f"{context}: missing field {sorted(missing)[0]!r}")
    values = _finite_values(obj, context)
    try:
        return state_from_dict(values)
    except Exception as exc:
        raise SchemaError(f"{context}: {exc}") from exc


def _parse_unknowns(obj, dim: int, context: str) -> UnknownParams:
    if not isinstance(obj, dict):
        raise SchemaError(f"{context}: expected an object")
    values = _finite_values(obj, context)
    try:
        return unknowns_from_dict(dim, values)
    except Exception as exc:
        raise SchemaError(f"{context}: {exc}") from exc


def load_experiment(path) -> ExperimentConfig:
    obj = read_json(path)
    _check_fields(obj, {"schema_version": int, "dim": int, "truth": dict,
                        "noise": dict},
                  {"scenario": str, "protocol": dict, "seed": int},
                  "config")
    _check_version(obj, "config")
    dim = int(obj["dim"])
    if dim not in (2, 3):
        raise SchemaError(f"dim: must be 2 or 3, got {dim}")
    if ("scenario" in obj) == ("protocol" in obj):
        raise SchemaError("config: give exactly one of 'scenario' or 'protocol'")
    if "scenario" in obj:
        name = obj["scenario"]
        if name not in scenario_names():
            raise SchemaError(f"scenario: unknown name {name!r}")
        protocol = scenario(name)
    else:
        protocol = parse_protocol_dict(obj["protocol"])
    if protocol.dim != dim:
        raise DimensionMismatch(
            f"config dim {dim} but protocol {protocol.name!r} has dim {protocol.dim}")
    truth = obj["truth"]
    _check_fields(truth, {"state": dict}, {"unknowns": dict}, "truth")
    state = _parse_state(truth["state"], dim, "truth.state")
    unknowns = _parse_unknowns(truth.get("unknowns", {}), dim, "truth.unknowns")
    missing = [n for n in protocol.process_unknown_names
               if n not in unknowns.as_dict()]
    if missing:
        raise SchemaError(f"truth.unknowns: missing field {missing[0]!r}")
    seed = int(obj.get("seed", 0))
    noise = _parse_noise(obj["noise"], seed)
    return ExperimentConfig(dim, protocol, state, unknowns, noise, seed)


# ---------------------------------------------------------------------------
# Protocol files
# ---------------------------------------------------------------------------


def parse_protocol_dict(obj: dict) -> Protocol:
    _check_fields(obj, {"name": str, "dim": int, "settings": list,
                        "unknowns": list},
                  {"phase_known": bool, "schema_version": int}, "protocol")
    try:
        return Protocol.from_dict(obj)
    except Exception as exc:
        raise SchemaError(f"protocol: {exc}") from exc


def load_protocol(name_or_path: str) -> Protocol:
    if name_or_path in scenario_names():
        return scenario(name_or_path)
    if os.path.exists(name_or_path):
        return parse_protocol_dict(read_json(name_or_path))
    raise SchemaError(
        f"{name_or_path!r} is neither a scenario name {scenario_names()} "
        "nor a protocol file")


def write_protocol(path, protocol: Protocol) -> None:
    obj = protocol.to_dict()
    obj["schema_version"] = SCHEMA_VERSION
    write_json(path, obj)


# ---------------------------------------------------------------------------
# Counts files
# ---------------------------------------------------------------------------


def write_counts(path, protocol: Protocol, records) -> None:
    obj = {
        "schema_version": SCHEMA_VERSION,
        "protocol_fingerprint": protocol_fingerprint(protocol),
        "records": [r.to_dict() for r in records],
    }
    write_json(path, obj)


def load_counts(path):
    """Returns (fingerprint, records).  Record k must have setting_index k,
    a finite value >= 0 and a noise_kind from forward.NOISE_KINDS."""
    obj = read_json(path)
    _check_fields(obj, {"schema_version": int, "protocol_fingerprint": str,
                        "records": list}, {}, "counts")
    _check_version(obj, "counts")
    records = []
    for k, rec in enumerate(obj["records"]):
        context = f"records[{k}]"
        _check_fields(rec, {"setting_index": int, "value": float,
                            "shots": int, "noise_kind": str}, {}, context)
        if rec["setting_index"] != k:
            raise SchemaError(
                f"{context}.setting_index: {rec['setting_index']} breaks the "
                f"strictly increasing run 0, 1, 2, ... (expected {k})")
        value = float(rec["value"])
        if not (math.isfinite(value) and value >= 0.0):
            raise SchemaError(
                f"{context}.value: must be finite and >= 0, got {value}")
        if rec["noise_kind"] not in NOISE_KINDS:
            raise SchemaError(f"{context}.noise_kind: {rec['noise_kind']!r} "
                              f"not one of {NOISE_KINDS}")
        records.append(CountRecord(k, value, rec["shots"], rec["noise_kind"]))
    return str(obj["protocol_fingerprint"]), records


# ---------------------------------------------------------------------------
# Point files (state + unknowns, for jacobian/sweep commands)
# ---------------------------------------------------------------------------


def load_point(path, dim: int):
    obj = read_json(path)
    _check_fields(obj, {"schema_version": int, "state": dict},
                  {"unknowns": dict, "dim": int}, "point")
    _check_version(obj, "point")
    if "dim" in obj and int(obj["dim"]) != dim:
        raise DimensionMismatch(
            f"point dim {obj['dim']} but protocol dim {dim}")
    state = _parse_state(obj["state"], dim, "point.state")
    return state, _parse_unknowns(obj.get("unknowns", {}), dim, "point.unknowns")


# ---------------------------------------------------------------------------
# Result files
# ---------------------------------------------------------------------------


def write_result(path, result, protocol: Protocol) -> None:
    obj = result.to_dict()
    obj["schema_version"] = SCHEMA_VERSION
    obj["protocol"] = protocol.name
    obj["protocol_fingerprint"] = protocol_fingerprint(protocol)
    write_json(path, obj)
