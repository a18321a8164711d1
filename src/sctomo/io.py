"""File schemas, canonical serialization, and the protocol fingerprint.

All files are UTF-8 JSON, one object per file, with a mandatory
schema_version and unknown fields rejected.  Floats are rendered with 17
significant digits so every numeric field round-trips exactly, and emission
is byte-deterministic (sorted keys), which also makes the FNV-1a protocol
fingerprint stable.  A file that is not UTF-8, not JSON, nested too deeply
to decode, or holds an integer too large for a float is a SchemaError.

A process keeps two memos, so that a caller running many commands (a batch
driver, the tests) parses each protocol text and hashes each serialization
once.  Both are keyed on text, never on `Protocol` equality: equal protocols
can serialize differently (an `mz` of -0.0 is written "-0.0", of 0.0 "0"),
so a `Protocol` key could hand one protocol the other's fingerprint.

- `load_protocol` still reads its file on every call, so an edited file is
  seen; identical text returns the same frozen `Protocol`.
- `protocol_fingerprint` still serializes its protocol on every call, and
  memoises only the FNV-1a of that serialization.
"""

from __future__ import annotations

import contextlib
import functools
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
    """17 significant digits; -0.0 as "-0.0", since "-0" reads back as the
    integer 0 and so loses the sign."""
    if math.isnan(x) or math.isinf(x):
        raise SchemaError(f"cannot serialize non-finite value {x}")
    if x == 0.0 and math.copysign(1.0, x) < 0:
        return "-0.0"
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


@contextlib.contextmanager
def text_writer(path):
    """A UTF-8 text stream to a file; an unwritable path is a SchemaError."""
    try:
        with open(path, "w", encoding="utf-8") as stream:
            yield stream
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc}") from exc


def write_text(path, text: str) -> None:
    """Write a UTF-8 file; an unwritable path is a SchemaError."""
    with text_writer(path) as stream:
        stream.write(text)


def write_json(path, obj) -> None:
    write_text(path, canonical_json(obj) + "\n")


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8: {exc}") from exc


def _decode_json(text: str, source):
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise SchemaError(f"{source}: invalid JSON: nested too deeply") from exc
    except ValueError as exc:  # bad syntax, or an integer over the digit limit
        raise SchemaError(f"{source}: invalid JSON: {exc}") from exc


def read_json(path):
    return _decode_json(_read_text(path), path)


def fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def protocol_fingerprint(protocol: Protocol) -> str:
    """64-bit FNV-1a of the canonical protocol serialization, as hex."""
    return _fnv1a_hex(canonical_json(protocol.to_dict()))


@functools.lru_cache(maxsize=64)
def _fnv1a_hex(text: str) -> str:
    # keyed on the serialization, never on the Protocol (see the module doc)
    return format(fnv1a64(text.encode()), "016x")


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
        kwargs["sigma"] = _finite_number(obj["sigma"], "noise.sigma")
    return NoiseModel(**kwargs)


def _finite_number(value, context: str) -> float:
    """A finite JSON number as a float."""
    try:
        finite = _has_type(value, float) and math.isfinite(value)
    except OverflowError:
        raise SchemaError(f"{context}: integer too large for a float") from None
    if not finite:
        raise SchemaError(f"{context}: expected a finite number, got {value!r}")
    return float(value)


def _finite_values(obj: dict, context: str) -> dict:
    """The values of a name -> number object as floats; each must be a
    finite JSON number."""
    return {name: _finite_number(value, f"{context}.{name}")
            for name, value in obj.items()}


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
    """A protocol from its file object.  Each setting has only known fields,
    each of its JSON type, and every number in it is finite; the unknowns
    are names of `protocol.NAMES`, no two for one coordinate, that declare
    every strength a setting drives and agree with `phase_known`."""
    _check_fields(obj, {"name": str, "dim": int, "settings": list,
                        "unknowns": list},
                  {"phase_known": bool, "schema_version": int}, "protocol")
    for k, setting in enumerate(obj["settings"]):
        context = f"protocol.settings[{k}]"
        _check_fields(setting, {"multipliers": list, "phases": list,
                                "label": int},
                      {"fixed_couplings": list, "mz": float,
                       "fixed_diag": float}, context)
        for field, value in setting.items():
            if isinstance(value, list):
                for i, item in enumerate(value):
                    _finite_number(item, f"{context}.{field}[{i}]")
            elif field != "label":
                _finite_number(value, f"{context}.{field}")
    names = obj["unknowns"]
    for i, name in enumerate(names):
        if not isinstance(name, str):
            raise SchemaError(f"protocol.unknowns[{i}]: expected str, "
                              f"got {type(name).__name__}")
    try:
        protocol = Protocol.from_dict(obj)
    except Exception as exc:
        raise SchemaError(f"protocol: {exc}") from exc
    for k, setting in enumerate(protocol.settings):
        missing = setting.driven_strengths() - set(names)
        if missing:
            raise SchemaError(f"protocol.settings[{k}]: drives {min(missing)}, "
                              "which protocol.unknowns does not declare")
    return protocol


def load_protocol(name_or_path: str) -> Protocol:
    """A catalog scenario by name, else the protocol file at that path; an
    error in the file names the path."""
    if name_or_path in scenario_names():
        return scenario(name_or_path)
    if os.path.exists(name_or_path):
        text = _read_text(name_or_path)
        try:
            return _parse_protocol_text(text)
        except SchemaError as exc:
            raise SchemaError(f"{name_or_path}: {exc}") from exc
    raise SchemaError(
        f"{name_or_path!r} is neither a scenario name {scenario_names()} "
        "nor a protocol file")


@functools.lru_cache(maxsize=64)
def _parse_protocol_text(text: str) -> Protocol:
    # keyed on the file's text (see the module doc); an error is not cached
    return parse_protocol_dict(_decode_json(text, "protocol"))


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
        value = _finite_number(rec["value"], f"{context}.value")
        if value < 0.0:
            raise SchemaError(f"{context}.value: must be >= 0, got {value}")
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


def write_result(path, result, protocol: Protocol, fingerprint: str) -> None:
    """Write `result` for `protocol`, whose fingerprint the caller has
    already computed to check the counts against it."""
    obj = result.to_dict()
    obj["schema_version"] = SCHEMA_VERSION
    obj["protocol"] = protocol.name
    obj["protocol_fingerprint"] = fingerprint
    write_json(path, obj)
