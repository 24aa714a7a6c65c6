"""Unified hardware description: parsing, validation, serialization.

The on-disk format is a single JSON document::

    {
      "schema": 1,
      "properties": {
        "nRows_nColumns_grid_side_size": 50,
        "interQubitDistance": 1.0
      },
      "parameters": {
        "Qubits": [{"id": 0, "x": 0, "y": 0}, ...],
        "gateTimes": {"cz": 0.2, "h": 2.0, ...},
        "gateFidelities": {"cz": 0.9996, "h": 0.9999, ...},
        "shuttlingTimesSpeed": {
          "move_speed": 0.55,
          "aod_activate_deactivate_time": 20.0
        },
        "shuttlingFidelities": {"aod_activate_deactivate": 0.9999},
        "decoherenceTimes": {"t1": 1.0e8, "t2": 1.5e6},
        "excitementFidelity": 1.0
      }
    }

Times are microseconds, lengths micrometers, speeds micrometers per
microsecond. Qubit coordinates are screen-space (x column, y row, origin at
the top-left corner). Every number must be finite; ``NaN`` and ``Infinity``
are rejected. ``excitementFidelity`` is optional and defaults to 1.0.
Unknown keys are ignored with a warning so newer documents stay readable.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

from .errors import InvalidValue, MalformedDocument, MissingField, SchemaMismatch
from .rsqasm import NATIVE_GATES

SUPPORTED_SCHEMAS = (1,)


@dataclass(frozen=True)
class QubitPlacement:
    """Initial position of one working qubit on the grid."""

    id: int
    x: int
    y: int


@dataclass(frozen=True)
class ArchitectureSpec:
    """Validated, immutable hardware description.

    Safe to share across concurrent evaluations; all invariants (bounds,
    uniqueness, native-gate coverage) hold by construction via
    :func:`parse_architecture`.
    """

    schema: int
    grid_side: int
    inter_qubit_distance: float
    qubits: tuple[QubitPlacement, ...]
    gate_times: dict[str, float]
    gate_fidelities: dict[str, float]
    move_speed: float
    aod_transfer_time: float
    transfer_fidelity: float
    t1: float
    t2: float
    excitement_fidelity: float = 1.0

    @property
    def qubit_count(self) -> int:
        return len(self.qubits)


def _warn_unknown(obj: dict, known: set[str], path: str):
    for key in obj:
        if key not in known:
            warnings.warn(f"ignoring unknown key {path}.{key}" if path else
                          f"ignoring unknown key {key}", stacklevel=3)


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise MissingField("required field is missing", f"{path}.{key}" if path else key)
    return obj[key]


def _as_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise InvalidValue("expected a JSON object", path)
    return value


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidValue("expected an integer", path)
    return value


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidValue("expected a number", path)
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise InvalidValue(f"expected a finite number, got {number}", path)
    return number


def _as_fidelity(value, path: str) -> float:
    f = _as_number(value, path)
    if not 0.0 < f <= 1.0:
        raise InvalidValue(f"fidelity must be in (0, 1], got {f}", path)
    return f


def _parse_gate_map(value, path: str, as_value) -> dict[str, float]:
    obj = _as_object(value, path)
    out = {name: as_value(v, f"{path}.{name}") for name, v in obj.items()}
    missing = sorted(NATIVE_GATES - out.keys())
    if missing:
        raise MissingField(f"missing native gate entries: {', '.join(missing)}", path)
    return out


def _parse_qubits(value, side: int) -> tuple[QubitPlacement, ...]:
    if not isinstance(value, list):
        raise InvalidValue("expected a list", "parameters.Qubits")
    placements = []
    seen_ids: set[int] = set()
    seen_pos: set[tuple[int, int]] = set()
    for i, entry in enumerate(value):
        path = f"parameters.Qubits[{i}]"
        obj = _as_object(entry, path)
        _warn_unknown(obj, {"id", "x", "y"}, path)
        qid = _as_int(_require(obj, "id", path), f"{path}.id")
        x = _as_int(_require(obj, "x", path), f"{path}.x")
        y = _as_int(_require(obj, "y", path), f"{path}.y")
        if qid < 0:
            raise InvalidValue(f"qubit id must be nonnegative, got {qid}", f"{path}.id")
        if not (0 <= x < side and 0 <= y < side):
            raise InvalidValue(
                f"position ({x}, {y}) outside the {side}x{side} grid", path
            )
        if qid in seen_ids:
            raise InvalidValue(f"duplicate qubit id {qid}", f"{path}.id")
        if (x, y) in seen_pos:
            raise InvalidValue(f"duplicate qubit position ({x}, {y})", path)
        seen_ids.add(qid)
        seen_pos.add((x, y))
        placements.append(QubitPlacement(qid, x, y))
    return tuple(placements)


def parse_architecture(document: str | bytes) -> ArchitectureSpec:
    """Parse and fully validate a hardware description document.

    Raises :class:`MalformedDocument` for non-JSON input,
    :class:`SchemaMismatch` for unknown schema versions, and
    :class:`MissingField`/:class:`InvalidValue` naming the offending path
    for structural problems. Parsing is deterministic.
    """
    try:
        root = json.loads(document)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedDocument(f"not valid JSON: {exc}") from None
    root = _as_object(root, "<root>")
    _warn_unknown(root, {"schema", "properties", "parameters"}, "")

    schema = _as_int(_require(root, "schema", ""), "schema")
    if schema not in SUPPORTED_SCHEMAS:
        raise SchemaMismatch(f"unknown schema version {schema}", "schema")

    props = _as_object(_require(root, "properties", ""), "properties")
    _warn_unknown(props, {"nRows_nColumns_grid_side_size", "interQubitDistance"}, "properties")
    side = _as_int(
        _require(props, "nRows_nColumns_grid_side_size", "properties"),
        "properties.nRows_nColumns_grid_side_size",
    )
    if side < 1:
        raise InvalidValue(
            f"grid side must be >= 1, got {side}", "properties.nRows_nColumns_grid_side_size"
        )
    spacing = _as_number(
        _require(props, "interQubitDistance", "properties"), "properties.interQubitDistance"
    )
    if spacing <= 0:
        raise InvalidValue(f"must be > 0, got {spacing}", "properties.interQubitDistance")

    params = _as_object(_require(root, "parameters", ""), "parameters")
    _warn_unknown(
        params,
        {"Qubits", "gateTimes", "gateFidelities", "shuttlingTimesSpeed",
         "shuttlingFidelities", "decoherenceTimes", "excitementFidelity"},
        "parameters",
    )

    qubits = _parse_qubits(_require(params, "Qubits", "parameters"), side)

    def _gate_time(value, path):
        t = _as_number(value, path)
        if t < 0:
            raise InvalidValue(f"gate time must be >= 0, got {t}", path)
        return t

    gate_times = _parse_gate_map(
        _require(params, "gateTimes", "parameters"), "parameters.gateTimes", _gate_time
    )
    gate_fidelities = _parse_gate_map(
        _require(params, "gateFidelities", "parameters"),
        "parameters.gateFidelities",
        _as_fidelity,
    )

    shuttling = _as_object(
        _require(params, "shuttlingTimesSpeed", "parameters"), "parameters.shuttlingTimesSpeed"
    )
    _warn_unknown(
        shuttling, {"move_speed", "aod_activate_deactivate_time"},
        "parameters.shuttlingTimesSpeed",
    )
    speed = _as_number(
        _require(shuttling, "move_speed", "parameters.shuttlingTimesSpeed"),
        "parameters.shuttlingTimesSpeed.move_speed",
    )
    if speed <= 0:
        raise InvalidValue(
            f"must be > 0, got {speed}", "parameters.shuttlingTimesSpeed.move_speed"
        )
    aod_time = _as_number(
        _require(shuttling, "aod_activate_deactivate_time", "parameters.shuttlingTimesSpeed"),
        "parameters.shuttlingTimesSpeed.aod_activate_deactivate_time",
    )
    if aod_time < 0:
        raise InvalidValue(
            f"must be >= 0, got {aod_time}",
            "parameters.shuttlingTimesSpeed.aod_activate_deactivate_time",
        )

    shuttle_fid = _as_object(
        _require(params, "shuttlingFidelities", "parameters"), "parameters.shuttlingFidelities"
    )
    _warn_unknown(shuttle_fid, {"aod_activate_deactivate"}, "parameters.shuttlingFidelities")
    transfer_fidelity = _as_fidelity(
        _require(shuttle_fid, "aod_activate_deactivate", "parameters.shuttlingFidelities"),
        "parameters.shuttlingFidelities.aod_activate_deactivate",
    )

    decoh = _as_object(
        _require(params, "decoherenceTimes", "parameters"), "parameters.decoherenceTimes"
    )
    _warn_unknown(decoh, {"t1", "t2"}, "parameters.decoherenceTimes")
    t1 = _as_number(
        _require(decoh, "t1", "parameters.decoherenceTimes"), "parameters.decoherenceTimes.t1"
    )
    t2 = _as_number(
        _require(decoh, "t2", "parameters.decoherenceTimes"), "parameters.decoherenceTimes.t2"
    )
    if t1 <= 0:
        raise InvalidValue(f"must be > 0, got {t1}", "parameters.decoherenceTimes.t1")
    if t2 <= 0:
        raise InvalidValue(f"must be > 0, got {t2}", "parameters.decoherenceTimes.t2")

    excitement = 1.0
    if "excitementFidelity" in params:
        excitement = _as_fidelity(params["excitementFidelity"], "parameters.excitementFidelity")

    return ArchitectureSpec(
        schema=schema,
        grid_side=side,
        inter_qubit_distance=spacing,
        qubits=qubits,
        gate_times=gate_times,
        gate_fidelities=gate_fidelities,
        move_speed=speed,
        aod_transfer_time=aod_time,
        transfer_fidelity=transfer_fidelity,
        t1=t1,
        t2=t2,
        excitement_fidelity=excitement,
    )


def serialize_architecture(spec: ArchitectureSpec) -> str:
    """Render a spec back to the document format (deterministic, re-parseable)."""
    doc = {
        "schema": spec.schema,
        "properties": {
            "nRows_nColumns_grid_side_size": spec.grid_side,
            "interQubitDistance": spec.inter_qubit_distance,
        },
        "parameters": {
            "Qubits": [{"id": q.id, "x": q.x, "y": q.y} for q in spec.qubits],
            "gateTimes": {name: spec.gate_times[name] for name in sorted(spec.gate_times)},
            "gateFidelities": {
                name: spec.gate_fidelities[name] for name in sorted(spec.gate_fidelities)
            },
            "shuttlingTimesSpeed": {
                "move_speed": spec.move_speed,
                "aod_activate_deactivate_time": spec.aod_transfer_time,
            },
            "shuttlingFidelities": {"aod_activate_deactivate": spec.transfer_fidelity},
            "decoherenceTimes": {"t1": spec.t1, "t2": spec.t2},
            "excitementFidelity": spec.excitement_fidelity,
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def effective_coherence_time(spec: ArchitectureSpec) -> float:
    """Effective coherence time in microseconds: t1*t2 / (t1 + t2).

    Always strictly below min(t1, t2).
    """
    return spec.t1 * spec.t2 / (spec.t1 + spec.t2)
