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
are rejected, and so is a key repeated within one object.
``excitementFidelity`` is optional and defaults to 1.0.
Unknown keys, non-native gate names too, only warn so newer documents stay readable.
Keys are read in the order shown, each fully checked before the next.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, fields
from typing import Callable, NamedTuple

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


class _Leaf(NamedTuple):
    """A key filling one spec field (by default the one named like the key):
    ``read(value, path, reading)`` converts and checks it, ``write`` renders it."""
    read: Callable
    field: str | None = None
    write: Callable = lambda value: value
    optional: bool = False


class _Reading:
    """One document being read: the fields found so far, and its unknown keys."""

    def __init__(self):
        self.fields: dict = {}
        self.unknown: list[str] = []

    def object(self, layout: dict, value, path: str, into: dict) -> dict:
        """Read a JSON object laid out as ``layout`` into ``into``, each key
        fully before the next; its unknown keys are noted, not warned."""
        obj = _as_object(value, path or "<root>")
        prefix = f"{path}." if path else ""
        self.unknown += [f"ignoring unknown key {prefix}{key}" for key in obj if key not in layout]
        for key, entry in layout.items():
            at = prefix + key
            if key not in obj:
                if not (isinstance(entry, _Leaf) and entry.optional):
                    raise MissingField("required field is missing", at)
            elif isinstance(entry, _Leaf):
                into[entry.field or key] = entry.read(obj[key], at, self)
            else:
                self.object(entry, obj[key], at, into)
        return into


def _checked(convert, ok, message: str, error=InvalidValue):
    """A reader that converts a value, then raises ``error(message)`` unless ``ok``."""
    def read(value, path: str, reading=None):
        x = convert(value, path)
        if not ok(x):
            raise error(message.format(x), path)
        return x
    return read


def _gate_map(read_value, field: str) -> _Leaf:
    """A gate-name map, written sorted; each native gate needs an entry, others are unknown."""
    def read(value, path: str, reading: _Reading) -> dict[str, float]:
        obj = _as_object(value, path)
        reading.unknown += [f"ignoring unknown key {path}.{n}" for n in obj if n not in NATIVE_GATES]
        out = {n: read_value(v, f"{path}.{n}") for n, v in obj.items() if n in NATIVE_GATES}
        missing = sorted(NATIVE_GATES - out.keys())
        if missing:
            raise MissingField(f"missing native gate entries: {', '.join(missing)}", path)
        return out
    return _Leaf(read, field, lambda gate_map: dict(sorted(gate_map.items())))


_QUBIT_LAYOUT = {
    f.name: _Leaf(lambda value, path, _: _as_int(value, path)) for f in fields(QubitPlacement)
}


def _parse_qubits(value, path: str, reading: _Reading) -> tuple[QubitPlacement, ...]:
    if not isinstance(value, list):
        raise InvalidValue("expected a list", path)
    side = reading.fields["grid_side"]
    placements: dict[int, QubitPlacement] = {}
    seen_pos = set()
    for i, entry in enumerate(value):
        plain = type(entry) is dict and entry.keys() == _QUBIT_LAYOUT.keys()
        if plain and type(entry["id"]) is type(entry["x"]) is type(entry["y"]) is int:
            q = QubitPlacement(**entry)  # what the layout walk reads from it, read directly
        else:
            q = QubitPlacement(**reading.object(_QUBIT_LAYOUT, entry, f"{path}[{i}]", {}))
        if q.id < 0:
            raise InvalidValue(f"qubit id must be nonnegative, got {q.id}", f"{path}[{i}].id")
        if not (0 <= q.x < side and 0 <= q.y < side):
            message = f"position ({q.x}, {q.y}) outside the {side}x{side} grid"
            raise InvalidValue(message, f"{path}[{i}]")
        if q.id in placements:
            raise InvalidValue(f"duplicate qubit id {q.id}", f"{path}[{i}].id")
        if (q.x, q.y) in seen_pos:
            raise InvalidValue(f"duplicate qubit position ({q.x}, {q.y})", f"{path}[{i}]")
        seen_pos.add((q.x, q.y))
        placements[q.id] = q
    return tuple(placements.values())


_POSITIVE = _checked(_as_number, lambda x: x > 0, "must be > 0, got {}")
_FIDELITY = _checked(_as_number, lambda f: 0.0 < f <= 1.0, "fidelity must be in (0, 1], got {}")

# The one statement of the layout above, which parsing, the unknown-key
# warnings and serialization all walk in this order: a dict is a JSON object,
# a _Leaf a key that fills one ArchitectureSpec field.
_LAYOUT = {
    "schema": _Leaf(_checked(
        _as_int, SUPPORTED_SCHEMAS.__contains__, "unknown schema version {}", SchemaMismatch
    )),
    "properties": {
        "nRows_nColumns_grid_side_size": _Leaf(
            _checked(_as_int, lambda n: n >= 1, "grid side must be >= 1, got {}"), "grid_side"
        ),
        "interQubitDistance": _Leaf(_POSITIVE, "inter_qubit_distance"),
    },
    "parameters": {
        # after the grid side, which bounds the positions
        "Qubits": _Leaf(_parse_qubits, "qubits", lambda qubits: [asdict(q) for q in qubits]),
        "gateTimes": _gate_map(
            _checked(_as_number, lambda t: t >= 0, "gate time must be >= 0, got {}"), "gate_times"
        ),
        "gateFidelities": _gate_map(_FIDELITY, "gate_fidelities"),
        "shuttlingTimesSpeed": {
            "move_speed": _Leaf(_POSITIVE),
            "aod_activate_deactivate_time": _Leaf(
                _checked(_as_number, lambda t: t >= 0, "must be >= 0, got {}"), "aod_transfer_time"
            ),
        },
        "shuttlingFidelities": {"aod_activate_deactivate": _Leaf(_FIDELITY, "transfer_fidelity")},
        "decoherenceTimes": {"t1": _Leaf(_POSITIVE), "t2": _Leaf(_POSITIVE)},
        "excitementFidelity": _Leaf(_FIDELITY, "excitement_fidelity", optional=True),
    },
}


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's members as a dict; raises MalformedDocument for a
    repeated key, which json.loads would resolve to its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise MalformedDocument(f"key {key!r} is repeated in one object")
        obj[key] = value
    return obj


def parse_architecture(document: str | bytes | bytearray | memoryview) -> ArchitectureSpec:
    """Parse and fully validate a hardware description document.

    Raises :class:`MalformedDocument` for input that is not JSON, that repeats
    a key within one object or, given as bytes-like, that is not strict UTF-8
    (a BOM or UTF-16 too), :class:`SchemaMismatch` for unknown schema versions,
    and :class:`MissingField`/:class:`InvalidValue` naming the offending path
    for structural problems. Parsing is deterministic.
    """
    try:
        if isinstance(document, (bytes, bytearray, memoryview)):
            document = str(document, "utf-8")
        root = json.loads(document, object_pairs_hook=_unique_keys)
    except UnicodeDecodeError as exc:
        raise MalformedDocument(f"document is not valid UTF-8: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad JSON (a BOM too) and integer literals beyond
        # Python's digit limit; RecursionError, nesting too deep
        raise MalformedDocument(f"not valid JSON: {exc}") from None
    reading = _Reading()
    try:
        reading.object(_LAYOUT, root, "", reading.fields)
    finally:
        # warned here, also when reading fails, so each names our caller
        for note in reading.unknown:
            warnings.warn(note, stacklevel=2)
    return ArchitectureSpec(**reading.fields)


def _write(layout: dict, spec: ArchitectureSpec) -> dict:
    return {key: _write(entry, spec) if isinstance(entry, dict)
            else entry.write(getattr(spec, entry.field or key)) for key, entry in layout.items()}


def serialize_architecture(spec: ArchitectureSpec) -> str:
    """Render a spec back to the document format (deterministic, re-parseable)."""
    return json.dumps(_write(_LAYOUT, spec), indent=2) + "\n"


def effective_coherence_time(spec: ArchitectureSpec) -> float:
    """Effective coherence time in microseconds: t1*t2 / (t1 + t2).

    Strictly below min(t1, t2) while t1 + t2 is finite; beyond that, as for
    t1 = t2 = 1e308, it is NaN, which a report refuses as NonFiniteResult.
    """
    return spec.t1 * spec.t2 / (spec.t1 + spec.t2)
