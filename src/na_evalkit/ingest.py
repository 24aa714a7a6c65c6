"""Adapter from a restricted flat QASM gate list to staged circuit text.

This is deliberately not a compiler: no routing, no transpilation, no moves.
The input must already be expressed in the native gate set
{cz, rx, ry, rz, h, s, t}; logical qubit i lands on the i-th placed cell in
row-major order, and gates are packed into stages either one per stage or
greedily. Greedy packing is ASAP scheduling: a gate joins the first stage
after the last one that touches or fences its cells, so it never crosses a
barrier or per-qubit program order.

``barrier`` statements are recognised and recorded but are never gates; in
particular a barrier is never treated as a two-qubit operation, so it
contributes nothing to gate counts or fidelity. Rotation angles must be
numeric literals in radians, in the angle grammar of circuit text. Every
statement ends with ``;``, the last one too: text after the last ``;``
other than blanks and comments is an unterminated statement.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import grid
from .arch import ArchitectureSpec
from .errors import RsqasmSyntaxError, TooManyQubits, UnsupportedConstruct
from .rsqasm import ANGLE_LITERAL, NATIVE_GATES, Gate, Program, Stage

ONE_PER_STAGE = "one-per-stage"
GREEDY = "greedy"

_UNSUPPORTED_KEYWORDS = ("creg", "measure", "reset", "if", "gate", "opaque")

_QREG_RE = re.compile(r"qreg\s+([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]$", re.ASCII)
_OPERAND_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*(?:\[\s*(\d+)\s*\])?$", re.ASCII)
_GATE_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*(?:\(([^)]*)\))?\s+(.+)$", re.ASCII)


@dataclass(frozen=True)
class FlatGate:
    """A native gate on logical qubits, shaped by :class:`Gate`'s rules."""

    name: str
    params: tuple[float, ...]
    qubits: tuple[int, ...]

    def __post_init__(self):
        Gate(self.name, self.params, self.qubits)  # raises the circuit parser's errors
        if len(set(self.qubits)) != len(self.qubits):
            raise RsqasmSyntaxError(f"{self.name} operands must be distinct qubits")


@dataclass(frozen=True)
class FlatBarrier:
    qubits: tuple[int, ...]  # empty = whole register


@dataclass(frozen=True)
class FlatCircuit:
    """Flat gate list over qubits ``range(qubit_count)``; barriers kept but inert."""

    qubit_count: int
    ops: tuple[FlatGate | FlatBarrier, ...]

    def __post_init__(self):
        if self.qubit_count < 0:
            raise RsqasmSyntaxError(f"negative register size {self.qubit_count}")
        indices = [q for op in self.ops for q in op.qubits]
        if indices and min(indices) < 0:
            raise RsqasmSyntaxError(f"negative qubit index {min(indices)}")
        if indices and max(indices) >= self.qubit_count:
            raise RsqasmSyntaxError(
                f"qubit index {max(indices)} exceeds the declared register size {self.qubit_count}"
            )

    @property
    def gates(self) -> tuple[FlatGate, ...]:
        return tuple(op for op in self.ops if isinstance(op, FlatGate))


def _strip_comments(document: str) -> str:
    return "\n".join(line.split("//", 1)[0] for line in document.split("\n"))


def _index(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise RsqasmSyntaxError(f"index has too many digits ({len(digits)})") from None


def _parse_operands(text: str, register: str | None) -> tuple[str, list[int], bool]:
    """Parse a comma-separated operand list over ``register``, or the first one
    named when that is None; returns (register, indices, saw_bare_register)."""
    indices: list[int] = []
    bare = False
    for part in text.split(","):
        m = _OPERAND_RE.match(part.strip())
        if m is None:
            raise RsqasmSyntaxError(f"malformed operand {part.strip()!r}")
        name, idx = m.group(1), m.group(2)
        register = register or name
        if name != register:
            raise UnsupportedConstruct(f"unknown register {name!r}")
        if idx is None:
            bare = True
        else:
            indices.append(_index(idx))
    return register, indices, bare


def parse_flat_qasm(document: str) -> FlatCircuit:
    """Parse the restricted flat QASM subset.

    Accepted statements: an ``OPENQASM`` header, ``include "qelib1.inc"``,
    at most one ``qreg``, native-gate applications, and ``barrier``.
    Everything else (measurement, classical registers, other includes,
    multiple qregs, non-native gates) raises UnsupportedConstruct. Every
    operand names one register: the declared one or, without a qreg, the
    first one used, whose highest index then gives the qubit count. Gates
    follow :class:`Gate`'s rules and raise its errors.
    """
    register: str | None = None
    declared: int | None = None
    ops: list[FlatGate | FlatBarrier] = []

    *statements, tail = _strip_comments(document).split(";")
    if tail.strip():
        raise RsqasmSyntaxError(f"statement {' '.join(tail.split())!r} is not terminated by ';'")
    for raw in statements:
        stmt = " ".join(raw.split())
        if not stmt:
            continue
        keyword = stmt.split(" ", 1)[0].split("(", 1)[0]

        if keyword == "OPENQASM":
            continue
        if keyword == "include":
            if '"qelib1.inc"' not in stmt:
                raise UnsupportedConstruct(f"unsupported include: {stmt!r}")
            continue
        if keyword == "qreg":
            m = _QREG_RE.match(stmt)
            if m is None:
                raise RsqasmSyntaxError(f"malformed qreg declaration {stmt!r}")
            if declared is not None or register not in (None, m.group(1)):
                raise UnsupportedConstruct("multiple quantum registers are not supported")
            register, declared = m.group(1), _index(m.group(2))
            continue
        if keyword in _UNSUPPORTED_KEYWORDS:
            raise UnsupportedConstruct(f"unsupported statement: {stmt!r}")

        if keyword == "barrier":
            rest = stmt[len("barrier"):].strip()
            indices, bare = [], True  # a bare ``barrier`` fences every qubit
            if rest:
                register, indices, bare = _parse_operands(rest, register)
            ops.append(FlatBarrier(() if bare else tuple(indices)))
            continue

        if keyword not in NATIVE_GATES:
            raise UnsupportedConstruct(f"non-native gate {keyword!r}")
        m = _GATE_RE.match(stmt)
        if m is None:
            raise RsqasmSyntaxError(f"malformed gate statement {stmt!r}")
        name, param_text, operand_text = m.group(1), m.group(2), m.group(3)
        params: tuple[float, ...] = ()
        if param_text is not None:
            pieces = [p.strip() for p in param_text.split(",")]
            for piece in pieces:
                if not re.fullmatch(ANGLE_LITERAL, piece, re.ASCII):
                    raise UnsupportedConstruct(
                        f"non-numeric gate parameter {piece!r} (literals only)"
                    )
            params = tuple(float(p) for p in pieces)
        register, indices, bare = _parse_operands(operand_text, register)
        if bare:
            raise UnsupportedConstruct("gates on a whole register are not supported")
        ops.append(FlatGate(name, params, tuple(indices)))

    if declared is None:
        declared = max((q for op in ops for q in op.qubits), default=-1) + 1
    return FlatCircuit(declared, tuple(ops))


def to_rsqasm(circuit: FlatCircuit, spec: ArchitectureSpec, packing: str = GREEDY) -> Program:
    """Embed a flat circuit onto the spec's placed cells and stage it.

    ``one-per-stage`` gives every gate its own stage. ``greedy`` schedules
    ASAP: each gate joins the first stage after the last one that touches
    its cells, or that a barrier on them fences off, which preserves
    per-qubit program order.
    """
    if packing not in (GREEDY, ONE_PER_STAGE):
        raise ValueError(f"unknown packing {packing!r}")
    placed = sorted(grid.initial_state(spec).occupancy)
    if circuit.qubit_count > len(placed):
        raise TooManyQubits(
            f"circuit uses {circuit.qubit_count} qubits, architecture places {len(placed)}"
        )

    stages: list[list[Gate]] = []
    ready: dict[int, int] = {}  # cell -> first stage a gate on it may join
    for op in circuit.ops:
        if isinstance(op, FlatBarrier):
            for q in op.qubits or range(circuit.qubit_count):
                ready[placed[q]] = len(stages)
            continue
        cells = tuple(placed[q] for q in op.qubits)
        gate = Gate(op.name, op.params, cells)
        k = len(stages) if packing == ONE_PER_STAGE else max(ready.get(c, 0) for c in cells)
        if k == len(stages):
            stages.append([])
        stages[k].append(gate)
        for c in cells:
            ready[c] = k + 1

    return Program(1, 0, tuple(Stage(tuple(ops)) for ops in stages))
