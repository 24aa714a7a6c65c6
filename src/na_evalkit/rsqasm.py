"""Parser, validator, and canonical serializer for staged circuit text.

The format is line-oriented. The first nonempty line is a header declaring
the format name and version; every following nonempty line is one execution
stage, a group of operations applied in parallel. Operands name grid cells,
not logical qubits::

    RSQASM 1.0;
    h q[0];
    cz q[2], q[1];
    move q[3], q[4];
    cz q[0], q[5];cz q[1], q[3];move q[2], q[4];

Within a stage every instruction ends with ``;`` and no cell may appear in
more than one instruction's operand set (static disjointness). Rotation
gates carry a single numeric angle in radians, ``rz(0.5) q[3];``. Lines
starting with ``//`` are comments. Cell indices carry no upper bound here;
grid bounds are checked at simulation time.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .errors import (
    ArityError,
    DuplicateCellInStage,
    MissingHeader,
    ParamError,
    RsqasmError,
    RsqasmSyntaxError,
    UnknownInstruction,
    UnsupportedVersion,
)

NATIVE_GATES = frozenset({"cz", "rx", "ry", "rz", "h", "s", "t"})
ONE_PARAM_GATES = frozenset({"rx", "ry", "rz"})
TWO_QUBIT_GATES = frozenset({"cz"})

MOVE_NAME = "move"


def gate_arity(name: str) -> int:
    return 2 if name in TWO_QUBIT_GATES else 1


@dataclass(frozen=True)
class Gate:
    """A native gate applied to one or two grid cells."""

    name: str
    params: tuple[float, ...]
    operands: tuple[int, ...]

    def __post_init__(self):
        if self.name not in NATIVE_GATES:
            raise UnknownInstruction(f"unknown gate {self.name!r}")
        want_params = 1 if self.name in ONE_PARAM_GATES else 0
        if len(self.params) != want_params:
            raise ParamError(
                f"{self.name} takes {want_params} parameter(s), got {len(self.params)}"
            )
        for p in self.params:
            if not math.isfinite(p):
                raise ParamError(f"{self.name} parameter must be finite, got {p!r}")
        if len(self.operands) != gate_arity(self.name):
            raise ArityError(
                f"{self.name} takes {gate_arity(self.name)} operand(s), "
                f"got {len(self.operands)}"
            )
        if any(c < 0 for c in self.operands):
            raise RsqasmSyntaxError(f"negative cell index in {self.name}")

    @property
    def cells(self) -> tuple[int, ...]:
        return self.operands


@dataclass(frozen=True)
class Move:
    """Relocation of the atom at cell ``src`` to the empty cell ``dst``."""

    src: int
    dst: int

    def __post_init__(self):
        if self.src < 0 or self.dst < 0:
            raise RsqasmSyntaxError("negative cell index in move")
        if self.src == self.dst:
            raise DuplicateCellInStage(f"move with identical source and target cell {self.src}")

    @property
    def cells(self) -> tuple[int, ...]:
        return (self.src, self.dst)


Instruction = Gate | Move


@dataclass(frozen=True)
class Stage:
    """One line of the format: operations executed in parallel."""

    ops: tuple[Instruction, ...]

    def __post_init__(self):
        if not self.ops:
            raise RsqasmSyntaxError("a stage must contain at least one instruction")
        seen: set[int] = set()
        for op in self.ops:
            for cell in op.cells:
                if cell in seen:
                    raise DuplicateCellInStage(
                        f"cell {cell} appears in more than one operand within the stage"
                    )
                seen.add(cell)


@dataclass(frozen=True)
class Program:
    """A parsed circuit: format version plus an ordered stage list."""

    version_major: int = 1
    version_minor: int = 0
    stages: tuple[Stage, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.version_major != 1:
            raise UnsupportedVersion(f"unsupported major version {self.version_major}")


_HEADER_RE = re.compile(r"RSQASM[ \t]+(\d+)\.(\d+)[ \t]*;[ \t]*$")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_UINT_RE = re.compile(r"\d+")
_NUMBER_RE = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_WS_RE = re.compile(r"[ \t]*")


class _LineScanner:
    """Cursor over one physical line; positions are 1-based for diagnostics."""

    def __init__(self, text: str, line_no: int):
        self.text = text
        self.line = line_no
        self.pos = 0

    @property
    def column(self) -> int:
        return self.pos + 1

    def skip_ws(self):
        self.pos = _WS_RE.match(self.text, self.pos).end()

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, regex: re.Pattern) -> str | None:
        m = regex.match(self.text, self.pos)
        if m is None:
            return None
        self.pos = m.end()
        return m.group(0)

    def expect_char(self, char: str, what: str):
        if self.peek() != char:
            raise RsqasmSyntaxError(
                f"expected {what}, got {self.peek()!r}" if self.peek() else f"expected {what}",
                self.line,
                self.column,
            )
        self.pos += 1

    def fail(self, message: str, column: int | None = None):
        raise RsqasmSyntaxError(message, self.line, column or self.column)


def _parse_operand(sc: _LineScanner) -> int:
    sc.skip_ws()
    col = sc.column
    name = sc.take(_IDENT_RE)
    if name != "q":
        sc.fail("expected operand of the form q[<uint>]", col)
    sc.skip_ws()
    sc.expect_char("[", "'['")
    sc.skip_ws()
    idx = sc.take(_UINT_RE)
    if idx is None:
        sc.fail("expected a nonnegative cell index")
    sc.skip_ws()
    sc.expect_char("]", "']'")
    return int(idx)


def _parse_operand_list(sc: _LineScanner) -> list[int]:
    operands = [_parse_operand(sc)]
    sc.skip_ws()
    while sc.peek() == ",":
        sc.pos += 1
        operands.append(_parse_operand(sc))
        sc.skip_ws()
    return operands


def _located(line: int, column: int, build, *args):
    """Call a constructor, re-raising its RsqasmError at the given position."""
    try:
        return build(*args)
    except RsqasmError as exc:
        raise type(exc)(str(exc), line, column) from None


def _parse_instruction(sc: _LineScanner) -> Instruction:
    sc.skip_ws()
    col = sc.column
    name = sc.take(_IDENT_RE)
    if name is None:
        sc.fail("expected an instruction name")

    if name == MOVE_NAME:
        operands = _parse_operand_list(sc)
        sc.skip_ws()
        sc.expect_char(";", "';'")
        if len(operands) != 2:
            raise ArityError(f"move takes 2 operands, got {len(operands)}", sc.line, col)
        return _located(sc.line, col, Move, operands[0], operands[1])

    if name not in NATIVE_GATES:
        raise UnknownInstruction(f"unknown instruction {name!r}", sc.line, col)

    params: tuple[float, ...] = ()
    sc.skip_ws()
    if sc.peek() == "(":
        sc.pos += 1
        sc.skip_ws()
        num = sc.take(_NUMBER_RE)
        if num is None:
            raise ParamError(f"expected a numeric angle for {name}", sc.line, sc.column)
        sc.skip_ws()
        sc.expect_char(")", "')'")
        params = (float(num),)

    operands = _parse_operand_list(sc)
    sc.skip_ws()
    sc.expect_char(";", "';'")
    return _located(sc.line, col, Gate, name, params, tuple(operands))


def _parse_stage_line(text: str, line_no: int) -> Stage:
    sc = _LineScanner(text, line_no)
    ops: list[Instruction] = []
    sc.skip_ws()
    start = sc.column
    while not sc.at_end():
        ops.append(_parse_instruction(sc))
        sc.skip_ws()
    # a cell shared between instructions is reported where the stage starts
    return _located(line_no, start, Stage, tuple(ops))


def _is_comment(line: str) -> bool:
    return line.lstrip().startswith("//")


def parse_program(document: str | bytes) -> Program:
    """Parse circuit text into a :class:`Program`.

    Accepts LF or CRLF line endings. Raises a subclass of
    :class:`~na_evalkit.errors.RsqasmError` with line/column information on
    any malformed input; arbitrary bytes never escape as a non-diagnostic
    exception.
    """
    if isinstance(document, bytes):
        try:
            document = document.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise RsqasmSyntaxError(f"document is not valid UTF-8: {exc}") from None

    header: tuple[int, int] | None = None
    stages: list[Stage] = []
    for line_no, raw in enumerate(document.split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line.strip() or _is_comment(line):
            continue
        if header is None:
            m = _HEADER_RE.match(line.strip())
            if m is None:
                raise MissingHeader(
                    "expected header of the form 'RSQASM <major>.<minor>;'", line_no, 1
                )
            major, minor = int(m.group(1)), int(m.group(2))
            if major != 1:
                raise UnsupportedVersion(f"unsupported major version {major}", line_no, 1)
            header = (major, minor)
            continue
        stages.append(_parse_stage_line(line, line_no))
    if header is None:
        raise MissingHeader("document has no header line")
    return Program(header[0], header[1], tuple(stages))


def _render_instruction(op: Instruction) -> str:
    if isinstance(op, Move):
        return f"move q[{op.src}], q[{op.dst}];"
    if op.params:
        head = f"{op.name}({op.params[0]!r})"
    else:
        head = op.name
    args = ", ".join(f"q[{c}]" for c in op.operands)
    return f"{head} {args};"


def serialize_program(program: Program) -> str:
    """Render a program in canonical form.

    One line per stage, instructions concatenated (each carries its own
    trailing ``;``), a single space after commas, LF line endings, and
    rotation angles printed with full round-trip precision. ``parse_program``
    of the result reconstructs an equal :class:`Program`.
    """
    lines = [f"RSQASM {program.version_major}.{program.version_minor};"]
    for stage in program.stages:
        lines.append("".join(_render_instruction(op) for op in stage.ops))
    return "\n".join(lines) + "\n"
