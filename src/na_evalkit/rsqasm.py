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
more than one instruction's operand set (static disjointness). Cell indices
carry no upper bound here; grid bounds are checked at simulation time.

Lexical rules: digits are ASCII ``0``-``9`` only. In a stage, blanks are
spaces and tabs, allowed between any two tokens (``cz q[ 0 ] ,q[5] ;``) but
not inside a name or a number. Only rx, ry and rz take an angle in radians,
``rz(0.5) q[3];``, written ``[+-]? (D+ [. D*] | . D+) ([eE] [+-]? D+)?`` for
an ASCII digit D, so ``inf``, ``nan`` and ``1_0`` are rejected; ``move``
takes none. Blank lines and lines starting with ``//`` are skipped; there,
and around the header, blanks are spaces and tabs too. ``//`` after an
instruction is an error.
"""

from __future__ import annotations

import math
import re
import sys
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


_HEADER_RE = re.compile(r"RSQASM[ \t]+(\d+)\.(\d+)[ \t]*;[ \t]*$", re.ASCII)

# One instruction and the blanks after it. Every part after the name may match
# empty, so the pattern matches anywhere but at the end of the line: the first
# required part that is empty names the diagnostic, and its position the column.
_OPERAND = r"q[ \t]*\[[ \t]*\d+[ \t]*\]"
_INSTRUCTION_RE = re.compile(
    rf"""(?!\Z)[ \t]*(?P<name>[A-Za-z_]\w*|)[ \t]*
    (?:(?P<open>\()[ \t]*
        (?P<angle>[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|)[ \t]*
        (?P<close>\)|)[ \t]*)?
    (?P<operands>{_OPERAND}(?:[ \t]*,[ \t]*{_OPERAND})*|)[ \t]*
    (?P<comma>,|)[ \t]*
    (?P<end>;|)[ \t]*""",
    re.ASCII | re.VERBOSE,
)
_CELL_RE = re.compile(r"\d+", re.ASCII)
_OPERAND_FORM = "expected operand of the form q[<uint>]"


def _located(line: int, column: int, build, *args):
    """Call a constructor, re-raising its RsqasmError at the given position."""
    try:
        return build(*args)
    except RsqasmError as exc:
        raise type(exc)(str(exc), line, column) from None


def _expected(what: str, m: re.Match, group: str, line: int) -> RsqasmSyntaxError:
    pos = m.start(group)
    got = m.string[pos:pos + 1]
    message = f"expected {what}, got {got!r}" if got else f"expected {what}"
    return RsqasmSyntaxError(message, line, pos + 1)


def _parse_instruction(m: re.Match, line: int) -> Instruction:
    name, opened, angle, close, operands, comma, end = m.groups()
    col = m.start("name") + 1
    if name == MOVE_NAME:
        if opened:
            raise RsqasmSyntaxError(_OPERAND_FORM, line, m.start("open") + 1)
    elif name not in NATIVE_GATES:
        if not name:
            raise RsqasmSyntaxError("expected an instruction name", line, col)
        raise UnknownInstruction(f"unknown instruction {name!r}", line, col)
    elif opened:
        if not angle:
            raise ParamError(f"expected a numeric angle for {name}", line, m.start("angle") + 1)
        if not close:
            raise _expected("')'", m, "close", line)
    try:
        cells = tuple(map(int, _CELL_RE.findall(operands)))
    except ValueError:  # more digits than int() converts; point at that operand
        text, limit = m.string, sys.get_int_max_str_digits()
        big = next(d for d in _CELL_RE.finditer(text, *m.span("operands")) if len(d[0]) > limit)
        column = text.rindex("q", 0, big.start()) + 1
        raise RsqasmSyntaxError("cell index has too many digits", line, column) from None
    if comma or not operands:  # the first operand, or the one after a comma, is malformed
        column = m.start("end" if operands else "operands") + 1
        raise RsqasmSyntaxError(_OPERAND_FORM, line, column)
    if not end:
        raise _expected("';'", m, "end", line)
    if name == MOVE_NAME:
        if len(cells) != 2:
            raise ArityError(f"move takes 2 operands, got {len(cells)}", line, col)
        return _located(line, col, Move, *cells)
    return _located(line, col, Gate, name, (float(angle),) if opened else (), cells)


def _parse_stage_line(text: str, line_no: int) -> Stage:
    ops = tuple(_parse_instruction(m, line_no) for m in _INSTRUCTION_RE.finditer(text))
    # a cell shared between instructions is reported where the stage starts
    start = len(text) - len(text.lstrip(" \t")) + 1
    return _located(line_no, start, Stage, ops)


def _is_comment(line: str) -> bool:
    return line.lstrip(" \t").startswith("//")


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

    header: Program | None = None
    stages: list[Stage] = []
    for line_no, raw in enumerate(document.split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line.strip(" \t") or _is_comment(line):
            continue
        if header is None:
            m = _HEADER_RE.match(line.strip(" \t"))
            if m is None:
                raise MissingHeader(
                    "expected header of the form 'RSQASM <major>.<minor>;'", line_no, 1
                )
            try:
                major, minor = int(m.group(1)), int(m.group(2))
            except ValueError:  # more digits than int() converts
                raise UnsupportedVersion("version number has too many digits", line_no, 1) from None
            header = _located(line_no, 1, Program, major, minor)
            continue
        stages.append(_parse_stage_line(line, line_no))
    if header is None:
        raise MissingHeader("document has no header line")
    return Program(header.version_major, header.version_minor, tuple(stages))


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
