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
instruction is an error. Instructions and stages are immutable records checked
by their constructors, not dataclasses: tuples of their fields or instructions.
A gate keeps its angles and cells as tuples, each angle a ``float`` and each
cell an ``int``, so every record serializes to text that parses back to it.

A stage line that is, without the blanks around it, in the canonical form
``serialize_program`` writes takes a faster path with the same outcome: one
``findall`` reads it and its groups build the records. Blanks inside a line,
and any error, send it to the general grammar. Within one ``parse_program``
call that path builds each cell ``int``, gate name, one-cell operand tuple
and one-qubit gate without an angle once, and records equal in value share
it (the flyweight pattern): records from one parse may be one shared object,
so never rely on ``is`` between them. A one-qubit record is memoized by the
operand tuple it holds, not by its cell's digits. Nothing is kept across
calls.
``serialize_program(program, out)`` writes the canonical text to a text
stream a few stage lines at a time, so it never holds the whole text.
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field
from operator import itemgetter
from typing import TextIO

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


class _Record(tuple):
    """An immutable record of the fields in ``__match_args__``, equal only to its own type."""

    __slots__ = ()

    def __eq__(self, other):
        if isinstance(other, tuple):  # never equal to a plain tuple or another record type
            return type(other) is type(self) and tuple.__eq__(self, other)
        return NotImplemented

    __ne__ = object.__ne__  # the negation of __eq__
    __hash__ = tuple.__hash__

    def __lt__(self, other):  # unordered; NotImplemented would let a plain tuple order it
        raise TypeError(f"{type(self).__name__} records are unordered")

    __le__ = __gt__ = __ge__ = __lt__

    def __getnewargs__(self):  # copy and pickle rebuild a record through __new__
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"


def _require_cells(name: str, cells: tuple) -> None:
    """Refuse a cell that its text could not carry: a non-int, a bool, or a negative int."""
    for cell in cells:
        if not isinstance(cell, int) or isinstance(cell, bool):
            raise RsqasmSyntaxError(f"cell index in {name} must be an int, got {cell!r}")
        if cell < 0:
            raise RsqasmSyntaxError(f"negative cell index in {name}")


class Gate(_Record):
    """A native gate applied to one or two grid cells."""

    __slots__ = ()
    __match_args__ = ("name", "params", "operands")
    _shapes = {name: (int(name in ONE_PARAM_GATES), gate_arity(name)) for name in NATIVE_GATES}
    name = property(itemgetter(0))
    params = property(itemgetter(1))
    operands = cells = property(itemgetter(2))

    def __new__(cls, name: str, params: tuple[float, ...], operands: tuple[int, ...]):
        params, operands = tuple(params), tuple(operands)
        want_params, arity = cls._shapes.get(name, (None, None))
        if want_params is None:
            raise UnknownInstruction(f"unknown gate {name!r}")
        if len(params) != want_params:
            raise ParamError(f"{name} takes {want_params} parameter(s), got {len(params)}")
        if params:
            angle = params[0]
            if not isinstance(angle, (int, float)) or isinstance(angle, bool):
                raise ParamError(f"{name} parameter must be a number, got {angle!r}")
            try:
                angle = float(angle)
            except OverflowError:  # an int beyond the float range
                angle = math.inf if angle > 0 else -math.inf
            if not math.isfinite(angle):
                raise ParamError(f"{name} parameter must be finite, got {angle!r}")
            params = (angle,)
        if len(operands) != arity:
            raise ArityError(f"{name} takes {arity} operand(s), got {len(operands)}")
        _require_cells(name, operands)
        return tuple.__new__(cls, (name, params, operands))


class Move(_Record):
    """Relocation of the atom at cell ``src`` to the empty cell ``dst``."""

    __slots__ = ()
    __match_args__ = ("src", "dst")
    src = property(itemgetter(0))
    dst = property(itemgetter(1))
    cells = property(tuple)  # (src, dst) as a plain tuple

    def __new__(cls, src: int, dst: int):
        _require_cells(MOVE_NAME, (src, dst))
        if src == dst:
            raise DuplicateCellInStage(f"move with identical source and target cell {src}")
        return tuple.__new__(cls, (src, dst))


Instruction = Gate | Move


class Stage(_Record):
    """One line of the format: the tuple of its operations, executed in parallel."""

    __slots__ = ()
    __match_args__ = ("ops",)
    ops = property(tuple)  # the operations as a plain tuple

    def __new__(cls, ops: tuple[Instruction, ...]):
        stage = tuple.__new__(cls, ops)
        if not stage:
            raise RsqasmSyntaxError("a stage must contain at least one instruction")
        seen: set[int] = set()
        for op in stage:
            for cell in op.cells:
                if cell in seen:
                    message = f"cell {cell} appears in more than one operand within the stage"
                    raise DuplicateCellInStage(message)
                seen.add(cell)
        return stage


@dataclass(frozen=True)
class Program:
    """A parsed circuit: format version plus an ordered stage list.

    Like the records, it holds only what its text can carry: an ``int``
    version, major 1 and minor >= 0, and a tuple of :class:`Stage` records.
    """

    version_major: int = 1
    version_minor: int = 0
    stages: tuple[Stage, ...] = field(default_factory=tuple)

    def __post_init__(self):
        for part in (self.version_major, self.version_minor):
            if not isinstance(part, int) or isinstance(part, bool):
                raise UnsupportedVersion(f"version number must be an int, got {part!r}")
        if self.version_major != 1:
            raise UnsupportedVersion(f"unsupported major version {self.version_major}")
        if self.version_minor < 0:
            raise UnsupportedVersion(f"negative minor version {self.version_minor}")
        stages = tuple(self.stages)
        for stage in stages:
            if not isinstance(stage, Stage):
                raise RsqasmSyntaxError(f"a program holds Stage records, got {stage!r}")
        object.__setattr__(self, "stages", stages)


_HEADER_RE = re.compile(r"RSQASM[ \t]+(\d+)\.(\d+)[ \t]*;", re.ASCII)

# One instruction and the blanks after it, its operands as one group. Every part
# after the name may match empty, so the pattern matches anywhere but at the end
# of the line: the first required part that is empty names the diagnostic, and
# its position the column.
_OPERAND = r"q[ \t]*\[[ \t]*\d+[ \t]*\]"
ANGLE_LITERAL = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"  # match with re.ASCII
_INSTRUCTION_RE = re.compile(
    rf"""(?!\Z)[ \t]*(?P<name>[A-Za-z_]\w*|)[ \t]*
    (?:(?P<open>\()[ \t]*
        (?P<angle>{ANGLE_LITERAL}|)[ \t]*
        (?P<close>\)|)[ \t]*)?
    (?P<operands>{_OPERAND}(?:[ \t]*,[ \t]*{_OPERAND})*|)[ \t]*
    (?P<comma>,|)[ \t]*
    (?P<end>;|)[ \t]*""",
    re.ASCII | re.VERBOSE,
)
_CELL_RE = re.compile(r"\d+", re.ASCII)


def _names(names: frozenset[str]) -> str:
    return "|".join(map(re.escape, sorted(names)))


# Each instruction as serialize_program writes it, one alternative per shape, so
# the branch that matches fixes the shape; at most 18 digits keeps int() far below
# sys.get_int_max_str_digits(). The last alternative takes the rest of the line
# wherever no such instruction starts, so findall's matches tile the line, and
# the line is canonical iff that group stays empty. findall gives, per match,
# (two-qubit name, a, b, rotation name, angle, a, one-qubit name, a, src, dst, rest).
_CANONICAL_CELL = r"q\[(\d{1,18})\]"
_CANONICAL_OP_RE = re.compile(
    rf"""({_names(TWO_QUBIT_GATES)})\ {_CANONICAL_CELL},\ {_CANONICAL_CELL};
    |({_names(ONE_PARAM_GATES)})\(({ANGLE_LITERAL})\)\ {_CANONICAL_CELL};
    |({_names(NATIVE_GATES - ONE_PARAM_GATES - TWO_QUBIT_GATES)})\ {_CANONICAL_CELL};
    |{re.escape(MOVE_NAME)}\ {_CANONICAL_CELL},\ {_CANONICAL_CELL};
    |(.+)""",
    re.ASCII | re.VERBOSE,
)
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


def _parse_stage_line(text: str, line: int) -> Stage:
    """One stage; an error without a column gets its instruction's, or the stage's."""
    ops: list[Instruction] = []
    try:
        for m in _INSTRUCTION_RE.finditer(text):
            name, opened, angle, close, operands, comma, end = m.groups()
            if name == MOVE_NAME:
                if opened:
                    raise RsqasmSyntaxError(_OPERAND_FORM, line, m.start("open") + 1)
            elif name not in NATIVE_GATES:
                if not name:
                    raise RsqasmSyntaxError("expected an instruction name")
                raise UnknownInstruction(f"unknown instruction {name!r}")
            elif opened:
                if not angle:
                    column = m.start("angle") + 1
                    raise ParamError(f"expected a numeric angle for {name}", line, column)
                if not close:
                    raise _expected("')'", m, "close", line)
            if not operands:  # the first operand is malformed
                raise RsqasmSyntaxError(_OPERAND_FORM, line, m.start("operands") + 1)
            cells = tuple(map(int, _CELL_RE.findall(operands)))
            if comma:  # the operand after a comma is malformed
                raise RsqasmSyntaxError(_OPERAND_FORM, line, m.start("end") + 1)
            if not end:
                raise _expected("';'", m, "end", line)
            if name != MOVE_NAME:
                ops.append(Gate(name, (float(angle),) if opened else (), cells))
            elif len(cells) == 2:
                ops.append(Move(*cells))
            else:
                raise ArityError(f"move takes 2 operands, got {len(cells)}")
        m = None
        return Stage(ops)
    except RsqasmError as exc:
        if exc.line is not None:
            raise
        # a cell shared between instructions is reported where the stage starts
        column = m.start("name") if m else len(text) - len(text.lstrip(" \t"))
        raise type(exc)(str(exc), line, column + 1) from None
    except ValueError:  # more digits than int() converts; point at that operand
        limit = sys.get_int_max_str_digits()
        big = next(d for d in _CELL_RE.finditer(text, *m.span("operands")) if len(d[0]) > limit)
        column = text.rindex("q", 0, big.start()) + 1
        raise RsqasmSyntaxError("cell index has too many digits", line, column) from None


class _Cells(dict):
    """A cell's digits to its one-cell operand tuple, whose item is the cell's ``int``."""

    __slots__ = ()

    def __missing__(self, digits: str) -> tuple[int]:
        operands = self[digits] = (int(digits),)
        return operands


def _shared() -> tuple:
    """The flyweights of one parse: the operand tuples of ``_Cells``; the
    gate names of the pattern's groups, mapped to this module's strings; and
    for each one-qubit gate name without an angle, its records keyed by the
    operand tuple each one holds, so that memo keeps no digit string."""
    names = {name: name for name in NATIVE_GATES}
    by_cell = {name: {} for name in NATIVE_GATES - ONE_PARAM_GATES - TWO_QUBIT_GATES}
    return _Cells(), names, by_cell


def _canonical_stage(line: str, shared: tuple) -> Stage | None:
    """The stage of a nonempty line in the form serialize_program writes, or None.

    parse_program passes a stage line without the blanks around it. One findall
    reads it; the records are built without their constructors once the angles
    are finite and the cells distinct. Any doubt gives None and leaves the line,
    and any error in it, to _parse_stage_line. Equal cells, names and one-qubit
    records are one object across the lines read with one :func:`_shared` memo.
    """
    single, names, by_cell = shared
    new = tuple.__new__
    ops = []
    cells: list[int] = []
    for two, a2, b2, rot, angle, ar, one, a1, src, dst, rest in _CANONICAL_OP_RE.findall(line):
        if one:
            operands = single[a1]
            op = by_cell[one].get(operands)
            if op is None:  # built once per name and cell
                op = by_cell[one][operands] = new(Gate, (one, (), operands))
            ops.append(op)
        elif src:  # src == dst fails the disjointness check below
            operands = (single[src][0], single[dst][0])
            ops.append(new(Move, operands))
        elif two:
            operands = (single[a2][0], single[b2][0])
            ops.append(new(Gate, (names[two], (), operands)))
        elif rot:
            params = (float(angle),)
            if not math.isfinite(params[0]):
                return None
            operands = single[ar]
            ops.append(new(Gate, (names[rot], params, operands)))
        else:  # the rest of a line that is not canonical
            return None
        cells += operands
    if len(set(cells)) != len(cells):
        return None
    return new(Stage, ops)


def parse_program(document: str | bytes | bytearray | memoryview) -> Program:
    """Parse circuit text into a :class:`Program`.

    Lines split at LF, dropping the CRs at their end; any other CR is no line
    break, and a line is read without the blanks around it. Bytes-like input
    must be strict UTF-8. Malformed input, arbitrary bytes too, raises a subclass
    of :class:`~na_evalkit.errors.RsqasmError` with line/column information.
    """
    if isinstance(document, (bytes, bytearray, memoryview)):
        try:
            document = str(document, "utf-8")
        except UnicodeDecodeError as exc:
            raise RsqasmSyntaxError(f"document is not valid UTF-8: {exc}") from None

    # the lines last to first, so that each is freed once it is read, and a
    # decoded copy of the document is held no longer than its lines need it
    lines = document.split("\n")[::-1]
    del document
    header: Program | None = None
    stages: list[Stage] = []
    shared = _shared()
    line_no = 0
    while lines:
        line = lines.pop().rstrip("\r")
        line_no += 1
        text = line.strip(" \t")
        if not text or text.startswith("//"):  # a blank or comment line
            continue
        if header is None:
            m = _HEADER_RE.fullmatch(text)
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
        stages.append(_canonical_stage(text, shared) or _parse_stage_line(line, line_no))
    if header is None:
        raise MissingHeader("document has no header line")
    return Program(header.version_major, header.version_minor, tuple(stages))


def serialize_program(program: Program, out: TextIO | None = None) -> str | None:
    """Render a program in canonical form, as a string, or written to ``out``.

    One line per stage, instructions concatenated (each carries its own
    trailing ``;``), a single space after commas, LF line endings, and
    rotation angles printed with full round-trip precision. ``parse_program``
    of the result reconstructs an equal :class:`Program`. Given a text stream
    ``out``, it writes the same text there a few stage lines at a time and
    returns None, so it never holds the whole text.
    """
    pieces = _canonical_pieces(program)
    if out is None:
        return "".join(pieces)
    out.writelines(pieces)
    return None


def _canonical_pieces(program: Program) -> Iterator[str]:
    """The canonical text in pieces of whole lines, each ended at the first line
    end once it holds 64 parts (instructions or line ends): well below the 8 KiB
    that a ``TextIOWrapper`` writes without first encoding the whole piece."""
    parts = [f"RSQASM {program.version_major}.{program.version_minor};\n"]
    for stage in program.stages:
        for op in stage:
            if type(op) is Move:
                parts.append(f"move q[{op[0]}], q[{op[1]}];")
                continue
            name, params, cells = op
            head = f"{name}({params[0]!r})" if params else name
            if len(cells) == 2:
                parts.append(f"{head} q[{cells[0]}], q[{cells[1]}];")
            else:
                parts.append(f"{head} q[{cells[0]}];")
        parts.append("\n")
        if len(parts) >= 64:
            yield "".join(parts)
            parts = []
    yield "".join(parts)
