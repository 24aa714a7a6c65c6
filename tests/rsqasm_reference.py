"""Reference parser: the token-by-token cursor that ``parse_program`` replaced.

This is the original implementation of :func:`na_evalkit.rsqasm.parse_program`,
kept verbatim as an oracle for the differential tests. It walks each line with
a cursor and one regex match per token; the one-pattern-per-instruction parser
must give an equal :class:`Program` or the same error class, line and column.
Its patterns use ``\\d`` without ``re.ASCII``, so it accepts non-ASCII decimal
digits; that acceptance is the defect the new parser fixes, not a behaviour
to match. Likewise its blank, comment and header tests strip any Unicode
whitespace, where the new parser strips only spaces and tabs.
"""

from __future__ import annotations

import re

from na_evalkit.errors import (
    ArityError,
    MissingHeader,
    ParamError,
    RsqasmSyntaxError,
    UnknownInstruction,
    UnsupportedVersion,
)
from na_evalkit.rsqasm import (
    MOVE_NAME,
    NATIVE_GATES,
    Gate,
    Instruction,
    Move,
    Program,
    Stage,
    _located,
)


def _is_comment(line: str) -> bool:
    return line.lstrip().startswith("//")


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
    try:
        cell = int(idx)
    except ValueError:  # more digits than int() converts
        sc.fail("cell index has too many digits", col)
    sc.skip_ws()
    sc.expect_char("]", "']'")
    return cell


def _parse_operand_list(sc: _LineScanner) -> list[int]:
    operands = [_parse_operand(sc)]
    sc.skip_ws()
    while sc.peek() == ",":
        sc.pos += 1
        operands.append(_parse_operand(sc))
        sc.skip_ws()
    return operands



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
            try:
                major, minor = int(m.group(1)), int(m.group(2))
            except ValueError:  # more digits than int() converts
                raise UnsupportedVersion("version number has too many digits", line_no, 1) from None
            if major != 1:
                raise UnsupportedVersion(f"unsupported major version {major}", line_no, 1)
            header = (major, minor)
            continue
        stages.append(_parse_stage_line(line, line_no))
    if header is None:
        raise MissingHeader("document has no header line")
    return Program(header[0], header[1], tuple(stages))
