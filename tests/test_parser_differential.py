"""Differential tests of the circuit parser against the reference cursor parser.

``rsqasm_reference`` is the token-by-token parser that ``parse_program``
replaced. On every input both must give an equal :class:`Program`, or raise
the same error class at the same line and column. Three differences are
intended: an error found inside an operand (a missing ``[``, index or ``]``)
now reads ``expected operand of the form q[<uint>]`` at the operand's first
character; non-ASCII decimal digits, which the reference accepts, are now
rejected; and blank, comment and header lines strip only spaces and tabs, so
a line that the reference reads as blank, a comment or the header only after
stripping other Unicode whitespace is now an error.
"""

import re

import pytest
from hypothesis import example, given, settings, strategies as st

import rsqasm_reference as reference
from na_evalkit import Gate, Move, Program, Stage, parse_flat_qasm, parse_program
from na_evalkit.errors import EvalKitError, MissingHeader, RsqasmError, RsqasmSyntaxError
from na_evalkit.rsqasm import _canonical_stage, _parse_stage_line, _shared, serialize_program

_INSIDE_OPERAND = ("expected '['", "expected a nonnegative cell index", "expected ']'")
_OPERAND_FORM = "expected operand of the form q[<uint>]"
# decimal digits that str patterns match with \d unless compiled with re.ASCII
_NON_ASCII_DIGITS = ["٣", "١", "۷", "९", "０", "\U0001d7d8"]
_NON_ASCII_DIGIT = re.compile(r"(?![0-9])\d")


def _outcome(parse, document):
    try:
        return parse(document)
    except RsqasmError as exc:
        return exc


def _message(exc: RsqasmError) -> str:
    return str(exc).partition(": ")[2]  # drop the "line L, column C" prefix


def _first_non_ascii_digit_line(document: str) -> int | None:
    for number, line in enumerate(document.split("\n"), start=1):
        if _NON_ASCII_DIGIT.search(line) and not line.lstrip().startswith("//"):
            return number
    return None


def _first_non_blank_whitespace_line(document: str) -> int | None:
    """The first line, outside comments, whose ends hold whitespace other
    than spaces and tabs."""
    for number, raw in enumerate(document.split("\n"), start=1):
        line = raw.rstrip("\r")
        if line.strip() != line.strip(" \t") and not line.lstrip(" \t").startswith("//"):
            return number
    return None


def _errs_before(outcome, line: int) -> bool:
    return isinstance(outcome, RsqasmError) and outcome.line is not None and outcome.line < line


def _assert_same_outcome(document: str):
    expected = _outcome(reference.parse_program, document)
    got = _outcome(parse_program, document)
    # the reference reads these digits as numbers, and strips any Unicode
    # whitespace around blank, comment and header lines; both are defects
    for special_line in (
        _first_non_ascii_digit_line(document), _first_non_blank_whitespace_line(document)
    ):
        if special_line is not None and not _errs_before(expected, special_line):
            assert isinstance(got, RsqasmError), (document, got)
            return
    if isinstance(expected, Program):
        assert got == expected, document
        return
    assert isinstance(got, RsqasmError), (document, got)
    assert (type(got), got.line) == (type(expected), expected.line), (document, got, expected)
    if _message(expected).startswith(_INSIDE_OPERAND):
        text = document.split("\n")[expected.line - 1]
        assert _message(got) == _OPERAND_FORM, (document, got)
        assert got.column == text.rindex("q", 0, expected.column - 1) + 1, (document, got)
    else:
        assert got.column == expected.column, (document, got, expected)


# --- drawn programs ----------------------------------------------------------

_BLANKS = st.text(alphabet=" \t", max_size=2)
_ANGLES = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _stages(draw):
    pool = draw(st.lists(st.integers(0, 10**6), unique=True, min_size=2, max_size=8))
    ops = []
    i = 0
    while i < len(pool):
        pick = draw(st.sampled_from(["plain", "rot", "cz", "move"]))
        if pick in ("cz", "move") and i + 1 < len(pool):
            a, b = pool[i], pool[i + 1]
            ops.append(Gate("cz", (), (a, b)) if pick == "cz" else Move(a, b))
            i += 2
        elif pick == "rot":
            ops.append(Gate(draw(st.sampled_from(["rx", "ry", "rz"])), (draw(_ANGLES),), (pool[i],)))
            i += 1
        else:
            ops.append(Gate(draw(st.sampled_from(["h", "s", "t"])), (), (pool[i],)))
            i += 1
    return Stage(tuple(ops))


_PROGRAMS = st.builds(
    lambda minor, stages: Program(1, minor, tuple(stages)),
    st.integers(0, 12),
    st.lists(_stages(), max_size=6),
)


def _render(draw, op) -> str:
    """One instruction with random blanks between its tokens."""
    if isinstance(op, Move):
        name, params, cells = "move", (), (op.src, op.dst)
    else:
        name, params, cells = op.name, op.params, op.operands
    # a blank must part the name from the operand's q
    tokens = [name + ("" if params else draw(st.sampled_from([" ", "\t"])))]
    if params:
        tokens += ["(", repr(params[0]), ")"]
    for k, cell in enumerate(cells):
        tokens += ([","] if k else []) + ["q", "[", str(cell), "]"]
    tokens.append(";")
    return "".join(token + draw(_BLANKS) for token in tokens)


@st.composite
def _rendered_programs(draw):
    """A drawn program written with free blanks, comments, blank lines and CRLF."""
    program = draw(_PROGRAMS)
    lines = [f"{draw(_BLANKS)}RSQASM {program.version_major}.{program.version_minor};"]
    for stage in program.stages:
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", " \t", "// note", "  // q[x] ;;"])))
        lines.append(draw(_BLANKS) + "".join(_render(draw, op) for op in stage.ops))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return program, newline.join(lines) + newline


@settings(max_examples=150, deadline=None)
@given(_rendered_programs())
def test_drawn_programs_parse_equally(case):
    program, document = case
    assert parse_program(document) == reference.parse_program(document) == program


@settings(max_examples=150, deadline=None)
@given(_PROGRAMS)
def test_canonical_stage_equals_the_general_parse(program):
    lines = serialize_program(program).split("\n")[1:-1]
    shared = _shared()
    for number, line in enumerate(lines, start=2):
        assert _canonical_stage(line, shared) == _parse_stage_line(line, number), line


# --- mutated documents and random text ---------------------------------------

_TOKEN_RE = re.compile(
    r"[A-Za-z_]\w*|[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[ \t]+|.", re.ASCII | re.DOTALL
)
_SPLICES = ["(", ")", ",", ";", "q", "[", *_NON_ASCII_DIGITS, "9" * 5000, "1" * 400]


@st.composite
def _mutated_documents(draw):
    """A canonical document with one token deleted, duplicated, swapped, or spliced in."""
    tokens = _TOKEN_RE.findall(serialize_program(draw(_PROGRAMS)))
    # half the edits land right after a name, where an angle may or may not follow
    after_names = [k + 1 for k, token in enumerate(tokens[:-1]) if token[0].isalpha()]
    i = draw(st.sampled_from(after_names) | st.integers(0, len(tokens) - 1))
    edit = draw(st.sampled_from(["delete", "duplicate", "swap", "splice"]))
    if edit == "delete":
        del tokens[i]
    elif edit == "duplicate":
        tokens.insert(i, tokens[i])
    elif edit == "swap" and i + 1 < len(tokens):
        tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
    else:
        tokens.insert(i, draw(st.sampled_from(_SPLICES)))
    return "".join(tokens)


@settings(max_examples=400, deadline=None)
@given(_mutated_documents())
@example("RSQASM 1.0;\nmove(0.5) q[0], q[1];\n")
@example("RSQASM 1.0;\nh q[٣];\n")
@example("RSQASM 1.0;\nh q[0], q[" + "9" * 5000 + "];\n")
@example("RSQASM 1.0;\ncz q[0], q[1], q[" + "9" * 5000 + "];\n")
@example("\u3000RSQASM 1.0;\nh q[0];\n")
@example("RSQASM 1.0;\n\x0c\nh q[0];\n")
@example("RSQASM 1.0;\n\u3000// c\n")
@example("RSQASM 1.0;\nh q[0]; // c\u3000\n// c\u3000\n")
# headers in blanks and tabs: valid, and UnsupportedVersion at line 1, column 1
@example(" \tRSQASM 1.3;\t \n\th q[0]; \n")
@example("\tRSQASM 2.0; \t\r\nh q[0];\r\n")
@example(" RSQASM 2.0 ; \n")
def test_mutated_documents_give_the_same_outcome(document):
    _assert_same_outcome(document)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(max_size=200),
    st.text(alphabet="RSQAM1.0;\n hczrxmove()q[]0123456789,-+e\t/٣", max_size=80)
    .map(lambda body: "RSQASM 1.0;\n" + body),
))
def test_random_text_gives_the_same_outcome(document):
    _assert_same_outcome(document)


# --- regression cases ----------------------------------------------------------

def test_move_takes_no_angle():
    for parse in (reference.parse_program, parse_program):
        with pytest.raises(RsqasmSyntaxError) as info:
            parse("RSQASM 1.0;\nmove(0.5) q[0], q[1];\n")
        assert (info.value.line, info.value.column) == (2, 5)


@pytest.mark.parametrize("parse, document", [
    (parse_program, "RSQASM 1.0;\nh q[٣];\n"),
    (parse_program, "RSQASM ١.0;\n"),
    (parse_program, "RSQASM 1.0;\nrz(٣.٥) q[1];\n"),
    (parse_flat_qasm, "qreg q[٥];rz(٣) q[٣];"),
    (parse_flat_qasm, "rz(٣) q[0];"),
    (parse_flat_qasm, "h q[٣];"),
], ids=["cell", "version", "angle", "flat-qreg", "flat-angle", "flat-operand"])
def test_non_ascii_digits_are_rejected(parse, document):
    with pytest.raises(EvalKitError):
        parse(document)


def test_operand_errors_point_at_the_operand():
    cases = {
        "h q[0], q[x];": 9,
        "h q [0;": 3,
        "cz q[0],\tq[1;": 10,
        "h q[" + "9" * 5000 + ";": 3,
    }
    for line, column in cases.items():
        with pytest.raises(RsqasmSyntaxError) as info:
            parse_program(f"RSQASM 1.0;\n{line}\n")
        assert (info.value.line, info.value.column) == (2, column), line
        assert _message(info.value) == _OPERAND_FORM


@pytest.mark.parametrize("document, error, line, column", [
    ("\u3000RSQASM 1.0;\n", MissingHeader, 1, 1),
    ("RSQASM 1.0;\n\x0c\n", RsqasmSyntaxError, 2, 1),
    ("RSQASM 1.0;\n\u3000// c\n", RsqasmSyntaxError, 2, 1),
    ("RSQASM 1.0;\n\u3000h q[0];\n", RsqasmSyntaxError, 2, 1),
], ids=["header", "form-feed-line", "comment", "stage"])
def test_only_spaces_and_tabs_are_blanks(document, error, line, column):
    with pytest.raises(error) as info:
        parse_program(document)
    assert (type(info.value), info.value.line, info.value.column) == (error, line, column)
    # the reference strips other Unicode whitespace too, except in a stage
    if "h q[0]" not in document:
        assert reference.parse_program(document) == Program(1, 0, ())
