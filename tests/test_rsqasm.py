import pytest
from hypothesis import given, strategies as st

from na_evalkit import Gate, Move, Program, Stage, parse_program, serialize_program
from na_evalkit.errors import (
    ArityError,
    DuplicateCellInStage,
    MissingHeader,
    ParamError,
    RsqasmError,
    RsqasmSyntaxError,
    UnknownInstruction,
    UnsupportedVersion,
)
from helpers import GOLDEN_TEXT


def test_golden_document_structure():
    program = parse_program(GOLDEN_TEXT)
    assert program.version_major == 1 and program.version_minor == 0
    assert len(program.stages) == 4
    assert program.stages[0].ops == (Gate("h", (), (0,)),)
    assert program.stages[1].ops == (Gate("cz", (), (2, 1)),)
    assert program.stages[2].ops == (Move(3, 4),)
    assert program.stages[3].ops == (
        Gate("cz", (), (0, 5)),
        Gate("cz", (), (1, 3)),
        Move(2, 4),
    )


def test_golden_document_round_trips_byte_identically():
    assert serialize_program(parse_program(GOLDEN_TEXT)) == GOLDEN_TEXT


def test_header_only_is_empty_program():
    program = parse_program("RSQASM 1.0;\n")
    assert program.stages == ()


def test_empty_program_serializes_to_header():
    assert serialize_program(Program(1, 0, ())) == "RSQASM 1.0;\n"


def test_rotation_gate_canonical_line():
    program = Program(1, 0, (Stage((Gate("rz", (0.5,), (3,)),)),))
    text = serialize_program(program)
    assert text == "RSQASM 1.0;\nrz(0.5) q[3];\n"
    assert parse_program(text) == program


def test_comments_and_blank_lines_skipped():
    text = "// preamble\n\nRSQASM 1.0;\n// middle\nh q[3];\n\n  // trailing\n"
    program = parse_program(text)
    assert len(program.stages) == 1


def test_crlf_accepted():
    program = parse_program("RSQASM 1.0;\r\nh q[0];\r\n")
    assert len(program.stages) == 1


def test_whitespace_between_tokens_insignificant():
    program = parse_program("RSQASM 1.0;\n  cz   q[ 0 ] ,q[5] ;  move q[1],q[2];\n")
    assert program.stages[0].ops == (Gate("cz", (), (0, 5)), Move(1, 2))


def test_missing_header():
    with pytest.raises(MissingHeader):
        parse_program("h q[0];\n")
    with pytest.raises(MissingHeader):
        parse_program("")


def test_unsupported_version():
    with pytest.raises(UnsupportedVersion):
        parse_program("RSQASM 2.0;\n")


def test_minor_version_preserved():
    text = "RSQASM 1.3;\nh q[0];\n"
    program = parse_program(text)
    assert program.version_minor == 3
    assert serialize_program(program) == text


def test_unknown_instruction_position():
    with pytest.raises(UnknownInstruction) as info:
        parse_program("RSQASM 1.0;\nfoo q[0];\n")
    assert info.value.line == 2
    assert info.value.column == 1


def test_arity_error():
    with pytest.raises(ArityError):
        parse_program("RSQASM 1.0;\ncz q[0];\n")
    with pytest.raises(ArityError):
        parse_program("RSQASM 1.0;\nh q[0], q[1];\n")
    with pytest.raises(ArityError):
        parse_program("RSQASM 1.0;\nmove q[0], q[1], q[2];\n")


def test_param_errors():
    with pytest.raises(ParamError):
        parse_program("RSQASM 1.0;\nrz q[0];\n")
    with pytest.raises(ParamError):
        parse_program("RSQASM 1.0;\nh(0.5) q[0];\n")
    with pytest.raises(ParamError):
        parse_program("RSQASM 1.0;\nrx() q[0];\n")


def test_constructor_errors_carry_the_position():
    with pytest.raises(ParamError) as info:
        parse_program("RSQASM 1.0;\nh q[0];\n  rz(1e999) q[1];\n")
    assert (info.value.line, info.value.column) == (3, 3)
    with pytest.raises(ArityError) as info:
        parse_program("RSQASM 1.0;\nh q[0];cz q[1];\n")
    assert (info.value.line, info.value.column) == (2, 8)
    with pytest.raises(DuplicateCellInStage) as info:
        parse_program("RSQASM 1.0;\nh q[0]; move q[2], q[2];\n")
    assert (info.value.line, info.value.column) == (2, 9)
    # a cell shared between instructions is a fault of the stage as a whole
    with pytest.raises(DuplicateCellInStage) as info:
        parse_program("RSQASM 1.0;\n  h q[0];h q[0];\n")
    assert (info.value.line, info.value.column) == (2, 3)


def test_same_cell_twice_in_one_gate():
    with pytest.raises((ArityError, DuplicateCellInStage)):
        parse_program("RSQASM 1.0;\ncz q[3], q[3];\n")


def test_duplicate_cell_across_instructions():
    with pytest.raises(DuplicateCellInStage) as info:
        parse_program("RSQASM 1.0;\nh q[0];h q[0];\n")
    assert info.value.line == 2


def test_move_to_itself():
    with pytest.raises(DuplicateCellInStage):
        parse_program("RSQASM 1.0;\nmove q[2], q[2];\n")


def test_missing_semicolon_is_syntax_error():
    with pytest.raises(RsqasmSyntaxError) as info:
        parse_program("RSQASM 1.0;\nh q[0]\n")
    assert info.value.code == "SyntaxError"
    assert info.value.line == 2


def test_malformed_operand():
    with pytest.raises(RsqasmSyntaxError):
        parse_program("RSQASM 1.0;\nh p[0];\n")
    with pytest.raises(RsqasmSyntaxError):
        parse_program("RSQASM 1.0;\nh q[x];\n")


def test_invalid_utf8_bytes_are_diagnosed():
    with pytest.raises(RsqasmSyntaxError):
        parse_program(b"RSQASM 1.0;\n\xff\xfe\n")


@pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
def test_bytes_like_documents_decode_as_bytes_do(kind):
    text = "RSQASM 1.0;\r\nh q[0];\r\nmove q[0], q[1];\n"
    assert parse_program(kind(text.encode("utf-8"))) == parse_program(text)
    for data in (b"RSQASM 1.0;\n\xff\xfe\n", text.encode("utf-8-sig")):
        with pytest.raises(RsqasmError) as raised:
            parse_program(kind(data))
        with pytest.raises(RsqasmError) as from_bytes:
            parse_program(data)
        assert type(raised.value) is type(from_bytes.value)
        assert str(raised.value) == str(from_bytes.value)


def test_stage_count_matches_nonempty_lines():
    text = "RSQASM 1.0;\nh q[0];\n\ncz q[1], q[2];\n// comment\nmove q[3], q[4];\n"
    program = parse_program(text)
    relevant = [
        line for line in text.splitlines()[1:]
        if line.strip() and not line.lstrip().startswith("//")
    ]
    assert len(program.stages) == len(relevant) == 3


# --- programmatic construction guards -----------------------------------

def test_stage_must_be_nonempty():
    with pytest.raises(RsqasmSyntaxError):
        Stage(())


def test_stage_rejects_overlapping_ops():
    with pytest.raises(DuplicateCellInStage):
        Stage((Gate("h", (), (1,)), Move(1, 2)))


def test_gate_rejects_non_finite_angle():
    with pytest.raises(ParamError):
        Gate("rz", (float("nan"),), (0,))


def test_program_rejects_other_major_version():
    with pytest.raises(UnsupportedVersion):
        Program(2, 0, ())


# --- property tests --------------------------------------------------------

_ANGLES = st.floats(allow_nan=False, allow_infinity=False)
_PLAIN = st.sampled_from(["h", "s", "t"])
_ROT = st.sampled_from(["rx", "ry", "rz"])


@st.composite
def _stage(draw):
    pool = draw(st.lists(st.integers(0, 999), unique=True, min_size=2, max_size=8))
    ops = []
    i = 0
    while i < len(pool):
        pick = draw(st.sampled_from(["plain", "rot", "cz", "move"]))
        if pick in ("cz", "move") and i + 1 < len(pool):
            if pick == "cz":
                ops.append(Gate("cz", (), (pool[i], pool[i + 1])))
            else:
                ops.append(Move(pool[i], pool[i + 1]))
            i += 2
        elif pick == "rot":
            ops.append(Gate(draw(_ROT), (draw(_ANGLES),), (pool[i],)))
            i += 1
        else:
            ops.append(Gate(draw(_PLAIN), (), (pool[i],)))
            i += 1
    return Stage(tuple(ops))


_PROGRAMS = st.builds(
    lambda stages: Program(1, 0, tuple(stages)),
    st.lists(_stage(), max_size=6),
)


@given(_PROGRAMS)
def test_serialize_parse_round_trip(program):
    assert parse_program(serialize_program(program)) == program


@given(_PROGRAMS)
def test_canonical_stage_count(program):
    text = serialize_program(program)
    nonempty = [line for line in text.splitlines() if line.strip()]
    assert len(nonempty) == 1 + len(program.stages)


@given(st.one_of(st.text(max_size=200), st.binary(max_size=200)))
def test_parser_never_escapes_diagnostics(document):
    try:
        parse_program(document)
    except RsqasmError:
        pass
