"""The canonical form in both directions: the parser's fast path for lines that
``serialize_program`` writes, and the serializer's byte-exact output.

The fast path, ``_canonical_stage``, reads a line with one match call and
builds a stage without the record constructors; blanks around a line never
send it elsewhere, since the parse drops them first. It may only take a line or
decline it: every line it declines, and every error, is decided by
``_parse_stage_line``, and so must match ``rsqasm_reference``. The serializer is compared with the per-instruction
rendering it replaced, kept below verbatim as the oracle, both as a string
and written to a stream.
"""

import gc
import io
import random
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import rsqasm_reference as reference
from na_evalkit import Gate, Move, Program, Stage, parse_program, rsqasm
from na_evalkit.errors import RsqasmError
from na_evalkit.rsqasm import Instruction, _canonical_stage, serialize_program

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CIRCUITS = sorted(GOLDEN.glob("*/*.rsqasm"))


# --- the replaced serializer, verbatim -----------------------------------------

def _render_instruction(op: Instruction) -> str:
    if isinstance(op, Move):
        return f"move q[{op.src}], q[{op.dst}];"
    head = f"{op.name}({op.params[0]!r})" if op.params else op.name
    args = ", ".join(f"q[{c}]" for c in op.operands)
    return f"{head} {args};"


def reference_serialize_program(program: Program) -> str:
    lines = [f"RSQASM {program.version_major}.{program.version_minor};"]
    for stage in program.stages:
        lines.append("".join(_render_instruction(op) for op in stage))
    return "\n".join(lines) + "\n"


# --- drawn programs ------------------------------------------------------------

_ANGLES = st.sampled_from([-0.0, 0.0, 1e-300, 5e-324, 0.1, -2.5, 1.7976931348623157e308]) | st.floats(
    allow_nan=False, allow_infinity=False
)
_CELLS = st.sampled_from([0, 10**18 - 1]) | st.integers(0, 10**18 - 1)  # up to 18 digits


@st.composite
def _stages(draw, cell_values=_CELLS):
    cells = draw(st.lists(cell_values, unique=True, min_size=1, max_size=8))
    ops = []
    while cells:
        kind = draw(st.sampled_from(["one", "rot", "cz", "move"]))
        if kind in ("cz", "move") and len(cells) >= 2:
            a, b = cells.pop(), cells.pop()
            ops.append(Gate("cz", (), (a, b)) if kind == "cz" else Move(a, b))
        elif kind == "rot":
            name = draw(st.sampled_from(["rx", "ry", "rz"]))
            ops.append(Gate(name, (draw(_ANGLES),), (cells.pop(),)))
        else:
            ops.append(Gate(draw(st.sampled_from(["h", "s", "t"])), (), (cells.pop(),)))
    return Stage(tuple(ops))


_PROGRAMS = st.builds(
    lambda minor, stages: Program(1, minor, tuple(stages)),
    st.integers(0, 12),
    st.lists(_stages(), max_size=8),
)


def _general_path_forbidden(text, line):
    raise AssertionError(f"line {line} left the fast path: {text!r}")


def _parse_on_the_fast_path(document):
    with mock.patch.object(rsqasm, "_parse_stage_line", _general_path_forbidden):
        return parse_program(document)


def _assert_same_records(got: Program, expected: Program):
    """Equal, and equal in repr: the same types and the sign of every zero."""
    assert got == expected
    assert [repr(stage) for stage in got.stages] == [repr(stage) for stage in expected.stages]


# --- the serializer is byte-identical ----------------------------------------------

def _streamed(program: Program) -> str:
    out = io.StringIO()
    assert serialize_program(program, out) is None
    return out.getvalue()


@settings(max_examples=200, deadline=None)
@given(_PROGRAMS)
@example(Program(1, 0, (Stage((Gate("rz", (-0.0,), (0,)), Gate("rx", (1e-300,), (1,)),
                               Gate("ry", (0.1,), (2,)), Move(3, 4), Gate("cz", (), (5, 6)))),)))
def test_serializer_matches_the_per_instruction_rendering(program):
    assert serialize_program(program) == _streamed(program) == reference_serialize_program(program)


@pytest.mark.parametrize("path", GOLDEN_CIRCUITS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_serializer_rewrites_the_golden_circuits(path):
    text = path.read_text(encoding="utf-8")
    program = parse_program(text)
    assert serialize_program(program) == _streamed(program) == reference_serialize_program(program) == text


# --- the fast path is really taken -------------------------------------------------

SURROUNDS = {"": "", " ": "blank-", "\t ": "tab-blank-"}  # the blanks around each line, by id


def _surrounded(text: str, surround: str, newline: str) -> str:
    """Canonical text with ``surround`` before and after every line, each ended by ``newline``."""
    return "".join(f"{surround}{line}{surround}{newline}" for line in text.split("\n")[:-1])


@settings(max_examples=200, deadline=None)
@given(_PROGRAMS, st.sampled_from(list(SURROUNDS)), st.sampled_from(["\n", "\r\n"]))
def test_serialized_programs_take_the_fast_path(program, surround, newline):
    document = _surrounded(serialize_program(program), surround, newline)
    got = _parse_on_the_fast_path(document)
    assert got == program
    _assert_same_records(got, reference.parse_program(document))


@pytest.mark.parametrize("surround, newline", [
    pytest.param(surround, newline, id=prefix + name)
    for surround, prefix in SURROUNDS.items() for newline, name in [("\n", "lf"), ("\r\n", "crlf")]
])
@pytest.mark.parametrize("path", GOLDEN_CIRCUITS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_golden_circuits_take_the_fast_path(path, surround, newline):
    document = _surrounded(path.read_text(encoding="utf-8"), surround, newline).encode()
    _assert_same_records(_parse_on_the_fast_path(document), reference.parse_program(document))


def test_the_spy_sees_the_general_path():
    with pytest.raises(AssertionError, match="left the fast path"):
        _parse_on_the_fast_path("RSQASM 1.0;\nh  q[0];\n")


# --- the fast path declines and never decides ----------------------------------

@pytest.mark.parametrize("line", [
    "h(0.5) q[0];",
    "rz q[0];",
    "cz q[0];",
    "h q[0], q[1];",
    "move(0.5) q[0], q[1];",
    "move q[0];",
    "move q[1], q[1];",
    "move q[01], q[1];",
    "cx q[0], q[1];",
    "H q[0];",
    "rz(1e999) q[0];",
    "h q[0];cz q[0], q[1];",
    "h q[7];cz q[1], q[007];",
    " h q[0];",
    "h  q[0];",
    "h q[0]; ",
    "h q[0];\tcz q[1], q[2];",
    "h q[0]; // note",
    "h q[1234567890123456789];",
    "h q[" + "9" * 5000 + "];",
])
def test_the_fast_path_declines_and_the_general_path_decides(line):
    assert _canonical_stage(line, rsqasm._shared()) is None
    document = f"RSQASM 1.0;\n{line}\n"
    try:
        expected = reference.parse_program(document)
    except RsqasmError as exc:
        expected = exc
    if isinstance(expected, Program):
        _assert_same_records(parse_program(document), expected)
        return
    with pytest.raises(RsqasmError) as caught:
        parse_program(document)
    got = caught.value
    assert (type(got), got.line, got.column) == (type(expected), expected.line, expected.column)


@pytest.mark.parametrize("line", [
    "h q[007];",
    "rz(+1.) q[1];",
    "rx(.5e-3) q[2];cz q[3], q[4];",
    "ry(-0) q[999999999999999999];",
])
def test_the_fast_path_takes_what_the_general_path_gives(line):
    stage = _canonical_stage(line, rsqasm._shared())
    assert stage is not None
    assert repr(stage) == repr(rsqasm._parse_stage_line(line, 2))


# --- one parse shares equal records --------------------------------------------

def _assert_shared(program: Program):
    """Equal cells, one-cell operand tuples and one-qubit records without an
    angle are one object each, and so is every gate name."""
    first = {}
    for stage in program.stages:
        for op in stage:
            for cell in op.cells:
                assert first.setdefault(cell, cell) is cell
            if type(op) is Gate:
                assert first.setdefault(op.name, op.name) is op.name
                if len(op.operands) == 1:
                    assert first.setdefault(("operands", op.operands), op.operands) is op.operands
                    if not op.params:
                        assert first.setdefault(("gate", op.name, op.operands), op) is op


def _parts(program: Program) -> list:
    """Every record, operand tuple and cell of a program."""
    found = []
    for stage in program.stages:
        for op in stage:
            found += [op, *op] if type(op) is Move else [op, op.operands, *op.operands]
    return found


def test_one_parse_shares_equal_cells_and_one_qubit_records():
    program = parse_program(
        "RSQASM 1.0;\n"
        "h q[300];\n"
        "cz q[300], q[301];\n"
        "h q[300];rz(0.5) q[301];\n"
        "cz q[301], q[300];\n"
        "rz(0.5) q[301];move q[300], q[302];\n"
    )
    (h0,), (cz1,), (h2, rz2), (cz3,), (rz4, move4) = program.stages
    assert h0 is h2
    assert h0.operands[0] is cz1.operands[0] is cz3.operands[1] is move4.src
    assert cz1.operands[1] is rz2.operands[0] is cz3.operands[0]
    assert rz2.operands is rz4.operands
    assert cz1.name is cz3.name and rz2.name is rz4.name
    _assert_shared(program)


def test_two_parses_share_no_record():
    text = "RSQASM 1.0;\nh q[300];\ncz q[300], q[301];\nrz(0.5) q[302];move q[303], q[304];\n"
    first, second = parse_program(text), parse_program(text)
    _assert_same_records(first, second)
    assert not {id(part) for part in _parts(first)} & {id(part) for part in _parts(second)}


_SMALL_GRID_CELLS = st.integers(0, 5) | st.integers(300, 305)  # repeats are common


@settings(max_examples=200, deadline=None)
@given(st.lists(_stages(_SMALL_GRID_CELLS), max_size=30))
def test_shared_records_equal_the_reference_on_small_grids(stages):
    document = serialize_program(Program(1, 0, tuple(stages)))
    got = _parse_on_the_fast_path(document)
    _assert_same_records(got, reference.parse_program(document))
    _assert_shared(got)


def _seeded_circuit(
    rng: random.Random, stages: int, pool: range = range(1000, 1200)
) -> list[list[tuple]]:
    """Stages of (name, angle text or None, cell digits) on the cells of ``pool``,
    by default 200 cells past the small ints."""
    circuit = []
    for _ in range(stages):
        cells = [str(c) for c in rng.sample(pool, rng.randint(1, 6))]
        ops = []
        while cells:
            kind = rng.choice(["h", "s", "t", "h", "rz", "cz", "move"])
            if kind in ("cz", "move") and len(cells) >= 2:
                ops.append((kind, None, (cells.pop(), cells.pop())))
            elif kind == "rz":
                ops.append((kind, repr(rng.uniform(-3, 3)), (cells.pop(),)))
            elif kind not in ("cz", "move"):
                ops.append((kind, None, (cells.pop(),)))
        circuit.append(ops)
    return circuit


def _construct(circuit) -> Program:
    """The program built record by record through the constructors."""
    stages = []
    for ops in circuit:
        records = []
        for name, angle, cells in ops:
            operands = tuple(int(c) for c in cells)
            if name == "move":
                records.append(Move(*operands))
            else:
                records.append(Gate(name, () if angle is None else (float(angle),), operands))
        stages.append(Stage(tuple(records)))
    return Program(1, 0, tuple(stages))


def _retained_bytes(build, *args) -> int:
    """Bytes allocated by ``build(*args)`` and still held by its result."""
    gc.collect()
    tracemalloc.start()
    try:
        built = build(*args)
        return tracemalloc.get_traced_memory()[0] if built else 0
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("surround", [" ", "\t "], ids=["blank", "tab-blank"])
def test_blanks_around_the_lines_retain_no_more_than_the_canonical_text(surround):
    text = (GOLDEN / "dense" / "circuit.rsqasm").read_text(encoding="utf-8")
    canonical = _retained_bytes(parse_program, text)
    blanked = _retained_bytes(parse_program, _surrounded(text, surround, "\n"))
    # equal within 100 bytes on CPython 3.11; the general grammar shares no
    # records, and retained 32 KiB more than the canonical text's 76 KiB
    assert blanked <= canonical + 4 * 1024, (blanked, canonical)


def test_a_parse_retains_much_less_than_the_records_built_one_by_one():
    circuit = _seeded_circuit(random.Random(24), stages=3000)
    text = serialize_program(_construct(circuit))
    ratio = _retained_bytes(parse_program, text) / _retained_bytes(_construct, circuit)
    # 0.40 on CPython 3.11 on three seeds; a parse that shares nothing gives 1.04
    assert ratio < 0.5, ratio


def test_the_one_qubit_memo_is_keyed_by_the_operands_its_records_hold():
    circuit = _seeded_circuit(random.Random(31), stages=500, pool=range(1000, 1100))
    lines = serialize_program(_construct(circuit)).splitlines()[1:]
    lines += ["h q[01];", "h q[1];"]  # two digit strings, one cell: one record
    shared = rsqasm._shared()
    stages = [_canonical_stage(line, shared) for line in lines]
    assert stages[-2][0] is stages[-1][0]
    memos = shared[2]
    assert sum(map(len, memos.values())) > 250
    for name, records in memos.items():
        for key, op in records.items():
            assert type(key) is tuple and key is op[2], (name, key, op)
            assert op == Gate(name, (), key)


def test_a_parse_holds_few_transient_bytes_beyond_what_it_retains():
    # 2500 distinct cells, as on the benchmark's 50x50 grids: a memo keyed by
    # each line's digit strings keeps one string per one-qubit gate name and cell
    circuit = _seeded_circuit(random.Random(25), stages=3000, pool=range(1000, 3500))
    text = serialize_program(_construct(circuit))
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        program = parse_program(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert program.stages
    ratio = (peak - held) / (held - start)
    # 0.33 on CPython 3.11 on seeds 1-3 and 25; 0.41 with the memo keyed by digits
    assert ratio < 0.37, ratio
