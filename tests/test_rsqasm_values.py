"""Value semantics of the instruction records ``Gate``, ``Move`` and ``Stage``.

They are immutable tuples of their fields rather than frozen dataclasses. The
frozen dataclasses they replaced are kept below, verbatim but for their names,
as the oracle for every constructor's error class and message.
"""

import copy
import dataclasses
import math
import pickle
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from na_evalkit import Gate, Move, Program, Stage, parse_program
from na_evalkit.errors import (
    ArityError,
    DuplicateCellInStage,
    ParamError,
    RsqasmError,
    RsqasmSyntaxError,
    UnknownInstruction,
    UnsupportedVersion,
)
from na_evalkit.rsqasm import NATIVE_GATES, ONE_PARAM_GATES, gate_arity, serialize_program

TEXT = (
    "RSQASM 1.0;\n"
    "rz(0.5) q[1];cz q[2], q[3];\n"
    "move q[4], q[5];h q[6];\n"
)


@dataclass(frozen=True)
class OldGate:
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
class OldMove:
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


@dataclass(frozen=True)
class OldStage:
    ops: tuple

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


def _outcome(build, *args):
    """The built value's fields in order, or the error's class and message."""
    try:
        value = build(*args)
    except RsqasmError as exc:
        return type(exc), str(exc)
    if dataclasses.is_dataclass(value):
        return tuple(getattr(value, f.name) for f in dataclasses.fields(value))
    return tuple(getattr(value, name) for name in value.__match_args__)


_CELLS = st.integers(-2, 6)
_NAMES = st.sampled_from(sorted(NATIVE_GATES) + ["move", "CZ", "x", ""])
_PARAMS = st.lists(
    st.sampled_from([0.5, -1.25, 0.0, math.inf, -math.inf, math.nan]), max_size=2
).map(tuple)


@settings(max_examples=400, deadline=None)
@given(_NAMES, _PARAMS, st.lists(_CELLS, max_size=3).map(tuple))
def test_gate_checks_match_the_dataclass(name, params, operands):
    assert _outcome(Gate, name, params, operands) == _outcome(OldGate, name, params, operands)


@settings(max_examples=200, deadline=None)
@given(_CELLS, _CELLS)
def test_move_checks_match_the_dataclass(src, dst):
    assert _outcome(Move, src, dst) == _outcome(OldMove, src, dst)


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.one_of(
        st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda m: m[0] != m[1]),
        st.tuples(st.integers(0, 6)),
    ),
    max_size=4,
))
def test_stage_checks_match_the_dataclass(shapes):
    new = [Move(*s) if len(s) == 2 else Gate("h", (), s) for s in shapes]
    old = [OldMove(*s) if len(s) == 2 else OldGate("h", (), s) for s in shapes]
    got = _outcome(Stage, tuple(new))
    expected = _outcome(OldStage, tuple(old))
    if isinstance(expected[0], type):
        assert got == expected
    else:
        assert got == (tuple(new),)


@pytest.mark.parametrize("build, args, error, message", [
    (Gate, ("foo", (), (1,)), UnknownInstruction, "unknown gate 'foo'"),
    (Gate, ("h", (0.5,), (1,)), ParamError, "h takes 0 parameter(s), got 1"),
    (Gate, ("rz", (), (1,)), ParamError, "rz takes 1 parameter(s), got 0"),
    (Gate, ("rz", (math.inf,), (1, 2)), ParamError, "rz parameter must be finite, got inf"),
    (Gate, ("cz", (), (1,)), ArityError, "cz takes 2 operand(s), got 1"),
    (Gate, ("h", (), ()), ArityError, "h takes 1 operand(s), got 0"),
    (Gate, ("cz", (), (1, -2)), RsqasmSyntaxError, "negative cell index in cz"),
    (Move, (-1, -1), RsqasmSyntaxError, "negative cell index in move"),
    (Move, (3, 3), DuplicateCellInStage, "move with identical source and target cell 3"),
    (Stage, ((),), RsqasmSyntaxError, "a stage must contain at least one instruction"),
    (Stage, ([Gate("cz", (), (1, 2)), Move(0, 3), Gate("h", (), (3,)), Gate("s", (), (1,))],),
     DuplicateCellInStage, "cell 3 appears in more than one operand within the stage"),
])
def test_constructor_errors(build, args, error, message):
    with pytest.raises(error) as caught:
        build(*args)
    assert type(caught.value) is error and str(caught.value) == message


def test_equality_compares_type_and_fields():
    gate, move = Gate("cz", (), (1, 2)), Move(1, 2)
    stage = Stage((gate, Move(3, 4)))
    assert gate == Gate("cz", (), (1, 2)) and not gate != Gate("cz", (), (1, 2))
    assert gate != Gate("cz", (), (2, 1)) and not gate == Gate("cz", (), (2, 1))
    assert move == Move(1, 2) and move != Move(2, 1)
    for record, fields in [(gate, ("cz", (), (1, 2))), (move, (1, 2)), (stage, stage.ops)]:
        assert record != fields and fields != record
        assert not record == fields and not fields == record
        assert record != list(fields) and record != 5
    assert gate != move and Move(1, 2) != Stage((Move(1, 2),))
    assert stage == Stage([gate, Move(3, 4)]) and stage != Stage((Move(3, 4), gate))
    assert stage.ops == (gate, Move(3, 4)) and type(stage.ops) is tuple
    # a stage is the tuple of its instructions
    assert tuple(stage) == stage.ops and len(stage) == 2 and stage[0] == gate


def test_hash_agrees_with_equality():
    records = [Gate("cz", (), (1, 2)), Gate("cz", (), (1, 2)), Move(1, 2), Move(1, 2),
               Stage((Move(1, 2),)), Stage((Move(1, 2),))]
    for a in records:
        for b in records:
            if a == b:
                assert hash(a) == hash(b)
    assert len(set(records)) == 3
    assert len({Move(1, 2), (1, 2)}) == 2


def test_repr_is_exact():
    program = parse_program(TEXT)
    assert repr(Gate("rz", (0.5,), (1,))) == "Gate(name='rz', params=(0.5,), operands=(1,))"
    assert repr(Move(4, 5)) == "Move(src=4, dst=5)"
    assert repr(program.stages[1]) == (
        "Stage(ops=(Move(src=4, dst=5), Gate(name='h', params=(), operands=(6,))))"
    )


@pytest.mark.parametrize("record, field", [
    (Gate("h", (), (1,)), "name"), (Gate("h", (), (1,)), "operands"), (Gate("h", (), (1,)), "cells"),
    (Move(1, 2), "src"), (Move(1, 2), "dst"), (Stage((Move(1, 2),)), "ops"),
    (Move(1, 2), "new_field"),
])
def test_attributes_cannot_be_set_or_deleted(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 7)
    with pytest.raises(AttributeError):
        delattr(record, field)


def test_fields_and_cells_read_back():
    gate, move = Gate("rz", (0.5,), (3,)), Move(4, 5)
    assert (gate.name, gate.params, gate.operands, gate.cells) == ("rz", (0.5,), (3,), (3,))
    assert (move.src, move.dst, move.cells) == (4, 5, (4, 5))
    assert type(move.cells) is tuple and type(gate.cells) is tuple
    assert not dataclasses.is_dataclass(gate)


@pytest.mark.parametrize("clone", [
    copy.copy,
    copy.deepcopy,
    *[lambda p, proto=proto: pickle.loads(pickle.dumps(p, proto))
      for proto in range(pickle.HIGHEST_PROTOCOL + 1)],
])
def test_parsed_program_round_trips(clone):
    program = parse_program(TEXT)
    twin = clone(program)
    assert twin == program and isinstance(twin, Program)
    for stage, original in zip(twin.stages, program.stages):
        assert type(stage) is Stage and stage == original
        for op, op_original in zip(stage.ops, original.ops):
            assert type(op) is type(op_original) and op == op_original
            assert repr(op) == repr(op_original)


def test_class_patterns_match_fields():
    stage = parse_program(TEXT).stages[0]
    match stage:
        case Stage([Gate("rz", (angle,), (cell,)), Gate(name, operands=(a, b))]):
            assert (angle, cell, name, a, b) == (0.5, 1, "cz", 2, 3)
        case _:
            pytest.fail("no pattern matched")
    match Move(4, 5):
        case Move(src, dst=5):
            assert src == 4
        case _:
            pytest.fail("no pattern matched")


@pytest.mark.parametrize("a, b", [
    (Gate("h", (), (1,)), Gate("h", (), (2,))),
    (Move(1, 2), Move(1, 3)),
    (Gate("h", (), (1,)), Move(1, 2)),
    (Stage((Move(1, 2),)), Stage((Move(1, 3),))),
    (Move(1, 2), (1, 3)),
    ((1, 3), Move(1, 2)),
    (Gate("h", (), (1,)), ("h", (), (2,))),
    (("h", (), (2,)), Gate("h", (), (1,))),
    (Stage((Move(1, 2),)), (Move(1, 3),)),
    ((Move(1, 3),), Stage((Move(1, 2),))),
])
def test_records_are_unordered(a, b):
    for compare in (lambda: a < b, lambda: a <= b, lambda: a > b, lambda: a >= b):
        with pytest.raises(TypeError):
            compare()


# --- values the text cannot carry ------------------------------------------------

def _round_trip(op):
    program = Program(1, 0, (Stage((op,)),))
    return parse_program(serialize_program(program)) == program


@pytest.mark.parametrize("build, args, error, message", [
    (Move, (1.5, 2), RsqasmSyntaxError, "cell index in move must be an int, got 1.5"),
    (Move, (True, 2), RsqasmSyntaxError, "cell index in move must be an int, got True"),
    (Move, (2, False), RsqasmSyntaxError, "cell index in move must be an int, got False"),
    (Gate, ("rz", (True,), (0,)), ParamError, "rz parameter must be a number, got True"),
    (Gate, ("rz", ("0.5",), (0,)), ParamError, "rz parameter must be a number, got '0.5'"),
    (Gate, ("h", (), ("3",)), RsqasmSyntaxError, "cell index in h must be an int, got '3'"),
    (Gate, ("cz", (), (0, 1.0)), RsqasmSyntaxError, "cell index in cz must be an int, got 1.0"),
    (Gate, ("rz", (-10**400,), (0,)), ParamError, "rz parameter must be finite, got -inf"),
], ids=["move-float", "move-bool", "move-bool-dst", "gate-bool-angle", "gate-str-angle",
        "gate-str-cell", "gate-float-cell", "gate-huge-int-angle"])
def test_values_the_text_cannot_carry_are_refused(build, args, error, message):
    with pytest.raises(error) as caught:
        build(*args)
    assert type(caught.value) is error and str(caught.value) == message


@pytest.mark.parametrize("args, fields", [
    (("cz", (), [0, 1]), ("cz", (), (0, 1))),
    (("rz", [0.5], (0,)), ("rz", (0.5,), (0,))),
    (("rz", (1,), (0,)), ("rz", (1.0,), (0,))),
], ids=["list-operands", "list-params", "int-angle"])
def test_gate_stores_tuples_and_float_angles(args, fields):
    gate = Gate(*args)
    assert (gate.name, gate.params, gate.operands) == fields
    assert type(gate.params) is tuple and type(gate.operands) is tuple
    assert all(type(angle) is float for angle in gate.params)
    assert gate == Gate(*fields) and _round_trip(gate)


@pytest.mark.parametrize("args, error, message", [
    ((1, True, ()), UnsupportedVersion, "version number must be an int, got True"),
    ((True, 0, ()), UnsupportedVersion, "version number must be an int, got True"),
    ((1, -1, ()), UnsupportedVersion, "negative minor version -1"),
    ((1.0, 0.5, ()), UnsupportedVersion, "version number must be an int, got 1.0"),
    ((1, 0.5, ()), UnsupportedVersion, "version number must be an int, got 0.5"),
    ((1, 0, (("x",),)), RsqasmSyntaxError, "a program holds Stage records, got ('x',)"),
    ((1, 0, (Gate("h", (), (0,)),)), RsqasmSyntaxError,
     "a program holds Stage records, got Gate(name='h', params=(), operands=(0,))"),
], ids=["bool-minor", "bool-major", "negative-minor", "float-version", "float-minor",
        "tuple-stage", "gate-stage"])
def test_program_refuses_what_its_header_cannot_carry(args, error, message):
    with pytest.raises(error) as caught:
        Program(*args)
    assert type(caught.value) is error and str(caught.value) == message


def test_program_stores_its_stages_as_a_tuple():
    stage = Stage((Gate("h", (), (0,)),))
    program = Program(1, 0, [stage])
    assert type(program.stages) is tuple and program.stages == (stage,)
    assert parse_program(serialize_program(program)) == program
    assert Program(1, 0, iter([stage])) == program
