"""``grid.validate_stage`` and ``grid.advance`` against an op-by-op reference,
and the trace's gate-table errors.

``_reference`` is ``validate_stage`` as it was before the cheap legality pass:
one loop that checks every instruction. On random stages, legal and illegal,
with cells off the grid and with or without an interaction radius,
``validate_stage`` must give the same violations in the same order and the
same warnings. ``advance``, which reads no radius, must raise the reference's
diagnosis of an illegal stage with its occupancy untouched, and apply a legal
stage's moves.
"""

import dataclasses

import pytest
from hypothesis import example, given, settings, strategies as st

from na_evalkit import (
    Gate, Move, Program, Stage, parse_program, trace_program, validate_stage,
)
from na_evalkit.errors import IllegalStage, UnknownGate
from na_evalkit.grid import (
    _LEGAL,
    GridState,
    StageDiagnosis,
    Violation,
    ViolationKind,
    advance,
    cell_distance,
)
from helpers import make_spec


def _reference(state, stage, interaction_radius=None):
    violations = []
    warnings = []
    occupied = state.occupancy
    limit = state.cell_count

    for i, op in enumerate(stage.ops):
        in_range = True
        for cell in op.cells:
            if cell >= limit:
                violations.append(Violation(ViolationKind.CELL_OUT_OF_RANGE, i, cell))
                in_range = False
        if not in_range:
            continue
        if isinstance(op, Gate):
            for cell in op.operands:
                if cell not in occupied:
                    violations.append(Violation(ViolationKind.GATE_ON_EMPTY_CELL, i, cell))
            if (
                interaction_radius is not None
                and len(op.operands) == 2
                and cell_distance(op.operands[0], op.operands[1], state.side)
                > interaction_radius
            ):
                warnings.append(
                    f"instruction {i}: {op.name} operands {op.operands[0]} and "
                    f"{op.operands[1]} are farther apart than radius {interaction_radius}"
                )
        else:
            assert isinstance(op, Move)
            if op.src not in occupied:
                violations.append(Violation(ViolationKind.MOVE_FROM_EMPTY_CELL, i, op.src))
            if op.dst in occupied:
                violations.append(Violation(ViolationKind.MOVE_TO_OCCUPIED_CELL, i, op.dst))
    return StageDiagnosis(tuple(violations), tuple(warnings))


@st.composite
def _cases(draw):
    """A state, a stage on it and a radius. Cells run up to two past the grid,
    in the occupancy too. Half of the stages take gate cells and move sources
    among the occupied cells and move targets among the empty cells on the
    grid, so they are legal unless they use an occupied cell off the grid; the
    other half take any cells. So instructions both pass the cheap test and get
diagnosed, often within one stage."""
    side = draw(st.integers(1, 4))
    cells = st.integers(0, side * side + 2)
    occupied = draw(st.lists(cells, unique=True, max_size=side * side + 1))
    state = GridState(side, {cell: atom for atom, cell in enumerate(occupied)})
    free = [c for c in range(side * side + 3) if c not in state.occupancy]
    legal = draw(st.booleans())
    used, ops = set(), []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["h", "rz", "cz", "move"]))
        pool = sorted(set(occupied) - used) if legal else sorted(set(range(side * side + 3)) - used)
        count = 2 if kind in ("cz", "move") else 1
        if kind == "move" and legal:
            srcs, dsts = pool, [c for c in free if c not in used and c < side * side]
            if not srcs or not dsts:
                continue
            picked = [draw(st.sampled_from(srcs)), draw(st.sampled_from(dsts))]
        else:
            if len(pool) < count:
                continue
            picked = draw(st.lists(st.sampled_from(pool), min_size=count, max_size=count,
                                   unique=True))
        used.update(picked)
        if kind == "move":
            ops.append(Move(*picked))
        else:
            ops.append(Gate(kind, (0.5,) if kind == "rz" else (), tuple(picked)))
    if not ops:
        ops = [Gate("h", (), (0,))]
    radius = draw(st.one_of(st.none(), st.sampled_from([0.0, 1.0, 1.5]), st.floats(0, 5)))
    return state, Stage(ops), radius


@settings(max_examples=600, deadline=None)
@given(_cases())
@example((GridState(2, {0: 0, 1: 1, 9: 2}), Stage((Gate("h", (), (9,)),)), None))
@example((GridState(2, {0: 0, 5: 1}), Stage((Move(5, 2),)), None))
@example((GridState(2, {0: 0, 1: 1}), Stage((Move(0, 2), Gate("cz", (), (1, 7)))), None))
@example((GridState(3, {0: 0, 8: 1}), Stage((Gate("cz", (), (0, 8)),)), 1.0))
# a legal cz wider than the radius next to a legal move: a warning, no violation
@example((GridState(3, {0: 0, 4: 1, 8: 2}), Stage((Move(4, 5), Gate("cz", (), (0, 8)))), 2.0))
# a legal one-qubit gate with a radius set passes the cheap test
@example((GridState(2, {0: 0, 3: 1}), Stage((Gate("h", (), (3,)),)), 0.0))
def test_validate_stage_matches_the_reference(case):
    state, stage, radius = case
    before = dict(state.occupancy)
    got = validate_stage(state, stage, radius)
    assert got == _reference(state, stage, radius)
    assert state.occupancy == before
    if got.legal and radius is None:
        assert got == StageDiagnosis()
    if got == StageDiagnosis():
        assert got is _LEGAL


@settings(max_examples=600, deadline=None)
@given(_cases(), st.none() | st.integers(0, 10**4))
@example((GridState(2, {0: 0, 1: 1, 9: 2}), Stage((Gate("h", (), (9,)),)), None), 3)
@example((GridState(2, {0: 0, 1: 1}), Stage((Move(0, 2), Gate("cz", (), (1, 7)))), None), 0)
@example((GridState(3, {0: 0, 4: 1, 8: 2}), Stage((Move(4, 5), Gate("cz", (), (0, 8)))), None), 1)
@example((GridState(2, {0: 0, 3: 1}), Stage((Gate("h", (), (3,)), Move(0, 1))), None), None)
def test_advance_matches_the_reference(case, stage_index):
    state, stage, _ = case  # advance reads no radius
    expected = _reference(state, stage)
    occupancy = dict(state.occupancy)
    if not expected.legal:
        with pytest.raises(IllegalStage) as caught:
            advance(occupancy, state.side, stage, stage_index)
        assert caught.value.diagnosis == expected
        assert caught.value.stage_index == stage_index
        assert occupancy == state.occupancy
        return
    assert advance(occupancy, state.side, stage, stage_index) is None
    after = dict(state.occupancy)
    for op in stage.ops:
        if isinstance(op, Move):
            after[op.dst] = after.pop(op.src)
    assert occupancy == after


def test_legal_stages_share_one_empty_diagnosis():
    state = GridState(3, {0: 0, 4: 1, 8: 2})
    first = validate_stage(state, Stage((Gate("cz", (), (0, 4)), Move(8, 7))))
    second = validate_stage(state, Stage((Gate("h", (), (8,)),)))
    assert first is second and first == StageDiagnosis()


_PROGRAM = Program(1, 0, (
    Stage((Gate("cz", (), (0, 1)),)),
    Stage((Gate("h", (), (0,)), Gate("rz", (0.5,), (1,)))),
))


@pytest.mark.parametrize("table, message", [
    ("gate_times", "no duration configured for gate 'h'"),
    ("gate_fidelities", "no fidelity configured for gate 'h'"),
])
def test_trace_reports_the_first_unconfigured_gate(table, message):
    spec = make_spec(n_qubits=2)
    gates = {name: value for name, value in getattr(spec, table).items() if name not in ("h", "rz")}
    spec = dataclasses.replace(spec, **{table: gates})
    with pytest.raises(UnknownGate) as caught:
        trace_program(_PROGRAM, spec)
    assert str(caught.value) == message


def test_unconfigured_gate_missing_both_entries_reports_its_duration_first():
    spec = make_spec(n_qubits=2)
    spec = dataclasses.replace(
        spec,
        gate_times={"cz": 0.2},
        gate_fidelities={"cz": 0.9996},
    )
    with pytest.raises(UnknownGate, match="^no duration configured for gate 'h'$"):
        trace_program(_PROGRAM, spec)


def test_an_illegal_stage_before_an_unconfigured_gate_is_reported_first():
    spec = dataclasses.replace(make_spec(n_qubits=2), gate_times={"cz": 0.2})
    program = Program(1, 0, (Stage((Move(0, 1),)),) + _PROGRAM.stages)
    with pytest.raises(IllegalStage):
        trace_program(program, spec)


def _one_stage(text):
    return parse_program(f"RSQASM 1.0;\n{text}\n")


def test_an_illegal_stage_is_reported_before_an_unconfigured_gate_in_it():
    spec = dataclasses.replace(make_spec(n_qubits=2), gate_times={"cz": 0.2})
    with pytest.raises(IllegalStage) as caught:
        trace_program(_one_stage("h q[0];move q[5], q[6];"), spec)
    assert caught.value.stage_index == 0
    assert caught.value.diagnosis.violations == (
        Violation(ViolationKind.MOVE_FROM_EMPTY_CELL, 1, 5),
    )


def test_a_legal_stage_reports_its_unconfigured_gate():
    spec = dataclasses.replace(make_spec(n_qubits=2), gate_times={"cz": 0.2})
    with pytest.raises(UnknownGate, match="^no duration configured for gate 'h'$"):
        trace_program(_one_stage("h q[0];move q[1], q[6];"), spec)
