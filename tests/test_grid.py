import math
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from na_evalkit import (
    Gate,
    Program,
    Move,
    Stage,
    apply_stage,
    cell_distance,
    initial_state,
    parse_program,
    serialize_program,
    simulate,
    trace_program,
    validate_stage,
)
from na_evalkit import grid
from na_evalkit.cli import main
from na_evalkit.errors import CellOutOfRange, IllegalStage, InvalidInput
from na_evalkit.grid import ViolationKind
from helpers import GOLDEN_TEXT, arch_document, make_spec, random_legal_program


def test_initial_state_row_major():
    spec = make_spec(side=50, cells=[0, 1, 50])
    state = initial_state(spec)
    assert set(state.occupancy) == {0, 1, 50}


def test_initial_state_case_study(table1_spec):
    state = initial_state(table1_spec)
    assert set(state.occupancy) == set(range(30))
    assert state.occupancy[17] == 17


def test_initial_state_empty():
    spec = make_spec(side=4, cells=[])
    assert initial_state(spec).occupancy == {}


def test_cell_distance_values():
    side = 50
    # (0,0) vs (3,4)
    assert cell_distance(0, 4 * side + 3, side) == pytest.approx(5.0)
    assert cell_distance(7, 7, side) == 0.0
    assert cell_distance(0, side + 1, side) == pytest.approx(math.sqrt(2), abs=1e-5)


def test_cell_distance_out_of_range():
    with pytest.raises(CellOutOfRange):
        cell_distance(0, 16, 4)
    with pytest.raises(CellOutOfRange):
        cell_distance(16, 0, 4)


@pytest.mark.parametrize("a, b, bad", [(0, 16, 16), (16, 0, 16), (17, 16, 17), (-1, 20, -1)])
def test_cell_distance_names_the_first_cell_off_the_grid(a, b, bad):
    with pytest.raises(CellOutOfRange, match=rf"^cell {bad} outside a 4x4 grid$"):
        cell_distance(a, b, 4)


@given(st.data())
def test_cell_distance_is_a_metric(data):
    side = data.draw(st.integers(2, 40))
    cells = st.integers(0, side * side - 1)
    a, b, c = data.draw(cells), data.draw(cells), data.draw(cells)
    assert cell_distance(a, b, side) == cell_distance(b, a, side)
    assert (cell_distance(a, b, side) == 0) == (a == b)
    assert cell_distance(a, c, side) <= (
        cell_distance(a, b, side) + cell_distance(b, c, side) + 1e-9
    )


def _kinds(diagnosis):
    return [v.kind for v in diagnosis.violations]


def test_validate_move_into_empty_trap():
    spec = make_spec(side=10, cells=[3])
    state = initial_state(spec)
    assert validate_stage(state, Stage((Move(3, 4),))).legal


def test_validate_inverted_move():
    spec = make_spec(side=10, cells=[3])
    state = initial_state(spec)
    diagnosis = validate_stage(state, Stage((Move(4, 3),)))
    assert not diagnosis.legal
    assert set(_kinds(diagnosis)) == {
        ViolationKind.MOVE_FROM_EMPTY_CELL,
        ViolationKind.MOVE_TO_OCCUPIED_CELL,
    }


def test_validate_gate_on_empty_cell():
    spec = make_spec(side=10, cells=[0])
    diagnosis = validate_stage(initial_state(spec), Stage((Gate("h", (), (5,)),)))
    assert _kinds(diagnosis) == [ViolationKind.GATE_ON_EMPTY_CELL]


def test_validate_distance_is_irrelevant_for_legality():
    spec = make_spec(side=10, cells=[0, 99])
    diagnosis = validate_stage(initial_state(spec), Stage((Gate("cz", (), (0, 99)),)))
    assert diagnosis.legal


def test_validate_cell_out_of_range():
    spec = make_spec(side=2, cells=[0])
    diagnosis = validate_stage(initial_state(spec), Stage((Gate("h", (), (7,)),)))
    assert _kinds(diagnosis) == [ViolationKind.CELL_OUT_OF_RANGE]


def test_interaction_radius_is_advisory_only():
    spec = make_spec(side=10, cells=[0, 99])
    stage = Stage((Gate("cz", (), (0, 99)),))
    diagnosis = validate_stage(initial_state(spec), stage, interaction_radius=2.0)
    assert diagnosis.legal
    assert len(diagnosis.warnings) == 1


@pytest.mark.parametrize("radius", [math.nan, -1.0])
def test_validate_stage_rejects_a_negative_or_nan_radius(radius):
    # NaN would silence every warning, and -1.0 warn on every cz
    spec = make_spec(side=10, n_qubits=30)
    stage = Stage((Gate("cz", (), (0, 29)),))
    with pytest.raises(InvalidInput, match="^interaction radius must be >= 0, got "):
        validate_stage(initial_state(spec), stage, interaction_radius=radius)


def test_apply_single_move():
    spec = make_spec(side=10, cells=[3])
    state = apply_stage(initial_state(spec), Stage((Move(3, 4),)))
    assert state.occupancy == {4: 0}


def test_apply_gates_only_keeps_occupancy():
    spec = make_spec(side=10, cells=[0, 1])
    before = initial_state(spec)
    after = apply_stage(before, Stage((Gate("cz", (), (0, 1)),)))
    assert after.occupancy == before.occupancy


def test_golden_text_is_illegal_from_dense_placement():
    # hand simulation: stage 3 empties cell 3 and fills cell 4, so stage 4's
    # cz on cell 3 and move into cell 4 must both be diagnosed
    spec = make_spec(side=50, cells=[0, 1, 2, 3, 4, 5])
    program = parse_program(GOLDEN_TEXT)
    state = initial_state(spec)
    for stage in program.stages[:2]:
        state = apply_stage(state, stage)
    # stage 3 moves 3 -> 4: illegal already (4 occupied) under dense placement
    diagnosis = validate_stage(state, program.stages[2])
    assert _kinds(diagnosis) == [ViolationKind.MOVE_TO_OCCUPIED_CELL]

    # from a placement leaving cell 4 free, stage 3 passes and stage 4 fails
    spec2 = make_spec(side=50, cells=[0, 1, 2, 3, 5])
    state2 = initial_state(spec2)
    for stage in program.stages[:3]:
        state2 = apply_stage(state2, stage)
    diagnosis2 = validate_stage(state2, program.stages[3])
    assert not diagnosis2.legal
    assert set(_kinds(diagnosis2)) == {
        ViolationKind.GATE_ON_EMPTY_CELL,       # cz touches vacated cell 3
        ViolationKind.MOVE_TO_OCCUPIED_CELL,    # move into now-occupied cell 4
    }
    with pytest.raises(IllegalStage):
        simulate(initial_state(spec2), program)


def test_apply_stage_raises_with_diagnosis():
    spec = make_spec(side=10, cells=[3])
    with pytest.raises(IllegalStage) as info:
        apply_stage(initial_state(spec), Stage((Move(4, 3),)), stage_index=7)
    assert "stage 7" in str(info.value)
    assert not info.value.diagnosis.legal


def test_occupancy_conservation_random_programs():
    spec = make_spec(side=6, cells=list(range(7)))
    rng = random.Random(20240817)
    for _ in range(150):
        program = random_legal_program(rng, spec)
        state = initial_state(spec)
        for stage in program.stages:
            after = apply_stage(state, stage)
            assert len(after.occupancy) == len(state.occupancy)
            assert sorted(after.occupancy.values()) == sorted(state.occupancy.values())
            state = after


def test_apply_stage_order_independent():
    spec = make_spec(side=6, cells=list(range(7)))
    rng = random.Random(7)
    for _ in range(100):
        program = random_legal_program(rng, spec, max_stages=4)
        state = initial_state(spec)
        for stage in program.stages:
            ops = list(stage.ops)
            rng.shuffle(ops)
            permuted = Stage(tuple(ops))
            assert apply_stage(state, permuted).occupancy == apply_stage(state, stage).occupancy
            state = apply_stage(state, stage)


def test_simulate_and_apply_stage_leave_their_input_unchanged():
    spec = make_spec(side=6, cells=list(range(7)))
    rng = random.Random(13)
    for _ in range(50):
        program = random_legal_program(rng, spec, max_stages=6)
        state = initial_state(spec)
        before = dict(state.occupancy)
        final = simulate(state, program)
        assert state.occupancy == before
        for stage in program.stages:
            after = apply_stage(state, stage)
            assert state.occupancy == before
            assert after.occupancy is not state.occupancy
            state = after
            before = dict(state.occupancy)
        assert state.occupancy == final.occupancy


def test_illegal_stage_leaves_occupancy_untouched():
    occupancy = {3: 0, 4: 1}
    stage = Stage((Move(3, 5), Move(6, 7)))
    with pytest.raises(IllegalStage):
        grid.advance(occupancy, 10, stage)
    assert occupancy == {3: 0, 4: 1}


def test_validate_checks_each_stage_once(tmp_path, monkeypatch, capsys):
    spec = make_spec(side=6, cells=list(range(7)))
    program = Program(1, 0, ())
    rng = random.Random(3)
    while len(program.stages) < 5:
        program = random_legal_program(rng, spec, max_stages=12)
    circuit = tmp_path / "circuit.rsqasm"
    circuit.write_text(serialize_program(program))
    arch = tmp_path / "arch.json"
    arch.write_text(arch_document(side=6, cells=list(range(7))))

    calls = []
    original = grid.advance

    def counting(occupancy, side, stage, *args, **kwargs):
        calls.append(stage)
        return original(occupancy, side, stage, *args, **kwargs)

    monkeypatch.setattr(grid, "advance", counting)
    assert main(["validate", str(circuit), str(arch)]) == 0
    assert calls == list(program.stages)


@pytest.mark.parametrize("case", ["dense", "table1"])
def test_legal_golden_stages_never_reach_the_diagnosis(case, monkeypatch, capsys):
    def diagnosed(state, stage, *args):
        raise AssertionError(f"a legal stage was diagnosed: {stage!r}")

    monkeypatch.setattr(grid, "validate_stage", diagnosed)
    monkeypatch.chdir(Path(__file__).parent / "golden" / case)
    runs = [["validate", "circuit.rsqasm", "arch.json"], ["normalize", "circuit.rsqasm", "arch.json"]]
    for circuit in ("circuit.rsqasm", "collapsed.rsqasm"):
        for model in ("unified", "hybridmapper", "dasatom", "enola"):
            runs.append(["evaluate", circuit, "arch.json", "--model", model])
    for argv in runs:
        assert main(argv) == 0, capsys.readouterr().err


def test_grid_states_built_do_not_grow_with_the_stage_count(tmp_path, monkeypatch):
    spec = make_spec(side=6, cells=list(range(7)))
    arch = tmp_path / "arch.json"
    arch.write_text(arch_document(side=6, cells=list(range(7))))
    built = []
    original = grid.GridState
    monkeypatch.setattr(grid, "GridState", lambda *args: built.append(args) or original(*args))

    def built_for(stage_count):
        rng = random.Random(stage_count)
        program = Program(1, 0, ())
        while len(program.stages) < stage_count:
            program = random_legal_program(rng, spec, max_stages=2 * stage_count)
        circuit = tmp_path / "circuit.rsqasm"
        circuit.write_text(serialize_program(program))
        built.clear()
        trace_program(program, spec)
        simulate(initial_state(spec), program)
        assert main(["validate", str(circuit), str(arch)]) == 0
        return len(built)

    assert built_for(40) == built_for(4)
