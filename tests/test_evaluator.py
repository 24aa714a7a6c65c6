import dataclasses
import math
import random

import pytest

from na_evalkit import (
    Gate,
    Move,
    Program,
    apply_stage,
    cell_distance,
    effective_coherence_time,
    evaluate_dasatom,
    evaluate_enola,
    evaluate_unified,
    initial_state,
    instruction_duration,
    parse_program,
    total_runtime,
)
from na_evalkit.errors import IllegalStage, NegativeIdleTime, UnknownGate
from na_evalkit.evaluator import StageKind, decoherence_fidelity, movement_fidelity
from helpers import make_spec, random_legal_program, random_stage

# stage shapes mirror the golden example but land on cells that keep every
# stage legal on the 50-wide grid: both moves span exactly one cell
LEGAL_ANALOG_TEXT = (
    "RSQASM 1.0;\n"
    "h q[0];\n"
    "cz q[2], q[1];\n"
    "move q[3], q[4];\n"
    "cz q[0], q[5];cz q[1], q[53];move q[2], q[52];\n"
)
LEGAL_ANALOG_CELLS = [0, 1, 2, 3, 5, 53]


def test_gate_durations(table1_spec):
    assert instruction_duration(Gate("cz", (), (0, 1)), table1_spec) == 0.2
    assert instruction_duration(Gate("h", (), (0,)), table1_spec) == 2.0


def test_move_duration_one_cell(table1_spec):
    # 2*20 + 1/0.55, computed by hand
    assert instruction_duration(Move(3, 4), table1_spec) == pytest.approx(41.818, abs=1e-3)


def test_move_duration_diagonal(table1_spec):
    # 40 + sqrt(2)/0.55
    assert instruction_duration(Move(0, 51), table1_spec) == pytest.approx(42.571, abs=1e-3)


def test_move_duration_two_cells(table1_spec):
    # cells 2 and 4 sit two columns apart: 40 + 2/0.55
    assert instruction_duration(Move(2, 4), table1_spec) == pytest.approx(43.636, abs=1e-3)


def test_unknown_gate_duration():
    # a hand-built spec may omit gate entries; the evaluator must diagnose it
    spec = dataclasses.replace(make_spec(n_qubits=2), gate_times={"cz": 0.2})
    with pytest.raises(UnknownGate):
        instruction_duration(Gate("h", (), (0,)), spec)


def test_total_runtime_stage_profile():
    # per-instruction durations by hand: [2], [0.2], [41.818], then the
    # mixed stage's maximum is its one-cell move, 41.818
    spec = make_spec(side=50, cells=LEGAL_ANALOG_CELLS)
    program = parse_program(LEGAL_ANALOG_TEXT)
    t_total, timings = total_runtime(program, spec)
    durations = [t.duration_us for t in timings]
    assert durations == pytest.approx([2.0, 0.2, 41.818, 41.818], abs=1e-3)
    assert [t.kind for t in timings] == [
        StageKind.GATE, StageKind.GATE, StageKind.MOVE, StageKind.MIXED,
    ]
    assert t_total == pytest.approx(85.836, abs=0.01)


def test_total_runtime_empty_program(table1_spec):
    t_total, timings = total_runtime(Program(1, 0, ()), table1_spec)
    assert t_total == 0.0 and timings == []


def test_parallel_gates_share_stage_duration(table1_spec):
    program = parse_program("RSQASM 1.0;\ncz q[0], q[1];cz q[2], q[3];\n")
    t_total, _ = total_runtime(program, table1_spec)
    assert t_total == pytest.approx(0.2)


def test_total_runtime_requires_legality(table1_spec):
    program = parse_program("RSQASM 1.0;\nmove q[40], q[41];\n")
    with pytest.raises(IllegalStage):
        total_runtime(program, table1_spec)


def test_single_cz_breakdown(table1_spec):
    program = parse_program("RSQASM 1.0;\ncz q[0], q[1];\n")
    b = evaluate_unified(program, table1_spec)
    assert b.t_total_us == pytest.approx(0.2)
    assert b.t_idle_us == pytest.approx(30 * 0.2 - 0.2)  # 5.8
    assert b.f_gates == pytest.approx(0.9996)
    assert b.f_movements == 1.0
    t_eff = effective_coherence_time(table1_spec)
    assert b.asp == pytest.approx(0.9996 * math.exp(-5.8 / t_eff))
    assert b.gate_count == 1 and b.two_qubit_gate_count == 1
    assert b.busy_us[0] == pytest.approx(0.2)
    assert b.busy_us[1] == pytest.approx(0.2)
    assert b.busy_us[2] == 0.0


def test_empty_program_is_perfect(table1_spec):
    b = evaluate_unified(Program(1, 0, ()), table1_spec)
    assert (b.f_decoherence, b.f_gates, b.f_movements, b.asp) == (1.0, 1.0, 1.0, 1.0)
    assert b.t_total_us == 0.0 and b.t_idle_us == 0.0


def test_decoherence_helper_rejects_negative_idle():
    with pytest.raises(NegativeIdleTime):
        decoherence_fidelity(-1.0, 1.0e6)


def test_movement_fidelity_two_transfers_per_move():
    assert movement_fidelity(3, 0.9999) == pytest.approx(0.9999**6)
    assert movement_fidelity(0, 0.9999) == 1.0


def test_asp_is_product_of_factors():
    spec = make_spec(side=6, cells=list(range(7)))
    rng = random.Random(11)
    for _ in range(50):
        b = evaluate_unified(random_legal_program(rng, spec), spec)
        assert b.asp == pytest.approx(b.f_decoherence * b.f_gates * b.f_movements)
        assert 0.0 < b.asp <= 1.0
        assert b.gate_count == b.one_qubit_gate_count + b.two_qubit_gate_count
        assert b.t_idle_us >= 0.0


def test_factors_shrink_under_stage_appends():
    spec = make_spec(side=6, cells=list(range(7)))
    rng = random.Random(99)
    for _ in range(60):
        program = random_legal_program(rng, spec, max_stages=6)
        state = initial_state(spec)
        for stage in program.stages:
            state = apply_stage(state, stage)
        extra = random_stage(rng, state)
        if extra is None:
            continue
        extended = Program(1, 0, program.stages + (extra,))
        before = evaluate_unified(program, spec)
        after = evaluate_unified(extended, spec)
        assert after.f_decoherence < before.f_decoherence
        assert after.f_gates <= before.f_gates
        assert after.f_movements <= before.f_movements
        if any(isinstance(op, Gate) for op in extra.ops):
            assert after.f_gates < before.f_gates
        if any(isinstance(op, Move) for op in extra.ops):
            assert after.f_movements < before.f_movements


def test_incremental_matches_batch():
    spec = make_spec(side=6, cells=list(range(7)))
    rng = random.Random(5)
    n = spec.qubit_count
    for _ in range(60):
        program = random_legal_program(rng, spec, max_stages=8)
        t_total = 0.0
        gate_time = 0.0
        f_gates = 1.0
        moves = 0
        for stage in program.stages:
            t_total += max(instruction_duration(op, spec) for op in stage.ops)
            for op in stage.ops:
                if isinstance(op, Gate):
                    gate_time += spec.gate_times[op.name]
                    f_gates *= spec.gate_fidelities[op.name]
                else:
                    moves += 1
        batch = evaluate_unified(program, spec)
        assert batch.t_total_us == pytest.approx(t_total, rel=1e-12)
        assert batch.t_idle_us == pytest.approx(n * t_total - gate_time, rel=1e-12)
        assert batch.f_gates == pytest.approx(f_gates, rel=1e-12)
        assert batch.move_count == moves

        # the other models' run time, idle time and busy time, op by op
        busy = {q.id: 0.0 for q in spec.qubits}
        enola_total = dasatom_distance = 0.0
        gate_stages = cz = 0
        state = initial_state(spec)
        for stage in program.stages:
            durations = []
            distances = []
            for op in stage.ops:
                if isinstance(op, Gate):
                    durations.append(spec.gate_times[op.name])
                    for cell in op.operands:
                        busy[state.occupancy[cell]] += spec.gate_times[op.name]
                    cz += op.name == "cz"
                else:
                    distance = cell_distance(op.src, op.dst, spec.grid_side)
                    distances.append(distance * spec.inter_qubit_distance)
                    durations.append(
                        2 * spec.aod_transfer_time + distances[-1] / spec.move_speed**2
                    )
            enola_total += max(durations)
            gate_stages += len(durations) > len(distances)
            dasatom_distance += max(distances, default=0.0)
            state = apply_stage(state, stage)
        t_cz = spec.gate_times["cz"]
        dasatom_total = (
            gate_stages * t_cz
            + 2 * moves * spec.aod_transfer_time
            + dasatom_distance / spec.move_speed
        )

        enola = evaluate_enola(program, spec)
        assert enola.t_total_us == pytest.approx(enola_total, rel=1e-12)
        assert enola.t_idle_us == pytest.approx(
            sum(enola_total - b for b in busy.values()), rel=1e-12
        )
        dasatom = evaluate_dasatom(program, spec)
        assert dasatom.t_total_us == pytest.approx(dasatom_total, rel=1e-12)
        assert dasatom.t_idle_us == pytest.approx(n * dasatom_total - cz * t_cz, rel=1e-12)
        for b in (batch, enola, dasatom):
            assert b.busy_us == pytest.approx(busy, rel=1e-12)
