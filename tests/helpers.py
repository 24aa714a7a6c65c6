"""Shared builders for tests: architecture documents and random legal programs."""

from __future__ import annotations

import json
import random

from na_evalkit import (
    ArchitectureSpec,
    Gate,
    Move,
    Program,
    Stage,
    apply_stage,
    initial_state,
    parse_architecture,
)
from na_evalkit.grid import GridState

ONE_QUBIT_GATES = ("rx", "ry", "rz", "h", "s", "t")
ROTATIONS = ("rx", "ry", "rz")

GOLDEN_TEXT = (
    "RSQASM 1.0;\n"
    "h q[0];\n"
    "cz q[2], q[1];\n"
    "move q[3], q[4];\n"
    "cz q[0], q[5];cz q[1], q[3];move q[2], q[4];\n"
)


def arch_document(
    side: int = 50,
    cells: list[int] | None = None,
    n_qubits: int = 30,
    t1: float = 1.0e8,
    t2: float = 1.5e6,
    move_speed: float = 0.55,
    aod_time: float = 20.0,
    transfer_fidelity: float = 0.9999,
    cz_time: float = 0.2,
    one_qubit_time: float = 2.0,
    cz_fidelity: float = 0.9996,
    one_qubit_fidelity: float = 0.9999,
    excitement: float | None = None,
) -> str:
    """A hardware document with qubits on ``cells`` (default: row-major 0..n-1)."""
    if cells is None:
        cells = list(range(n_qubits))
    qubits = [
        {"id": i, "x": c % side, "y": c // side} for i, c in enumerate(sorted(cells))
    ]
    parameters = {
        "Qubits": qubits,
        "gateTimes": {"cz": cz_time, **{g: one_qubit_time for g in ONE_QUBIT_GATES}},
        "gateFidelities": {
            "cz": cz_fidelity, **{g: one_qubit_fidelity for g in ONE_QUBIT_GATES}
        },
        "shuttlingTimesSpeed": {
            "move_speed": move_speed,
            "aod_activate_deactivate_time": aod_time,
        },
        "shuttlingFidelities": {"aod_activate_deactivate": transfer_fidelity},
        "decoherenceTimes": {"t1": t1, "t2": t2},
    }
    if excitement is not None:
        parameters["excitementFidelity"] = excitement
    return json.dumps({
        "schema": 1,
        "properties": {
            "nRows_nColumns_grid_side_size": side,
            "interQubitDistance": 1.0,
        },
        "parameters": parameters,
    })


def make_spec(**kwargs) -> ArchitectureSpec:
    return parse_architecture(arch_document(**kwargs))


def random_stage(
    rng: random.Random, state: GridState, forbidden: set[int] = frozenset()
) -> Stage | None:
    """A stage that is legal under ``state`` and avoids ``forbidden`` cells."""
    occupied = [c for c in sorted(state.occupancy) if c not in forbidden]
    empty = [
        c for c in range(state.cell_count)
        if c not in state.occupancy and c not in forbidden
    ]
    used: set[int] = set()
    ops = []
    for _ in range(rng.randint(1, 4)):
        free_occ = [c for c in occupied if c not in used]
        free_empty = [c for c in empty if c not in used]
        roll = rng.random()
        if roll < 0.45 and free_occ:
            cell = rng.choice(free_occ)
            name = rng.choice(ONE_QUBIT_GATES)
            params = (rng.uniform(-3.2, 3.2),) if name in ROTATIONS else ()
            ops.append(Gate(name, params, (cell,)))
            used.add(cell)
        elif roll < 0.70 and len(free_occ) >= 2:
            a, b = rng.sample(free_occ, 2)
            ops.append(Gate("cz", (), (a, b)))
            used.update((a, b))
        elif free_occ and free_empty:
            src = rng.choice(free_occ)
            dst = rng.choice(free_empty)
            ops.append(Move(src, dst))
            used.update((src, dst))
    if not ops:
        return None
    return Stage(tuple(ops))


def random_legal_program(
    rng: random.Random, spec: ArchitectureSpec, max_stages: int = 10, min_stages: int = 0
) -> Program:
    """Up to ``rng.randint(min_stages, max_stages)`` stages: a draw that finds no
    legal instruction adds none."""
    state = initial_state(spec)
    stages = []
    for _ in range(rng.randint(min_stages, max_stages)):
        stage = random_stage(rng, state)
        if stage is None:
            continue
        state = apply_stage(state, stage)
        stages.append(stage)
    return Program(1, 0, tuple(stages))


def all_busy_program(rng: random.Random, spec: ArchitectureSpec, max_stages: int = 8) -> Program:
    """Stages of one-qubit gates on every atom: with equal one-qubit gate
    durations, no atom ever idles."""
    cells = sorted(initial_state(spec).occupancy)
    stages = [
        Stage(tuple(Gate(rng.choice(ONE_QUBIT_GATES[3:]), (), (c,)) for c in cells))
        for _ in range(rng.randint(1, max_stages))
    ]
    return Program(1, 0, tuple(stages))


def random_program_with_redundancy(
    rng: random.Random, spec: ArchitectureSpec, patterns: int = 2
) -> Program:
    """A legal program seeded with collapsible excursions (reversals and
    two-leg paths), separated by gap stages that avoid the excursion cells."""
    state = initial_state(spec)
    stages: list[Stage] = []

    def emit(stage: Stage):
        nonlocal state
        state = apply_stage(state, stage)
        stages.append(stage)

    for _ in range(patterns):
        for _ in range(rng.randint(0, 2)):
            stage = random_stage(rng, state)
            if stage is not None:
                emit(stage)
        occupied = sorted(state.occupancy)
        empty = [c for c in range(state.cell_count) if c not in state.occupancy]
        if not occupied or not empty:
            continue
        a = rng.choice(occupied)
        b = rng.choice(empty)
        emit(Stage((Move(a, b),)))
        for _ in range(rng.randint(0, 2)):
            stage = random_stage(rng, state, forbidden={a, b})
            if stage is not None:
                emit(stage)
        if rng.random() < 0.5:
            emit(Stage((Move(b, a),)))
        else:
            closing = [
                c for c in range(state.cell_count)
                if c not in state.occupancy and c != b
            ]
            if closing:
                emit(Stage((Move(b, rng.choice(closing)),)))
    return Program(1, 0, tuple(stages))
