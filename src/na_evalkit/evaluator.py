"""Unified fidelity model over a program and a hardware description.

The approximate success probability of a circuit is the product of three
factors:

    asp = f_decoherence * f_gates * f_movements

    f_decoherence = exp(-t_idle / t_eff),   t_eff = t1*t2 / (t1 + t2)
    f_gates       = product of the average fidelity of every executed gate
    f_movements   = transfer_fidelity ** (2 * move_count)

with the total idle time summed over all qubits,

    t_idle = n * T - sum of executed gate durations  (each gate once)

where n is the number of declared qubits and T is the total run time: the
sum over stages of the longest operation in the stage. A gate lasts its
configured duration; a move lasts ``2 * aod_transfer_time + distance /
move_speed`` with the physical distance ``cell_distance * inter_qubit_
distance``. Movement durations are never subtracted from idle time: shuttling
stretches the circuit and therefore costs decoherence, while its direct cost
is the pair of trap transfers per move counted in f_movements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from . import grid
from .arch import ArchitectureSpec, effective_coherence_time
from .errors import NegativeIdleTime, UnknownGate
from .rsqasm import Instruction, Move, Program

UNIFIED = "unified"


class StageKind(Enum):
    GATE = "gate"
    MOVE = "move"
    MIXED = "mixed"


@dataclass(frozen=True)
class StageTiming:
    duration_us: float
    kind: StageKind


# (has a gate, has a move) -> kind
_KINDS = {
    (True, False): StageKind.GATE,
    (False, True): StageKind.MOVE,
    (True, True): StageKind.MIXED,
}


@dataclass(frozen=True)
class FidelityBreakdown:
    """Per-circuit metrics shared by every model (``model`` names which one)."""

    model: str
    f_decoherence: float
    f_gates: float
    f_movements: float
    asp: float
    t_total_us: float
    t_idle_us: float
    gate_count: int
    one_qubit_gate_count: int
    two_qubit_gate_count: int
    move_count: int
    total_move_distance_cells: float
    stage_count: int
    busy_us: dict[int, float] = field(default_factory=dict)


@dataclass(frozen=True)
class ProgramTrace:
    """Everything the four models read from one legal execution.

    :func:`trace_program` fills it in a single pass that checks each stage
    once. ``stages`` holds, per stage, the longest gate duration (us) and
    the longest move distance (cells), each None when the stage has no such
    operation. Sums and the product run in program order: ``gate_time_us``
    and ``f_gates`` over gates, ``move_distance_cells`` over stages of
    per-stage sums. ``busy_us`` is the time each atom spent inside gates: a
    two-qubit gate counts its full duration toward both participants, and
    movement never counts.
    """

    stages: tuple[tuple[float | None, float | None], ...]
    one_qubit_gates: int
    two_qubit_gates: int
    cz_gates: int
    gate_time_us: float
    f_gates: float
    move_count: int
    move_distance_cells: float
    busy_us: dict[int, float]
    final_state: grid.GridState

    def stage_durations(self, move_time: Callable[[float], float]) -> list[float]:
        """Per-stage run time: the slower of the longest gate and the longest
        move. ``move_time`` maps a distance in cells to a duration and must be
        non-decreasing, so that the longest move is also the slowest."""
        durations = []
        for gate_us, move_cells in self.stages:
            if move_cells is None:
                durations.append(gate_us)
            elif gate_us is None:
                durations.append(move_time(move_cells))
            else:
                durations.append(max(gate_us, move_time(move_cells)))
        return durations

    def breakdown(
        self, model: str, *, f_decoherence: float, f_gates: float, f_movements: float,
        t_total_us: float, t_idle_us: float,
    ) -> FidelityBreakdown:
        """A model's breakdown, with the counts that every model shares."""
        return FidelityBreakdown(
            model=model,
            f_decoherence=f_decoherence,
            f_gates=f_gates,
            f_movements=f_movements,
            asp=f_decoherence * f_gates * f_movements,
            t_total_us=t_total_us,
            t_idle_us=t_idle_us,
            gate_count=self.one_qubit_gates + self.two_qubit_gates,
            one_qubit_gate_count=self.one_qubit_gates,
            two_qubit_gate_count=self.two_qubit_gates,
            move_count=self.move_count,
            total_move_distance_cells=self.move_distance_cells,
            stage_count=len(self.stages),
            busy_us=self.busy_us,
        )


def trace_program(program: Program, spec: ArchitectureSpec) -> ProgramTrace:
    """Simulate a program once and summarize it for the models.

    Raises IllegalStage on the first illegal stage, and UnknownGate for a
    gate without a configured duration or fidelity.
    """
    side = spec.grid_side
    occupancy = grid.initial_state(spec).occupancy
    busy = {q.id: 0.0 for q in spec.qubits}
    stages: list[tuple[float | None, float | None]] = []
    g1 = g2 = cz = move_count = 0
    gate_time = move_distance = 0.0
    f_gates = 1.0
    for index, stage in enumerate(program.stages):
        grid.advance(occupancy, side, stage, index)
        # no gate shares a cell with a move, so each gate's atoms stay put
        longest_gate = longest_move = None
        stage_distance = 0.0
        for op in stage.ops:
            if isinstance(op, Move):
                distance = grid.cell_distance(op.src, op.dst, side)
                stage_distance += distance
                move_count += 1
                if longest_move is None or distance > longest_move:
                    longest_move = distance
                continue
            duration = gate_duration(op.name, spec)
            gate_time += duration
            f_gates *= gate_fidelity(op.name, spec)
            if longest_gate is None or duration > longest_gate:
                longest_gate = duration
            if len(op.operands) == 2:
                g2 += 1
            else:
                g1 += 1
            if op.name == "cz":
                cz += 1
            for cell in op.operands:
                busy[occupancy[cell]] += duration
        move_distance += stage_distance
        stages.append((longest_gate, longest_move))
    return ProgramTrace(
        stages=tuple(stages),
        one_qubit_gates=g1,
        two_qubit_gates=g2,
        cz_gates=cz,
        gate_time_us=gate_time,
        f_gates=f_gates,
        move_count=move_count,
        move_distance_cells=move_distance,
        busy_us=busy,
        final_state=grid.GridState(side, occupancy),
    )


def gate_duration(name: str, spec: ArchitectureSpec) -> float:
    try:
        return spec.gate_times[name]
    except KeyError:
        raise UnknownGate(f"no duration configured for gate {name!r}") from None


def gate_fidelity(name: str, spec: ArchitectureSpec) -> float:
    try:
        return spec.gate_fidelities[name]
    except KeyError:
        raise UnknownGate(f"no fidelity configured for gate {name!r}") from None


def move_duration(distance_cells: float, spec: ArchitectureSpec) -> float:
    """2 transfers plus travel time, linear in physical distance."""
    travel = distance_cells * spec.inter_qubit_distance / spec.move_speed
    return 2.0 * spec.aod_transfer_time + travel


def instruction_duration(instruction: Instruction, spec: ArchitectureSpec) -> float:
    """Duration of a single instruction in microseconds."""
    if isinstance(instruction, Move):
        d = grid.cell_distance(instruction.src, instruction.dst, spec.grid_side)
        return move_duration(d, spec)
    return gate_duration(instruction.name, spec)


def total_runtime(program: Program, spec: ArchitectureSpec) -> tuple[float, list[StageTiming]]:
    """Total run time and per-stage timings under the unified duration model.

    The program must be legal under grid simulation; IllegalStage propagates.
    """
    trace = trace_program(program, spec)
    durations = trace.stage_durations(lambda cells: move_duration(cells, spec))
    timings = [
        StageTiming(duration, _KINDS[gate_us is not None, move_cells is not None])
        for duration, (gate_us, move_cells) in zip(durations, trace.stages)
    ]
    return sum(t.duration_us for t in timings), timings


def decoherence_fidelity(t_idle_us: float, t_eff_us: float) -> float:
    """exp(-t_idle / t_eff); raises NegativeIdleTime for t_idle < 0."""
    if t_idle_us < 0:
        raise NegativeIdleTime(f"idle time {t_idle_us} us is negative")
    return math.exp(-t_idle_us / t_eff_us)


def movement_fidelity(move_count: int, transfer_fidelity: float) -> float:
    """Two trap transfers per move: transfer_fidelity ** (2 * move_count)."""
    return transfer_fidelity ** (2 * move_count)


def evaluate_unified(program: Program, spec: ArchitectureSpec) -> FidelityBreakdown:
    """Evaluate the unified model; see the module docstring for the formulas."""
    trace = trace_program(program, spec)
    # a plain running sum; the built-in sum() compensates rounding from 3.12 on
    t_total = 0.0
    for duration in trace.stage_durations(lambda cells: move_duration(cells, spec)):
        t_total += duration
    t_idle = spec.qubit_count * t_total - trace.gate_time_us
    return trace.breakdown(
        UNIFIED,
        f_decoherence=decoherence_fidelity(t_idle, effective_coherence_time(spec)),
        f_gates=trace.f_gates,
        f_movements=movement_fidelity(trace.move_count, spec.transfer_fidelity),
        t_total_us=t_total,
        t_idle_us=t_idle,
    )
