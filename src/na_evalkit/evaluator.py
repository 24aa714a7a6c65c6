"""The one trace every model reads, and the factors all models share.

A model's approximate success probability is the product of three factors:

    asp = f_decoherence * f_gates * f_movements

    f_movements = transfer_fidelity ** (2 * move_count)

two trap transfers per move. How a model times the run, counts idle time and
prices gates is its own assumption; :mod:`na_evalkit.models` states each one.
A stage lasts as long as its longest operation: a gate its configured
duration, a move ``2 * aod_transfer_time`` plus the model's travel time over
the physical distance ``cell_distance * inter_qubit_distance``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from typing import Callable

from . import grid
from .arch import ArchitectureSpec
from .errors import NegativeIdleTime, NonFiniteResult, UnknownGate
from .rsqasm import Instruction, Move, Program

# a probability in [0, 1]; table output shows it as a percentage
Fidelity = float


def require_finite(report) -> None:
    """Raise NonFiniteResult naming the first field of a report dataclass
    that is NaN or an infinity: the times and distances (``float``) first,
    then the fidelities computed from them, each group in field order.
    A subnormal field is stored as 0.0: below ``sys.float_info.min`` a float
    has lost digits to underflow, and a product of factors can stick there."""
    for kind in ("float", "Fidelity"):
        for field in fields(report):
            value = getattr(report, field.name)
            if field.type != kind:
                continue
            if not math.isfinite(value):
                raise NonFiniteResult(f"{field.name} is {value}: the inputs leave the float range")
            if 0.0 < abs(value) < sys.float_info.min:
                object.__setattr__(report, field.name, 0.0)


@dataclass(frozen=True)
class FidelityBreakdown:
    """One model's numbers for a circuit (``model`` names which one).

    Per-stage and per-atom facts live on :class:`ProgramTrace`, not here.
    The CLI's table and csv columns are these fields, in this order.
    """

    model: str
    f_decoherence: Fidelity
    f_gates: Fidelity
    f_movements: Fidelity
    asp: Fidelity
    t_total_us: float
    t_idle_us: float
    gate_count: int
    one_qubit_gate_count: int
    two_qubit_gate_count: int
    move_count: int
    stage_count: int
    total_move_distance_cells: float

    def __post_init__(self):
        require_finite(self)


@dataclass(frozen=True)
class ProgramTrace:
    """Everything the four models read from one legal execution.

    :func:`trace_program` fills it in a single pass that checks each stage
    once. ``stages`` holds, per stage, the longest gate duration (us) and
    the longest move distance (cells), each None when the stage has no such
    operation; equal pairs are one shared tuple, so never rely on ``is``
    between them. Sums and the product run in program order:
    ``gate_time_us`` and ``f_gates`` over gates, ``move_distance_cells`` over
    stages of per-stage sums. ``busy_us`` is the time each atom spent inside
    gates: a two-qubit gate counts its full duration toward both
    participants, and movement never counts.

    It is the one record of per-stage and per-atom facts: the stage shape is
    the None pattern of ``stages``, and a model's per-stage durations come
    from :meth:`stage_durations` with that model's move time.
    """

    stages: tuple[tuple[float | None, float | None], ...]
    one_qubit_gates: int
    two_qubit_gates: int
    gate_time_us: float
    f_gates: float
    move_count: int
    move_distance_cells: float
    busy_us: dict[int, float]

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

    def run_time_us(self, move_time: Callable[[float], float]) -> float:
        """Total run time: the stage durations added one by one in stage order.
        A plain running sum, since the built-in sum() compensates rounding
        from Python 3.12 on; every model with a travel law takes its run time
        from here."""
        total = 0.0
        for duration in self.stage_durations(move_time):
            total += duration
        return total

    def breakdown(
        self, model: str, spec: ArchitectureSpec, *, f_decoherence: float, f_gates: float,
        t_total_us: float, t_idle_us: float,
    ) -> FidelityBreakdown:
        """A model's breakdown, with the counts and the movement fidelity that
        every model shares."""
        f_movements = movement_fidelity(self.move_count, spec.transfer_fidelity)
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
            stage_count=len(self.stages),
            total_move_distance_cells=self.move_distance_cells,
        )


def trace_program(program: Program, spec: ArchitectureSpec) -> ProgramTrace:
    """Simulate a program once and summarize it for the models.

    Raises IllegalStage on the first illegal stage, and UnknownGate for a
    gate without a configured duration or fidelity.
    """
    side = spec.grid_side
    cell_distance = grid.cell_distance
    occupancy = grid.initial_state(spec).occupancy
    busy = {q.id: 0.0 for q in spec.qubits}
    stages: list[tuple[float | None, float | None]] = []
    pairs: dict[tuple, tuple] = {}  # each distinct stage pair, built once per call
    g1 = g2 = move_count = 0
    gate_time = move_distance = 0.0
    f_gates = 1.0
    gates: dict[str, tuple[float, float]] = {}  # name -> (duration, fidelity), at first sight
    for index, stage in enumerate(program.stages):
        grid.advance(occupancy, side, stage, index)
        # no gate shares a cell with a move, so each gate's atoms stay put
        longest_gate = longest_move = None
        stage_distance = 0.0
        for op in stage:
            if type(op) is Move:
                src, dst = op
                distance = cell_distance(src, dst, side)
                stage_distance += distance
                move_count += 1
                if longest_move is None or distance > longest_move:
                    longest_move = distance
                continue
            name, _, operands = op
            try:
                duration, fidelity = gates[name]
            except KeyError:
                duration, fidelity = gates[name] = gate_duration(name, spec), gate_fidelity(name, spec)
            gate_time += duration
            f_gates *= fidelity
            if longest_gate is None or duration > longest_gate:
                longest_gate = duration
            if len(operands) == 2:
                g2 += 1
                a, b = operands
                busy[occupancy[a]] += duration
                busy[occupancy[b]] += duration
            else:
                g1 += 1
                busy[occupancy[operands[0]]] += duration
        move_distance += stage_distance
        pair = (longest_gate, longest_move)
        stages.append(pairs.setdefault(pair, pair))
    return ProgramTrace(
        stages=tuple(stages),
        one_qubit_gates=g1,
        two_qubit_gates=g2,
        gate_time_us=gate_time,
        f_gates=f_gates,
        move_count=move_count,
        move_distance_cells=move_distance,
        busy_us=busy,
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


def decoherence_fidelity(t_idle_us: float, t_eff_us: float) -> float:
    """exp(-t_idle / t_eff); raises NegativeIdleTime for t_idle < 0."""
    if t_idle_us < 0:
        raise NegativeIdleTime(f"idle time {t_idle_us} us is negative")
    return math.exp(-t_idle_us / t_eff_us)


def movement_fidelity(move_count: int, transfer_fidelity: float) -> float:
    """Two trap transfers per move: transfer_fidelity ** (2 * move_count)."""
    return transfer_fidelity ** (2 * move_count)
