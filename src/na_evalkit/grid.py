"""Square-grid occupancy tracking: stage legality and geometric distances.

Cells are indexed row-major from the top-left corner, ``cell = y * side + x``.
States are values: ``apply_stage`` and ``simulate`` copy the occupancy of
their input once, run every stage on that private copy through
:func:`advance`, and return a new state, so independent circuits can be
processed concurrently. Only callers that own an occupancy map pass it to
``advance`` directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .arch import ArchitectureSpec
from .errors import CellOutOfRange, IllegalStage
from .rsqasm import Gate, Move, Program, Stage


class ViolationKind(Enum):
    GATE_ON_EMPTY_CELL = "GateOnEmptyCell"
    MOVE_FROM_EMPTY_CELL = "MoveFromEmptyCell"
    MOVE_TO_OCCUPIED_CELL = "MoveToOccupiedCell"
    CELL_OUT_OF_RANGE = "CellOutOfRange"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    op_index: int
    cell: int

    def __str__(self):
        return f"{self.kind.value}: instruction {self.op_index} references cell {self.cell}"


@dataclass(frozen=True)
class StageDiagnosis:
    """Outcome of checking one stage against a grid state.

    ``violations`` make the stage illegal; ``warnings`` are advisory only
    (currently: two-qubit gates whose operands exceed an optional
    interaction radius).
    """

    violations: tuple[Violation, ...] = ()
    warnings: tuple[str, ...] = ()

    @property
    def legal(self) -> bool:
        return not self.violations

    def __str__(self):
        return "; ".join(str(v) for v in self.violations) or "legal"


@dataclass(frozen=True)
class GridState:
    """Occupancy of a ``side`` x ``side`` grid: cell index -> atom id."""

    side: int
    occupancy: dict[int, int]

    @property
    def cell_count(self) -> int:
        return self.side * self.side

    def atom_cells(self) -> dict[int, int]:
        """Inverse view: atom id -> cell index."""
        return {atom: cell for cell, atom in self.occupancy.items()}


_LEGAL = StageDiagnosis()


def initial_state(spec: ArchitectureSpec) -> GridState:
    """Place every declared qubit on its initial cell; all other traps empty."""
    side = spec.grid_side
    return GridState(side, {q.y * side + q.x: q.id for q in spec.qubits})


def cell_coords(cell: int, side: int) -> tuple[int, int]:
    if not 0 <= cell < side * side:
        raise CellOutOfRange(f"cell {cell} outside a {side}x{side} grid")
    return cell % side, cell // side


def cell_distance(a: int, b: int, side: int) -> float:
    """Euclidean distance between two cells, in cell units."""
    xa, ya = cell_coords(a, side)
    xb, yb = cell_coords(b, side)
    return math.hypot(xa - xb, ya - yb)


def validate_stage(
    state: GridState, stage: Stage, interaction_radius: float | None = None
) -> StageDiagnosis:
    """Check a stage against the occupancy at its start.

    Legal iff every gate operand cell holds an atom, every move source
    holds an atom, every move target is an empty trap, and all cells are in
    range; a :class:`Stage` shares no cell between instructions by
    construction. When ``interaction_radius`` is given (cell units),
    two-qubit gates spanning a larger distance produce an advisory warning,
    never a violation.
    """
    occupied = state.occupancy
    limit = state.cell_count
    if interaction_radius is None:  # one cheap pass finds a legal stage
        for op in stage:
            if type(op) is Move:
                src, dst = op.src, op.dst
                if src not in occupied or dst in occupied or src >= limit or dst >= limit:
                    break
            else:
                first, last = op.operands[0], op.operands[-1]  # a gate has one or two
                if first not in occupied or last not in occupied or first >= limit or last >= limit:
                    break
        else:
            return _LEGAL

    violations: list[Violation] = []
    warnings: list[str] = []
    for i, op in enumerate(stage):
        outside = [Violation(ViolationKind.CELL_OUT_OF_RANGE, i, c) for c in op.cells if c >= limit]
        if outside:
            violations += outside
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
            if op.src not in occupied:
                violations.append(Violation(ViolationKind.MOVE_FROM_EMPTY_CELL, i, op.src))
            if op.dst in occupied:
                violations.append(Violation(ViolationKind.MOVE_TO_OCCUPIED_CELL, i, op.dst))
    return StageDiagnosis(tuple(violations), tuple(warnings))


def advance(
    occupancy: dict[int, int],
    side: int,
    stage: Stage,
    stage_index: int | None = None,
    interaction_radius: float | None = None,
) -> StageDiagnosis:
    """Check a stage once and apply its moves to ``occupancy`` in place.

    Moves act simultaneously against the stage-start occupancy; since no
    two instructions of a stage share a cell, applying them one by one is
    equivalent. Returns the diagnosis of a legal stage (its warnings may
    be nonempty). Raises :class:`IllegalStage` carrying the diagnosis, with
    ``occupancy`` untouched, when the stage is not legal.
    """
    diagnosis = validate_stage(GridState(side, occupancy), stage, interaction_radius)
    if not diagnosis.legal:
        raise IllegalStage(str(diagnosis), diagnosis, stage_index)
    for op in stage:
        if isinstance(op, Move):
            occupancy[op.dst] = occupancy.pop(op.src)
    return diagnosis


def apply_stage(state: GridState, stage: Stage, stage_index: int | None = None) -> GridState:
    """The state after one stage; ``state`` itself is left unchanged.

    Gates leave occupancy untouched. Raises :class:`IllegalStage` carrying
    the diagnosis when the stage is not legal.
    """
    occupancy = dict(state.occupancy)
    advance(occupancy, state.side, stage, stage_index)
    return GridState(state.side, occupancy)


def simulate(state: GridState, program: Program) -> GridState:
    """Run a whole program, returning the final state (or raising IllegalStage).

    ``state`` itself is left unchanged; its occupancy is copied once.
    """
    occupancy = dict(state.occupancy)
    for index, stage in enumerate(program.stages):
        advance(occupancy, state.side, stage, index)
    return GridState(state.side, occupancy)
