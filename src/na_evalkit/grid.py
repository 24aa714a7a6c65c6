"""Square-grid occupancy tracking: stage legality and geometric distances.

Cells are indexed row-major from the top-left corner, ``cell = y * side + x``.
States are values: ``apply_stage`` and ``simulate`` copy the occupancy of
their input once, run every stage on that private copy through
:func:`advance`, and return a new state, so independent circuits can be
processed concurrently. Only callers that own an occupancy map pass it to
``advance`` directly; it builds a state only for a stage it rejects.

``advance`` checks a stage and moves its atoms: it passes over every legal
instruction and applies the moves once the whole stage has passed. At the
first instruction that is not legal it raises, with the diagnosis of
:func:`validate_stage`, the grid's one diagnosis. Only ``validate_stage``
reads an interaction radius, which only adds warnings;
:func:`require_interaction_radius` is its one rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .arch import ArchitectureSpec
from .errors import CellOutOfRange, IllegalStage, InvalidInput, NonFiniteResult
from .rsqasm import Move, Program, Stage


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


def cell_distance(a: int, b: int, side: int) -> float:
    """Euclidean distance between two cells, in cell units.

    Raises CellOutOfRange for a cell off the grid, ``a`` first, and
    NonFiniteResult when the cells lie farther apart, along a row or a
    column, than the largest float.
    """
    limit = side * side
    if not (0 <= a < limit and 0 <= b < limit):
        cell = b if 0 <= a < limit else a
        raise CellOutOfRange(f"cell {cell} outside a {side}x{side} grid")
    ya, xa = divmod(a, side)
    yb, xb = divmod(b, side)
    try:
        return math.hypot(xa - xb, ya - yb)
    except OverflowError as exc:  # an integer offset beyond the float range
        raise NonFiniteResult("a distance between two cells leaves the float range") from exc


def require_interaction_radius(interaction_radius: float | None) -> None:
    """Raise InvalidInput unless the radius is None or a number >= 0: a NaN
    radius would silence every warning, a negative one warn on every cz."""
    if interaction_radius is not None and not interaction_radius >= 0:
        raise InvalidInput(f"interaction radius must be >= 0, got {interaction_radius}")


def validate_stage(
    state: GridState, stage: Stage, interaction_radius: float | None = None
) -> StageDiagnosis:
    """Check a stage against the occupancy at its start, every instruction diagnosed.

    Legal iff every gate operand cell holds an atom, every move source
    holds an atom, every move target is an empty trap, and all cells are in
    range; a :class:`Stage` shares no cell between instructions by
    construction. When ``interaction_radius`` is given (cell units),
    two-qubit gates spanning a larger distance produce an advisory warning,
    never a violation; a negative or NaN radius raises InvalidInput. A stage
    that yields nothing gets one shared legal diagnosis.
    """
    require_interaction_radius(interaction_radius)
    occupied, side = state.occupancy, state.side
    limit = side * side
    violations: list[Violation] = []
    warnings: list[str] = []
    for i, op in enumerate(stage):
        outside = [Violation(ViolationKind.CELL_OUT_OF_RANGE, i, c) for c in op.cells if c >= limit]
        if outside:
            violations += outside
        elif type(op) is Move:
            src, dst = op
            if src not in occupied:
                violations.append(Violation(ViolationKind.MOVE_FROM_EMPTY_CELL, i, src))
            if dst in occupied:
                violations.append(Violation(ViolationKind.MOVE_TO_OCCUPIED_CELL, i, dst))
        else:
            name, _, operands = op
            for cell in operands:
                if cell not in occupied:
                    violations.append(Violation(ViolationKind.GATE_ON_EMPTY_CELL, i, cell))
            if interaction_radius is not None and len(operands) == 2:
                first, last = operands
                if cell_distance(first, last, side) > interaction_radius:
                    warnings.append(
                        f"instruction {i}: {name} operands {first} and {last} "
                        f"are farther apart than radius {interaction_radius}"
                    )
    if violations or warnings:
        return StageDiagnosis(tuple(violations), tuple(warnings))
    return _LEGAL


def advance(
    occupancy: dict[int, int], side: int, stage: Stage, stage_index: int | None = None
) -> None:
    """Check a stage once and apply its moves to ``occupancy`` in place.

    Moves act simultaneously against the stage-start occupancy; since no
    two instructions of a stage share a cell, applying them one by one is
    equivalent. Returns None for a legal stage; otherwise raises
    :class:`IllegalStage` carrying the diagnosis of :func:`validate_stage`,
    with ``occupancy`` untouched. No radius is read here.
    """
    limit = side * side
    moves = []
    for op in stage:
        if type(op) is Move:
            src, dst = op
            if src in occupancy and dst not in occupancy and src < limit and dst < limit:
                moves.append(op)
                continue
        else:
            operands = op[2]
            first, last = operands[0], operands[-1]  # a gate has one or two
            if first in occupancy and last in occupancy and first < limit and last < limit:
                continue
        diagnosis = validate_stage(GridState(side, occupancy), stage)
        raise IllegalStage(str(diagnosis), diagnosis, stage_index)
    for src, dst in moves:
        occupancy[dst] = occupancy.pop(src)


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
