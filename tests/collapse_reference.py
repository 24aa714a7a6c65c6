"""Reference collapse: the restart-from-0 pass that re-simulates every candidate.

This is the original implementation of :func:`na_evalkit.normalize.collapse`,
kept verbatim as a slow oracle. After every committed rewrite it rescans the
program from stage 0, and it checks each candidate by building the rewritten
:class:`Program` and simulating it from the initial placement. The fast pass
must commit the same rewrites in the same order and emit the same program.

Only its report changed since: like the fast pass's, its move distances add
each stage's moves first and then the stage sums in order, as
:func:`na_evalkit.evaluator.trace_program` does; the distance after is that
sum unclamped, only the saved distance is floored at 0; and an illegal input
raises the simulation's IllegalStage as it is.
"""

from __future__ import annotations

import logging

from na_evalkit import grid
from na_evalkit.arch import ArchitectureSpec
from na_evalkit.errors import IllegalStage, RsqasmError
from na_evalkit.normalize import NormalizationReport, RewriteEvent
from na_evalkit.rsqasm import Instruction, Move, Program, Stage

logger = logging.getLogger(__name__)


def _move_stats(stages: list[list[Instruction]], side: int) -> tuple[int, float]:
    count = 0
    distance = 0.0
    for ops in stages:
        stage_distance = 0.0
        for op in ops:
            if isinstance(op, Move):
                count += 1
                stage_distance += grid.cell_distance(op.src, op.dst, side)
        distance += stage_distance
    return count, distance


def _find_partner(stages: list[list[Instruction]], i: int, a: int, b: int):
    """First later move out of cell b with no reference to a or b in the gap.

    Returns (stage index, op index) or None. A stage containing both the
    partner and a blocker still yields the partner; the legality re-check
    decides whether the rewrite survives.
    """
    for j in range(i + 1, len(stages)):
        partner = None
        blocked = False
        for oj, op in enumerate(stages[j]):
            if isinstance(op, Move) and op.src == b:
                partner = (j, oj)
            elif a in op.cells or b in op.cells:
                blocked = True
        if partner is not None:
            return partner
        if blocked:
            return None
    return None


def _rewritten(
    stages: list[list[Instruction]], i: int, oi: int, j: int, oj: int, rule: str
) -> list[list[Instruction]]:
    """Stage list after the rewrite (j > i strictly), empty stages dropped."""
    source: Move = stages[i][oi]
    partner: Move = stages[j][oj]
    out: list[list[Instruction]] = []
    for k, ops in enumerate(stages):
        kept = list(ops)
        if k == i:
            kept.pop(oi)
        elif k == j:
            if rule == "R1":
                kept.pop(oj)
            else:
                kept[oj] = Move(source.src, partner.dst)
        if kept:
            out.append(kept)
    return out


def _verify(
    stages: list[list[Instruction]],
    spec: ArchitectureSpec,
    expected_final: dict[int, int],
    version: tuple[int, int],
) -> Program | None:
    """Build and simulate the candidate; None when illegal or not equivalent."""
    try:
        program = Program(version[0], version[1], tuple(Stage(tuple(ops)) for ops in stages))
        final = grid.simulate(grid.initial_state(spec), program)
    except (RsqasmError, IllegalStage):
        return None
    if final.atom_cells() != expected_final:
        return None
    return program


def collapse(program: Program, spec: ArchitectureSpec) -> tuple[Program, NormalizationReport]:
    """Apply R1/R2 to a fixed point; returns the collapsed program and a report.

    The input must be legal under grid simulation from the spec's initial
    placement (IllegalStage otherwise). The result is legal and reaches the
    same final atom-to-cell mapping as the input.
    """
    final = grid.simulate(grid.initial_state(spec), program)
    expected_final = final.atom_cells()
    version = (program.version_major, program.version_minor)
    side = spec.grid_side

    work = [list(stage.ops) for stage in program.stages]
    moves_before, distance_before = _move_stats(work, side)
    events: list[RewriteEvent] = []
    collapsed = program

    changed = True
    while changed:
        changed = False
        for i in range(len(work)):
            applied = False
            for oi, op in enumerate(work[i]):
                if not isinstance(op, Move):
                    continue
                found = _find_partner(work, i, op.src, op.dst)
                if found is None:
                    continue
                j, oj = found
                partner = work[j][oj]
                rule = "R1" if partner.dst == op.src else "R2"
                candidate = _rewritten(work, i, oi, j, oj, rule)
                verified = _verify(candidate, spec, expected_final, version)
                if verified is None:
                    logger.info(
                        "skipping %s on stages (%d, %d): rewrite would break legality",
                        rule, i, j,
                    )
                    continue
                events.append(RewriteEvent(rule, (i, j)))
                work = candidate
                collapsed = verified
                applied = changed = True
                break
            if applied:
                break

    moves_after, distance_after = _move_stats(work, side)
    report = NormalizationReport(
        moves_before=moves_before,
        moves_after=moves_after,
        distance_before_cells=distance_before,
        distance_after_cells=distance_after,
        # guard against 1-ulp overshoot when a collinear R2 merge is exact
        saved_distance_cells=max(distance_before - distance_after, 0.0),
        rewrites_applied=tuple(events),
    )
    return collapsed, report
