"""Collapse of redundant shuttling patterns that cancel at the grid level.

Two rewrite rules run to a fixed point, earliest-first in program order:

* R1 (reversal): ``move a->b`` followed later by ``move b->a``, with no
  instruction in between touching cell a or cell b, deletes both moves (the
  excursion never changes the effective grid state).
* R2 (path): ``move a->b`` followed later by ``move b->c`` (c != a), with no
  instruction in between touching cell a or cell b, becomes a single
  ``move a->c`` placed at the later stage (cell c is known free there; the
  atom simply lingers at a, which nothing references in the gap).

A rewrite is committed only when the rewritten program is still legal and
reaches the same final atom-to-cell mapping; otherwise it is skipped and
logged. Every committed rewrite strictly decreases the move count, so the
pass terminates. Stages emptied by deletion are dropped. Unlike a mere
statistics pass, the collapsed program is emitted as executable text again.

The input is simulated once, to check that it is legal. No rewrite is
simulated, because of two facts:

* **Local check.** The partner is found in the first later stage j that
  touches a or b, so stages i+1..j-1 never see the atom that now lingers
  at a instead of b, and after stage j cells a, b and c hold what they
  held before: the final mapping cannot change and only stage j can become
  illegal. R1 removes the only use of a in stage j and is always legal.
  R2 is illegal exactly when another instruction of stage j touches a (in
  a legal program, a move into the vacated cell a), since ``move a->c``
  would then share a cell within the stage. The check reads only cells
  {a, b, c} in stages i..j.
* **Resume, don't restart.** A commit changes references to cells
  {a, b, c} only, so a move that failed earlier can succeed afterwards only
  if it touches one of them. Each move the program-order scan reaches
  seeds one worklist of positions, drained in program order before the
  scan goes on: first the move itself, then every earlier move on the
  cells of each commit the worklist makes.

Each move is thus searched for a partner once, plus once more per commit
that touches its cells, and each search stops at the first later stage that
touches the move's cells: near-linear in program size, instead of one
simulation of the whole program per candidate. Emptied stages stay in
place as tombstones until the result is built, so instruction positions
never shift; event stage numbers are converted to positions at application
time (empty stages dropped) when each event is recorded.
"""

from __future__ import annotations

import logging
from bisect import bisect_left, insort
from dataclasses import dataclass
from heapq import heappop, heappush

from . import grid
from .arch import ArchitectureSpec
from .evaluator import require_finite
from .rsqasm import Instruction, Move, Program, Stage

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RewriteEvent:
    """One committed rewrite; stage indices are positions at application time."""

    rule: str
    stages: tuple[int, int]


@dataclass(frozen=True)
class NormalizationReport:
    moves_before: int
    moves_after: int
    distance_before_cells: float
    distance_after_cells: float
    saved_distance_cells: float
    rewrites_applied: tuple[RewriteEvent, ...]

    def __post_init__(self):
        require_finite(self)


def _move_stats(stages: list[list[Instruction]], side: int) -> tuple[int, float]:
    """Move count and total distance, each stage's moves summed first and the
    stage sums then added in order, as :func:`evaluator.trace_program` does."""
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


class _Removed:
    """Placeholder for a deleted instruction: not a move and touches no cell."""

    cells = ()


_REMOVED = _Removed()


def _find_partner(stages: list[list[Instruction]], i: int, a: int, b: int):
    """First later move out of cell b with no reference to a or b in the gap.

    Returns (stage index, op index, clash) or None, where ``clash`` says that
    another instruction of the partner's stage touches a or b; such a stage
    still yields the partner, and the caller skips the rewrite.
    """
    for j in range(i + 1, len(stages)):
        partner = None
        blocked = False
        for oj, op in enumerate(stages[j]):
            if isinstance(op, Move) and op.src == b:
                partner = oj
            elif a in op.cells or b in op.cells:
                blocked = True
        if partner is not None:
            return j, partner, blocked
        if blocked:
            return None
    return None


class _Pass:
    """One resumable R1/R2 scan over ``work``, edited in place."""

    def __init__(self, work: list[list[Instruction]]):
        self.work = work
        self.events: list[RewriteEvent] = []
        self.dropped: list[int] = []  # sorted indices of emptied stages
        self.edited: set[int] = set()
        # cell -> sorted (stage, op) positions of moves touching it; built at
        # the first commit, so a program without rewrites never pays for it
        self.moves_at: dict[int, list[tuple[int, int]]] | None = None

    def run(self):
        work = self.work
        pending: list[tuple[int, int]] = []  # min-heap of move positions to check
        queued: set[tuple[int, int]] = set()
        for i, ops in enumerate(work):
            for oi, op in enumerate(ops):
                if not isinstance(op, Move):
                    continue
                # check this move, then, in program order, the earlier moves
                # on every cell a commit touches
                limit = (i, oi)
                pending.append(limit)
                while pending:
                    s, o = heappop(pending)
                    queued.discard((s, o))
                    move = work[s][o]
                    if not isinstance(move, Move):  # removed by a commit since it was queued
                        continue
                    found = _find_partner(work, s, move.src, move.dst)
                    if found is None:
                        continue
                    for cell in self._commit(s, o, move, *found) or ():
                        for pos in self.moves_at.get(cell, ()):
                            if pos >= limit:
                                break
                            other = work[pos[0]][pos[1]]
                            # skip index entries left stale by earlier commits
                            if isinstance(other, Move) and cell in other.cells and pos not in queued:
                                queued.add(pos)
                                heappush(pending, pos)

    def _at(self, k: int) -> int:
        """Position of stage k once the stages emptied so far are dropped."""
        return k - bisect_left(self.dropped, k)

    def _commit(self, i, oi, move, j, oj, clash):
        """Apply the rewrite of ``move`` with its partner; the touched cells, or None."""
        work = self.work
        partner = work[j][oj]
        rule = "R1" if partner.dst == move.src else "R2"
        stages = (self._at(i), self._at(j))
        if clash:
            logger.info(
                "skipping %s on stages (%d, %d): rewrite would break legality",
                rule, *stages,
            )
            return None
        self.events.append(RewriteEvent(rule, stages))
        work[i][oi] = _REMOVED
        work[j][oj] = _REMOVED if rule == "R1" else Move(move.src, partner.dst)
        self.edited.update((i, j))
        for k in (i, j):
            if all(op is _REMOVED for op in work[k]):
                insort(self.dropped, k)
        if self.moves_at is None:
            self.moves_at = {}
            for s, ops in enumerate(work):
                for o, op in enumerate(ops):
                    if isinstance(op, Move):
                        self.moves_at.setdefault(op.src, []).append((s, o))
                        self.moves_at.setdefault(op.dst, []).append((s, o))
        elif rule == "R2":
            # the merged move now touches a; its entry under b goes stale
            insort(self.moves_at.setdefault(move.src, []), (j, oj))
        return move.src, move.dst, partner.dst

    def program(self, original: Program) -> Program:
        """The rewritten program; stages never edited are reused as they are."""
        stages = []
        for k, ops in enumerate(self.work):
            if k not in self.edited:
                stages.append(original.stages[k])
                continue
            kept = tuple(op for op in ops if op is not _REMOVED)
            if kept:
                stages.append(Stage(kept))
        return Program(original.version_major, original.version_minor, tuple(stages))


def collapse(program: Program, spec: ArchitectureSpec) -> tuple[Program, NormalizationReport]:
    """Apply R1/R2 to a fixed point; returns the collapsed program and a report.

    The input must be legal under grid simulation from the spec's initial
    placement (the simulation's IllegalStage otherwise). The result is legal
    and reaches the same final atom-to-cell mapping as the input. Raises
    NonFiniteResult when its moves travel farther in total than the largest float.
    """
    grid.simulate(grid.initial_state(spec), program)
    side = spec.grid_side

    work = [list(stage) for stage in program.stages]
    moves_before, distance_before = _move_stats(work, side)
    rewrite = _Pass(work)
    rewrite.run()
    collapsed, moves_after, distance_after = program, moves_before, distance_before
    if rewrite.events:  # only a committed rewrite changes the program and its figures
        collapsed = rewrite.program(program)
        moves_after, distance_after = _move_stats(work, side)
    report = NormalizationReport(
        moves_before=moves_before,
        moves_after=moves_after,
        distance_before_cells=distance_before,
        distance_after_cells=distance_after,
        # guard against 1-ulp overshoot when a collinear R2 merge is exact
        saved_distance_cells=max(distance_before - distance_after, 0.0),
        rewrites_applied=tuple(rewrite.events),
    )
    return collapsed, report
