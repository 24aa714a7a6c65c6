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
simulated, because of three facts about the search for the partner of
``move a->b`` at stage i, which stops at the first later stage j that
touches a or b:

* **Local check.** Stages i+1..j-1 never see the atom that now lingers
  at a instead of b, and after stage j cells a, b and c hold what they
  held before: the final mapping cannot change and only stage j can become
  illegal. R1 removes the only use of a in stage j and is always legal.
  R2 is illegal exactly when another instruction of stage j touches a (in
  a legal program, a move into the vacated cell a), since ``move a->c``
  would then share a cell within the stage.
* **A failed search waits on its stop stage.** It read stages i+1..j only.
  A commit edits exactly its own two stages, and no stage before j can come
  to touch a or b, so the search can only end otherwise once stage j is
  edited. A search stopped by another move (a move into a, or a partner
  with a clash) waits in a list keyed by stage j; each commit re-queues the
  lists of its two stages, and the merged move of R2 if the scan has passed
  it. Each move the program-order scan reaches seeds one worklist of
  positions, drained in program order before the scan goes on.
* **A gate is final.** A gate of stage j on a or b is on b, since a is
  empty there. Commits never move or remove gates, and no partner can share
  a stage with it, so that move, like one whose cells no later stage
  touches, is never searched again.

Each move is thus searched once, plus once per edit of the stage it waits
on, instead of one simulation of the whole program per candidate. A search
for a move whose cells are never referenced again still runs to the end of
the program, so the pass is quadratic on programs with many such moves.
Emptied stages stay in place as tombstones until the result is built, so
positions never shift; each event's stages are converted to positions with
the empty stages dropped when it is recorded.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Sequence
from dataclasses import dataclass
from heapq import heappop, heappush

from . import grid
from .arch import ArchitectureSpec
from .evaluator import require_finite
from .rsqasm import Instruction, Move, Program, Stage


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


def _move_stats(stages: list[Sequence[Instruction]], side: int) -> tuple[int, float]:
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


def _rule(move: Move, partner: Move) -> str:
    return "R1" if partner.dst == move.src else "R2"


def _find_partner(stages: list[Sequence[Instruction]], i: int, a: int, b: int):
    """Where the search for the partner of ``move a->b`` at stage i stops.

    Returns (j, partner, clash) for the first later stage j that touches a or
    b: ``partner`` is the index of its move out of b, or None, and ``clash``
    says that another of its instructions touches a or b. Returns None when
    the move can never be folded: no later stage touches a or b, or stage j
    holds a gate, which can only be on b.
    """
    for j in range(i + 1, len(stages)):
        partner = None
        clash = False
        for oj, op in enumerate(stages[j]):
            if isinstance(op, Move) and op.src == b:
                partner = oj
            elif a in op.cells or b in op.cells:
                if not isinstance(op, Move):
                    return None
                clash = True
        if partner is not None or clash:
            return j, partner, clash
    return None


class _Pass:
    """One resumable R1/R2 scan over ``work``, edited in place.

    ``work`` starts as the program's own stage tuples; a stage becomes a list
    the first time a commit edits it, so a run with no rewrite copies nothing,
    and a list marks an edited stage.
    """

    def __init__(self, work: list[Sequence[Instruction]]):
        self.work = work
        self.events: list[RewriteEvent] = []
        self.dropped: list[int] = []  # sorted indices of emptied stages

    def run(self):
        work = self.work
        pending: list[tuple[int, int]] = []  # min-heap of move positions to check
        queued: set[tuple[int, int]] = set()
        waiting: dict[int, list[tuple[int, int]]] = {}  # stage -> moves whose search stopped there
        for i, ops in enumerate(work):
            # a commit may replace ``ops`` by an edited list; the heap loop
            # below reads each position from ``work`` again
            for oi, op in enumerate(ops):
                if not isinstance(op, Move):
                    continue
                # check this move, then, in program order, the earlier moves
                # whose search stopped at a stage a commit edits
                limit = (i, oi)
                pending.append(limit)
                while pending:
                    s, o = heappop(pending)
                    queued.discard((s, o))
                    move = work[s][o]
                    if not isinstance(move, Move):  # removed by a commit since it was queued
                        continue
                    stop = _find_partner(work, s, move.src, move.dst)
                    if stop is None:
                        continue
                    j, oj, clash = stop
                    if oj is None or clash:
                        if oj is not None:
                            import logging  # loaded only when a rewrite is skipped
                            logging.getLogger(__name__).info(
                                "skipping %s on stages (%d, %d): rewrite would break legality",
                                _rule(move, work[j][oj]), self._at(s), self._at(j),
                            )
                        waiting.setdefault(j, []).append((s, o))
                        continue
                    self._commit(s, o, move, j, oj)
                    revived = waiting.pop(s, []) + waiting.pop(j, [])
                    if isinstance(work[j][oj], Move) and (j, oj) < limit:
                        revived.append((j, oj))  # the merged move of R2
                    for pos in revived:
                        if pos not in queued:
                            queued.add(pos)
                            heappush(pending, pos)

    def _at(self, k: int) -> int:
        """Position of stage k once the stages emptied so far are dropped."""
        return k - bisect_left(self.dropped, k)

    def _commit(self, i, oi, move, j, oj):
        """Apply the rewrite of ``move`` with its partner, ``work[j][oj]``."""
        work = self.work
        partner = work[j][oj]
        rule = _rule(move, partner)
        self.events.append(RewriteEvent(rule, (self._at(i), self._at(j))))
        for k in (i, j):
            if type(work[k]) is not list:  # copy a stage on its first edit
                work[k] = list(work[k])
        work[i][oi] = _REMOVED
        work[j][oj] = _REMOVED if rule == "R1" else Move(move.src, partner.dst)
        for k in (i, j):
            if all(op is _REMOVED for op in work[k]):
                insort(self.dropped, k)

    def program(self, original: Program) -> Program:
        """The rewritten program; stages never edited are reused as they are."""
        stages = []
        for k, ops in enumerate(self.work):
            if type(ops) is not list:  # still the input's own Stage
                stages.append(ops)
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

    work = list(program.stages)
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
