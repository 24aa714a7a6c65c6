"""Reference staging: the packer that scans back over per-stage cell sets.

This is the original body of :func:`na_evalkit.ingest.to_rsqasm`, kept
verbatim as an oracle. For each gate it walks back from the last stage to the
first one that touches any of the gate's cells, then raises that position to
the latest barrier fence on those cells. The per-cell frontier must stage
every circuit into the same program.
"""

from __future__ import annotations

from na_evalkit.arch import ArchitectureSpec
from na_evalkit.errors import TooManyQubits
from na_evalkit.ingest import GREEDY, ONE_PER_STAGE, FlatBarrier, FlatCircuit
from na_evalkit.rsqasm import Gate, Program, Stage


def to_rsqasm(circuit: FlatCircuit, spec: ArchitectureSpec, packing: str = GREEDY) -> Program:
    """Embed a flat circuit onto the spec's placed cells and stage it.

    ``one-per-stage`` gives every gate its own stage. ``greedy`` packs each
    gate into the earliest stage whose cells are untouched, scanning back
    from the end until a dependency, which preserves per-qubit program
    order; barriers fence their qubits so nothing packs across them.
    """
    if packing not in (GREEDY, ONE_PER_STAGE):
        raise ValueError(f"unknown packing {packing!r}")
    placed = sorted(q.y * spec.grid_side + q.x for q in spec.qubits)
    if circuit.qubit_count > len(placed):
        raise TooManyQubits(
            f"circuit uses {circuit.qubit_count} qubits, architecture places {len(placed)}"
        )

    stages: list[list[Gate]] = []
    stage_cells: list[set[int]] = []
    fence: dict[int, int] = {}

    for op in circuit.ops:
        if isinstance(op, FlatBarrier):
            targets = op.qubits if op.qubits else range(circuit.qubit_count)
            for q in targets:
                fence[placed[q]] = len(stages)
            continue
        cells = tuple(placed[q] for q in op.qubits)
        gate = Gate(op.name, op.params, cells)
        if packing == ONE_PER_STAGE:
            stages.append([gate])
            stage_cells.append(set(cells))
            continue
        k = len(stages)
        while k > 0 and not stage_cells[k - 1].intersection(cells):
            k -= 1
        k = max([k] + [fence.get(c, 0) for c in cells])
        if k == len(stages):
            stages.append([])
            stage_cells.append(set())
        stages[k].append(gate)
        stage_cells[k].update(cells)

    return Program(1, 0, tuple(Stage(tuple(ops)) for ops in stages))
