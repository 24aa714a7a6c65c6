"""Seeded benchmark inputs and the reference model used to check outputs.

Nothing here imports ``na_evalkit`` or the repository's tests: the
generator writes circuit text and a hardware document for the program to
read, and tallies what it wrote, so the program's reports can be checked
against figures computed without it.

Every move's target cell receives a one-qubit "pin" gate in the very next
stage. A pinned move cannot pair with a later move under the collapse rules
R1/R2, so the only redundancy in a generated circuit is the planted one and
the rewrite count equals the number of planted patterns for every seed.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

ONE_QUBIT_GATES = ("rx", "ry", "rz", "h", "s", "t")
ROTATIONS = frozenset({"rx", "ry", "rz"})
# cells a stage may not use are skipped by rejection sampling, this many tries
_MAX_TRIES = 16
# moves shuttle an atom at most this many cells along each axis
_REACH = 4
# stages between the two moves of a planted pattern
_GAP = 2


@dataclass(frozen=True)
class Workload:
    side: int
    atoms: int
    stages: int
    patterns: int = 0
    row_major: bool = False


WORKLOADS = {
    # large occupancy map: grid copies and the four per-model traces dominate
    "dense-10k": Workload(side=50, atoms=1000, stages=10_000),
    # Table-1 hardware: same op mix and stage count, tiny occupancy map
    "table1-10k": Workload(side=50, atoms=30, stages=10_000, row_major=True),
    # planted reversals and two-leg paths: hundreds of full re-simulations
    "collapse-2k": Workload(side=20, atoms=100, stages=2_000, patterns=250),
}


@dataclass(frozen=True)
class Hardware:
    """The Table-1 parameter set on a ``side`` x ``side`` grid."""

    side: int
    cells: tuple[int, ...]
    spacing: float = 1.0
    cz_time: float = 0.2
    one_qubit_time: float = 2.0
    cz_fidelity: float = 0.9996
    one_qubit_fidelity: float = 0.9999
    move_speed: float = 0.55
    aod_time: float = 20.0
    transfer_fidelity: float = 0.9999
    t1: float = 1.0e8
    t2: float = 1.5e6

    def gate_time(self, name: str) -> float:
        return self.cz_time if name == "cz" else self.one_qubit_time

    def move_time(self, distance_cells: float) -> float:
        return 2.0 * self.aod_time + distance_cells * self.spacing / self.move_speed

    def distance(self, a: int, b: int) -> float:
        return math.hypot(a % self.side - b % self.side, a // self.side - b // self.side)

    def initial(self) -> dict[int, int]:
        """cell -> atom id; ids follow the order of ``cells``."""
        return {cell: atom for atom, cell in enumerate(self.cells)}

    def document(self) -> str:
        qubits = [{"id": i, "x": c % self.side, "y": c // self.side}
                  for i, c in enumerate(self.cells)]
        return json.dumps({
            "schema": 1,
            "properties": {
                "nRows_nColumns_grid_side_size": self.side,
                "interQubitDistance": self.spacing,
            },
            "parameters": {
                "Qubits": qubits,
                "gateTimes": {
                    "cz": self.cz_time,
                    **{g: self.one_qubit_time for g in ONE_QUBIT_GATES},
                },
                "gateFidelities": {
                    "cz": self.cz_fidelity,
                    **{g: self.one_qubit_fidelity for g in ONE_QUBIT_GATES},
                },
                "shuttlingTimesSpeed": {
                    "move_speed": self.move_speed,
                    "aod_activate_deactivate_time": self.aod_time,
                },
                "shuttlingFidelities": {"aod_activate_deactivate": self.transfer_fidelity},
                "decoherenceTimes": {"t1": self.t1, "t2": self.t2},
            },
        }, indent=2) + "\n"


# An op is (name, params, cells); a move is ("move", (), (src, dst)).
Op = tuple[str, tuple[float, ...], tuple[int, ...]]


@dataclass
class Tally:
    """Counts and durations of a circuit, accumulated stage by stage.

    Move distances are summed per stage and then across stages, the order
    the evaluator uses, so ``distance`` matches its report bit for bit.
    """

    hw: Hardware
    stages: int = 0
    one_qubit: int = 0
    two_qubit: int = 0
    moves: int = 0
    distance: float = 0.0
    t_total: float = 0.0
    gate_time: float = 0.0

    def add_stage(self, ops: list[Op]):
        durations = []
        distances = []
        for name, _, cells in ops:
            if name == "move":
                d = self.hw.distance(*cells)
                distances.append(d)
                durations.append(self.hw.move_time(d))
                continue
            t = self.hw.gate_time(name)
            durations.append(t)
            self.gate_time += t
            if len(cells) == 2:
                self.two_qubit += 1
            else:
                self.one_qubit += 1
        longest = max(durations)
        self.moves += len(distances)
        self.distance += sum(distances)
        self.t_total += longest
        self.stages += 1

    @property
    def t_idle(self) -> float:
        return len(self.hw.cells) * self.t_total - self.gate_time


def _render_op(op: Op) -> str:
    name, params, cells = op
    head = f"{name}({params[0]!r})" if params else name
    return f"{head} " + ", ".join(f"q[{c}]" for c in cells) + ";"


_OP_RE = re.compile(r"\s*([a-z]+)(?:\(([^)]*)\))?\s+q\[(\d+)\](?:\s*,\s*q\[(\d+)\])?\s*;")


def parse_circuit(text: str) -> list[list[Op]]:
    """Stages of circuit text in the canonical one-stage-per-line form."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("//")]
    if not lines or not lines[0].startswith("RSQASM 1."):
        raise ValueError("missing RSQASM 1.x header")
    stages = []
    for line in lines[1:]:
        ops, pos = [], 0
        while pos < len(line.rstrip()):
            m = _OP_RE.match(line, pos)
            if m is None:
                raise ValueError(f"cannot read {line[pos:]!r}")
            name, param, a, b = m.groups()
            cells = (int(a),) if b is None else (int(a), int(b))
            ops.append((name, () if param is None else (float(param),), cells))
            pos = m.end()
        stages.append(ops)
    return stages


def replay(stages: list[list[Op]], hw: Hardware) -> dict[int, int]:
    """Final cell -> atom map; raises ValueError on the first illegal stage."""
    occupancy = hw.initial()
    limit = hw.side * hw.side
    for index, ops in enumerate(stages):
        seen: set[int] = set()
        for name, _, cells in ops:
            if seen & set(cells) or any(c >= limit for c in cells):
                raise ValueError(f"stage {index}: cell reused or out of range in {name}")
            seen.update(cells)
            sources = cells[:1] if name == "move" else cells
            if any(c not in occupancy for c in sources):
                raise ValueError(f"stage {index}: {name} on an empty cell")
            if name == "move" and cells[1] in occupancy:
                raise ValueError(f"stage {index}: move into occupied cell {cells[1]}")
        _apply_moves(occupancy, ops)
    return occupancy


def _apply_moves(occupancy: dict[int, int], ops: list[Op]) -> list[tuple[int, int]]:
    """Move atoms simultaneously, as a stage does; returns the (src, dst) pairs."""
    moves = [cells for name, _, cells in ops if name == "move"]
    atoms = [occupancy.pop(src) for src, _ in moves]
    for (_, dst), atom in zip(moves, atoms):
        occupancy[dst] = atom
    return moves


class _CellSet:
    """A set of cells with O(1) insert, delete and uniform random choice."""

    def __init__(self, cells):
        self.items = list(cells)
        self.pos = {c: i for i, c in enumerate(self.items)}

    def __contains__(self, cell):
        return cell in self.pos

    def add(self, cell):
        self.pos[cell] = len(self.items)
        self.items.append(cell)

    def remove(self, cell):
        i = self.pos.pop(cell)
        last = self.items.pop()
        if last != cell:
            self.items[i] = last
            self.pos[last] = i

    def pick(self, rng: random.Random, avoid) -> int | None:
        for _ in range(_MAX_TRIES):
            if not self.items:
                return None
            cell = self.items[rng.randrange(len(self.items))]
            if cell not in avoid:
                return cell
        return None


@dataclass
class Generated:
    """What the generator wrote, and what a correct program must report."""

    hw: Hardware
    circuit: str
    tally: Tally
    final: dict[int, int]
    planted: int


class _CircuitWriter:
    def __init__(self, hw: Hardware, rng: random.Random):
        self.hw = hw
        self.rng = rng
        self.occupancy = hw.initial()
        self.occupied = _CellSet(self.occupancy)
        self.empty = _CellSet(c for c in range(hw.side * hw.side) if c not in self.occupancy)
        self.pins: list[int] = []
        self.lines = ["RSQASM 1.0;"]
        self.tally = Tally(hw)

    def emit(self, ops: list[Op], pin_moves: bool = True):
        """Write one stage, apply its moves, and pin their targets next stage."""
        self.lines.append("".join(_render_op(op) for op in ops))
        self.tally.add_stage(ops)
        moves = _apply_moves(self.occupancy, ops)
        for src, dst in moves:
            self.occupied.remove(src)
            self.empty.add(src)
            self.empty.remove(dst)
            self.occupied.add(dst)
        self.pins = [dst for _, dst in moves] if pin_moves else []

    def pin_ops(self, used: set[int]) -> list[Op]:
        used.update(self.pins)
        return [(self.rng.choice(("h", "s", "t")), (), (c,)) for c in self.pins]

    def random_ops(self, used: set[int], forbidden=frozenset()) -> list[Op]:
        rng = self.rng
        avoid = _Avoid(used, forbidden)
        ops: list[Op] = []
        for _ in range(rng.randint(1, 4)):
            roll = rng.random()
            if roll < 0.45:
                cell = self.occupied.pick(rng, avoid)
                if cell is None:
                    continue
                name = rng.choice(ONE_QUBIT_GATES)
                params = (rng.uniform(-3.2, 3.2),) if name in ROTATIONS else ()
                ops.append((name, params, (cell,)))
                used.add(cell)
            elif roll < 0.70:
                a = self.occupied.pick(rng, avoid)
                if a is None:
                    continue
                used.add(a)
                b = self.occupied.pick(rng, avoid)
                if b is None:
                    used.discard(a)
                    continue
                ops.append(("cz", (), (a, b)))
                used.add(b)
            else:
                src = self.occupied.pick(rng, avoid)
                dst = None if src is None else self.empty_near(src, avoid)
                if dst is None:
                    continue
                ops.append(("move", (), (src, dst)))
                used.update((src, dst))
        return ops

    def empty_near(self, src: int, avoid) -> int | None:
        side = self.hw.side
        x, y = src % side, src // side
        for _ in range(_MAX_TRIES):
            nx = x + self.rng.randint(-_REACH, _REACH)
            ny = y + self.rng.randint(-_REACH, _REACH)
            cell = ny * side + nx
            if 0 <= nx < side and 0 <= ny < side and cell in self.empty and cell not in avoid:
                return cell
        return None

    def filler(self, forbidden=frozenset()):
        used: set[int] = set()
        ops = self.pin_ops(used) + self.random_ops(used, forbidden)
        while not ops:
            ops = self.random_ops(used, forbidden)
        self.emit(ops)

    def pattern(self, reversal: bool):
        """move a->b, a gap that avoids a and b, then b->a (R1) or b->c (R2)."""
        used: set[int] = set()
        ops = self.pin_ops(used)
        a = b = None
        while b is None:
            a = self.occupied.pick(self.rng, used)
            b = None if a is None else self.empty_near(a, used)
        self.emit(ops + [("move", (), (a, b))], pin_moves=False)
        for _ in range(_GAP):
            self.filler(forbidden={a, b})
        used = set()
        ops = self.pin_ops(used)
        c = a if reversal else self.empty_near(b, {a})
        if c is None:
            c = self.empty.pick(self.rng, {a})
        self.emit(ops + [("move", (), (b, c))])


class _Avoid:
    """Membership in either of two sets, without building their union."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def __contains__(self, cell):
        return cell in self.a or cell in self.b


def generate(name: str, seed: int, scale: float = 1.0) -> Generated:
    """Build workload ``name`` from ``seed``; ``scale`` shrinks it for smoke tests."""
    w = WORKLOADS[name]
    rng = random.Random(f"{name}/{seed}")
    cell_count = w.side * w.side
    cells = range(w.atoms) if w.row_major else sorted(rng.sample(range(cell_count), w.atoms))
    hw = Hardware(w.side, tuple(cells))
    stages = max(1, round(w.stages * scale))
    patterns = round(w.patterns * scale)
    per_pattern = _GAP + 2
    filler_each = (stages - patterns * per_pattern) // (patterns + 1)

    b = _CircuitWriter(hw, rng)
    for k in range(patterns):
        for _ in range(filler_each):
            b.filler()
        b.pattern(reversal=k % 2 == 0)
    while b.tally.stages < stages:
        b.filler()
    return Generated(
        hw=hw,
        circuit="\n".join(b.lines) + "\n",
        tally=b.tally,
        final=dict(b.occupancy),
        planted=patterns,
    )


def write_inputs(gen: Generated, directory: Path) -> tuple[Path, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    circuit = directory / "circuit.rsqasm"
    arch = directory / "arch.json"
    circuit.write_text(gen.circuit, encoding="utf-8")
    arch.write_text(gen.hw.document(), encoding="utf-8")
    return circuit, arch
