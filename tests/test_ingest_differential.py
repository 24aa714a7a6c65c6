"""The per-cell frontier packer against the backward-scan reference, program
for program.

On seeded random flat circuits, with bare and listed barriers, under both
packings and on hardware whose qubits are listed in scattered order, the
staged program must equal the reference's exactly, and where the reference
raises, the packer must raise the same error with the same message.
"""

from __future__ import annotations

import json
import random

import pytest

from na_evalkit import parse_architecture, parse_flat_qasm, to_rsqasm
from na_evalkit.errors import EvalKitError
from na_evalkit.ingest import GREEDY, ONE_PER_STAGE
import ingest_reference as reference
from helpers import arch_document, make_spec

NATIVE = ("cz", "rx", "ry", "rz", "h", "s", "t")
PACKINGS = (GREEDY, ONE_PER_STAGE)


def _random_source(rng: random.Random, n_qubits: int, n_ops: int) -> str:
    lines = [f"qreg q[{n_qubits}];"] if rng.random() < 0.7 else []
    for _ in range(n_ops):
        if rng.random() < 0.1:
            roll = rng.random()
            if roll < 0.3:
                lines.append("barrier;")
            elif roll < 0.5 and lines and lines[0].startswith("qreg"):
                lines.append("barrier q;")
            else:
                listed = rng.sample(range(n_qubits), rng.randint(1, n_qubits))
                lines.append("barrier " + ", ".join(f"q[{q}]" for q in listed) + ";")
            continue
        name = rng.choice(NATIVE)
        if name == "cz":
            a, b = rng.sample(range(n_qubits), 2)
            lines.append(f"cz q[{a}], q[{b}];")
        elif name in ("rx", "ry", "rz"):
            lines.append(f"{name}({rng.uniform(-3.2, 3.2):.4f}) q[{rng.randrange(n_qubits)}];")
        else:
            lines.append(f"{name} q[{rng.randrange(n_qubits)}];")
    return "\n".join(lines)


def _scattered_spec(rng: random.Random, n_qubits: int):
    """A spec whose qubits sit on random cells, listed in random order."""
    side = rng.randint(3, 10)
    cells = rng.sample(range(side * side), min(n_qubits, side * side))
    document = json.loads(arch_document(side=side, cells=cells))
    rng.shuffle(document["parameters"]["Qubits"])
    return parse_architecture(json.dumps(document))


def _outcome(pack, circuit, spec, packing):
    try:
        return pack(circuit, spec, packing)
    except EvalKitError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("seed", range(8))
def test_frontier_packer_matches_the_reference(seed):
    rng = random.Random(seed)
    for _ in range(150):
        n_qubits = rng.randint(2, 8)
        circuit = parse_flat_qasm(_random_source(rng, n_qubits, rng.randint(0, 40)))
        # one qubit short of the circuit now and then, so both raise TooManyQubits
        spec = _scattered_spec(rng, n_qubits + rng.choice((-1, 0, 0, 0, 2)))
        for packing in PACKINGS:
            expected = _outcome(reference.to_rsqasm, circuit, spec, packing)
            assert _outcome(to_rsqasm, circuit, spec, packing) == expected


def test_scattered_placement_matches_the_reference():
    spec = make_spec(side=10, cells=[27, 3, 15])
    source = "h q[0]; cz q[0], q[2]; barrier q[1]; h q[1]; barrier; rz(0.5) q[2]; cz q[1], q[2];"
    circuit = parse_flat_qasm(source)
    for packing in PACKINGS:
        assert to_rsqasm(circuit, spec, packing) == reference.to_rsqasm(circuit, spec, packing)

