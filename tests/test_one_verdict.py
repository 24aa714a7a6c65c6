"""One circuit gets one verdict from every command that walks it.

The first illegal stage ends ``validate``, ``evaluate`` under each model and
``normalize`` alike, with one byte-identical ``error[IllegalStage]: stage
<k>: ...`` line on stderr and exit 2, and ``compare``'s row carries the same
text. The cascade cases put a legal move into the illegal stage and use its
target in the next stage: a walk that went on from an occupancy where the
illegal stage did nothing would report that next stage too.
"""

import contextlib
import io
import json
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from na_evalkit import (
    Gate, Move, Program, Stage, apply_stage, initial_state, serialize_program, trace_program,
)
from na_evalkit.cli import main
from na_evalkit.errors import IllegalStage
from na_evalkit.models import Model
from helpers import arch_document, make_spec, random_legal_program

TABLE1_ARCH = str(Path(__file__).parent / "golden" / "table1" / "arch.json")
CASCADE = "RSQASM 1.0;\nmove q[0], q[55];move q[2], q[1];\nh q[55];\n"
CASCADE_ERROR = "stage 0: MoveToOccupiedCell: instruction 1 references cell 1"


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_one_verdict(circuit: str, arch: str, error: str):
    """Every command that walks ``circuit`` exits 2 with nothing on stdout and
    ``error`` (``stage <k>: ...``) as its one IllegalStage line, and
    ``compare``'s row carries the same text."""
    commands = [
        ["validate", circuit, arch],
        ["normalize", circuit, arch],
        *(["evaluate", circuit, arch, "--model", model.value] for model in Model),
    ]
    for argv in commands:
        assert _run(argv) == (2, "", f"error[IllegalStage]: {error}\n"), argv
    code, out, err = _run(["compare", circuit, "--arch", arch, "--format", "json"])
    assert (code, err) == (2, "")
    [row] = json.loads(out)["rows"]
    assert row["error"] == f"IllegalStage: {error}"


def test_the_table1_cascade_gets_one_verdict(tmp_path):
    circuit = tmp_path / "cascade.rsqasm"
    circuit.write_text(CASCADE)
    _assert_one_verdict(str(circuit), TABLE1_ARCH, CASCADE_ERROR)


def test_validate_warns_for_the_illegal_stage_before_its_error_line(tmp_path):
    circuit = tmp_path / "spread.rsqasm"
    circuit.write_text(
        "RSQASM 1.0;\ncz q[0], q[29];\ncz q[0], q[29];move q[2], q[1];\ncz q[0], q[29];\n"
    )
    code, out, err = _run(["validate", str(circuit), TABLE1_ARCH, "--interaction-radius", "2"])
    warning = "instruction 0: cz operands 0 and 29 are farther apart than radius 2.0"
    error = "stage 1: MoveToOccupiedCell: instruction 1 references cell 1"
    assert (code, out) == (2, "")
    assert err == (
        f"warning: stage 0: {warning}\n"
        f"warning: stage 1: {warning}\n"
        f"error[IllegalStage]: {error}\n"
    )
    _assert_one_verdict(str(circuit), TABLE1_ARCH, error)


@st.composite
def _illegal_programs(draw):
    """(side, cells, program, k): a drawn legal program whose stage k gains a
    move onto an occupied cell or a gate on an empty one. In a cascade, stage
    k also gains a legal move a->b, and a new stage k+1 holds a gate on b."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    side = draw(st.integers(3, 6))
    cells = sorted(rng.sample(range(side * side), draw(st.integers(3, side * side - 3))))
    spec = make_spec(side=side, cells=cells)
    stages = list(random_legal_program(rng, spec, max_stages=8).stages)
    k = draw(st.integers(0, len(stages)))  # k == len(stages): a new last stage
    state = initial_state(spec)
    for stage in stages[:k]:
        state = apply_stage(state, stage)
    ops = list(stages[k]) if k < len(stages) else []
    used = {cell for op in ops for cell in op.cells}
    occupied = [c for c in sorted(state.occupancy) if c not in used]
    empty = [c for c in range(side * side) if c not in state.occupancy and c not in used]
    later = []
    if draw(st.booleans()) and occupied and empty:
        a, b = occupied.pop(rng.randrange(len(occupied))), empty.pop(rng.randrange(len(empty)))
        ops.append(Move(a, b))
        later.append(Stage((Gate("h", (), (b,)),)))
    if draw(st.booleans()) and len(occupied) >= 2:
        illegal = Move(*rng.sample(occupied, 2))
    else:
        assume(empty)
        illegal = Gate("h", (), (rng.choice(empty),))
    ops.insert(rng.randint(0, len(ops)), illegal)
    stages[k:k + 1] = [Stage(tuple(ops)), *later]
    return side, cells, Program(1, 0, tuple(stages)), k


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("one-verdict")


@settings(max_examples=60, deadline=None)
@given(_illegal_programs())
def test_every_command_stops_at_the_first_illegal_stage(workdir, drawn):
    side, cells, program, k = drawn
    with pytest.raises(IllegalStage) as raised:
        trace_program(program, make_spec(side=side, cells=cells))
    assert raised.value.stage_index == k
    arch, circuit = workdir / "arch.json", workdir / "circuit.rsqasm"
    arch.write_text(arch_document(side=side, cells=cells))
    circuit.write_text(serialize_program(program))
    _assert_one_verdict(str(circuit), str(arch), str(raised.value))
