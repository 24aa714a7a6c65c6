import json
import random
from heapq import heappush
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import collapse_reference
from na_evalkit import (
    Gate,
    Move,
    Program,
    Stage,
    collapse,
    evaluate_unified,
    grid,
    initial_state,
    parse_architecture,
    parse_program,
    serialize_program,
    simulate,
)
from na_evalkit import normalize
from na_evalkit.cli import main
from na_evalkit.errors import IllegalStage
from helpers import arch_document, make_spec, random_legal_program, random_program_with_redundancy

REVERSAL_TEXT = (
    "RSQASM 1.0;\n"
    "cz q[1034], q[1033];\n"
    "move q[1034], q[1028];\n"
    "move q[1028], q[1034];\n"
    "h q[1034];\n"
)

TWO_LEG_PATH_TEXT = (
    "RSQASM 1.0;\n"
    "cz q[1034], q[1033];\n"
    "move q[1034], q[865];\n"
    "move q[865], q[1029];\n"
    "move q[1201], q[1034];\n"
    "h q[1028];\n"
)

NESTED_TEXT = (
    "RSQASM 1.0;\n"
    "cz q[1029], q[1028];cz q[1034], q[1033];\n"
    "move q[1034], q[1201];\n"
    "move q[1029], q[865];\n"
    "move q[865], q[1029];\n"
    "move q[1201], q[1034];\n"
    "h q[1029];\n"
)


def _final_mapping(program, spec):
    return simulate(initial_state(spec), program).atom_cells()


def test_reversal_pair_removed():
    spec = make_spec(side=50, cells=[1033, 1034])
    program = parse_program(REVERSAL_TEXT)
    collapsed, report = collapse(program, spec)
    assert report.moves_before == 2 and report.moves_after == 0
    assert [e.rule for e in report.rewrites_applied] == ["R1"]
    assert report.saved_distance_cells == pytest.approx(12.0)  # 6 cells out, 6 back
    assert serialize_program(collapsed) == "RSQASM 1.0;\ncz q[1034], q[1033];\nh q[1034];\n"
    assert _final_mapping(collapsed, spec) == _final_mapping(program, spec)


def test_two_leg_path_merged():
    spec = make_spec(side=50, cells=[1028, 1033, 1034, 1201])
    program = parse_program(TWO_LEG_PATH_TEXT)
    collapsed, report = collapse(program, spec)
    assert report.moves_before == 3 and report.moves_after == 2
    assert [e.rule for e in report.rewrites_applied] == ["R2"]
    moves = [op for st in collapsed.stages for op in st.ops if isinstance(op, Move)]
    assert Move(1034, 1029) in moves and Move(1201, 1034) in moves
    assert report.saved_distance_cells > 0
    assert _final_mapping(collapsed, spec) == _final_mapping(program, spec)


def test_nested_reversals_all_removed():
    spec = make_spec(side=50, cells=[1028, 1029, 1033, 1034])
    program = parse_program(NESTED_TEXT)
    collapsed, report = collapse(program, spec)
    assert report.moves_before == 4 and report.moves_after == 0
    assert sorted(e.rule for e in report.rewrites_applied) == ["R1", "R1"]
    assert serialize_program(collapsed) == (
        "RSQASM 1.0;\ncz q[1029], q[1028];cz q[1034], q[1033];\nh q[1029];\n"
    )
    assert _final_mapping(collapsed, spec) == _final_mapping(program, spec)


def test_irredundant_program_unchanged(table1_spec):
    program = parse_program("RSQASM 1.0;\nh q[0];\nmove q[1], q[51];\ncz q[0], q[51];\n")
    collapsed, report = collapse(program, table1_spec)
    assert collapsed == program
    assert report.moves_before == report.moves_after == 1
    assert report.saved_distance_cells == 0.0
    assert report.rewrites_applied == ()


@pytest.mark.parametrize("text, passes", [
    ("RSQASM 1.0;\nh q[0];\nmove q[1], q[51];\ncz q[0], q[51];\n", 1),
    ("RSQASM 1.0;\nmove q[0], q[50];\nmove q[50], q[0];\n", 2),
])
def test_move_figures_are_recounted_only_after_a_rewrite(table1_spec, monkeypatch, text, passes):
    counted = []
    move_stats = normalize._move_stats
    monkeypatch.setattr(normalize, "_move_stats", lambda *a: counted.append(a) or move_stats(*a))
    collapse(parse_program(text), table1_spec)
    assert len(counted) == passes


def test_gate_in_the_gap_blocks_reversal(table1_spec):
    # the h on the parked cell depends on the atom being there
    program = parse_program("RSQASM 1.0;\nmove q[0], q[50];\nh q[50];\nmove q[50], q[0];\n")
    collapsed, report = collapse(program, table1_spec)
    assert collapsed == program
    assert report.moves_after == 2


def test_move_into_vacated_source_blocks_merge():
    # after 0 -> 1, another atom claims cell 0; merging 0 -> 1 -> 3 would
    # leave the first atom parked on 0 and break that claim
    spec = make_spec(side=4, cells=[0, 2])
    program = parse_program("RSQASM 1.0;\nmove q[0], q[1];\nmove q[2], q[0];\nmove q[1], q[3];\n")
    collapsed, report = collapse(program, spec)
    assert collapsed == program
    assert report.moves_after == 3


def test_rewrite_skipped_when_stage_would_conflict(caplog):
    # stage 2 pairs the second leg with a move into the vacated source cell;
    # merging would make two instructions of one stage share cell 0
    spec = make_spec(side=4, cells=[0, 3])
    program = parse_program("RSQASM 1.0;\nmove q[0], q[1];\nmove q[1], q[2];move q[3], q[0];\n")
    with caplog.at_level("INFO", logger="na_evalkit.normalize"):
        collapsed, report = collapse(program, spec)
    assert collapsed == program
    assert report.rewrites_applied == ()
    assert any("skipping R2" in message for message in caplog.messages)


def test_illegal_input_rejected(table1_spec):
    program = parse_program("RSQASM 1.0;\nh q[0];\nmove q[0], q[1];\n")
    with pytest.raises(IllegalStage) as raised:  # the simulation's own error
        collapse(program, table1_spec)
    assert raised.value.stage_index == 1
    assert raised.value.diagnosis is not None


def test_normalize_reports_an_illegal_input_as_evaluate_does(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NA_EVALKIT_COLOR", "never")
    circuit = tmp_path / "bad.rsqasm"
    circuit.write_text("RSQASM 1.0;\nh q[0];\nmove q[0], q[1];\n")
    arch = str(Path(__file__).parent / "golden" / "table1" / "arch.json")
    errors = []
    for command in ("validate", "evaluate", "normalize"):
        assert main([command, str(circuit), arch]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0].startswith("error[IllegalStage]: stage 1: ")
    assert errors[2] == errors[1] == errors[0]


def test_collapse_is_idempotent_on_seeded_programs():
    spec = make_spec(side=6, cells=list(range(8)))
    rng = random.Random(424242)
    rewrites_seen = 0
    for _ in range(120):
        program = random_program_with_redundancy(rng, spec)
        collapsed, report = collapse(program, spec)
        rewrites_seen += len(report.rewrites_applied)
        assert report.moves_after <= report.moves_before
        assert report.saved_distance_cells >= 0.0
        assert report.distance_after_cells <= report.distance_before_cells
        assert _final_mapping(collapsed, spec) == _final_mapping(program, spec)
        again, second = collapse(collapsed, spec)
        assert again == collapsed
        assert second.rewrites_applied == ()
    assert rewrites_seen > 0  # the generator must actually seed patterns


def test_revived_candidate_is_committed():
    # 7 -> 10 is blocked at first: 4 -> 7 moves into cell 7 in the next
    # stage, so its search stops there and waits on stage 1. Committing R2
    # (1, 3), 4 -> 7 -> 3, edits and empties stage 1, which re-queues
    # 7 -> 10 and unblocks 7 -> 10 -> 9. Only a re-check of the moves waiting
    # on an edited stage finds it; a forward-only scan stops after one rewrite.
    spec = make_spec(side=4, cells=[4, 7, 8, 11])
    program = parse_program(
        "RSQASM 1.0;\n"
        "move q[7], q[10];\n"
        "move q[4], q[7];\n"
        "move q[8], q[12];move q[10], q[9];\n"
        "move q[7], q[3];\n"
    )
    collapsed, report = collapse(program, spec)
    assert [(e.rule, e.stages) for e in report.rewrites_applied] == [
        ("R2", (1, 3)), ("R2", (0, 1)),
    ]
    assert serialize_program(collapsed) == (
        "RSQASM 1.0;\nmove q[8], q[12];move q[7], q[9];\nmove q[4], q[3];\n"
    )
    assert (collapsed, report) == collapse_reference.collapse(program, spec)


def test_a_stage_edited_twice_keeps_both_edits():
    # R2 (0, 1) merges 0 -> 1 -> 2 into stage 1, which is copied on that
    # first edit; R1 then removes the merged move with 2 -> 0 from the same
    # copy. Stage 3 is never edited and stays the input's own record.
    spec = make_spec(side=4, cells=[0, 5, 7])
    program = parse_program(
        "RSQASM 1.0;\n"
        "move q[0], q[1];\n"
        "move q[1], q[2];h q[5];move q[7], q[8];\n"
        "move q[2], q[0];\n"
        "h q[8];\n"
    )
    collapsed, report = collapse(program, spec)
    assert [(e.rule, e.stages) for e in report.rewrites_applied] == [
        ("R2", (0, 1)), ("R1", (0, 1)),
    ]
    assert serialize_program(collapsed) == "RSQASM 1.0;\nh q[5];move q[7], q[8];\nh q[8];\n"
    assert collapsed.stages[1] is program.stages[3]
    assert (collapsed, report) == collapse_reference.collapse(program, spec)


def test_collapse_simulates_once(monkeypatch):
    spec = make_spec(side=8, cells=list(range(0, 64, 3)))
    program = random_program_with_redundancy(random.Random(7), spec, patterns=40)
    calls = []
    original = grid.simulate

    def counting(state, simulated):
        calls.append(simulated)
        return original(state, simulated)

    monkeypatch.setattr(grid, "simulate", counting)
    _, report = collapse(program, spec)
    assert len(report.rewrites_applied) >= 20
    assert calls == [program]


def _assert_matches_reference(program, spec):
    fast = collapse(program, spec)
    assert fast == collapse_reference.collapse(program, spec)
    return fast[1].rewrites_applied


@st.composite
def _move_heavy_programs(draw):
    """A legal program on a small, crowded grid, three moves to one gate."""
    side = draw(st.integers(2, 4))
    cells = draw(st.lists(
        st.integers(0, side * side - 1), unique=True, min_size=1, max_size=side * side - 1,
    ))
    occupied = set(cells)
    stages = []
    for _ in range(draw(st.integers(0, 16))):
        used: set[int] = set()
        ops = []
        for _ in range(draw(st.integers(1, 3))):
            sources = sorted(occupied - used)
            targets = sorted(set(range(side * side)) - occupied - used)
            if not sources:
                break
            if targets and draw(st.sampled_from(["move", "move", "move", "gate"])) == "move":
                src, dst = draw(st.sampled_from(sources)), draw(st.sampled_from(targets))
                ops.append(Move(src, dst))
                used.update((src, dst))
            else:
                cell = draw(st.sampled_from(sources))
                ops.append(Gate("h", (), (cell,)))
                used.add(cell)
        if ops:
            moves = [op for op in ops if isinstance(op, Move)]
            occupied.difference_update(m.src for m in moves)
            occupied.update(m.dst for m in moves)
            stages.append(Stage(tuple(ops)))
    return make_spec(side=side, cells=cells), Program(1, 0, tuple(stages))


@settings(max_examples=200, deadline=None)
@given(_move_heavy_programs())
def test_collapse_matches_reference_on_drawn_programs(case):
    spec, program = case
    _assert_matches_reference(program, spec)


def test_collapse_matches_reference_on_seeded_programs():
    rewrites = revived = 0
    for seed in range(1000):
        rng = random.Random(seed)
        side = rng.randint(3, 6)
        cells = rng.sample(range(side * side), rng.randint(1, side * side - 1))
        spec = make_spec(side=side, cells=cells)
        if seed % 2:
            program = random_program_with_redundancy(rng, spec, patterns=rng.randint(1, 6))
        else:
            program = random_legal_program(rng, spec, max_stages=20)
        events = _assert_matches_reference(program, spec)
        rewrites += len(events)
        # a commit earlier than the one before it came from a re-check
        revived += sum(b.stages[0] < a.stages[0] for a, b in zip(events, events[1:]))
    assert rewrites > 1000 and revived > 0


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(normalize, name)
    monkeypatch.setattr(normalize, name, lambda *a: calls.append(a) or original(*a))
    return calls


def test_each_move_is_searched_at_most_once_on_a_seeded_program(monkeypatch):
    # 908 moves and 431 rewrites: a failed search is repeated only once the
    # stage where it stopped is edited
    spec = make_spec(side=20, cells=range(0, 400, 4))
    program = random_program_with_redundancy(random.Random(7), spec, patterns=250)
    searches = _count_calls(monkeypatch, "_find_partner")
    _, report = collapse(program, spec)
    assert len(report.rewrites_applied) > 400
    assert len(searches) <= report.moves_before


def _push_once(heap, pos):
    assert pos not in heap, f"{pos} is pending twice"
    heappush(heap, pos)


@pytest.mark.parametrize("seed, skips", [
    pytest.param(603, True, id="603"),
    pytest.param(646, True, id="646"),
    pytest.param(2269, True, id="2269"),
    pytest.param(2680, True, id="2680"),
    # a commit re-queues a move that is still pending, and no commit
    # removes a queued one
    pytest.param(1294, False, id="1294"),
])
def test_a_queued_move_removed_by_a_later_commit_is_skipped(monkeypatch, seed, skips):
    # on these seeds a commit removes a move that an earlier commit queued
    # for a re-check, before the worklist reaches it; no position is ever
    # pending twice
    rng = random.Random(seed)
    side = rng.randint(2, 6)
    n = rng.randint(1, side * side - 1)
    spec = make_spec(side=side, cells=sorted(rng.sample(range(side * side), n)))
    program = random_program_with_redundancy(rng, spec, patterns=rng.randint(3, 30))
    pops = _count_calls(monkeypatch, "heappop")
    searches = _count_calls(monkeypatch, "_find_partner")
    monkeypatch.setattr(normalize, "heappush", _push_once)
    assert _assert_matches_reference(program, spec)
    if skips:  # a popped position that no longer holds a move is not searched
        assert len(pops) > len(searches)


def _assert_move_figures_equal_evaluate(program, spec):
    collapsed, report = collapse(program, spec)
    before, after = evaluate_unified(program, spec), evaluate_unified(collapsed, spec)
    assert report.moves_before == before.move_count
    assert report.distance_before_cells == before.total_move_distance_cells
    assert report.moves_after == after.move_count
    assert report.distance_after_cells == after.total_move_distance_cells
    # only the saved distance is floored against a 1-ulp overshoot of an
    # exact collinear merge
    assert report.saved_distance_cells == max(
        before.total_move_distance_cells - after.total_move_distance_cells, 0.0
    )
    return len(report.rewrites_applied)


# one atom on cell 0 of a 20x20 grid takes two diagonal legs that R2 merges;
# the two legs sum one ulp below the merged move's length
COLLINEAR_SIDE, COLLINEAR_CELLS = 20, [0]
COLLINEAR_TEXT = "RSQASM 1.0;\nmove q[0], q[21];\nmove q[21], q[84];\n"


def test_collinear_merge_reports_evaluates_distance():
    spec = make_spec(side=COLLINEAR_SIDE, cells=COLLINEAR_CELLS)
    collapsed, report = collapse(parse_program(COLLINEAR_TEXT), spec)
    assert serialize_program(collapsed) == "RSQASM 1.0;\nmove q[0], q[84];\n"
    after = evaluate_unified(collapsed, spec)
    assert report.distance_after_cells > report.distance_before_cells  # the overshoot
    assert report.distance_after_cells == after.total_move_distance_cells
    assert report.saved_distance_cells == 0.0
    _assert_move_figures_equal_evaluate(parse_program(COLLINEAR_TEXT), spec)


def test_collinear_merge_through_the_cli(tmp_path, capsys):
    arch = tmp_path / "arch.json"
    arch.write_text(arch_document(side=COLLINEAR_SIDE, cells=COLLINEAR_CELLS))
    circuit, emitted = tmp_path / "in.rsqasm", tmp_path / "out.rsqasm"
    circuit.write_text(COLLINEAR_TEXT)
    argv = [str(circuit), str(arch), "--format", "json"]
    assert main(["normalize", *argv, "--emit", str(emitted)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert main(["evaluate", str(emitted), str(arch), "--format", "json"]) == 0
    evaluated = json.loads(capsys.readouterr().out)
    assert report["distance_after_cells"] == evaluated["total_move_distance_cells"]
    assert report["saved_distance_cells"] == 0.0


@pytest.mark.parametrize("case", ["dense", "table1"])
def test_move_figures_equal_evaluate_on_golden_circuits(case):
    folder = Path(__file__).parent / "golden" / case
    spec = parse_architecture((folder / "arch.json").read_text(encoding="utf-8"))
    program = parse_program((folder / "circuit.rsqasm").read_text(encoding="utf-8"))
    assert _assert_move_figures_equal_evaluate(program, spec) > 0


def test_move_figures_equal_evaluate_on_seeded_programs():
    rng = random.Random(8128)
    rewrites = 0
    for _ in range(40):
        side = rng.randint(6, 20)
        spec = make_spec(side=side, cells=rng.sample(range(side * side), side * side // 4))
        program = random_program_with_redundancy(rng, spec, patterns=rng.randint(5, 40))
        rewrites += _assert_move_figures_equal_evaluate(program, spec)
    assert rewrites > 0
