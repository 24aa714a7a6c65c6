"""Checks of every command's output against the generator's own figures.

Each ``check_*`` function takes one command record from child.py and
returns None when the command succeeded with the expected output, or a
one-line reason why it counts as a failed operation.
"""

from __future__ import annotations

import json
import math

from workload import Generated, Tally, parse_circuit, replay

REL_TOL = 1e-9


def _counts(t: Tally) -> dict:
    return {
        "gate_count": t.one_qubit + t.two_qubit,
        "one_qubit_gate_count": t.one_qubit,
        "two_qubit_gate_count": t.two_qubit,
        "move_count": t.moves,
        "stage_count": t.stages,
        "total_move_distance_cells": t.distance,
    }


def _failed(op: dict) -> str | None:
    if op["error"]:
        return op["error"]
    if op["exit"] != 0:
        return f"exit {op['exit']}: {op['stderr'].strip()[-300:]}"
    return None


def _mismatch(key, got, want) -> str:
    return f"{key} is {got!r}, expected {want!r}"


def check_emitted(text: str, gen: Generated) -> tuple[Tally | None, str | None]:
    """Tally of the collapsed circuit; it must be legal and end where the input ends."""
    try:
        stages = parse_circuit(text)
        final = replay(stages, gen.hw)
    except ValueError as exc:
        return None, f"emitted circuit: {exc}"
    if final != gen.final:
        return None, "emitted circuit ends in another atom placement than the input"
    tally = Tally(gen.hw)
    for ops in stages:
        tally.add_stage(ops)
    if (tally.one_qubit, tally.two_qubit) != (gen.tally.one_qubit, gen.tally.two_qubit):
        return None, "emitted circuit has other gates than the input"
    return tally, None


def check_validate(op: dict, tally: Tally) -> str | None:
    want = f"ok: {tally.stages} stage(s), {len(tally.hw.cells)} atom(s)\n"
    reason = _failed(op)
    if not reason and op["stdout"] != want:
        reason = _mismatch("output", op["stdout"], want)
    return reason


def check_normalize(op: dict, gen: Generated, emitted: Tally) -> str | None:
    reason = _failed(op)
    if reason:
        return reason
    try:
        report = json.loads(op["stdout"])
        if report["moves_before"] != gen.tally.moves:
            return _mismatch("moves_before", report["moves_before"], gen.tally.moves)
        if not math.isclose(report["distance_before_cells"], gen.tally.distance, rel_tol=REL_TOL):
            return _mismatch("distance_before_cells", report["distance_before_cells"],
                             gen.tally.distance)
        if report["moves_after"] != emitted.moves:
            return _mismatch("moves_after", report["moves_after"], emitted.moves)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
    return None


def check_evaluate(op: dict, model: str, tally: Tally) -> str | None:
    reason = _failed(op)
    if reason:
        return reason
    try:
        report = json.loads(op["stdout"])
        if report["model"] != model:
            return _mismatch("model", report["model"], model)
        for key, want in _counts(tally).items():
            if report[key] != want:
                return _mismatch(key, report[key], want)
        if not 0.0 <= report["asp"] <= 1.0:
            return _mismatch("asp", report["asp"], "a probability")
        if model == "unified":
            for key, want in (("t_total_us", tally.t_total), ("t_idle_us", tally.t_idle)):
                if not math.isclose(report[key], want, rel_tol=REL_TOL):
                    return _mismatch(key, report[key], want)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
    return None
