"""The one evaluator against the hand-written reference models, bit for bit.

On seeded legal programs and hardware specs every breakdown field must equal
the reference's exactly, and where the reference raises, the evaluator must
raise the same error with the same message. The one intended difference: an
idle time a few ulps below zero, within the rounding bound of n*T and the
sums it is reduced by, is zero instead of a NegativeIdleTime.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from na_evalkit import (
    evaluate_enola,
    evaluate_model,
    evaluator,
    models,
    parse_architecture,
    parse_program,
    trace_program,
)
from na_evalkit.errors import EvalKitError, NegativeIdleTime
from na_evalkit.models import Model
import models_reference as reference
from helpers import all_busy_program, make_spec, random_legal_program

ALTERNATIVE_TRAVEL = (
    lambda d, spec: d / spec.move_speed,
    lambda d, spec: 3.0 * d**0.5,
)


def _random_spec(rng: random.Random, side: int, n_qubits: int):
    spec = make_spec(
        side=side,
        n_qubits=n_qubits,
        t1=rng.choice((1.0e8, rng.uniform(10.0, 1.0e4))),
        t2=rng.choice((1.5e6, rng.uniform(1.0, 500.0))),  # small t2 exhausts enola's budget
        move_speed=rng.uniform(0.05, 2.0),
        aod_time=rng.choice((0.0, 20.0, rng.uniform(0.0, 50.0))),
        transfer_fidelity=rng.uniform(0.99, 1.0),
        cz_time=rng.choice((0.2, 0.3, rng.uniform(0.01, 3.0))),
        one_qubit_time=rng.choice((0.3, 2.0, rng.uniform(0.01, 3.0))),
        cz_fidelity=rng.uniform(0.99, 1.0),
        one_qubit_fidelity=rng.uniform(0.99, 1.0),
        excitement=rng.choice((None, rng.uniform(0.99, 1.0))),
    )
    return dataclasses.replace(spec, inter_qubit_distance=rng.uniform(0.5, 5.0))


def _without_gate(rng: random.Random, spec):
    """A hand-built spec missing one gate's duration or fidelity."""
    field = rng.choice(("gate_times", "gate_fidelities"))
    name = rng.choice(("cz", "h", "s", "t", "rx"))
    table = {k: v for k, v in getattr(spec, field).items() if k != name}
    return dataclasses.replace(spec, **{field: table})


def _cases(seed: int, count: int):
    """(program, spec) pairs: random legal programs, all-busy programs, and
    hand-built specs that a parsed document cannot give."""
    rng = random.Random(seed)
    for _ in range(count):
        roll = rng.random()
        if roll < 0.1:
            # gate times below zero drive idle time far below zero; a full grid
            # leaves no empty cell, so the program holds no move
            spec = _random_spec(rng, 3, 9)
            spec = dataclasses.replace(
                spec, gate_times={k: -v for k, v in spec.gate_times.items()}
            )
            yield random_legal_program(rng, spec), spec
            continue
        if roll < 0.3:
            n = rng.randint(1, 9)
            spec = make_spec(side=3, n_qubits=n, one_qubit_time=rng.choice((0.1, 0.3, 0.7)))
            yield all_busy_program(rng, spec), spec
            continue
        side = rng.randint(3, 7)
        spec = _random_spec(rng, side, rng.randint(2, min(12, side * side - 1)))
        program = random_legal_program(rng, spec, max_stages=12)
        if roll < 0.45:
            spec = _without_gate(rng, spec)
        yield program, spec


def _outcome(evaluate, *args):
    try:
        return evaluate(*args)
    except EvalKitError as err:
        return err


def _compare(new, ref, spec) -> str:
    """Assert that ``new`` matches the reference outcome; name the case."""
    if isinstance(ref, NegativeIdleTime) and not isinstance(new, EvalKitError):
        t_idle = float(str(ref).split()[2])
        terms = new.stage_count + new.gate_count + 2
        assert -t_idle <= terms * sys.float_info.epsilon * spec.qubit_count * new.t_total_us
        assert repr(new.t_idle_us) == "0.0" and new.f_decoherence == 1.0
        return "rounded to zero"
    if isinstance(ref, EvalKitError):
        assert (type(new), str(new)) == (type(ref), str(ref))
        return type(ref).__name__
    assert new == ref
    assert repr(new) == repr(ref)  # also tells 0.0 from -0.0
    return "equal"


def test_models_match_the_reference_exactly():
    seen = Counter()
    for program, spec in _cases(seed=2026, count=400):
        for model in Model:
            ref = _outcome(reference.MODELS[model], program, spec)
            seen[_compare(_outcome(evaluate_model, program, spec, model), ref, spec)] += 1
        for law in ALTERNATIVE_TRAVEL:
            ref = _outcome(reference.evaluate_enola, program, spec, law)
            seen[_compare(_outcome(evaluate_enola, program, spec, law), ref, spec)] += 1
    # every branch of the comparison ran
    assert set(seen) == {
        "equal", "rounded to zero", "NegativeIdleTime", "CoherenceBudgetExceeded", "UnknownGate"
    }, seen


def _compensated_sum(iterable, start=0):
    """The built-in sum() of CPython 3.12 and later on ints and floats: ints
    add exactly, and from the first float on, floats add with Neumaier's
    compensation."""
    items = iter(iterable)
    total = start
    for item in items:
        if not (isinstance(total, int) and isinstance(item, int)):
            break
        total += item
    else:
        return total
    total, compensation = float(total), 0.0
    for item in itertools.chain([item], items):
        item = float(item)
        t = total + item
        if abs(total) >= abs(item):
            compensation += (total - t) + item
        else:
            compensation += (item - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def test_models_match_the_reference_under_a_compensated_sum(monkeypatch):
    # a plain left-to-right sum, whatever the interpreter's built-in sum() does
    assert _compensated_sum([0.1] * 10) == 1.0 != functools.reduce(operator.add, [0.1] * 10)
    assert _compensated_sum([2**60, 1, -(2**60)]) == 1
    for module in (reference, models, evaluator):
        monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
    for program, spec in _cases(seed=2026, count=400):
        for model in Model:
            ref = _outcome(reference.MODELS[model], program, spec)
            _compare(_outcome(evaluate_model, program, spec, model), ref, spec)


@pytest.mark.parametrize("model", list(Model))
def test_each_evaluation_traces_the_program_once(model, monkeypatch):
    spec = make_spec(side=6, cells=list(range(7)))
    program = random_legal_program(random.Random(5), spec)
    calls = []
    for module in (evaluator, models):  # both globals, as the benchmark's spans wrap them
        traced = getattr(module, "trace_program")
        monkeypatch.setattr(
            module, "trace_program", lambda *args, _f=traced: calls.append(1) or _f(*args)
        )
    evaluate_model(program, spec, model)
    assert len(calls) == 1


@pytest.mark.parametrize("case", ["dense", "table1"])
@pytest.mark.parametrize("circuit", ["circuit", "collapsed"])
def test_one_shared_trace_prices_every_model(case, circuit):
    directory = Path(__file__).parent / "golden" / case
    spec = parse_architecture((directory / "arch.json").read_text(encoding="utf-8"))
    program = parse_program((directory / f"{circuit}.rsqasm").read_text(encoding="utf-8"))
    trace = trace_program(program, spec)
    busy = dict(trace.busy_us)
    for model in Model:
        assert models._evaluate(trace, spec, model) == evaluate_model(program, spec, model)
    assert trace.busy_us == busy
