"""Finite hardware numbers whose products overflow must never put NaN or an
infinity in a report: every model returns finite fields or raises a domain
error, and the command line exits 2 instead of printing such a number."""

import contextlib
import dataclasses
import io
import json
import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from na_evalkit import (
    evaluate_enola,
    evaluate_model,
    parse_architecture,
    parse_program,
    serialize_program,
)
from na_evalkit.cli import main
from na_evalkit.errors import EvalKitError, NonFiniteResult
from na_evalkit.models import Model
from helpers import arch_document, random_legal_program

_POSITIVE = st.floats(min_value=sys.float_info.min, max_value=sys.float_info.max)
_FIDELITY = st.floats(min_value=sys.float_info.min, max_value=1.0)


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _reject_constant(name):
    raise AssertionError(f"{name} on stdout")


def test_overflowing_one_qubit_time_is_a_domain_error(tmp_path):
    arch = tmp_path / "arch.json"
    arch.write_text(arch_document(side=4, n_qubits=3, one_qubit_time=1e308))
    circuit = tmp_path / "circuit.rsqasm"
    circuit.write_text("RSQASM 1.0;\nh q[0];\nh q[1];\n")
    outcomes = {}
    for model in Model:
        code, out, err = _run(
            ["evaluate", str(circuit), str(arch), "--model", model.value, "--format", "json"]
        )
        outcomes[model] = code, err.split(":")[0]
        if code == 0:
            json.loads(out, parse_constant=_reject_constant)
    assert outcomes == {
        Model.UNIFIED: (2, "error[NonFiniteResult]"),
        Model.HYBRIDMAPPER: (2, "error[NonFiniteResult]"),
        Model.DASATOM: (0, ""),  # prices no one-qubit gate time: 2 h gates cost nothing
        Model.ENOLA: (2, "error[CoherenceBudgetExceeded]"),  # an atom idles forever
    }


def test_the_first_non_finite_field_is_named():
    spec = parse_architecture(arch_document(side=4, n_qubits=3, one_qubit_time=1e308))
    program = parse_program("RSQASM 1.0;\nh q[0];\nh q[1];\n")
    with pytest.raises(NonFiniteResult, match="^t_total_us is inf: "):
        evaluate_model(program, spec, Model.UNIFIED)


@st.composite
def _documents(draw):
    """A hardware document whose every time, speed and distance may be as
    large as a float gets."""
    document = json.loads(arch_document(
        side=4, n_qubits=draw(st.integers(1, 6)),
        move_speed=draw(_POSITIVE), aod_time=draw(_POSITIVE),
        t1=draw(_POSITIVE), t2=draw(_POSITIVE),
        cz_time=draw(_POSITIVE), one_qubit_time=draw(_POSITIVE),
        transfer_fidelity=draw(_FIDELITY), cz_fidelity=draw(_FIDELITY),
        one_qubit_fidelity=draw(_FIDELITY), excitement=draw(_FIDELITY),
    ))
    document["properties"]["interQubitDistance"] = draw(_POSITIVE)
    return json.dumps(document)


@settings(max_examples=200, deadline=None)
@given(_documents(), st.integers(0, 2**32 - 1))
def test_every_model_is_finite_or_a_domain_error(document, seed):
    spec = parse_architecture(document)
    program = random_legal_program(random.Random(seed), spec, max_stages=6)
    evaluations = [lambda m=m: evaluate_model(program, spec, m) for m in Model]
    evaluations.append(lambda: evaluate_enola(program, spec, lambda d, s: d / s.move_speed))
    for evaluate in evaluations:
        try:
            result = evaluate()
        except EvalKitError:
            continue
        for field in dataclasses.fields(result):
            value = getattr(result, field.name)
            if isinstance(value, float):
                assert math.isfinite(value), (field.name, value)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("finite")


@settings(max_examples=60, deadline=None)
@given(_documents(), st.integers(0, 2**32 - 1))
def test_no_report_prints_a_non_finite_number(workdir, document, seed):
    arch = workdir / "arch.json"
    arch.write_text(document)
    spec = parse_architecture(document)
    circuit = workdir / "circuit.rsqasm"
    circuit.write_text(serialize_program(random_legal_program(random.Random(seed), spec, max_stages=6)))
    for model in Model:
        code, out, _ = _run(
            ["evaluate", str(circuit), str(arch), "--model", model.value, "--format", "json"]
        )
        assert code in (0, 2)
        if code == 0:
            json.loads(out, parse_constant=_reject_constant)
