"""Finite hardware numbers whose products overflow must never put NaN or an
infinity in a report: every model, ``whatif`` and ``normalize`` return finite
fields or raise a domain error, and the command line exits 2 instead of
printing such a number."""

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
    cell_distance,
    evaluate_enola,
    evaluate_model,
    parse_architecture,
    parse_program,
    serialize_program,
)
from na_evalkit.cli import main
from na_evalkit.errors import EvalKitError, NonFiniteResult
from na_evalkit.models import Model, WhatIfInput, whatif_collapse
from na_evalkit.normalize import collapse
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


def _valid_reports():
    spec = parse_architecture(arch_document(side=4, n_qubits=3))
    program = parse_program("RSQASM 1.0;\nh q[0];\nmove q[0], q[5];\nmove q[5], q[0];\n")
    return [
        evaluate_model(program, spec, Model.UNIFIED),
        collapse(program, spec)[1],
        whatif_collapse(WhatIfInput(100.0, 0.5, 2, 0, 3), spec),
    ]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_no_report_holds_a_non_finite_field(value):
    # every float and Fidelity field, read from the dataclass, so a field
    # added later is covered too
    for report in _valid_reports():
        checked = [f.name for f in dataclasses.fields(report) if f.type in ("float", "Fidelity")]
        assert checked, type(report).__name__
        for name in checked:
            with pytest.raises(NonFiniteResult, match=f"^{name} is {value}: "):
                dataclasses.replace(report, **{name: value})


def _is_subnormal(value: float) -> bool:
    return 0.0 < abs(value) < sys.float_info.min


def test_a_subnormal_field_is_stored_as_zero():
    for report in _valid_reports():
        for field in dataclasses.fields(report):
            if field.type in ("float", "Fidelity"):
                for value in (5e-324, -1e-310):
                    replaced = dataclasses.replace(report, **{field.name: value})
                    assert getattr(replaced, field.name) == 0.0, field.name


def _sticky_gate_factor() -> tuple[str, str]:
    """Hardware and circuit text on which the unified gate factor, a product
    taken gate by gate, is 10**-321.17: a subnormal."""
    document = json.loads(arch_document(side=10, n_qubits=2, one_qubit_fidelity=1e-300))
    document["parameters"]["gateFidelities"]["rz"] = 1e-21
    circuit = "RSQASM 1.0;\nh q[0];\nrz(0.1) q[0];\n" + "cz q[0], q[1];\n" * 1000
    return json.dumps(document), circuit


@pytest.mark.parametrize("model", list(Model), ids=[m.value for m in Model])
def test_no_model_reports_a_subnormal_gate_factor(tmp_path, model):
    document, text = _sticky_gate_factor()
    breakdown = evaluate_model(parse_program(text), parse_architecture(document), model)
    arch, circuit = tmp_path / "arch.json", tmp_path / "circuit.rsqasm"
    arch.write_text(document)
    circuit.write_text(text)
    code, out, err = _run(
        ["evaluate", str(circuit), str(arch), "--model", model.value, "--format", "json"]
    )
    assert (code, err) == (0, "")
    report = json.loads(out)
    for field in dataclasses.fields(breakdown):
        if field.type in ("float", "Fidelity"):
            value = getattr(breakdown, field.name)
            assert not _is_subnormal(value), field.name
            assert report[field.name] == value, field.name
    if model in (Model.UNIFIED, Model.HYBRIDMAPPER):  # dasatom and enola price cz alone
        assert breakdown.f_gates == breakdown.asp == 0.0


def _huge_grid_document(side: int, move_speed: float = 0.55) -> str:
    """Two atoms on cells 0 and 1 of a grid of the given side, however large."""
    document = json.loads(arch_document(side=4, n_qubits=2, move_speed=move_speed))
    document["properties"]["nRows_nColumns_grid_side_size"] = side
    return json.dumps(document)


def _assert_non_finite_exit(argv: list[str]):
    code, out, err = _run(argv)
    assert (code, out) == (2, "")
    assert err.startswith("error[NonFiniteResult]: ")


@pytest.mark.parametrize("t", [sys.float_info.min, 1e308], ids=["underflow", "overflow"])
def test_whatif_on_extreme_coherence_times_is_a_domain_error(tmp_path, t):
    # t1*t2 underflows to 0, so -t_idle/t_eff divides by zero; or t1*t2 and
    # t1 + t2 both overflow, so t_eff is inf/inf = NaN
    document = arch_document(side=4, n_qubits=3, t1=t, t2=t)
    arch = tmp_path / "arch.json"
    arch.write_text(document)
    _assert_non_finite_exit([
        "whatif", str(arch), "--old-idle", "1", "--saved-distance", "0",
        "--moves-before", "1", "--moves-after", "1", "--n", "3", "--format", "json",
    ])
    with pytest.raises(NonFiniteResult):
        whatif_collapse(WhatIfInput(1.0, 0.0, 1, 1, 3), parse_architecture(document))


def test_normalize_on_an_overflowing_total_distance_is_a_domain_error(tmp_path):
    # two moves of about 1e308 cells each: each distance is finite, their sum is not
    side = 10**308
    far = side - 1
    document = _huge_grid_document(side)
    text = (
        f"RSQASM 1.0;\nmove q[0], q[{far}];move q[1], q[{far * side}];\n"
        f"move q[{far}], q[{far + side}];\n"
    )
    arch, circuit = tmp_path / "arch.json", tmp_path / "circuit.rsqasm"
    arch.write_text(document)
    circuit.write_text(text)
    _assert_non_finite_exit(["normalize", str(circuit), str(arch), "--format", "json"])
    with pytest.raises(NonFiniteResult, match="^distance_before_cells is inf: "):
        collapse(parse_program(text), parse_architecture(document))


def test_whatif_on_a_count_beyond_the_float_range_is_a_domain_error(tmp_path):
    # n * delta_T converts n to a float, and a 401-digit n has none
    arch = tmp_path / "arch.json"
    arch.write_text(arch_document(side=4, n_qubits=3))
    _assert_non_finite_exit([
        "whatif", str(arch), "--old-idle", "1", "--saved-distance", "0",
        "--moves-before", "1", "--moves-after", "1", "--n", str(10**400), "--format", "json",
    ])


@pytest.mark.parametrize("command", ["evaluate", "normalize"])
def test_a_distance_beyond_the_float_range_is_a_domain_error(tmp_path, command):
    side = 10**400
    arch, circuit = tmp_path / "arch.json", tmp_path / "circuit.rsqasm"
    arch.write_text(_huge_grid_document(side))
    circuit.write_text(f"RSQASM 1.0;\nmove q[0], q[{10**399}];\n")
    _assert_non_finite_exit([command, str(circuit), str(arch), "--format", "json"])
    with pytest.raises(NonFiniteResult):
        cell_distance(0, 10**399, side)


def test_an_overflowing_total_distance_is_never_reported(tmp_path):
    # each stage's longest move is finite, so the run time is too, but the
    # two moves of one stage sum to more than the largest float
    side = 10**308
    far = side - 1
    arch, circuit = tmp_path / "arch.json", tmp_path / "circuit.rsqasm"
    arch.write_text(_huge_grid_document(side, move_speed=100.0))
    circuit.write_text(f"RSQASM 1.0;\nmove q[0], q[{far}];move q[1], q[{far * side}];\n")
    for model in (Model.UNIFIED, Model.HYBRIDMAPPER, Model.DASATOM):  # enola's d/v**2 idles past t2
        _assert_non_finite_exit(
            ["evaluate", str(circuit), str(arch), "--model", model.value, "--format", "json"]
        )


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


@st.composite
def _whatif_args(draw):
    # counts small enough for a float, and beyond the float range
    before = draw(st.integers(0, 10) | st.integers(0, 10**400))
    return [
        "--old-idle", repr(draw(st.floats(0.0, sys.float_info.max))),
        "--saved-distance", repr(draw(st.floats(0.0, sys.float_info.max))),
        "--moves-before", str(before),
        "--moves-after", str(draw(st.integers(0, before))),
        "--n", str(draw(st.integers(1, 6) | st.integers(1, 10**400))),
    ]


@settings(max_examples=60, deadline=None)
@given(_documents(), st.integers(0, 2**32 - 1), _whatif_args())
def test_no_report_prints_a_non_finite_number(workdir, document, seed, whatif_args):
    arch = workdir / "arch.json"
    arch.write_text(document)
    spec = parse_architecture(document)
    circuit = workdir / "circuit.rsqasm"
    circuit.write_text(serialize_program(random_legal_program(random.Random(seed), spec, max_stages=6)))
    runs = [
        ["evaluate", str(circuit), str(arch), "--model", model.value, "--format", "json"]
        for model in Model
    ]
    runs.append(["whatif", str(arch), *whatif_args, "--format", "json"])
    runs.append(["normalize", str(circuit), str(arch), "--format", "json"])
    for argv in runs:
        code, out, _ = _run(argv)
        assert code in (0, 2), argv
        if code == 0:
            json.loads(out, parse_constant=_reject_constant)
