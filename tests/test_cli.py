import contextlib
import dataclasses
import gc
import json
import math
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from na_evalkit import (
    FidelityBreakdown,
    NormalizationReport,
    Program,
    WhatIfResult,
    cli,
    initial_state,
    parse_architecture,
    serialize_program,
)
from na_evalkit.cli import _columns, _fmt_cell, _render_table, build_parser, main
from helpers import GOLDEN_TEXT, arch_document, random_legal_program, random_stage

GOLDEN = Path(__file__).parent / "golden"

NESTED_TEXT = (
    "RSQASM 1.0;\n"
    "cz q[1029], q[1028];cz q[1034], q[1033];\n"
    "move q[1034], q[1201];\n"
    "move q[1029], q[865];\n"
    "move q[865], q[1029];\n"
    "move q[1201], q[1034];\n"
    "h q[1029];\n"
)


@pytest.fixture()
def files(tmp_path):
    arch = tmp_path / "arch.json"
    arch.write_text(arch_document())
    circuit = tmp_path / "circuit.rsqasm"
    circuit.write_text("RSQASM 1.0;\nh q[0];\ncz q[1], q[2];\nmove q[3], q[53];\n")
    return {"arch": str(arch), "circuit": str(circuit), "dir": tmp_path}


@pytest.fixture(autouse=True)
def plain_output(monkeypatch):
    monkeypatch.setenv("NA_EVALKIT_COLOR", "never")


def test_validate_ok(files, capsys):
    assert main(["validate", files["circuit"], files["arch"]]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_illegal_names_stage(files, tmp_path, capsys):
    bad = tmp_path / "bad.rsqasm"
    bad.write_text("RSQASM 1.0;\nh q[0];\nmove q[40], q[41];\n")
    assert main(["validate", str(bad), files["arch"]]) == 2
    err = capsys.readouterr().err
    assert "stage 1" in err
    assert "MoveFromEmptyCell" in err


def test_validate_missing_file(files, capsys):
    assert main(["validate", str(files["dir"] / "nope.rsqasm"), files["arch"]]) == 1


def test_validate_parse_error_is_domain_error(files, tmp_path, capsys):
    mangled = tmp_path / "mangled.rsqasm"
    mangled.write_text("RSQASM 1.0;\nteleport q[0];\n")
    assert main(["validate", str(mangled), files["arch"]]) == 2
    assert "UnknownInstruction" in capsys.readouterr().err


def test_validate_interaction_radius_warns_but_passes(files, tmp_path, capsys):
    spread = tmp_path / "spread.rsqasm"
    spread.write_text("RSQASM 1.0;\ncz q[0], q[29];\n")
    assert main([
        "validate", str(spread), files["arch"], "--interaction-radius", "2",
    ]) == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err
    assert "ok" in captured.out


def test_usage_error_is_exit_one(capsys):
    assert main(["evaluate", "only-one-arg"]) == 1


def test_evaluate_json_keys(files, capsys):
    assert main(["evaluate", files["circuit"], files["arch"], "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    for key in (
        "f_decoherence", "f_gates", "f_movements", "asp", "t_total_us",
        "t_idle_us", "gate_count", "move_count", "stage_count",
        "total_move_distance_cells",
    ):
        assert key in report
    assert report["model"] == "unified"
    assert report["tool"] == "na-evalkit"
    assert 0 < report["asp"] <= 1


def test_evaluate_outputs_are_byte_stable(files, capsys):
    for fmt in ("json", "csv"):
        assert main(["evaluate", files["circuit"], files["arch"], "--format", fmt]) == 0
        first = capsys.readouterr().out
        assert main(["evaluate", files["circuit"], files["arch"], "--format", fmt]) == 0
        assert capsys.readouterr().out == first


def test_evaluate_csv_shape(files, capsys):
    assert main(["evaluate", files["circuit"], files["arch"], "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("model,f_decoherence,")


def test_evaluate_all_models(files, capsys):
    for model in ("unified", "hybridmapper", "dasatom", "enola"):
        assert main([
            "evaluate", files["circuit"], files["arch"], "--model", model,
            "--format", "json",
        ]) == 0
        assert json.loads(capsys.readouterr().out)["model"] == model


def test_evaluate_all_busy_circuit_idles_exactly_zero(tmp_path, capsys):
    # 3 * (0.3 + 0.3) and six 0.3 gates added one by one round apart, by -2.2e-16
    arch = tmp_path / "arch.json"
    arch.write_text(arch_document(side=4, n_qubits=3, one_qubit_time=0.3))
    circuit = tmp_path / "busy.rsqasm"
    circuit.write_text("RSQASM 1.0;\n" + "h q[0];h q[1];h q[2];\n" * 2)
    for model in ("unified", "hybridmapper", "dasatom", "enola"):
        argv = ["evaluate", str(circuit), str(arch), "--model", model, "--format", "json"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        if model == "dasatom":
            # prices each gate stage at the cz time and frees one-qubit gates
            assert report["t_idle_us"] == 3 * (2 * 0.2)
        else:
            assert report["t_idle_us"] == 0.0
            assert report["f_decoherence"] == 1.0
        assert math.copysign(1.0, report["t_idle_us"]) == 1.0


def test_evaluate_empty_circuit_is_all_hundred(files, tmp_path, capsys):
    empty = tmp_path / "empty.rsqasm"
    empty.write_text("RSQASM 1.0;\n")
    assert main(["evaluate", str(empty), files["arch"]]) == 0
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row[1:5] == ["100.00", "100.00", "100.00", "100.00"]


def test_evaluate_domain_error_exit_two(files, tmp_path, capsys):
    # third atom idles past the tiny dephasing budget under the enola model
    arch = tmp_path / "tight.json"
    arch.write_text(arch_document(n_qubits=3, t2=0.1))
    circuit = tmp_path / "pair.rsqasm"
    circuit.write_text("RSQASM 1.0;\ncz q[0], q[1];\n")
    assert main(["evaluate", str(circuit), str(arch), "--model", "enola"]) == 2
    assert "CoherenceBudgetExceeded" in capsys.readouterr().err


def test_non_finite_hardware_number_is_domain_error(files, tmp_path, capsys):
    arch = tmp_path / "nan.json"
    arch.write_text(arch_document(cz_time=float("nan")))
    assert main(["evaluate", files["circuit"], str(arch), "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert "NaN" not in captured.out
    assert "InvalidValue" in captured.err and "gateTimes.cz" in captured.err


def test_table_row_percent_formatting():
    columns = [
        ("f_decoherence", "percent"), ("f_gates", "percent"),
        ("f_movements", "percent"), ("asp", "percent"),
    ]
    row = {
        "f_decoherence": 0.15571, "f_gates": 0.50528,
        "f_movements": 0.69374, "asp": 0.05462,
    }
    rendered = _render_table(columns, [row]).splitlines()[1].split()
    assert rendered == ["15.57", "50.53", "69.37", "5.46"]


def test_percent_rounding_half_to_even():
    columns = [("x", "percent")]
    assert _render_table(columns, [{"x": 0.01125}]).splitlines()[1] == "1.12"
    assert _render_table(columns, [{"x": 0.01375}]).splitlines()[1] == "1.38"


@pytest.mark.parametrize("value, shown", [
    (1e306, "1.0000e+306"),
    (-2.5e16, "-2.5000e+16"),
    (1e16, "1.0000e+16"),
    (9999999999999998.0, "9999999999999998"),
    (-0.00001, "-0"),
])
def test_table_numbers_switch_to_scientific_at_1e16(value, shown):
    assert _render_table([("x", "number")], [{"x": value}]).splitlines()[1] == shown


# each command's columns and their kinds, written out so that a report field
# moved, renamed or re-annotated changes a pinned header or cell
_BREAKDOWN_COLUMNS = [
    ("f_decoherence", "percent"), ("f_gates", "percent"), ("f_movements", "percent"),
    ("asp", "percent"), ("t_total_us", "number"), ("t_idle_us", "number"),
    ("gate_count", "int"), ("one_qubit_gate_count", "int"), ("two_qubit_gate_count", "int"),
    ("move_count", "int"), ("stage_count", "int"), ("total_move_distance_cells", "number"),
]
_COMMAND_COLUMNS = {
    "evaluate": [("model", "str")] + _BREAKDOWN_COLUMNS,
    "normalize": [
        ("moves_before", "int"), ("moves_after", "int"), ("distance_before_cells", "number"),
        ("distance_after_cells", "number"), ("saved_distance_cells", "number"),
        ("rewrites", "int"),
    ],
    "compare": [("circuit", "str")] + _BREAKDOWN_COLUMNS + [("error", "str")],
    "whatif": [
        ("delta_t_move_us", "number"), ("delta_t_idle_us", "number"),
        ("t_idle_new_us", "number"), ("f_decoherence", "percent"), ("f_movements", "percent"),
    ],
}


def _command_argv(command, files):
    return {
        "evaluate": ["evaluate", files["circuit"], files["arch"]],
        "normalize": ["normalize", files["circuit"], files["arch"]],
        "compare": ["compare", files["circuit"], "--arch", files["arch"]],
        "whatif": [
            "whatif", files["arch"], "--old-idle", "2747600", "--saved-distance", "6003.69",
            "--moves-before", "1828", "--moves-after", "937", "--n", "30",
        ],
    }[command]


@pytest.mark.parametrize("command", list(_COMMAND_COLUMNS))
def test_table_and_csv_columns_are_pinned(command, files, capsys):
    columns = _COMMAND_COLUMNS[command]
    names = [name for name, _ in columns]
    argv = _command_argv(command, files)
    outputs = {}
    for fmt in ("json", "csv", "table"):
        assert main(argv + ["--format", fmt]) == 0
        outputs[fmt] = capsys.readouterr().out
    assert outputs["csv"].splitlines()[0].split(",") == names
    header, row = outputs["table"].splitlines()
    assert header.split() == names
    # each cell is formatted by its pinned kind: a fidelity as a percentage
    report = json.loads(outputs["json"])
    values = report["rows"][0] if command == "compare" else report
    values["rewrites"] = len(report.get("rewrites_applied", ()))
    assert row.split() == [c for c in (_fmt_cell(values[n], k) for n, k in columns) if c]


@pytest.mark.parametrize("report", [FidelityBreakdown, NormalizationReport, WhatIfResult])
def test_every_report_field_is_a_column(report):
    # a field whose annotation has no column kind would vanish from the table
    columns = {name for name, _ in _columns(report)}
    assert {f.name for f in dataclasses.fields(report)} - columns <= {"rewrites_applied"}


def test_normalize_reports_and_emits(files, tmp_path, capsys):
    arch = tmp_path / "narrow.json"
    arch.write_text(arch_document(cells=[1028, 1029, 1033, 1034]))
    circuit = tmp_path / "nested.rsqasm"
    circuit.write_text(NESTED_TEXT)
    out = tmp_path / "collapsed.rsqasm"
    assert main([
        "normalize", str(circuit), str(arch), "--emit", str(out), "--format", "json",
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["moves_before"] == 4
    assert report["moves_after"] == 0
    assert report["saved_distance_cells"] > 0
    # the emitted circuit must validate cleanly
    assert main(["validate", str(out), str(arch)]) == 0


def test_normalize_irredundant_saved_zero(files, capsys):
    assert main(["normalize", files["circuit"], files["arch"], "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["saved_distance_cells"] == 0.0
    assert report["moves_before"] == report["moves_after"] == 1


def test_compare_rows_in_input_order(files, tmp_path, capsys):
    second = tmp_path / "second.rsqasm"
    second.write_text("RSQASM 1.0;\nh q[4];\n")
    assert main([
        "compare", files["circuit"], str(second),
        "--arch", files["arch"], "--format", "json",
    ]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["circuit"] for r in rows] == [files["circuit"], str(second)]


def test_compare_identical_inputs_identical_rows(files, capsys):
    assert main([
        "compare", files["circuit"], files["circuit"],
        "--arch", files["arch"], "--format", "json",
    ]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows[0]["asp"] == rows[1]["asp"]


def test_compare_mixed_failure(files, tmp_path, capsys):
    bad = tmp_path / "bad.rsqasm"
    bad.write_text("RSQASM 1.0;\nmove q[40], q[41];\n")
    assert main([
        "compare", files["circuit"], str(bad),
        "--arch", files["arch"], "--format", "json",
    ]) == 2
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows[0]["error"] is None and rows[0]["asp"] > 0
    assert "IllegalStage" in rows[1]["error"]


def test_whatif_table_row(files, capsys):
    assert main([
        "whatif", files["arch"], "--old-idle", "2747600",
        "--saved-distance", "6003.69", "--moves-before", "1828",
        "--moves-after", "937", "--n", "30",
    ]) == 0
    fields = capsys.readouterr().out.splitlines()[1].split()
    assert "19.44" in fields
    assert "82.91" in fields


def test_whatif_guard_exit_two(files, capsys):
    assert main([
        "whatif", files["arch"], "--old-idle", "10",
        "--saved-distance", "1000000", "--moves-before", "10",
        "--moves-after", "5", "--n", "30",
    ]) == 2
    assert "InvalidInput" in capsys.readouterr().err


@pytest.mark.parametrize("saved, n, field", [
    ("1e308", "3", "delta_t_move_us"), ("1e300", "100000000000", "delta_t_idle_us"),
])
def test_whatif_overflow_exits_two_as_non_finite(files, capsys, saved, n, field):
    assert main([
        "whatif", files["arch"], "--old-idle", "1", "--saved-distance", saved,
        "--moves-before", "1", "--moves-after", "0", "--n", n,
    ]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error[NonFiniteResult]: {field} is inf: ")


@pytest.mark.parametrize("idle, saved", [("-0.0", "0"), ("5", "-0.0"), ("-0", "-0")])
def test_whatif_prints_no_negative_zero(files, capsys, idle, saved):
    argv = ["whatif", files["arch"], "--old-idle", idle, "--saved-distance", saved,
            "--moves-before", "1", "--moves-after", "1", "--n", "3"]
    assert main([*argv, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    for key in ("delta_t_move_us", "delta_t_idle_us", "t_idle_new_us"):
        assert math.copysign(1.0, report[key]) == 1.0
    assert main(argv) == 0
    row = capsys.readouterr().out.splitlines()[1]
    assert "-0" not in row.split()


@pytest.mark.parametrize("flag, value", [
    ("--old-idle", "nan"), ("--old-idle", "inf"),
    ("--saved-distance", "nan"), ("--saved-distance", "inf"),
])
def test_whatif_rejects_non_finite_inputs(files, capsys, flag, value):
    argv = {
        "--old-idle": "2747600", "--saved-distance": "6003.69",
        "--moves-before": "1828", "--moves-after": "937", "--n": "30",
    }
    argv[flag] = value
    assert main(["whatif", files["arch"], *(x for kv in argv.items() for x in kv),
                 "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert "NaN" not in captured.out and "Infinity" not in captured.out
    assert "InvalidInput" in captured.err


@pytest.mark.parametrize("radius", ["nan", "-1"])
def test_validate_rejects_bad_interaction_radius(tmp_path, capsys, radius):
    arch = tmp_path / "arch.json"
    arch.write_text(arch_document())
    circuit = tmp_path / "spread.rsqasm"
    circuit.write_text("RSQASM 1.0;\ncz q[0], q[29];\n")
    assert main(["validate", str(circuit), str(arch), "--interaction-radius", radius]) == 2
    captured = capsys.readouterr()
    assert "InvalidInput" in captured.err
    assert "warning" not in captured.err and captured.out == ""


def test_color_env_controls_ansi(files, capsys, monkeypatch):
    monkeypatch.setenv("NA_EVALKIT_COLOR", "always")
    main(["evaluate", files["circuit"], files["arch"]])
    assert "\x1b[1m" in capsys.readouterr().out
    monkeypatch.setenv("NA_EVALKIT_COLOR", "never")
    main(["evaluate", files["circuit"], files["arch"]])
    assert "\x1b[" not in capsys.readouterr().out


def test_module_entry_point(files):
    proc = subprocess.run(
        [sys.executable, "-m", "na_evalkit", "validate", files["circuit"], files["arch"]],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "ok" in proc.stdout


def test_golden_circuit_parses_but_fails_validation(files, tmp_path, capsys):
    circuit = tmp_path / "golden.rsqasm"
    circuit.write_text(GOLDEN_TEXT)
    arch = tmp_path / "six.json"
    arch.write_text(arch_document(cells=[0, 1, 2, 3, 5]))
    assert main(["validate", str(circuit), str(arch)]) == 2
    assert "stage 3" in capsys.readouterr().err

# --- unknown hardware keys ----------------------------------------------------

_UNKNOWN_KEY_LINES = [
    "warning: ignoring unknown key futureTop",
    "warning: ignoring unknown key parameters.Qubits[1].colour",
    "warning: ignoring unknown key parameters.decoherenceTimes.t3",
]


def _arch_with_unknown_keys(path, **edits) -> str:
    document = json.loads(arch_document())
    document["futureTop"] = 1
    document["parameters"]["Qubits"][1]["colour"] = "red"
    document["parameters"]["decoherenceTimes"]["t3"] = 5
    document["properties"].update(edits)
    path.write_text(json.dumps(document))
    return str(path)


def test_unknown_keys_warn_in_the_cli_format(files, tmp_path):
    # a fresh interpreter, so Python's own warning display would show here
    arch = _arch_with_unknown_keys(tmp_path / "future.json")
    proc = subprocess.run(
        [sys.executable, "-m", "na_evalkit", "validate", files["circuit"], arch],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr.splitlines() == _UNKNOWN_KEY_LINES
    assert "cli.py" not in proc.stderr and "UserWarning" not in proc.stderr
    assert proc.stdout == "ok: 3 stage(s), 30 atom(s)\n"


@pytest.mark.parametrize("command", ["evaluate", "compare", "whatif"])
def test_unknown_keys_leave_stdout_and_exit_code_alone(files, tmp_path, capsys, command):
    def argv(arch):
        return {
            "evaluate": ["evaluate", files["circuit"], arch, "--format", "json"],
            "compare": ["compare", files["circuit"], "--arch", arch, "--format", "json"],
            "whatif": ["whatif", arch, "--old-idle", "100", "--saved-distance", "1",
                       "--moves-before", "2", "--moves-after", "1", "--n", "30"],
        }[command]

    assert main(argv(files["arch"])) == 0
    clean = capsys.readouterr()
    arch = _arch_with_unknown_keys(tmp_path / "future.json")
    assert main(argv(arch)) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == _UNKNOWN_KEY_LINES
    # the report names its architecture file; nothing else may change
    assert captured.out == clean.out.replace(files["arch"], arch)
    assert clean.err == ""


def test_unknown_keys_warn_before_a_failed_parse(files, tmp_path, capsys):
    arch = _arch_with_unknown_keys(tmp_path / "bad.json", interQubitDistance=-1)
    assert main(["validate", files["circuit"], arch]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "warning: ignoring unknown key futureTop",
        "error[InvalidValue]: properties.interQubitDistance: must be > 0, got -1.0",
    ]


def test_unknown_key_warnings_come_object_by_object_not_in_text_order(files, tmp_path, capsys):
    # futureTop is written last, yet warns first: an object's own unknown keys
    # come before those of the objects nested in it
    arch = _arch_with_unknown_keys(tmp_path / "future.json")
    text = (tmp_path / "future.json").read_text()
    keys = ['"futureTop"', '"colour"', '"t3"']
    assert sorted(keys, key=text.index) == ['"colour"', '"t3"', '"futureTop"']
    assert main(["validate", files["circuit"], arch]) == 0
    assert capsys.readouterr().err.splitlines() == _UNKNOWN_KEY_LINES

# --- the cyclic collector -----------------------------------------------------


def _commands(folder: Path, emitted: Path) -> dict[str, list[str]]:
    """The commands run on the circuit and hardware files of one case folder."""
    circuit, arch = str(folder / "circuit.rsqasm"), str(folder / "arch.json")
    return {
        "validate": ["validate", circuit, arch],
        "normalize": ["normalize", circuit, arch, "--emit", str(emitted)],
        "compare": ["compare", circuit, circuit, "--arch", arch],
        **{
            f"evaluate-{fmt}": ["evaluate", circuit, arch, "--format", fmt]
            for fmt in ("table", "json", "csv")
        },
    }


@contextlib.contextmanager
def _collections():
    """The generation of each collection that starts inside the block, where
    any container allocation may start one."""
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    thresholds = gc.get_threshold()
    gc.set_threshold(1)
    gc.callbacks.append(count)
    try:
        yield started
    finally:
        gc.callbacks.remove(count)
        gc.set_threshold(*thresholds)


@contextlib.contextmanager
def _collector(enabled: bool):
    was_enabled = gc.isenabled()
    if enabled:
        gc.enable()
    else:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()


@pytest.mark.parametrize("command", ["validate", "evaluate-json", "normalize", "compare"])
def test_a_command_body_runs_no_collection(command, tmp_path, monkeypatch, capsys):
    argv = _commands(GOLDEN / "dense", tmp_path / "emitted.rsqasm")[command]
    name = f"cmd_{argv[0]}"
    body = getattr(cli, name)
    seen = []

    def counted(args):
        with _collections() as started:
            seen.append(started)
            return body(args)

    monkeypatch.setattr(cli, name, counted)
    assert main(argv) == 0
    assert seen == [[]]
    assert gc.isenabled()


def _exit_cases(files) -> dict[str, tuple[list[str], int]]:
    circuit, arch = files["circuit"], files["arch"]
    return {
        "ok": (["validate", circuit, arch], 0),
        "missing file": (["validate", str(files["dir"] / "nope.rsqasm"), arch], 1),
        "domain error": (["validate", circuit, arch, "--interaction-radius", "-1"], 2),
        "usage error": (["evaluate", "only-one-arg"], 1),
    }


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("case", ["ok", "missing file", "domain error", "usage error"])
def test_main_leaves_the_collector_as_the_caller_set_it(case, enabled, files, capsys):
    argv, code = _exit_cases(files)[case]
    with _collector(enabled):
        assert main(argv) == code
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_an_unexpected_error_propagates_and_restores_the_collector(enabled, files, monkeypatch):
    def broken(args):
        assert not gc.isenabled()
        raise RuntimeError("broken command")

    monkeypatch.setattr(cli, "cmd_validate", broken)
    with _collector(enabled):
        with pytest.raises(RuntimeError, match="broken command"):
            main(["validate", files["circuit"], files["arch"]])
        assert gc.isenabled() is enabled


def _garbage_left(argv: list[str]) -> int:
    """What ``gc.collect()`` finds after one command body, run paused as ``main``
    runs it; the parser's own cycles stay alive until the count is taken."""
    parser = build_parser()
    args = parser.parse_args(argv)
    gc.collect()
    with _collector(False):
        assert args.func(args) == 0
        return gc.collect()


@pytest.fixture(scope="module")
def drawn_case(tmp_path_factory):
    """A legal program of about 2000 stages drawn on a 20x20 grid of 100 atoms."""
    folder = tmp_path_factory.mktemp("drawn")
    document = arch_document(side=20, n_qubits=100)
    program = random_legal_program(
        random.Random(26), parse_architecture(document), max_stages=2000, min_stages=2000
    )
    assert len(program.stages) > 1900
    (folder / "arch.json").write_text(document)
    (folder / "circuit.rsqasm").write_text(serialize_program(program))
    return folder


@pytest.mark.parametrize("command", list(_commands(GOLDEN, GOLDEN)))
def test_garbage_left_for_the_collector_does_not_grow_with_the_circuit(
    command, drawn_case, tmp_path, capsys
):
    # records that held a back-reference would leave garbage in step with the
    # circuit's size, which the paused collector would never free
    emitted = tmp_path / "emitted.rsqasm"
    found = [
        _garbage_left(_commands(folder, emitted)[command])
        for folder in (GOLDEN / "table1", GOLDEN / "dense", drawn_case)
    ]
    assert found == [found[0]] * 3


def _heap_peak(argv: list[str]) -> int:
    """The most heap ``main(argv)`` held above what was held when it started."""
    gc.collect()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def test_normalize_emit_holds_no_more_than_validate(tmp_path):
    # the emitted text goes out a few lines at a time; held whole, with its
    # lines, it added 395 KiB to the peak on this draw of 2666 stages. The
    # draw has no moves, so that collapse keeps the program it was given.
    document = arch_document(side=20, n_qubits=100)
    state = initial_state(parse_architecture(document))
    empty = set(range(state.cell_count)) - state.occupancy.keys()
    rng = random.Random(28)
    stages = [random_stage(rng, state, forbidden=empty) for _ in range(3000)]
    circuit, arch = tmp_path / "circuit.rsqasm", tmp_path / "arch.json"
    circuit.write_text(serialize_program(Program(1, 0, tuple(filter(None, stages)))))
    arch.write_text(document)
    validate = _heap_peak(["validate", str(circuit), str(arch)])
    emit = _heap_peak(["normalize", str(circuit), str(arch), "--emit", str(tmp_path / "out.rsqasm")])
    assert emit <= validate + 64 * 1024, (emit, validate)
