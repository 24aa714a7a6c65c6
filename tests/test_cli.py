import json
import subprocess
import sys

import pytest

from na_evalkit.cli import _render_table, main
from helpers import GOLDEN_TEXT, arch_document

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