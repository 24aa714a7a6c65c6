"""The CLI reads a file exactly as the library parses its bytes.

``validate`` is run on drawn circuit files over LF, CR, CRLF, a BOM, a byte
that is not UTF-8, blanks and one-qubit gates on occupied cells of one fixed
legal hardware file, so every circuit that parses is legal: its outcome must
be ``parse_program``'s on the same bytes.

``validate --interaction-radius`` is run on drawn legal programs: it must pass
and print each stage's ``validate_stage`` warnings, stage by stage.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from na_evalkit import (
    EvalKitError, apply_stage, initial_state, parse_architecture, parse_program,
    serialize_program, validate_stage,
)
from na_evalkit.cli import main
from na_evalkit.errors import MalformedDocument
from helpers import arch_document, random_legal_program

ATOMS = 30  # arch_document() places them on cells 0..29
HEADER = b"RSQASM 1.0;"
_SEPARATORS = [b"\n", b"\r", b"\r\n", b"\xef\xbb\xbf", b"\xff", b" ", b"\t"]
_GATES = st.builds(
    lambda name, cell: f"{name} q[{cell}];".encode(),
    st.sampled_from(["h", "s", "t", "rz(0.5)"]),
    st.integers(0, ATOMS - 1),
)


@st.composite
def _documents(draw):
    prefix = draw(st.lists(st.sampled_from(_SEPARATORS), max_size=3))
    header = draw(st.sampled_from([HEADER, HEADER, b""]))
    body = draw(st.lists(st.one_of(st.sampled_from(_SEPARATORS), _GATES), max_size=12))
    return b"".join(prefix) + header + b"".join(body)


@pytest.fixture(scope="module")
def arch(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-differential") / "arch.json"
    path.write_text(arch_document())
    return path


def _validate(circuit, arch, *options) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["validate", str(circuit), str(arch), *options])
    return code, out.getvalue(), err.getvalue()


def _check_validate_matches_library(document: bytes, circuit, arch):
    circuit.write_bytes(document)
    outcome = _validate(circuit, arch)
    try:
        program = parse_program(document)
    except EvalKitError as exc:
        assert outcome == (2, "", f"error[{exc.code}]: {exc}\n")
    else:
        assert outcome == (0, f"ok: {len(program.stages)} stage(s), {ATOMS} atom(s)\n", "")


@settings(max_examples=200, deadline=None)
@given(_documents())
def test_validate_reads_a_circuit_as_parse_program_does(arch, document):
    _check_validate_matches_library(document, arch.parent / "circuit.rsqasm", arch)


@pytest.mark.parametrize("document, error", [
    # a lone CR is no line break, so the header line runs on
    (b"RSQASM 1.0;\rh q[0];\r",
     "error[MissingHeader]: line 1, column 1: "
     "expected header of the form 'RSQASM <major>.<minor>;'"),
    (b"RSQASM 1.0;\nh q[0];\rh q[1];\n",
     "error[SyntaxError]: line 2, column 8: expected an instruction name"),
    # CRs at a line's end are dropped and the lines still count at LF
    (b"RSQASM 1.0;\r\r\nh q[0];\r\r\nfoo q[1];\n",
     "error[UnknownInstruction]: line 3, column 1: unknown instruction 'foo'"),
], ids=["cr-after-header", "cr-between-instructions", "cr-cr-lf"])
def test_validate_splits_lines_as_parse_program_does(tmp_path, arch, document, error):
    circuit = tmp_path / "circuit.rsqasm"
    circuit.write_bytes(document)
    assert _validate(circuit, arch) == (2, "", error + "\n")
    _check_validate_matches_library(document, circuit, arch)


@pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16"])
def test_a_hardware_file_with_a_bom_or_in_utf16_is_malformed_everywhere(tmp_path, encoding):
    data = arch_document().encode(encoding)
    with pytest.raises(MalformedDocument) as raised:
        parse_architecture(data)
    (tmp_path / "arch.json").write_bytes(data)
    (tmp_path / "circuit.rsqasm").write_bytes(HEADER + b"\nh q[0];\n")
    outcome = _validate(tmp_path / "circuit.rsqasm", tmp_path / "arch.json")
    assert outcome == (2, "", f"error[MalformedDocument]: {raised.value}\n")


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.floats(min_value=0, allow_nan=False))
def test_validate_prints_each_stages_radius_warnings_in_order(arch, rng, radius):
    spec = parse_architecture(arch.read_bytes())
    program = random_legal_program(rng, spec, max_stages=6)
    circuit = arch.parent / "radius.rsqasm"
    circuit.write_text(serialize_program(program))
    expected, state = [], initial_state(spec)
    for index, stage in enumerate(program.stages):
        for warning in validate_stage(state, stage, radius).warnings:
            expected.append(f"warning: stage {index}: {warning}\n")
        state = apply_stage(state, stage)
    ok = f"ok: {len(program.stages)} stage(s), {ATOMS} atom(s)\n"
    outcome = _validate(circuit, arch, "--interaction-radius", repr(radius))
    assert outcome == (0, ok, "".join(expected))
