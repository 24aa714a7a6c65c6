"""Fuzzing of the three input parsers and of the command line reading them.

Every input must give a value or raise an :class:`EvalKitError`; the command
line must exit with 0, 1 or 2 and never let another exception escape.
"""

import json
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from na_evalkit import parse_architecture, parse_flat_qasm, parse_program
from na_evalkit.cli import main
from na_evalkit.errors import EvalKitError
from helpers import GOLDEN_TEXT, arch_document

# literals that json.loads or int() accept or reject in unusual ways
_RAW_LITERALS = [
    "1" * 5000, "-" + "9" * 4400, "1e999", "-1e999", "NaN", "Infinity", "-0",
    "1" * 400, "[" * 5000 + "]" * 5000, "{}", "[]", "null", "true", '"\\ud800"',
    '"' + "x" * 300 + '"', "0.0", "4.9e-324",
]

_JSON_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=8,
)

_SLOT = "\x00slot"


@st.composite
def _mutated_documents(draw):
    """A valid hardware document with one value replaced, dropped or raw-spliced."""
    doc = json.loads(arch_document(side=draw(st.integers(1, 8)), cells=[0]))
    node = doc
    while True:
        keys = sorted(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            break
        key = draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
            continue
        action = draw(st.sampled_from(["replace", "drop", "splice"]))
        if action == "drop":
            del node[key]
        elif action == "replace":
            node[key] = draw(_JSON_VALUES)
        else:
            node[key] = _SLOT
            return json.dumps(doc).replace(
                json.dumps(_SLOT), draw(st.sampled_from(_RAW_LITERALS))
            )
        break
    return json.dumps(doc)


def _value_or_domain_error(parse, document):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # unknown keys only warn
        try:
            parse(document)
        except EvalKitError:
            pass


@settings(max_examples=300, deadline=None)
@given(st.one_of(_mutated_documents(), st.text(max_size=200), st.binary(max_size=200)))
def test_parse_architecture_never_escapes_diagnostics(document):
    _value_or_domain_error(parse_architecture, document)


def _short(literal):
    return literal if len(literal) <= 12 else f"{literal[:6]}...{len(literal)}chars"


@pytest.mark.parametrize("literal", _RAW_LITERALS, ids=_short)
def test_parse_architecture_raw_literals(literal):
    _value_or_domain_error(parse_architecture, literal)
    document = arch_document().replace('"t1": 100000000.0', f'"t1": {literal}')
    assert literal in document
    _value_or_domain_error(parse_architecture, document)


_QASM_STATEMENTS = st.sampled_from([
    "OPENQASM 2.0", 'include "qelib1.inc"', 'include "other.inc"', "qreg q[4]",
    "qreg r[2]", "creg c[2]", "h q[0]", "cz q[0], q[1]", "cz q[1], q[1]",
    "rz(0.5) q[2]", "rx(pi/2) q[0]", "rz(1e999) q[1]", "ry(0.1, 0.2) q[0]",
    "barrier q", "barrier q[0], q[3]", "barrier", "measure q[0] -> c[0]",
    "x q[0]", "h q", "h q[0], q[1]", "h r[0]", "cz q[0]", "h q[" + "9" * 5000 + "]",
    "qreg q[" + "9" * 5000 + "]", "h()", "h(", "qreg", "h q[-1]", "",
])


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(_QASM_STATEMENTS, max_size=8).map(";".join),
    st.text(alphabet='qregOPENQASMbarrierhczrxyst ()[],;.0123456789-e"/\n', max_size=80),
    st.text(max_size=120),
))
def test_parse_flat_qasm_never_escapes_diagnostics(document):
    _value_or_domain_error(parse_flat_qasm, document)


def test_oversized_indices_are_domain_errors():
    digits = "9" * 5000
    for parse, document in [
        (parse_architecture, "1" * 5000),
        (parse_architecture, "[" * 100000),
        (parse_program, f"RSQASM 1.0;\nh q[{digits}];\n"),
        (parse_program, f"RSQASM {digits}.0;\n"),
        (parse_flat_qasm, f"qreg q[{digits}];"),
        (parse_flat_qasm, f"h q[{digits}];"),
    ]:
        with pytest.raises(EvalKitError):
            parse(document)


_CIRCUIT_LINES = st.sampled_from([
    "h q[0];", "cz q[0], q[1];", "move q[0], q[99];", "move q[99], q[0];",
    "rz(0.25) q[2];", "h q[" + "9" * 5000 + "];", "h q[0];h q[0];", "move q[1], q[1];",
    "h q[9999];", "bogus q[0];", "rz(1e999) q[0];", "",
])


@st.composite
def _cli_inputs(draw):
    arch = draw(st.one_of(
        _mutated_documents().map(str.encode), st.binary(max_size=64),
        st.just(arch_document().encode()),
    ))
    circuit = draw(st.one_of(
        st.lists(_CIRCUIT_LINES, max_size=5).map(lambda ls: "\n".join(["RSQASM 1.0;", *ls])),
        st.text(max_size=80),
        st.just(GOLDEN_TEXT),
    ).map(str.encode) | st.binary(max_size=64))
    command = draw(st.sampled_from([
        ["validate"], ["evaluate", "--format", "json"], ["normalize", "--format", "csv"],
    ]))
    return arch, circuit, command


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None)
@given(_cli_inputs())
def test_cli_exit_code_is_0_1_or_2(workdir, inputs):
    arch, circuit, command = inputs
    (workdir / "arch.json").write_bytes(arch)
    (workdir / "circuit.rsqasm").write_bytes(circuit)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main([command[0], str(workdir / "circuit.rsqasm"), str(workdir / "arch.json"),
                     *command[1:]])
    assert code in (0, 1, 2)


@pytest.mark.parametrize("name", ["arch.json", "circuit.rsqasm"])
def test_cli_reports_undecodable_file_as_domain_error(tmp_path, capsys, name):
    (tmp_path / "arch.json").write_text(arch_document())
    (tmp_path / "circuit.rsqasm").write_text(GOLDEN_TEXT)
    (tmp_path / name).write_bytes(b"\xff\xfe\x00garbage")
    assert main(["validate", str(tmp_path / "circuit.rsqasm"), str(tmp_path / "arch.json")]) == 2
    assert "not valid UTF-8" in capsys.readouterr().err
