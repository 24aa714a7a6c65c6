import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from na_evalkit import (
    FlatBarrier,
    FlatCircuit,
    FlatGate,
    evaluate_unified,
    initial_state,
    parse_flat_qasm,
    parse_program,
    simulate,
    to_rsqasm,
)
from na_evalkit.errors import (
    ArityError,
    EvalKitError,
    ParamError,
    RsqasmError,
    RsqasmSyntaxError,
    TooManyQubits,
    UnsupportedConstruct,
)
from na_evalkit.ingest import GREEDY, ONE_PER_STAGE
from helpers import make_spec

NATIVE = ["cz", "rx", "ry", "rz", "h", "s", "t"]


def test_barrier_is_never_a_gate():
    circuit = parse_flat_qasm("cz q[1], q[2]; barrier q[1], q[2];")
    assert len(circuit.gates) == 1
    assert circuit.gates[0] == FlatGate("cz", (), (1, 2))
    assert FlatBarrier((1, 2)) in circuit.ops
    assert circuit.qubit_count == 3


def test_empty_body():
    circuit = parse_flat_qasm("")
    assert circuit.qubit_count == 0 and circuit.ops == ()


def test_empty_statements_are_skipped():
    circuit = parse_flat_qasm("qreg q[2];; h q[0];;;cz q[0],q[1];")
    assert circuit.gates == (FlatGate("h", (), (0,)), FlatGate("cz", (), (0, 1)))


def test_full_header_accepted():
    text = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[4];\nh q[0];\ncz q[0], q[1];\n'
    circuit = parse_flat_qasm(text)
    assert circuit.qubit_count == 4
    assert [g.name for g in circuit.gates] == ["h", "cz"]


@pytest.mark.parametrize("document, statement", [
    ("qreg q[2]; cz q[0],q[1]", "cz q[0],q[1]"),
    ("h q[0];\nh q[1] // no semicolon\n", "h q[1]"),
    ("qreg q[1]", "qreg q[1]"),
])
def test_a_last_statement_without_a_semicolon_is_rejected(document, statement):
    with pytest.raises(RsqasmSyntaxError, match=f"^statement '{re.escape(statement)}' is not"):
        parse_flat_qasm(document)


def test_comments_stripped():
    circuit = parse_flat_qasm("h q[0]; // flips the phase\n// cz q[0], q[1];\n")
    assert len(circuit.gates) == 1


def test_measure_rejected():
    with pytest.raises(UnsupportedConstruct):
        parse_flat_qasm("measure q[0] -> c[0];")


def test_creg_rejected():
    with pytest.raises(UnsupportedConstruct):
        parse_flat_qasm("creg c[3];")


def test_foreign_include_rejected():
    with pytest.raises(UnsupportedConstruct):
        parse_flat_qasm('include "other.inc";')


def test_multiple_qregs_rejected():
    with pytest.raises(UnsupportedConstruct):
        parse_flat_qasm("qreg q[2]; qreg r[2];")


def test_non_native_gate_rejected():
    with pytest.raises(UnsupportedConstruct):
        parse_flat_qasm("cx q[0], q[1];")


def test_symbolic_angle_rejected():
    with pytest.raises(UnsupportedConstruct):
        parse_flat_qasm("rz(pi/2) q[0];")


def test_numeric_angle_parsed():
    circuit = parse_flat_qasm("rz(0.785) q[0];")
    assert circuit.gates[0].params == (0.785,)


@pytest.mark.parametrize("angle, shown", [("1e999", "inf"), ("-1e999", "-inf")])
def test_angle_beyond_the_float_range_rejected(angle, shown):
    # the circuit parser rejects the same literal; the adapter must not pass inf on
    with pytest.raises(ParamError, match=f"^rz parameter must be finite, got {shown}$"):
        parse_flat_qasm(f"qreg q[1]; rz({angle}) q[0];")


def test_index_beyond_register_rejected():
    with pytest.raises(RsqasmSyntaxError):
        parse_flat_qasm("qreg q[2]; h q[5];")


@pytest.mark.parametrize("document, index, size", [
    ("qreg q[2]; h q[5];", 5, 2),
    ("qreg q[2]; barrier q[1], q[3]; cz q[2], q[0];", 3, 2),
])
def test_index_beyond_register_names_the_highest_index(document, index, size):
    message = f"^qubit index {index} exceeds the declared register size {size}$"
    with pytest.raises(RsqasmSyntaxError, match=message):
        parse_flat_qasm(document)


@pytest.mark.parametrize("document, count", [
    ("h q[4];", 5), ("barrier q[6]; h q[1];", 7), ("barrier;", 0), ("qreg q[9]; h q[1];", 9),
])
def test_without_a_qreg_the_highest_index_gives_the_count(document, count):
    assert parse_flat_qasm(document).qubit_count == count


def test_gate_on_whole_register_rejected():
    with pytest.raises(UnsupportedConstruct):
        parse_flat_qasm("qreg q[2]; h q;")


def test_duplicate_gate_operands_rejected():
    with pytest.raises(RsqasmSyntaxError):
        parse_flat_qasm("cz q[1], q[1];")



def _raised(parse, text: str) -> EvalKitError:
    with pytest.raises(EvalKitError) as info:
        parse(text)
    return info.value


@pytest.mark.parametrize(
    "statement", ["rz q[0]", "h(0.5) q[0]", "cz q[0]", "h q[0], q[1]", "rz(1e999) q[0]"]
)
def test_malformed_gates_raise_what_the_circuit_parser_raises(statement):
    staged = _raised(parse_program, f"RSQASM 1.0;\n{statement};\n")
    flat = _raised(parse_flat_qasm, f"qreg q[2]; {statement};")
    assert type(flat) is type(staged)
    assert str(staged) == f"line 2, column 1: {flat}"


@pytest.mark.parametrize("statement, error, message", [
    ("ry(0.1, 0.2) q[0]", ParamError, "ry takes 1 parameter(s), got 2"),
    ("h q[0], q[0]", ArityError, "h takes 1 operand(s), got 2"),
    # an operand fault is reported before the parameter count
    ("rz q", UnsupportedConstruct, "gates on a whole register are not supported"),
])
def test_flat_gate_faults(statement, error, message):
    flat = _raised(parse_flat_qasm, f"qreg q[2]; {statement};")
    assert (type(flat), str(flat)) == (error, message)


def test_a_flat_gate_checks_its_shape_when_built():
    with pytest.raises(ParamError, match=r"^rz takes 1 parameter\(s\), got 0$"):
        FlatGate("rz", (), (0,))
    with pytest.raises(RsqasmSyntaxError, match="^cz operands must be distinct qubits$"):
        FlatGate("cz", (), (1, 1))


@pytest.mark.parametrize("literal, accepted", [
    ("1.", True), (".5", True), ("-2e-3", True), ("+0", True),
    ("1_0", False), ("inf", False), ("0x1", False), ("pi", False), ("\u0661", False),
])
def test_flat_and_circuit_text_read_the_same_angle_literals(literal, accepted):
    staged, flat = f"RSQASM 1.0;\nrz({literal}) q[0];\n", f"rz({literal}) q[0];"
    if accepted:
        parse_program(staged)
        parse_flat_qasm(flat)
        return
    # each format keeps its own error class for a literal it rejects
    with pytest.raises(RsqasmError):
        parse_program(staged)
    with pytest.raises(UnsupportedConstruct):
        parse_flat_qasm(flat)


@pytest.mark.parametrize("count, make_op, message", [
    (1, lambda: FlatGate("h", (), (5,)), "qubit index 5 exceeds the declared register size 1"),
    (1, lambda: FlatGate("h", (), (2,)), "qubit index 2 exceeds the declared register size 1"),
    (2, lambda: FlatBarrier((0, 2)), "qubit index 2 exceeds the declared register size 2"),
    (0, lambda: FlatBarrier((0,)), "qubit index 0 exceeds the declared register size 0"),
    (3, lambda: FlatGate("h", (), (-1,)), "negative cell index in h"),
    (3, lambda: FlatBarrier((-1,)), "negative qubit index -1"),
    (3, lambda: FlatBarrier((1, -2)), "negative qubit index -2"),
])
def test_a_flat_circuit_bounds_its_qubits_when_built(count, make_op, message):
    with pytest.raises(RsqasmSyntaxError, match=f"^{message}$"):
        FlatCircuit(count, (FlatGate("h", (), (0,)), make_op()))


@pytest.mark.parametrize("ops", [(), (FlatBarrier(()),)])
def test_a_flat_circuit_refuses_a_negative_register_size(ops):
    with pytest.raises(RsqasmSyntaxError, match="^negative register size -1$"):
        FlatCircuit(-1, ops)


_THREE_ATOMS = make_spec(n_qubits=3)
_INDICES = st.integers(-2, 6)
_FLAT_OPS = st.one_of(
    st.builds(lambda q: ("h", (q,)), _INDICES),
    st.builds(lambda a, b: ("cz", (a, b)), _INDICES, _INDICES),
    st.builds(lambda qs: ("barrier", tuple(qs)), st.lists(_INDICES, max_size=3)),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(-1, 5), st.lists(_FLAT_OPS, max_size=6))
def test_every_flat_circuit_that_can_be_built_stages_without_an_index_error(count, raw_ops):
    try:
        circuit = FlatCircuit(count, tuple(
            FlatBarrier(qubits) if name == "barrier" else FlatGate(name, (), qubits)
            for name, qubits in raw_ops
        ))
    except EvalKitError:
        return
    try:
        to_rsqasm(circuit, _THREE_ATOMS)
    except TooManyQubits:
        assert count > 3


@pytest.mark.parametrize("header", ["", "qreg q[2]; "])
def test_one_register_per_circuit(header):
    # without a qreg the first register used is the circuit's one register
    with pytest.raises(UnsupportedConstruct, match="^unknown register 'r'$"):
        parse_flat_qasm(f"{header}h q[0]; h r[0]; cz q[0], r[1];")


def test_a_qreg_may_follow_gates_on_its_register():
    assert parse_flat_qasm("h q[0]; qreg q[2]; h q[1];").qubit_count == 2
    with pytest.raises(UnsupportedConstruct, match="^multiple quantum registers"):
        parse_flat_qasm("h q[0]; qreg r[2]; h r[1];")


# --- staging ---------------------------------------------------------------

def test_one_per_stage():
    spec = make_spec(n_qubits=4)
    circuit = parse_flat_qasm("h q[0]; h q[1];")
    program = to_rsqasm(circuit, spec, packing=ONE_PER_STAGE)
    assert len(program.stages) == 2
    assert all(len(stage.ops) == 1 for stage in program.stages)


def test_greedy_packs_independent_gates():
    spec = make_spec(n_qubits=4)
    circuit = parse_flat_qasm("h q[0]; h q[1]; h q[2];")
    program = to_rsqasm(circuit, spec, packing=GREEDY)
    assert len(program.stages) == 1
    assert len(program.stages[0].ops) == 3


def test_greedy_respects_dependencies():
    spec = make_spec(n_qubits=4)
    circuit = parse_flat_qasm("cz q[0], q[1]; h q[0];")
    program = to_rsqasm(circuit, spec, packing=GREEDY)
    assert len(program.stages) == 2


def test_barrier_fences_greedy_packing():
    spec = make_spec(n_qubits=4)
    packed = to_rsqasm(parse_flat_qasm("h q[0]; h q[1];"), spec, packing=GREEDY)
    assert len(packed.stages) == 1
    fenced = to_rsqasm(
        parse_flat_qasm("h q[0]; barrier q[0], q[1]; h q[1];"), spec, packing=GREEDY
    )
    assert len(fenced.stages) == 2


def test_bare_register_barrier_fences_everything():
    spec = make_spec(n_qubits=4)
    fenced = to_rsqasm(
        parse_flat_qasm("qreg q[3]; h q[0]; barrier q; h q[2];"), spec, packing=GREEDY
    )
    assert len(fenced.stages) == 2


def test_logical_qubits_land_on_row_major_cells():
    # placements deliberately scattered; logical i takes the i-th cell in
    # row-major order of the placements, not placement-list order
    spec = make_spec(side=10, cells=[27, 3, 15])
    program = to_rsqasm(parse_flat_qasm("h q[0]; h q[2];"), spec, packing=ONE_PER_STAGE)
    cells = [stage.ops[0].operands[0] for stage in program.stages]
    assert cells == [3, 27]


def test_too_many_qubits():
    spec = make_spec(n_qubits=2)
    with pytest.raises(TooManyQubits):
        to_rsqasm(parse_flat_qasm("h q[3];"), spec)


def test_unknown_packing_mode():
    spec = make_spec(n_qubits=2)
    with pytest.raises(ValueError):
        to_rsqasm(parse_flat_qasm("h q[0];"), spec, packing="caffeinated")


def _random_flat_source(rng, n_qubits, n_ops):
    lines = [f"qreg q[{n_qubits}];"]
    for _ in range(n_ops):
        name = rng.choice(NATIVE)
        if name == "cz":
            a, b = rng.sample(range(n_qubits), 2)
            lines.append(f"cz q[{a}], q[{b}];")
        elif name in ("rx", "ry", "rz"):
            lines.append(f"{name}({rng.uniform(-3.2, 3.2):.4f}) q[{rng.randrange(n_qubits)}];")
        else:
            lines.append(f"{name} q[{rng.randrange(n_qubits)}];")
        if rng.random() < 0.1:
            lines.append(f"barrier q[{rng.randrange(n_qubits)}];")
    return "\n".join(lines)


def _assert_order_preserved(circuit, program, placed):
    # walk the staged program and pop expected gates per qubit in order
    expected: dict[int, list] = {}
    for gate in circuit.gates:
        for q in gate.qubits:
            expected.setdefault(placed[q], []).append(gate.name)
    for stage in program.stages:
        for op in stage.ops:
            for cell in op.cells:
                assert expected[cell][0] == op.name
                expected[cell].pop(0)
    assert all(not rest for rest in expected.values())


def test_staging_properties_on_random_circuits():
    spec = make_spec(n_qubits=6)
    rng = random.Random(1234)
    placed = sorted(q.y * spec.grid_side + q.x for q in spec.qubits)
    for _ in range(60):
        circuit = parse_flat_qasm(_random_flat_source(rng, 6, rng.randint(0, 15)))
        greedy = to_rsqasm(circuit, spec, packing=GREEDY)
        serial = to_rsqasm(circuit, spec, packing=ONE_PER_STAGE)
        # greedy never uses more stages, both stay legal, and both preserve
        # per-qubit program order
        assert len(greedy.stages) <= len(serial.stages)
        for program in (greedy, serial):
            simulate(initial_state(spec), program)
            _assert_order_preserved(circuit, program, placed)


def test_end_to_end_barrier_regression(table1_spec):
    circuit = parse_flat_qasm("cz q[1], q[2]; barrier q[1], q[2];")
    program = to_rsqasm(circuit, table1_spec, packing=GREEDY)
    breakdown = evaluate_unified(program, table1_spec)
    assert breakdown.two_qubit_gate_count == 1
    assert breakdown.gate_count == 1
