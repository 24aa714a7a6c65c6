import math
import random

import pytest

from na_evalkit import (
    Program,
    WhatIfInput,
    effective_coherence_time,
    evaluate_dasatom,
    evaluate_enola,
    evaluate_hybridmapper,
    evaluate_model,
    evaluate_unified,
    parse_program,
    whatif_collapse,
)
from na_evalkit.errors import CoherenceBudgetExceeded, InvalidInput, NonFiniteResult
from na_evalkit.models import Model
from helpers import all_busy_program, make_spec, random_legal_program


# --- hybridmapper -----------------------------------------------------------

def test_hybridmapper_matches_unified_without_moves(table1_spec):
    program = parse_program("RSQASM 1.0;\nh q[0];\ncz q[1], q[2];\n")
    hm = evaluate_hybridmapper(program, table1_spec)
    un = evaluate_unified(program, table1_spec)
    assert hm.f_decoherence == pytest.approx(un.f_decoherence)
    assert hm.f_gates == un.f_gates
    assert hm.f_movements == un.f_movements
    assert hm.asp == pytest.approx(un.asp)


def test_hybridmapper_subtracts_transfer_durations(table1_spec):
    # one 1-cell move: unified idles 30 * 41.818..., this model 40 us less
    program = parse_program("RSQASM 1.0;\nmove q[0], q[50];\n")
    hm = evaluate_hybridmapper(program, table1_spec)
    un = evaluate_unified(program, table1_spec)
    stage = 2 * 20 + 1 / 0.55
    assert un.t_idle_us == pytest.approx(30 * stage)
    assert hm.t_idle_us == pytest.approx(30 * stage - 40)
    assert hm.f_decoherence > un.f_decoherence


def test_hybridmapper_empty_program(table1_spec):
    assert evaluate_hybridmapper(Program(1, 0, ()), table1_spec).asp == 1.0


def test_hybridmapper_decoherence_never_below_unified():
    spec = make_spec(side=6, cells=list(range(7)))
    rng = random.Random(31)
    for _ in range(80):
        program = random_legal_program(rng, spec)
        hm = evaluate_hybridmapper(program, spec)
        un = evaluate_unified(program, spec)
        assert hm.f_decoherence >= un.f_decoherence


# --- dasatom -----------------------------------------------------------------

def test_dasatom_single_cz(table1_spec):
    program = parse_program("RSQASM 1.0;\ncz q[0], q[1];\n")
    b = evaluate_dasatom(program, table1_spec)
    assert b.t_total_us == pytest.approx(0.2)
    assert b.t_idle_us == pytest.approx(5.8)
    assert b.asp == pytest.approx(math.exp(-5.8 / 1.5e6) * 0.9996)


def test_dasatom_move_only_stage(table1_spec):
    # one 5-cell move: T = 0 (no gate stages) + 2*20 + 5/0.55, s = 2
    program = parse_program("RSQASM 1.0;\nmove q[0], q[250];\n")
    b = evaluate_dasatom(program, table1_spec)
    t = 2 * 20 + 5 / 0.55
    assert b.t_total_us == pytest.approx(t)
    assert b.f_movements == pytest.approx(0.9999**2)
    assert b.f_gates == 1.0
    assert b.asp == pytest.approx(0.9999**2 * math.exp(-30 * t / 1.5e6))


def test_dasatom_ignores_one_qubit_gates(table1_spec):
    # a 1q-only stage still counts toward depth h, but adds no gate fidelity
    program = parse_program("RSQASM 1.0;\nh q[0];\ncz q[1], q[2];\n")
    b = evaluate_dasatom(program, table1_spec)
    t = 2 * 0.2  # h = 2 gate-bearing stages, each priced at the cz time
    assert b.t_total_us == pytest.approx(t)
    assert b.t_idle_us == pytest.approx(30 * t - 1 * 0.2)
    assert b.f_gates == pytest.approx(0.9996)


def test_dasatom_zero_move_formula(table1_spec):
    # n*h*t_cz - m*t_cz idle with m cz gates over h stages
    program = parse_program(
        "RSQASM 1.0;\ncz q[0], q[1];cz q[2], q[3];\ncz q[0], q[2];\n"
    )
    b = evaluate_dasatom(program, table1_spec)
    m, h = 3, 2
    t_idle = 30 * h * 0.2 - m * 0.2
    assert b.t_idle_us == pytest.approx(t_idle)
    assert b.asp == pytest.approx(math.exp(-t_idle / 1.5e6) * 0.9996**m)


def test_dasatom_parallel_moves_cost_only_the_longest(table1_spec):
    # distances 3 and 1 in one stage -> D counts only 3
    program = parse_program("RSQASM 1.0;\nmove q[0], q[150];move q[1], q[51];\n")
    b = evaluate_dasatom(program, table1_spec)
    s = 4
    t = s * 20 + 3 / 0.55
    assert b.t_total_us == pytest.approx(t)
    assert b.f_movements == pytest.approx(0.9999**s)


def test_dasatom_gate_fidelity_matches_unified_on_cz_only_circuits(table1_spec):
    program = parse_program("RSQASM 1.0;\ncz q[0], q[1];\ncz q[2], q[3];\n")
    assert evaluate_dasatom(program, table1_spec).f_gates == pytest.approx(
        evaluate_unified(program, table1_spec).f_gates
    )


# --- enola -------------------------------------------------------------------

def test_enola_two_busy_atoms(table1_spec):
    spec = make_spec(n_qubits=2)
    program = parse_program("RSQASM 1.0;\ncz q[0], q[1];\n")
    b = evaluate_enola(program, spec)
    # both atoms are busy for the whole run time, so no idle loss at all
    assert b.f_decoherence == 1.0
    assert b.asp == pytest.approx(0.9996)


def test_enola_exposure_exponent(table1_spec):
    # 30 qubits, 4 stages, 3 cz gates -> exponent 30*4 - 2*3 = 114
    spec = make_spec(excitement=0.999)
    program = parse_program(
        "RSQASM 1.0;\ncz q[0], q[1];\ncz q[2], q[3];\ncz q[4], q[5];\nh q[6];\n"
    )
    b = evaluate_enola(program, spec)
    assert b.stage_count == 4 and b.two_qubit_gate_count == 3
    expected_gates = 0.9996**3 * 0.999**114
    assert b.f_gates == pytest.approx(expected_gates, rel=1e-12)


def test_enola_one_qubit_gates_are_free(table1_spec):
    spec = make_spec(excitement=1.0)
    program = parse_program("RSQASM 1.0;\nh q[0];rx(0.5) q[1];\n")
    b = evaluate_enola(program, spec)
    assert b.f_gates == 1.0
    assert b.one_qubit_gate_count == 2


def test_enola_movement_time_quadratic_speed(table1_spec):
    # one 11-cell move at speed 0.55: run time 2*20 + 11/0.55**2
    program = parse_program("RSQASM 1.0;\nmove q[0], q[550];\n")
    b = evaluate_enola(program, table1_spec)
    assert b.t_total_us == pytest.approx(2 * 20 + 11 / 0.55**2)


def test_enola_custom_travel_law(table1_spec):
    program = parse_program("RSQASM 1.0;\nmove q[0], q[550];\n")
    b = evaluate_enola(
        program, table1_spec, travel_time=lambda d, spec: d / spec.move_speed
    )
    assert b.t_total_us == pytest.approx(2 * 20 + 11 / 0.55)


def test_enola_coherence_budget_guard():
    spec = make_spec(n_qubits=3, t2=0.1)
    # the idle third atom accumulates T_q = 0.2 >= t2
    program = parse_program("RSQASM 1.0;\ncz q[0], q[1];\n")
    with pytest.raises(CoherenceBudgetExceeded):
        evaluate_enola(program, spec)


def test_enola_empty_program(table1_spec):
    b = evaluate_enola(Program(1, 0, ()), table1_spec)
    assert b.asp == 1.0


# --- dispatch ----------------------------------------------------------------

def test_all_models_stay_in_unit_interval():
    spec = make_spec(side=6, cells=list(range(7)))
    rng = random.Random(77)
    cases = [(random_legal_program(rng, spec), spec) for _ in range(60)]
    for n in range(1, 10):  # no atom ever idles, so n*T and the gate sum round apart
        busy = make_spec(side=3, n_qubits=n, one_qubit_time=0.3)
        cases += [(all_busy_program(rng, busy), busy) for _ in range(4)]
    for program, spec in cases:
        for model in Model:
            b = evaluate_model(program, spec, model)
            for factor in (b.f_decoherence, b.f_gates, b.f_movements, b.asp):
                assert 0.0 < factor <= 1.0
            assert b.asp == pytest.approx(b.f_decoherence * b.f_gates * b.f_movements)
            assert b.t_idle_us >= 0.0
            assert math.copysign(1.0, b.t_idle_us) == 1.0  # never -0.0


def test_evaluate_model_dispatch(table1_spec):
    program = parse_program("RSQASM 1.0;\ncz q[0], q[1];\n")
    for model in Model:
        b = evaluate_model(program, table1_spec, model)
        assert b.model == model.value
    by_name = evaluate_model(program, table1_spec, "dasatom")
    assert by_name.model == "dasatom"


# --- what-if -----------------------------------------------------------------

def test_whatif_case_study_chain(table1_spec):
    result = whatif_collapse(
        WhatIfInput(
            old_t_idle_us=2747600.0,
            saved_distance_cells=6003.69,
            old_move_count=1828,
            new_move_count=937,
            n=30,
        ),
        table1_spec,
    )
    assert result.delta_t_move_us == pytest.approx(10915.8, abs=0.1)
    assert result.delta_t_idle_us == pytest.approx(327474.0, abs=1.0)
    assert result.t_idle_new_us == pytest.approx(2420126.37, abs=1.0)
    assert result.f_movements == pytest.approx(0.8291, abs=0.0002)
    assert result.f_decoherence == pytest.approx(0.1944, abs=0.0002)


def test_whatif_noop_reproduces_inputs(table1_spec):
    result = whatif_collapse(
        WhatIfInput(2747600.0, 0.0, 1828, 1828, 30), table1_spec
    )
    t_eff = effective_coherence_time(table1_spec)
    assert result.t_idle_new_us == 2747600.0
    assert result.f_decoherence == pytest.approx(math.exp(-2747600.0 / t_eff))
    assert result.f_movements == pytest.approx(0.9999 ** (2 * 1828))


@pytest.mark.parametrize("idle, saved", [(-0.0, 0.0), (5.0, -0.0), (-0.0, -0.0)])
def test_whatif_reads_a_negative_zero_as_zero(table1_spec, idle, saved):
    w = WhatIfInput(idle, saved, 1, 1, 3)
    assert math.copysign(1.0, w.old_t_idle_us) == math.copysign(1.0, w.saved_distance_cells) == 1.0
    result = whatif_collapse(w, table1_spec)
    for value in (result.delta_t_move_us, result.delta_t_idle_us, result.t_idle_new_us):
        assert math.copysign(1.0, value) == 1.0


def test_whatif_rejects_negative_idle(table1_spec):
    with pytest.raises(InvalidInput):
        whatif_collapse(WhatIfInput(10.0, 1.0e6, 10, 5, 30), table1_spec)


@pytest.mark.parametrize("saved, n, field", [
    (1e308, 3, "delta_t_move_us"),  # the saved travel time overflows
    (1e300, 10**11, "delta_t_idle_us"),  # n times a finite travel time overflows
])
def test_whatif_overflow_is_non_finite_not_a_negative_idle_time(table1_spec, saved, n, field):
    with pytest.raises(NonFiniteResult, match=f"^{field} is inf: the inputs leave the float range$"):
        whatif_collapse(WhatIfInput(1.0, saved, 1, 0, n), table1_spec)


def test_whatif_input_validation():
    with pytest.raises(InvalidInput):
        WhatIfInput(100.0, -1.0, 10, 5, 30)
    with pytest.raises(InvalidInput):
        WhatIfInput(100.0, 0.0, 5, 10, 30)  # move count grew
    with pytest.raises(InvalidInput):
        WhatIfInput(100.0, 0.0, 10, 5, 0)
    with pytest.raises(InvalidInput, match="^move counts must be >= 0$"):
        WhatIfInput(100.0, 0.0, 10, -1, 30)
    with pytest.raises(InvalidInput, match="^move counts must be >= 0$"):
        WhatIfInput(100.0, 0.0, -1, -2, 30)
    with pytest.raises(InvalidInput, match="^idle time must be >= 0$"):
        WhatIfInput(-1.0, 0.0, 10, 5, 30)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidInput):
            WhatIfInput(bad, 0.0, 10, 5, 30)
        with pytest.raises(InvalidInput):
            WhatIfInput(100.0, bad, 10, 5, 30)
