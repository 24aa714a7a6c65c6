import json

import pytest
from hypothesis import given, strategies as st

from na_evalkit import (
    effective_coherence_time,
    parse_architecture,
    serialize_architecture,
)
from na_evalkit.errors import (
    InvalidValue,
    MalformedDocument,
    MissingField,
    SchemaMismatch,
)
from helpers import arch_document, make_spec


def test_case_study_document_parses(table1_document):
    spec = parse_architecture(table1_document)
    assert spec.grid_side == 50
    assert spec.inter_qubit_distance == 1.0
    assert spec.qubit_count == 30
    assert spec.gate_times["cz"] == 0.2
    assert spec.gate_times["h"] == 2.0
    assert spec.gate_fidelities["cz"] == 0.9996
    assert spec.gate_fidelities["rx"] == 0.9999
    assert spec.t1 == 1.0e8
    assert spec.t2 == 1.5e6
    assert spec.aod_transfer_time == 20.0
    assert spec.transfer_fidelity == 0.9999
    assert spec.move_speed == 0.55
    assert spec.excitement_fidelity == 1.0


def test_parsing_is_deterministic(table1_document):
    assert parse_architecture(table1_document) == parse_architecture(table1_document)


def test_round_trip(table1_document):
    spec = parse_architecture(table1_document)
    assert parse_architecture(serialize_architecture(spec)) == spec


def _doc(mutate):
    doc = json.loads(arch_document(n_qubits=4, side=5))
    mutate(doc)
    return json.dumps(doc)


def test_duplicate_position_rejected():
    def clash(doc):
        doc["parameters"]["Qubits"][1]["x"] = 0
        doc["parameters"]["Qubits"][1]["y"] = 0

    with pytest.raises(InvalidValue, match=r"Qubits\[1\]"):
        parse_architecture(_doc(clash))


def test_duplicate_id_rejected():
    def clash(doc):
        doc["parameters"]["Qubits"][1]["id"] = 0

    with pytest.raises(InvalidValue, match="duplicate qubit id"):
        parse_architecture(_doc(clash))


def test_missing_decoherence_times():
    with pytest.raises(MissingField, match="decoherenceTimes"):
        parse_architecture(_doc(lambda d: d["parameters"].pop("decoherenceTimes")))


def test_not_json():
    with pytest.raises(MalformedDocument):
        parse_architecture("not a { document")


def test_unknown_schema_version():
    def bump(doc):
        doc["schema"] = 99

    with pytest.raises(SchemaMismatch):
        parse_architecture(_doc(bump))


def test_unknown_keys_warn_but_parse():
    def extend(doc):
        doc["parameters"]["futureKnob"] = 3

    with pytest.warns(UserWarning, match="futureKnob"):
        spec = parse_architecture(_doc(extend))
    assert spec.qubit_count == 4


def test_out_of_grid_placement_rejected():
    def shift(doc):
        doc["parameters"]["Qubits"][0]["x"] = 5

    with pytest.raises(InvalidValue, match="outside"):
        parse_architecture(_doc(shift))


@pytest.mark.parametrize(
    "path, value, error",
    [
        (("properties", "nRows_nColumns_grid_side_size"), 0, InvalidValue),
        (("properties", "interQubitDistance"), 0, InvalidValue),
        (("parameters", "shuttlingTimesSpeed", "move_speed"), -1, InvalidValue),
        (("parameters", "shuttlingTimesSpeed", "aod_activate_deactivate_time"), -1, InvalidValue),
        (("parameters", "decoherenceTimes", "t1"), 0, InvalidValue),
        (("parameters", "decoherenceTimes", "t2"), -5, InvalidValue),
        (("parameters", "shuttlingFidelities", "aod_activate_deactivate"), 1.5, InvalidValue),
        (("parameters", "shuttlingFidelities", "aod_activate_deactivate"), 0.0, InvalidValue),
        (("parameters", "gateTimes", "cz"), float("nan"), InvalidValue),
        (("parameters", "shuttlingTimesSpeed", "move_speed"), float("nan"), InvalidValue),
        (("parameters", "decoherenceTimes", "t1"), float("inf"), InvalidValue),
        (("parameters", "decoherenceTimes", "t2"), float("inf"), InvalidValue),
        (("properties", "interQubitDistance"), float("inf"), InvalidValue),
    ],
)
def test_bounds_violations(path, value, error):
    def poke(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    with pytest.raises(error):
        parse_architecture(_doc(poke))


def test_integer_beyond_float_range_rejected():
    def poke(doc):
        doc["parameters"]["decoherenceTimes"]["t1"] = 10**400

    with pytest.raises(InvalidValue, match=r"decoherenceTimes\.t1"):
        parse_architecture(_doc(poke))


def test_missing_native_gate_entry():
    def drop(doc):
        del doc["parameters"]["gateTimes"]["s"]

    with pytest.raises(MissingField, match="gateTimes"):
        parse_architecture(_doc(drop))


def test_gate_fidelity_out_of_range():
    def poke(doc):
        doc["parameters"]["gateFidelities"]["cz"] = 1.01

    with pytest.raises(InvalidValue, match=r"gateFidelities\.cz"):
        parse_architecture(_doc(poke))


def test_excitement_fidelity_optional():
    spec = make_spec(excitement=0.998)
    assert spec.excitement_fidelity == 0.998


# --- effective coherence time -------------------------------------------

def test_effective_coherence_time_case_study():
    spec = make_spec(t1=1.0e8, t2=1.5e6)
    assert effective_coherence_time(spec) == pytest.approx(1477832.51, abs=0.01)


def test_effective_coherence_time_symmetric():
    spec = make_spec(t1=4.0e6, t2=4.0e6)
    assert effective_coherence_time(spec) == pytest.approx(2.0e6)


def test_effective_coherence_time_hand_value():
    # 2e6 * 1e6 / 3e6
    spec = make_spec(t1=2.0e6, t2=1.0e6)
    assert effective_coherence_time(spec) == pytest.approx(666666.67, abs=0.01)


@given(
    t1=st.floats(min_value=1e-3, max_value=1e12),
    t2=st.floats(min_value=1e-3, max_value=1e12),
)
def test_effective_coherence_time_below_both(t1, t2):
    spec = make_spec(t1=t1, t2=t2)
    assert effective_coherence_time(spec) < min(t1, t2)
