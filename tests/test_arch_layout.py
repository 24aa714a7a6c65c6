"""The table-driven hardware-document parser against the reference walk.

``arch_reference`` is the hand-written ``parse_architecture`` and
``serialize_architecture`` that the layout table replaced. On every document
both must give an equal spec and byte-equal serialized text, or the same error
class and message, and the same unknown-key warnings in the same order. Two
differences are intended. First, the reference converts ``t1`` and ``t2``
before it checks either bound, while the table checks each key fully before
reading the next, so a nonpositive ``t1`` is reported before a bad or missing
``t2``. Second, the reference takes a ``gateTimes`` or ``gateFidelities`` entry
for a name outside ``NATIVE_GATES`` silently, into the spec and its serialized
text; the table warns about it as an unknown key and drops it. So the reference
reads each document with such entries removed, and the table's warnings about
them are checked apart from the others (see ``_outcomes``).
"""

import copy
import json
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

import arch_reference as reference
from na_evalkit import parse_architecture, serialize_architecture
from na_evalkit.errors import EvalKitError, InvalidValue, MissingField
from na_evalkit.rsqasm import NATIVE_GATES
from helpers import arch_document

_T1 = "parameters.decoherenceTimes.t1"
_T2 = "parameters.decoherenceTimes.t2"

# values on and around every bound, and one of each JSON type
_EDGE_VALUES = [
    0, -1, 1, 2, 99, 0.5, 1.0, 1.5, -0.0, -2.5, 5e-324, 10**400, True, False, None,
    "x", "", [], {}, [1], {"id": 0, "x": 0, "y": 0},
]
_VALUES = st.one_of(
    st.sampled_from(_EDGE_VALUES),
    st.integers(-3, 3),
    st.floats(-2.0, 2.0),
    st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4)),
        lambda children: st.one_of(
            st.lists(children, max_size=3),
            st.dictionaries(st.text(max_size=4), children, max_size=3),
        ),
        max_leaves=6,
    ),
)
_NEW_KEYS = st.one_of(
    st.sampled_from(["futureKnob", "t3", "schema", "Qubits", "move_speed", "id"]),
    st.text(max_size=6),
)


def _base(excitement=None) -> dict:
    return json.loads(arch_document(n_qubits=2, side=3, excitement=excitement))


def _paths(node, path=()):
    """(path, value) for every value in a document, the root's () included."""
    yield path, node
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _actions(path, node) -> list[str]:
    return (["set", "drop"] if path else []) + (["add"] if isinstance(node, dict) else [])


def _edited(doc, path, action: str, value=None, key: str = "futureKnob"):
    """A copy of ``doc`` with the value at ``path`` replaced ("set") or dropped
    ("drop"), or with ``key`` added to the object there ("add")."""
    doc = copy.deepcopy(doc)
    value = copy.deepcopy(value)  # a later edit may mutate it
    if action == "add":
        _at(doc, path)[key] = value
    elif action == "set":
        _at(doc, path[:-1])[path[-1]] = value
    else:
        del _at(doc, path[:-1])[path[-1]]
    return doc


@st.composite
def _edited_documents(draw):
    """A valid document with one or two edits. Each edit draws an object or a
    list first, then a key in it, so the gate maps do not crowd out the rest."""
    side = draw(st.integers(1, 4))
    doc = json.loads(arch_document(
        side=side,
        n_qubits=draw(st.integers(1, min(3, side * side))),
        excitement=draw(st.sampled_from([None, 0.998, 1.0])),
    ))
    for _ in range(draw(st.integers(1, 2))):
        path, node = draw(st.sampled_from([
            (path, node) for path, node in _paths(doc)
            if isinstance(node, dict) or isinstance(node, list) and node
        ]))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        action = draw(st.sampled_from((["add"] if isinstance(node, dict) else []) + (
            ["set", "drop"] if keys else []
        )))
        if action != "add":
            path += (draw(st.sampled_from(keys)),)
        doc = _edited(doc, path, action, draw(_VALUES), draw(_NEW_KEYS))
    return json.dumps(doc)


def _outcome(parse, serialize, document: str):
    """(the spec and its serialized text, or the error's class and message;
    the warning messages in order)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            spec = parse(document)
            result = (spec, serialize(spec))
        except EvalKitError as exc:
            result = (type(exc), str(exc))
    return result, [str(w.message) for w in caught]


def _without_unknown_gates(document: str) -> tuple[str, list[str]]:
    """The document without its gate-map entries for names outside
    NATIVE_GATES, and the warnings the table gives for them, in order."""
    doc = json.loads(document)
    parameters = doc.get("parameters") if isinstance(doc, dict) else None
    notes = []
    for key in ("gateTimes", "gateFidelities"):
        gate_map = parameters.get(key) if isinstance(parameters, dict) else None
        if isinstance(gate_map, dict):
            for name in [name for name in gate_map if name not in NATIVE_GATES]:
                del gate_map[name]
                notes.append(f"ignoring unknown key parameters.{key}.{name}")
    return (json.dumps(doc) if notes else document), notes


def _outcomes(document: str):
    """The reference's outcome on the document without unknown gate names, and
    the table's on the document itself, less its warnings about those names.
    Those warnings must be exactly the expected ones: all of them when the
    parse succeeds, and a leading part of them when it fails."""
    cleaned, notes = _without_unknown_gates(document)
    expected = _outcome(reference.parse_architecture, reference.serialize_architecture, cleaned)
    result, warned = _outcome(parse_architecture, serialize_architecture, document)
    gate_notes = [message for message in warned if message in notes]
    parsed = not isinstance(result[0], type)
    assert gate_notes == (notes if parsed else notes[:len(gate_notes)]), document
    return expected, (result, [message for message in warned if message not in notes])


def _is_decoherence_precedence(expected, got, document: str) -> bool:
    """The one intended difference: the table reports a nonpositive t1 where
    the reference first reports a missing or unreadable t2."""
    t1 = json.loads(document)["parameters"]["decoherenceTimes"]["t1"]
    return (
        type(t1) in (int, float) and t1 <= 0
        and got[0] is InvalidValue and got[1].startswith(f"{_T1}: must be > 0, got ")
        and expected[0] in (InvalidValue, MissingField) and expected[1].startswith(f"{_T2}: ")
    )


def _decoherence(t1, t2=None) -> str:
    doc = _base()
    doc["parameters"]["decoherenceTimes"] = {"t1": t1} if t2 is None else {"t1": t1, "t2": t2}
    return json.dumps(doc)


@pytest.mark.parametrize("excitement", [None, 0.998])
def test_every_single_edit_gives_the_same_outcome(excitement):
    """Each value dropped or replaced by each edge value, and a key added to
    each object. One fault cannot raise the precedence question, so the
    outcomes must be equal."""
    doc = _base(excitement)
    count = 0
    for path, node in _paths(doc):
        for action in _actions(path, node):
            for value in _EDGE_VALUES if action == "set" else [1]:
                document = json.dumps(_edited(doc, path, action, value))
                expected, got = _outcomes(document)
                assert got == expected, document
                count += 1
    assert count > 800


@pytest.mark.parametrize("entry", [
    {"id": 2, "x": 0, "y": 1},
    {"y": 1, "x": 0, "id": 2},
    {"id": True, "x": 0, "y": 1},
    {"id": 2, "x": 1.0, "y": 1},
    {"id": 2, "x": 0, "y": 10**400},
    {"id": 2, "x": 0},
    {"id": 2, "x": 0, "y": 1, "z": 2},
    {"id": -1, "x": 0, "y": 1},
    {"id": 1, "x": 0, "y": 1},
    {"id": 2, "x": 1, "y": 0},
    {"id": 2, "x": 3, "y": 0},
    [2, 0, 1],
])
def test_each_qubit_entry_gives_the_reference_outcome(entry):
    """A plain entry of three ints is read directly, any other by the layout
    walk; either way the spec, the message, its path and the warnings agree."""
    doc = _base()
    doc["parameters"]["Qubits"].append(entry)  # after two plain entries
    expected, got = _outcomes(json.dumps(doc))
    assert got == expected


@settings(max_examples=400, deadline=None)
@given(_edited_documents())
@example(_decoherence(0, "x"))
@example(_decoherence(-1.5))
def test_table_parser_matches_the_reference(document):
    (expected, expected_warnings), (got, got_warnings) = _outcomes(document)
    assert got_warnings == expected_warnings, document
    if got != expected:
        assert _is_decoherence_precedence(expected, got, document), (document, expected, got)


@pytest.mark.parametrize("t2, reference_message", [
    ("x", f"{_T2}: expected a number"),
    (float("nan"), f"{_T2}: expected a finite number, got nan"),
    (None, f"{_T2}: required field is missing"),
])
def test_nonpositive_t1_is_reported_before_a_bad_t2(t2, reference_message):
    document = _decoherence(0, t2)
    (expected, _), (got, _) = _outcomes(document)
    assert expected == (expected[0], reference_message)
    assert got == (InvalidValue, f"{_T1}: must be > 0, got 0.0")
    assert _is_decoherence_precedence(expected, got, document)


def _with_unknown_keys(fail: bool = False) -> str:
    doc = _base()
    doc["futureTop"] = 1
    doc["parameters"]["futureSection"] = 2
    doc["parameters"]["Qubits"][1]["futureQubit"] = 3
    doc["parameters"]["decoherenceTimes"]["futureTime"] = 4
    if fail:
        doc["parameters"]["excitementFidelity"] = 2.0
    return json.dumps(doc)


_UNKNOWN_WARNINGS = [
    "ignoring unknown key futureTop",
    "ignoring unknown key parameters.futureSection",
    "ignoring unknown key parameters.Qubits[1].futureQubit",
    "ignoring unknown key parameters.decoherenceTimes.futureTime",
]


def test_unknown_key_warnings_name_the_caller_at_every_depth():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        parse_architecture(_with_unknown_keys())
    assert [str(w.message) for w in caught] == _UNKNOWN_WARNINGS
    assert [w.filename for w in caught] == [__file__] * len(_UNKNOWN_WARNINGS)
    assert all(w.category is UserWarning for w in caught)


def test_unknown_key_warnings_come_out_when_the_parse_fails():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InvalidValue, match="excitementFidelity"):
            parse_architecture(_with_unknown_keys(fail=True))
    assert [str(w.message) for w in caught] == _UNKNOWN_WARNINGS
    assert [w.filename for w in caught] == [__file__] * len(_UNKNOWN_WARNINGS)


def test_unknown_key_warning_as_error_still_raises():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UserWarning, match="futureTop"):
            parse_architecture(_with_unknown_keys())


def test_gate_names_outside_the_native_set_warn_and_are_dropped():
    """A misspelt "CZ" next to "cz" warns like any unknown key, in its object's
    turn, and neither the spec nor the serialized text keeps it."""
    doc = json.loads(_with_unknown_keys())
    doc["parameters"]["gateTimes"]["CZ"] = 0.3
    doc["parameters"]["gateFidelities"]["cx"] = "not checked"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spec = parse_architecture(json.dumps(doc))
    assert [str(w.message) for w in caught] == _UNKNOWN_WARNINGS[:3] + [
        "ignoring unknown key parameters.gateTimes.CZ",
        "ignoring unknown key parameters.gateFidelities.cx",
    ] + _UNKNOWN_WARNINGS[3:]
    assert set(spec.gate_times) == set(spec.gate_fidelities) == NATIVE_GATES
    written = json.loads(serialize_architecture(spec))["parameters"]
    assert list(written["gateTimes"]) == list(written["gateFidelities"]) == sorted(NATIVE_GATES)


def test_unknown_gate_names_warn_before_a_missing_native_gate():
    doc = _base()
    gate_times = doc["parameters"]["gateTimes"]
    gate_times["foo"] = gate_times.pop("h")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(MissingField, match="missing native gate entries: h"):
            parse_architecture(json.dumps(doc))
    assert [str(w.message) for w in caught] == ["ignoring unknown key parameters.gateTimes.foo"]
