"""Circuit IR tests: validation, inversion, cost accounting, serialization."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from shallowprep import circuits as circ, library
from shallowprep.circuits import (
    Builder,
    CircuitError,
    cost,
    deserialize,
    g_and,
    g_cnot,
    g_ctrl_unitary1,
    g_fanout,
    g_nor,
    g_or,
    g_product_reflection,
    g_reflect_zero,
    g_swap,
    g_unitary1,
    g_x,
    g_z,
    invert_gate,
    serialize,
)
from shallowprep.simulate import SimulationError, run
from test_library import one_gate_circuit


def rot(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def test_register_indexing_and_iteration():
    b = Builder()
    r = b.add_register("x", 4)
    assert len(r) == 4
    assert list(r) == [0, 1, 2, 3]
    assert r[2] == 2
    assert r[-1] == 3


def test_duplicate_register_name_rejected():
    b = Builder()
    b.add_register("x", 1)
    with pytest.raises(CircuitError):
        b.add_register("x", 2)


def test_new_register_generates_unique_names():
    b = Builder()
    a = b.new_register("anc", 2)
    c = b.new_register("anc", 3)
    assert a.name != c.name
    assert a.ancilla and c.ancilla


def test_layer_overlap_rejected():
    b = Builder()
    r = b.add_register("x", 3)
    with pytest.raises(CircuitError, match="twice"):
        b.append_layer([g_x(r[0]), g_cnot(r[0], r[1])])


def test_gate_touching_qubit_twice_rejected():
    b = Builder()
    r = b.add_register("x", 2)
    with pytest.raises(CircuitError):
        b.append(g_and((r[0], r[0]), r[1]))


def test_unknown_qubit_rejected():
    b = Builder()
    b.add_register("x", 1)
    with pytest.raises(CircuitError):
        b.append(g_x(5))


def test_fanout_budget_enforced_and_widened_bypass():
    b = Builder(metadata={"fanout_budget": 2})
    src = b.add_register("s", 1)
    tgt = b.add_register("t", 3)
    with pytest.raises(CircuitError, match="exceeds budget"):
        b.append(g_fanout(src[0], tuple(tgt)))
    b.append(g_fanout(src[0], tuple(tgt), widened=True))
    assert len(b.layers) == 1


def test_controlled_unitary_must_be_hermitian():
    non_hermitian = np.array([[0, 1j], [1j, 0]], dtype=complex) @ rot(0.3)
    with pytest.raises(CircuitError):
        Builder_with_gate(g_ctrl_unitary1(0, 1, non_hermitian))


def test_unitary_with_a_ctrl_param_must_be_hermitian():
    b = Builder()
    q, c = b.add_register("d", 2)
    b.append(g_unitary1(q, np.eye(2, dtype=complex)).with_params(ctrl=c))
    with pytest.raises(CircuitError, match="controlled unitary1 matrix must be Hermitian"):
        b.append(g_unitary1(q, rot(0.3)).with_params(ctrl=c))


def Builder_with_gate(gate):
    b = Builder()
    b.add_register("x", max(gate.touched()) + 1)
    b.append(gate)
    return b.build()


def test_invert_self_inverse_kinds():
    gates = [
        g_and((0, 1), 2),
        g_or((0, 1), 2),
        g_nor((0, 1), 2),
        g_fanout(0, (1, 2)),
        g_swap(0, 1),
        g_reflect_zero((0, 1)),
    ]
    for g in gates:
        assert invert_gate(g) is g


def test_invert_unitary_is_dagger():
    g = g_unitary1(0, rot(0.7))
    gi = invert_gate(g)
    prod = np.asarray(gi.params["matrix"]) @ np.asarray(g.params["matrix"])
    assert np.allclose(prod, np.eye(2))


def test_invert_library_toggles_flag():
    g = library.make("ham", (2, 1), (0, 1, 2, 3))
    gi = invert_gate(g)
    assert gi.params["inverse"] is True
    assert invert_gate(gi).params["inverse"] is False


@given(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5), st.integers(0, 7))
def test_gate_then_inverse_is_identity(angles, perm_seed):
    """Running a random segment then its inverse restores any basis state."""
    b = Builder()
    r = b.add_register("x", 3)
    for i, theta in enumerate(angles):
        q = (i + perm_seed) % 3
        b.append(g_unitary1(r[q], rot(theta)))
        b.append(g_cnot(r[q], r[(q + 1) % 3]))
    mark = 0
    seg = b.layers_since(mark)
    b.replay_inverse(seg)
    state = run(b.build(), initial={0: 1, 2: 1})
    expected = np.zeros(8, dtype=complex)
    expected[0b101] = 1.0
    assert abs(np.vdot(expected, state.amplitudes)) > 1 - 1e-9


def test_cost_counts_library_depth_and_width():
    b = Builder()
    r = b.add_register("x", 5)
    b.append(library.make("threshold", (4, 4), tuple(r)))
    b.append(g_or((r[0], r[1], r[2], r[3]), r[4]))
    b.append(g_fanout(r[0], (r[1], r[2], r[3])))
    b.record_rounds(2, 6)
    b.record_rounds(3, 8)
    report = cost(b.build())
    assert library.entry("threshold").cost((4, 4)) == (4, 4)
    # one depth-4 library layer plus two plain layers
    assert report.depth == 4 + 1 + 1
    # wide OR is free; fanout width is max(native 3, threshold's 4)
    assert report.max_fanout_width == 4
    assert report.grover_rounds == 5
    assert report.ancilla_count == 0
    d = report.as_dict()
    assert set(d) == {"depth", "ancilla_count", "max_fanout_width", "grover_rounds"}


def test_cost_wide_logic_does_not_count_as_fanout():
    b = Builder()
    r = b.add_register("x", 9)
    b.append(g_or(tuple(r[:8]), r[8]))
    assert cost(b.build()).max_fanout_width == 0


def test_from_circuit_round_trip_and_extension():
    b = Builder()
    r = b.add_register("x", 2)
    b.append(g_x(r[0]))
    b.record_rounds(1, 4)
    c1 = b.build()
    b2 = Builder.from_circuit(c1)
    assert b2.n_qubits == 2
    b2.append(g_x(b2.register("x")[1]))
    b2.record_rounds(4, 4)
    c2 = b2.build()
    assert len(c2.layers) == 2
    assert c2.metadata["rounds"] == (1, 4)
    # the original circuit is untouched
    assert len(c1.layers) == 1
    assert c1.metadata["rounds"] == (1,)


def mixed_circuit():
    """One gate of most kinds, a library gate with Fraction args, and metadata."""
    b = Builder(metadata={"label": "mixed", "fanout_budget": 8})
    x = b.add_register("x", 3)
    a = b.add_register("a", 2, ancilla=True)
    b.append(g_unitary1(x[0], rot(0.25)))
    b.append(g_ctrl_unitary1(x[0], x[1], circ.X_MATRIX))
    b.append(g_product_reflection((x[0], x[1]), [(1, 0), (math.sqrt(0.5), math.sqrt(0.5))]))
    b.append(g_fanout(x[0], (a[0], a[1])))
    b.append(g_nor((x[1], x[2]), a[0]))
    b.append(library.make("exact", (3, 1), (x[0], x[1], x[2], a[0])))
    b.append(library.make("onehot_dist", (2, (Fraction(1, 3), Fraction(2, 3))), (x[1], x[2])))
    b.record_rounds(2, 6)
    return b.build()


def test_serialize_round_trip_mixed_gates():
    c1 = mixed_circuit()
    text = serialize(c1)
    c2 = deserialize(text)
    assert c2.n_qubits == c1.n_qubits
    assert [r.name for r in c2.registers] == ["x", "a"]
    assert c2.register("a").ancilla
    assert c2.metadata["rounds"] == (2,)
    assert c2.metadata["label"] == "mixed"
    assert len(c2.layers) == len(c1.layers)
    assert serialize(c2) == text
    # matrices survive the float encoding
    m1 = np.asarray(next(iter(c1.layers[0])).params["matrix"])
    m2 = np.asarray(next(iter(c2.layers[0])).params["matrix"])
    assert np.allclose(m1, m2)


def test_deserialized_circuit_simulates_identically():
    b = Builder()
    x = b.add_register("x", 2)
    b.append(g_unitary1(x[0], rot(1.1)))
    b.append(g_cnot(x[0], x[1]))
    b.append(g_z(x[1]))
    c1 = b.build()
    c2 = deserialize(serialize(c1))
    s1 = run(c1).amplitudes
    s2 = run(c2).amplitudes
    assert np.allclose(s1, s2)


def test_deserialize_rejects_garbage():
    with pytest.raises(circ.ParseError):
        deserialize("not json at all {")


def test_deserialize_rejects_library_width_mismatch():
    """exact(5, 1) spans 6 qubits; a file may not place it on 3."""
    doc = json.loads(serialize(one_gate_circuit("exact", (2, 1))))
    doc["layers"][0][0]["params"]["args"] = [5, 1]
    with pytest.raises(CircuitError, match="spans 6 qubits, got 3"):
        deserialize(json.dumps(doc))


def test_deserialize_rejects_library_costs_off_the_registry():
    """A file cannot charge a library gate costs of its own: cost fields
    beside a gate are not read, and exact(3, 1) stays at depth 6 and fanout
    width 2.  marked_prep's measured costs are arguments, held to depth >= 1
    and fanout width >= 0."""
    doc = json.loads(serialize(one_gate_circuit("exact", (3, 1))))
    doc["layers"][0][0].update(declared_depth=1, declared_width=0)
    report = cost(deserialize(json.dumps(doc)))
    assert (report.depth, report.max_fanout_width) == (6, 2)
    args = (1, (0.5, 0.5, 0.5, 0.5), Fraction(1, 2), 17, 3)
    doc = json.loads(serialize(one_gate_circuit("marked_prep", args)))
    report = cost(deserialize(json.dumps(doc)))
    assert (report.depth, report.max_fanout_width) == (17, 3)
    doc["layers"][0][0]["params"]["args"][3] = 0
    with pytest.raises(CircuitError, match="costs out of range"):
        deserialize(json.dumps(doc))


@pytest.mark.parametrize(
    "tag,args,bad",
    [
        ("exact", (3, 1), "31"),
        ("exact", (3, 1), [3.7, 1]),
        ("exact", (3, 1), ["3", "1"]),
        ("exact", (3, 1), [3, 1, "junk"]),
        ("exact", (3, 1), [True, 1]),
        ("one_hot", (2, False), [2, "no"]),
        ("one_hot", (2, False), [2, [1]]),
        ("one_hot", (2, False), [2, 0]),
        ("onehot_dist", (2, (0.5, 0.5)), [2, [0.5, 1]]),
        ("onehot_dist", (2, (0.5, 0.5)), [2, [[1, 2], [1, 0]]]),
        ("small_state", ((0.6, 0.8),), [[[0.6, 0.0], [0.8, 0]]]),
        ("small_state", ((0.6, 0.8),), [[[0.6, 0.0]], 1]),
        ("zero_w", (2,), [[]]),
    ],
)
def test_deserialize_rejects_mistyped_library_args(tag, args, bad):
    """Each library argument must have its schema's exact JSON type."""
    doc = json.loads(serialize(one_gate_circuit(tag, args)))
    deserialize(json.dumps(doc))
    doc["layers"][0][0]["params"]["args"] = bad
    with pytest.raises(circ.ParseError):
        deserialize(json.dumps(doc))


@pytest.mark.parametrize(
    "key,value",
    [("layers", 5), ("layers", [5]), ("metadata", []), ("registers", {})],
)
def test_deserialize_rejects_wrong_top_level_types(key, value):
    doc = json.loads(serialize(mixed_circuit()))
    doc[key] = value
    with pytest.raises(circ.ParseError):
        deserialize(json.dumps(doc))


def test_deserialize_rejects_gaps_in_qubit_numbering():
    """Qubit q is bit q of the state index, so registers must cover 0..n-1."""
    doc = json.loads(serialize(mixed_circuit()))
    doc["registers"][1]["qubits"] = [3, 9]
    with pytest.raises(CircuitError, match="no gaps"):
        deserialize(json.dumps(doc))


def test_deserialize_checks_each_gate():
    """A gate that is not a gate at all is refused when the circuit is checked."""
    doc = json.loads(serialize(mixed_circuit()))
    doc["layers"][0][0]["params"]["matrix"] = [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    with pytest.raises(CircuitError, match="not unitary"):
        deserialize(json.dumps(doc))
    doc = json.loads(serialize(mixed_circuit()))
    fanout = next(g for layer in doc["layers"] for g in layer if g["kind"] == "fanout")
    fanout["targets"] = [fanout["controls"][0], fanout["targets"][1]]
    with pytest.raises(CircuitError, match="touches a qubit twice"):
        deserialize(json.dumps(doc))


def _non_unitary():
    return np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)


def test_builder_reruns_gate_rules_on_a_footprint_it_has_passed():
    """The qubit walk is skipped for a footprint seen before, never the rules
    of a gate's kind or the fanout budget."""
    b = Builder(metadata={"fanout_budget": 3})
    r = b.add_register("q", 4)
    b.append_layer([g_unitary1(r[0], rot(0.3)), g_x(r[1])])
    with pytest.raises(CircuitError, match="not unitary"):
        b.append_layer([g_unitary1(r[0], rot(0.3)), g_unitary1(r[1], _non_unitary())])
    # a gate whose qubits cannot form a footprint fails after the gate before it
    with pytest.raises(CircuitError, match="not unitary"):
        b.append_layer([g_unitary1(r[0], _non_unitary()), circ.Gate("swap", [r[1], r[2]])])
    b.append(g_fanout(r[0], (r[1], r[2], r[3])))
    b.metadata["fanout_budget"] = 2
    with pytest.raises(CircuitError, match="exceeds budget 2"):
        b.replay(b.layers_since(1))
    assert len(b.layers) == 2


def test_deserialize_checks_every_copy_of_a_footprint():
    """A second layer on the same qubits as a passed one still has its
    matrix checked."""
    b = Builder()
    r = b.add_register("q", 2)
    for _ in range(2):
        b.append_layer([g_unitary1(r[0], rot(0.3)), g_x(r[1])])
    doc = json.loads(serialize(b.build()))
    deserialize(json.dumps(doc))
    doc["layers"][1][0]["params"]["matrix"] = circ.encode_matrix(_non_unitary())
    with pytest.raises(CircuitError, match="not unitary"):
        deserialize(json.dumps(doc))


def test_validate_circuit_trusts_no_footprint_from_another_call():
    """A layer on qubit 2 passes in a 3-qubit circuit and not in a 2-qubit one."""
    layers = ((g_x(2),),)
    circ.validate_circuit(circ.Circuit((circ.Register("q", (0, 1, 2)),), layers, {}))
    with pytest.raises(CircuitError, match="unknown qubit 2"):
        circ.validate_circuit(circ.Circuit((circ.Register("q", (0, 1)),), layers, {}))


@pytest.mark.parametrize("bad", [True, 1.0, "3"])
@pytest.mark.parametrize("path", [("layers", 2, 0, "targets"), ("registers", 0, "qubits")])
def test_decode_ints_refuses_a_mistyped_entry_deep_in_a_long_list(path, bad):
    """One mistyped entry at position 900 of 1,000 is named as it is."""
    ints = list(range(1000))
    ints[900] = bad
    text = json.dumps(_edited(json.loads(serialize(mixed_circuit())), path, ints))
    with pytest.raises(circ.ParseError) as exc:
        deserialize(text)
    assert str(exc.value) == f"expected a JSON int, got {bad!r}"


def _edited(doc, path, value):
    """A copy of a JSON document with the value at ``path`` replaced."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _gate_layer(kind, targets, controls=(), **params):
    return [{"kind": kind, "targets": list(targets), "controls": list(controls), "params": params}]


_X = circ.encode_matrix(circ.X_MATRIX)
_KET0 = [[1.0, 0.0], [0.0, 0.0]]

# Edits of the mixed circuit's file that deserialize must refuse: a layer
# replaced by a gate no constructor builds, or a value of the wrong JSON
# type, or a library gate whose arguments describe no gate.  Layers:
# 0 unitary1, 1 ctrl_unitary1, 2 product_reflection, 3 fanout, 4 nor,
# 5 library exact on qubits 0-3, 6 library onehot_dist on qubits 1-2.
MALFORMED = {
    "swap-on-3-targets": (("layers", 0), _gate_layer("swap", (0, 1, 2))),
    "and-with-2-targets": (("layers", 0), _gate_layer("and", (0, 1), (2,))),
    "unitary1-on-2-targets": (("layers", 0), _gate_layer("unitary1", (0, 1), matrix=_X)),
    "unitary1-with-a-control": (("layers", 0), _gate_layer("unitary1", (0,), (1,), matrix=_X)),
    "fanout-with-2-sources": (("layers", 0), _gate_layer("fanout", (2,), (0, 1))),
    "library-with-a-control": (("layers", 5, 0, "controls"), [4]),
    "reflection-about-a-3-vector": (
        ("layers", 2),
        _gate_layer("product_reflection", (0,), local_states=[_KET0 + [[0.0, 0.0]]]),
    ),
    "reflection-with-2-states-for-1-qubit": (
        ("layers", 2),
        _gate_layer("product_reflection", (0,), local_states=[_KET0, _KET0]),
    ),
    "marked-prep-alpha-past-one": (
        ("layers", 6),
        [{"kind": "library", "targets": [1, 2], "controls": [],
          "params": {"tag": "marked_prep", "inverse": False,
                     "args": [1, [[0.6, 0.0], [0.8, 0.0], [0.0, 0.0], [0.0, 0.0]],
                              [10**400, 1], 1, 0]}}],
    ),
    "marked-prep-depth-zero": (
        ("layers", 6),
        [{"kind": "library", "targets": [1, 2], "controls": [],
          "params": {"tag": "marked_prep", "inverse": False,
                     "args": [1, [[0.6, 0.0], [0.8, 0.0], [0.0, 0.0], [0.0, 0.0]],
                              [16, 25], 0, 0]}}],
    ),
    "exact-on-the-wrong-width": (("layers", 5, 0, "params", "args"), [4, 1]),
    "float-target": (("layers", 0, 0, "targets"), [1.9]),
    "string-control": (("layers", 1, 0, "controls"), ["0"]),
    "float-ctrl": (("layers", 4, 0, "params", "ctrl"), 4.0),
    "string-ancilla": (("registers", 0, "ancilla"), "no"),
    "float-register-qubit": (("registers", 1, "qubits"), [3, 4.0]),
    "string-inverse": (("layers", 5, 0, "params", "inverse"), "false"),
    "string-widened": (("layers", 3, 0, "params", "widened"), "false"),
    "string-checked": (("layers", 5, 0, "params", "checked"), "no"),
    "float-rounds": (("metadata", "rounds"), [2.5]),
    "bool-round-layer-cost": (("metadata", "round_layer_cost"), [True]),
    "string-fanout-budget": (("metadata", "fanout_budget"), "8"),
}


def malformed_text(case):
    return json.dumps(_edited(json.loads(serialize(mixed_circuit())), *MALFORMED[case]))


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_deserialize_refuses_malformed_gates_and_mistyped_values(case):
    """Each gate obeys the rules of its kind however it entered the circuit,
    and every int and bool in a file has its exact JSON type."""
    with pytest.raises((circ.ParseError, CircuitError)):
        deserialize(malformed_text(case))


def test_gate_rules_apply_when_a_gate_is_appended():
    """Constructors only assemble; the Builder refuses a bad gate."""
    b = Builder()
    b.add_register("q", 3)
    bad = [
        g_swap(0, 0),
        g_and((), 1),
        g_fanout(0, (0, 1)),
        g_product_reflection((0,), [(1.0, 0.0, 0.0)]),
        library.make("exact", (1, 1), (0, 1, 2)),
        circ.Gate("swap", (0, 1, 2)),
    ]
    for gate in bad:
        with pytest.raises(CircuitError):
            b.append(gate)
    assert not b.layers


@pytest.mark.parametrize(
    "tag,args,n_qubits,match",
    [
        ("exact", (3, 1), 5, "spans 4 qubits, got 5"),
        ("onehot_dist", (2, (0.5, 0.25)), 2, "sum to one"),
        ("ham", (1,), 2, r"takes arguments \['int', 'int'\]"),
    ],
    ids=["exact-on-5-qubits", "flawed-onehot-dist", "ham-with-one-arg"],
)
def test_a_library_gate_is_checked_against_its_entry_when_appended(tag, args, n_qubits, match):
    """However a library gate is made, the Builder holds it to its registry
    entry, as deserialize does, so cost() never reads an unchecked gate."""
    params = {"tag": tag, "args": args, "inverse": False}
    b = Builder()
    b.add_register("q", n_qubits)
    with pytest.raises(CircuitError, match=match):
        b.append(circ.Gate("library", tuple(range(n_qubits)), (), params))
    assert not b.layers


def _json_paths(node, path=()):
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _json_paths(child, path + (key,))


_MIXED_DOC = json.loads(serialize(mixed_circuit()))
_MIXED_PATHS = [p for p in _json_paths(_MIXED_DOC) if p]
_JUNK = st.sampled_from(
    [None, True, -1, 5, 1.5, "x", [], {}, [1, 0], [["a", "b"]], {"__frac__": [1, 0]}]
)


@given(
    path=st.sampled_from(_MIXED_PATHS),
    junk=_JUNK,
    delete=st.booleans(),
)
def test_deserialize_fuzz_raises_only_parse_or_circuit_errors(path, junk, delete):
    """Replace or delete one value anywhere in a serialized circuit."""
    doc = json.loads(json.dumps(_MIXED_DOC))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if delete and isinstance(parent, dict):
        del parent[path[-1]]
    else:
        parent[path[-1]] = junk
    try:
        circuit = deserialize(json.dumps(doc))
    except (circ.ParseError, CircuitError):
        return
    # a circuit that loads may still fall outside a gate's promised domain
    try:
        run(circuit)
    except SimulationError:
        pass
