"""Library gates simulated against independent reimplementations."""

import json
import math
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from shallowprep import dists, library, simulate
from shallowprep.circuits import (
    Builder,
    CircuitError,
    SERIAL_VERSION,
    cost,
    deserialize,
    serialize,
)
from shallowprep.simulate import SimulationError, run


def one_gate_circuit(tag, args):
    ent = library.entry(tag)
    b = Builder()
    r = b.add_register("q", ent.width(args))
    b.append(library.make(tag, args, tuple(r)))
    return b.build()


def basis_out(circuit, index_bits):
    """Run on a basis state given as a {qubit: bit} dict, return amplitudes."""
    return run(circuit, initial=index_bits).amplitudes


def local_to_init(value, width):
    """Map a local MSB-first basis index onto global qubits 0..width-1."""
    return {q: (value >> (width - 1 - q)) & 1 for q in range(width)}


def global_index(value, width):
    """Global flat index of the basis state local_to_init(value) produces."""
    idx = 0
    for q in range(width):
        if (value >> (width - 1 - q)) & 1:
            idx |= 1 << q
    return idx


def assert_basis_map(circuit, width, pairs):
    """Check the circuit maps each local input index to the local output index."""
    for before, after in pairs:
        amps = basis_out(circuit, local_to_init(before, width))
        target = global_index(after, width)
        assert abs(amps[target] - 1.0) < 1e-9, (before, after)


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 5))))
def test_threshold_matches_popcount(point):
    n, k = point
    c = one_gate_circuit("threshold", (n, k))
    pairs = []
    for x in range(2**n):
        flip = 1 if bin(x).count("1") >= k else 0
        pairs.append(((x << 1) | 0, (x << 1) | flip))
        pairs.append(((x << 1) | 1, (x << 1) | (1 ^ flip)))
    assert_basis_map(c, n + 1, pairs)


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 5))))
def test_exact_matches_popcount(point):
    n, k = point
    c = one_gate_circuit("exact", (n, k))
    pairs = []
    for x in range(2**n):
        flip = 1 if bin(x).count("1") == k else 0
        pairs.append(((x << 1) | 0, (x << 1) | flip))
    assert_basis_map(c, n + 1, pairs)


def test_exact_above_n_never_fires():
    c = one_gate_circuit("exact", (2, 3))
    assert_basis_map(c, 3, [(x << 1, x << 1) for x in range(4)])


def test_ham_tally_slot_is_clamped_weight():
    """The tally register gets a unit at slot min(|x|, k+1) XORed in."""
    n, k = 3, 1
    width = n + k + 1
    c = one_gate_circuit("ham", (n, k))
    pairs = []
    for x in range(2**n):
        wt = bin(x).count("1")
        before = x << (k + 1)
        after = before if wt == 0 else before | (1 << (k + 1 - min(k + 1, wt)))
        pairs.append((before, after))
    assert_basis_map(c, width, pairs)


def test_ham_is_xor_on_dirty_tally():
    c = one_gate_circuit("ham", (2, 1))
    # x = 11 targets slot 2; starting with slot 2 already set clears it
    assert_basis_map(c, 4, [(0b11_01, 0b11_00), (0b11_10, 0b11_11)])


def test_one_hot_classic_is_a_transfer():
    """Binary value i moves to slot i: the binary side is cleared."""
    count = 3
    b = library.entry("one_hot").width((count, False)) - count
    c = one_gate_circuit("one_hot", (count, False))
    pairs = [(0, 0)]
    for i in range(1, count + 1):
        pairs.append((i << count, 1 << (count - i)))
    assert_basis_map(c, b + count, pairs)


def test_one_hot_zero_based_offsets_slots():
    count = 2
    b = library.entry("one_hot").width((count, True)) - count
    c = one_gate_circuit("one_hot", (count, True))
    pairs = [(v << count, 1 << (count - (v + 1))) for v in range(count)]
    assert_basis_map(c, b + count, pairs)


def test_one_hot_rejects_out_of_domain_input():
    count = 3
    b = library.entry("one_hot").width((count, False)) - count
    c = one_gate_circuit("one_hot", (count, False))
    with pytest.raises(SimulationError):
        run(c, initial={b: 1})  # a slot bit set without its binary pattern


def test_zero_w_column():
    n = 3
    c = one_gate_circuit("zero_w", (n,))
    amps = run(c).amplitudes
    assert abs(amps[0] - math.sqrt(0.5)) < 1e-9
    for i in range(1, n + 1):
        local = 1 << (n - i)
        assert abs(amps[global_index(local, n)] - math.sqrt(0.5 / n)) < 1e-9


def test_dicke_prep_column_is_uniform_over_weight():
    ell, k = 4, 2
    c = one_gate_circuit("dicke_prep", (ell, k))
    amps = run(c).amplitudes
    expected = 1.0 / math.sqrt(comb(ell, k))
    for idx in range(2**ell):
        if bin(idx).count("1") == k:
            assert abs(amps[idx] - expected) < 1e-9
        else:
            assert abs(amps[idx]) < 1e-12


def test_ctrl_damped_columns_match_distribution():
    """Control set spreads mass s(j)/C(m, j) over each weight-j string."""
    m, k = 3, 2
    dist = dists.damped_binomial(m, k)
    width = m + 1
    c = one_gate_circuit("ctrl_damped", (m, k))
    # control clear: identity on |0...0>
    amps = run(c).amplitudes
    assert abs(amps[0] - 1.0) < 1e-12
    # control set (control is the first listed qubit, so global qubit 0)
    amps = run(c, initial={0: 1}).amplitudes
    for local in range(2**m):
        wt = bin(local).count("1")
        want = math.sqrt(float(dist.pmf(wt) / comb(m, wt))) if 1 <= wt <= k else 0.0
        got = amps[global_index((1 << m) | local, width)]
        assert abs(got - want) < 1e-9
    # the control stays set
    mass_ctrl = sum(abs(a) ** 2 for i, a in enumerate(amps) if i & 1)
    assert abs(mass_ctrl - 1.0) < 1e-12


def test_onehot_dist_column():
    p = (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))
    c = one_gate_circuit("onehot_dist", (3, p))
    amps = run(c).amplitudes
    for i in range(1, 4):
        local = 1 << (3 - i)
        assert abs(amps[global_index(local, 3)] - math.sqrt(float(p[i - 1]))) < 1e-9


def test_onehot_dist_rejects_bad_probabilities():
    with pytest.raises(CircuitError):
        library.semantics("onehot_dist", (2, (0.5, 0.25)))


def test_w_swap_routes_selected_block():
    """Control e_i swaps data block i with the target block."""
    t, s = 2, 2
    width = t + s * (t + 1)
    c = one_gate_circuit("w_swap", (t, s))
    # blocks: ctrl(2) | block1(2) | block2(2) | target(2), MSB first locally
    def pack(ctrl, b1, b2, tgt):
        return (((ctrl << s) | b1) << s | b2) << s | tgt

    pairs = [
        (pack(0b00, 0b01, 0b10, 0b11), pack(0b00, 0b01, 0b10, 0b11)),
        (pack(0b10, 0b01, 0b10, 0b11), pack(0b10, 0b11, 0b10, 0b01)),
        (pack(0b01, 0b01, 0b10, 0b11), pack(0b01, 0b01, 0b11, 0b10)),
    ]
    assert_basis_map(c, width, pairs)


def test_small_state_prepares_given_amplitudes():
    amps_in = (0.5, 0.5j, -0.5, 0.5)
    c = one_gate_circuit("small_state", (amps_in,))
    amps = run(c).amplitudes
    for local, want in enumerate(amps_in):
        assert abs(amps[global_index(local, 2)] - want) < 1e-9


def test_state_vector_validation():
    with pytest.raises(CircuitError):
        library.semantics("small_state", ((0.6, 0.8, 0.0),))
    with pytest.raises(CircuitError):
        library.semantics("small_state", ((0.5, 0.5),))
    with pytest.raises(CircuitError):
        library.semantics("raw_state", ((1.0,),))


def test_marked_prep_validation():
    ok = (math.sqrt(0.5), math.sqrt(0.5), 0.0, 0.0)
    library.semantics("marked_prep", (1, ok, 0.5, 1, 0))
    with pytest.raises(CircuitError):
        library.semantics("marked_prep", (1, ok, 0.25, 1, 0))
    dirty = (math.sqrt(0.5), 0.0, math.sqrt(0.5), 0.0)
    with pytest.raises(CircuitError):
        library.semantics("marked_prep", (1, dirty, 0.0, 1, 0))


def test_a_made_gate_on_the_wrong_qubit_count_is_refused():
    """make only assembles the gate; the circuit it enters checks its width."""
    gate = library.make("threshold", (3, 1), (0, 1, 2))
    b = Builder()
    b.add_register("q", 3)
    with pytest.raises(CircuitError, match="spans 4 qubits, got 3"):
        b.append(gate)


def test_make_charges_registry_costs():
    """A gate stores no costs: cost() reads them from its registry entry,
    and marked_prep's measured costs are two of its arguments."""
    gate = library.make("exact", (3, 1), (0, 1, 2, 3))
    assert set(gate.params) == {"tag", "args", "inverse"}
    marked_args = (1, (0.6, 0.8, 0.0, 0.0), Fraction(16, 25), 17, 3)
    marked = library.make("marked_prep", marked_args, (4, 5))
    b = Builder()
    b.add_register("q", 6)
    b.append_layer([gate, marked])
    report = cost(b.build())
    assert library.entry("exact").cost((3, 1)) == (6, 2)
    assert (report.depth, report.max_fanout_width) == (17, 3)


def _library_file(tag, args, n_qubits):
    """A circuit file holding one library gate on qubits 0..n_qubits-1,
    written by hand, so its arguments need not describe a gate."""
    gate = {"kind": "library", "targets": list(range(n_qubits)), "controls": [],
            "params": {"tag": tag, "args": library.entry(tag).encode(args), "inverse": False}}
    return json.dumps({
        "version": SERIAL_VERSION, "metadata": {}, "layers": [[gate]],
        "registers": [{"name": "q", "qubits": list(range(n_qubits)), "ancilla": False}],
    })


@pytest.mark.parametrize(
    "tag,args,match",
    [
        ("small_state", ((0.6, 0.8, 0.0),), "power of two"),
        ("one_hot", (0, False), "at least one slot"),
        ("ctrl_dicke", (2, 2, (1,)), "one weight per slot"),
        ("onehot_dist", (2, (1.0,)), "one probability per slot"),
        ("ctrl_dicke", (2, 2, (1, 3)), "each weight must lie in 0..2"),
        ("dicke_prep", (2, 5), "weight must lie in 0..2"),
        ("marked_prep", (2, (0.6, 0.8j), Fraction(1, 3), 1, 0), "amplitudes for n_data=2, got 2"),
        ("onehot_dist", (2, (0.5, 0.25)), "sum to one"),
        ("onehot_dist", (2, (1.5, -0.5)), "nonnegative"),
        ("onehot_dist", (2, (Fraction(10**400), 0.5)), "nonnegative"),
        ("onehot_dist", (2, (float("nan"), 1.0)), "nonnegative"),
        ("small_state", ((0.5, 0.5),), "unit norm"),
        ("raw_state", ((0.6, 0.6j),), "unit norm"),
        ("ham", (-1, 1), "nonnegative"),
        ("marked_prep", (1, (0.6, 0.8, 0, 0), Fraction(10**400), 1, 0), r"alpha must lie in \[0, 1\]"),
        ("marked_prep", (1, (0.6, 0.8, 0, 0), -0.5, 1, 0), r"alpha must lie in \[0, 1\]"),
        ("ctrl_damped", (3, 0), "k must lie in 1..3"),
        ("ctrl_damped", (3, 4), "k must lie in 1..3"),
        ("marked_prep", (1, (0.6, 0.8, 0, 0), 0.0, 0, 0), "costs out of range"),
        ("marked_prep", (1, (0.6, 0.8, 0, 0), 0.0, 1, -1), "costs out of range"),
        ("marked_prep", (1, (1, 0, 0, 1), 0.5, 3, 0), "not unit norm"),
        ("marked_prep", (1, (0.6, 0.8, 0, 0), 0.5, 1, 0), "flag mass disagrees with alpha"),
        ("marked_prep", (1, (0.6, 0, 0.8, 0), 0.0, 1, 0), "unmarked branch must be all zeros"),
        ("marked_prep", (1, (0.6, float("nan"), 0, 0), 0.64, 1, 0), "not unit norm"),
    ],
)
def test_arguments_that_describe_no_gate_are_rejected(tag, args, match):
    """Arguments of the schema's types can still describe no gate; a Builder
    and deserialize both refuse them before any table is built."""
    width = library.entry(tag).width(args)
    b = Builder()
    b.add_register("q", width)
    with pytest.raises(CircuitError, match=match):
        b.append(library.make(tag, args, tuple(range(width))))
    assert not b.layers
    with pytest.raises(CircuitError, match=match):
        deserialize(_library_file(tag, args, width))


def test_huge_marked_prep_width_is_rejected_without_building_it():
    """A file may name any n_data; the amplitude-count check compares
    exponents, so n_data = 10**12 is refused as fast as n_data = 2."""
    args = (0, (0.6 + 0j, 0.8j), Fraction(16, 25), 1, 0)
    deserialize(_library_file("marked_prep", args, 1))
    huge = (10**12,) + args[1:]
    with pytest.raises(CircuitError, match="amplitudes for n_data=1000000000000, got 2"):
        deserialize(_library_file("marked_prep", huge, 1))
    b = Builder()
    b.add_register("q", 1)
    with pytest.raises(CircuitError, match="amplitudes for n_data"):
        b.append(library.make("marked_prep", huge, (0,)))


# one value per argument kind; the codec never reads semantics, but the
# registry's flaw checks do, so the samples describe gates: the two numbers
# are onehot_dist(2, ...) probabilities summing to one
KIND_SAMPLES = {
    "int": 2,
    "bool": True,
    "number": Fraction(1, 3),
    "ints": (1, 2),
    "numbers": (Fraction(1, 4), 0.75),
    "complexes": (0.6 + 0j, 0.8j),
}
# tags whose arguments constrain each other: marked_prep needs 2^(n_data+1)
# amplitudes, so the two complex samples go with n_data = 0, and an alpha
# equal to the flagged mass |0.8j|^2
TAG_SAMPLES = {
    "marked_prep": (0, KIND_SAMPLES["complexes"], Fraction(16, 25), 2, 2)
}


def _types(value):
    if isinstance(value, tuple):
        return tuple(_types(v) for v in value)
    return type(value)


def test_readme_table_matches_the_registry():
    """The README's library-gate table lists each tag's schema, and its depth
    and fanout width as expressions in the argument names that agree with
    the registry's cost."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = {}
    for line in readme.splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if len(cells) == 5 and cells[0].startswith("`"):
            rows[cells[0].strip("`")] = cells
    assert set(rows) == set(library.tags())
    for tag, cells in rows.items():
        ent = library.entry(tag)
        names, kinds = zip(*(a.split(": ") for a in cells[1].split(", ")))
        assert kinds == ent.args
        # distinct ints, so that a cell naming the wrong argument shows
        args = tuple(
            5 + i if kind == "int" else KIND_SAMPLES[kind] for i, kind in enumerate(kinds)
        )
        scope = dict(zip(names, args), len=len)
        assert tuple(eval(cell, {}, scope) for cell in cells[3:]) == ent.cost(args)


@pytest.mark.parametrize("tag", library.tags())
def test_every_tag_round_trips_byte_identically(tag):
    ent = library.entry(tag)
    args = TAG_SAMPLES.get(tag, tuple(KIND_SAMPLES[kind] for kind in ent.args))
    b = Builder()
    r = b.add_register("q", ent.width(args))
    b.append(library.make(tag, args, tuple(r), inverse=True))
    text = serialize(b.build())
    back = deserialize(text)
    assert serialize(back) == text
    decoded = next(back.gates()).params["args"]
    assert decoded == args
    assert _types(decoded) == _types(args)


def test_library_args_survive_serialization():
    p = (Fraction(1, 3), Fraction(2, 3))
    b = Builder()
    r = b.add_register("q", 2)
    b.append(library.make("onehot_dist", (2, p), tuple(r)))
    c2 = deserialize(serialize(b.build()))
    gate = next(iter(c2.gates()))
    assert gate.params["tag"] == "onehot_dist"
    assert gate.params["args"] == (2, p)
    assert isinstance(gate.params["args"][1][0], Fraction)


def test_complex_args_survive_serialization():
    amps = (0.5, 0.5j, -0.5, -0.5j)
    b = Builder()
    r = b.add_register("q", 2)
    b.append(library.make("small_state", (amps,), tuple(r)))
    c2 = deserialize(serialize(b.build()))
    args = next(iter(c2.gates())).params["args"]
    assert np.allclose(np.asarray(args[0], dtype=complex), np.asarray(amps))


def test_inverse_library_gate_unprepares():
    ell, k = 3, 2
    b = Builder()
    r = b.add_register("q", ell)
    b.append(library.make("dicke_prep", (ell, k), tuple(r)))
    b.append(library.make("dicke_prep", (ell, k), tuple(r), inverse=True))
    amps = run(b.build()).amplitudes
    assert abs(amps[0] - 1.0) < 1e-9


# Column-declared gates, one instance per tag, each at most 8 qubits wide.
_MARKED_AMPS = (math.sqrt(2 / 3), math.sqrt(1 / 12), 0, math.sqrt(1 / 12),
                0, math.sqrt(1 / 12), 0, math.sqrt(1 / 12))
COLUMN_CASES = [
    ("dicke_prep", (4, 2)),
    ("zero_w", (5,)),
    ("marked_prep", (2, _MARKED_AMPS, Fraction(1, 3), 3, 1)),
    ("ctrl_dicke", (3, 2, (1, 2))),
    ("ctrl_damped", (5, 2)),
    ("ctrl_damped", (7, 1)),
    ("onehot_dist", (3, (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)))),
    ("small_state", ((0.5, 0.5j, -0.5, -0.5j),)),
    ("raw_state", ((0.6, 0, 0, 0, 0, 0, 0, 0.8j),)),
    ("raw_state", ((1.0, 0, 0, 0),)),
]


def gate_fn(tag, args, inverse=False):
    """The simulator's action of an unchecked library gate on each column
    (a normalized state of its qubits) of a (2^w, m) block, by ``run`` of
    the one-gate circuit."""
    width = library.entry(tag).width(args)
    b = Builder()
    r = b.add_register("q", width)
    # the first listed qubit is the top bit of both the gate-local and the flat index
    gate = library.make(tag, args, tuple(reversed(r)), inverse=inverse)
    b.append(gate.with_params(checked=False))
    circuit = b.build()

    def fn(block):
        return np.stack([run(circuit, col).amplitudes for col in block.T], axis=1)

    return fn


@pytest.mark.parametrize("tag,args", COLUMN_CASES, ids=lambda v: str(v)[:16])
def test_column_gate_agrees_with_dense_completion(tag, args):
    sem = library.semantics(tag, args)
    size = 2**sem.n_qubits
    assert sem.columns is not None and sem.n_qubits <= 8
    dense = library.complete_isometry(sem.n_qubits, sem.columns)
    fwd = gate_fn(tag, args)(np.eye(size, dtype=complex))
    for d, col in sem.columns.items():
        # phase-strict: the column itself, not a multiple of it
        assert np.max(np.abs(fwd[:, d] - col)) < 1e-12
        assert np.max(np.abs(fwd[:, d] - dense[:, d])) < 1e-12
    assert np.max(np.abs(fwd.conj().T @ fwd - np.eye(size))) < 1e-12
    # the identity outside the span of the domain inputs and their columns
    assert np.linalg.matrix_rank(fwd - np.eye(size), tol=1e-9) <= 2 * len(sem.columns)
    rng = np.random.default_rng(20260418)
    psi = rng.normal(size=(size, 1)) + 1j * rng.normal(size=(size, 1))
    psi /= np.linalg.norm(psi)
    back = gate_fn(tag, args, inverse=True)(gate_fn(tag, args)(psi))
    assert np.max(np.abs(back - psi)) < 1e-12


def test_non_orthonormal_columns_rejected(monkeypatch):
    col = np.array([1, 1, 0, 0], dtype=complex) / math.sqrt(2)
    for columns in ({0: col, 1: col}, {0: 2 * col}):
        bad = library.LibrarySemantics(n_qubits=2, columns=columns, domain=tuple(columns))
        monkeypatch.setattr(library, "semantics", lambda tag, args: bad)
        with pytest.raises(CircuitError, match="orthonormal"):
            simulate._compiled("small_state", ("not orthonormal", len(columns)))
        with pytest.raises(CircuitError, match="orthonormal"):
            library.complete_isometry(2, columns)


# ---- per-index loops: the reference for the popcount-built tables ----


def loop_threshold(n, k):
    w = n + 1
    table = np.arange(2**w, dtype=np.int64)
    for idx in range(2**w):
        if bin(idx >> 1).count("1") >= k:
            table[idx] = idx ^ 1
    return table


def loop_exact(n, k):
    w = n + 1
    table = np.arange(2**w, dtype=np.int64)
    for idx in range(2**w):
        if bin(idx >> 1).count("1") == k:
            table[idx] = idx ^ 1
    return table


def loop_ham(n, k):
    w = n + k + 1
    table = np.arange(2**w, dtype=np.int64)
    for idx in range(2**w):
        hx = bin(idx >> (k + 1)).count("1")
        if hx >= 1:
            j = min(k + 1, hx)
            table[idx] = idx ^ (1 << (k + 1 - j))
    return table


def loop_dicke_column(ell, weight):
    col = np.zeros(2**ell, dtype=complex)
    amp = 1.0 / np.sqrt(comb(ell, weight))
    for idx in range(2**ell):
        if bin(idx).count("1") == weight:
            col[idx] = amp
    return col


def loop_damped_spread_column(m, k):
    dist = dists.damped_binomial(m, k)
    col = np.zeros(2**m, dtype=complex)
    for idx in range(1, 2**m):
        wt = bin(idx).count("1")
        if 1 <= wt <= k:
            col[idx] = np.sqrt(float(dist.pmf(wt) / comb(m, wt)))
    return col


TABLE_CASES = [
    (tag, (n, k), oracle)
    for tag, oracle in (("threshold", loop_threshold), ("exact", loop_exact))
    for n in range(10)
    for k in range(n + 3)
] + [("ham", (n, k), loop_ham) for n in range(10) for k in range(10 - n)]


def test_weight_tables_match_the_per_index_loops():
    """Every threshold, exact and ham table up to 10 qubits, entry for entry."""
    for tag, args, oracle in TABLE_CASES:
        table = library.semantics(tag, args).permutation
        expected = oracle(*args)
        assert table.dtype == expected.dtype == np.int64, (tag, args)
        assert np.array_equal(table, expected), (tag, args)


def test_weight_columns_match_the_per_index_loops_byte_for_byte():
    for ell in range(11):
        for weight in range(ell + 1):
            col = library.dicke_column(ell, weight)
            assert col.tobytes() == loop_dicke_column(ell, weight).tobytes(), (ell, weight)
    for m in range(1, 11):
        for k in range(1, m + 1):
            col = library.damped_spread_column(m, k)
            assert col.tobytes() == loop_damped_spread_column(m, k).tobytes(), (m, k)


def test_dicke_column_refuses_a_weight_outside_0_to_n():
    for n, k in ((3, 4), (3, -1), (0, 1)):
        with pytest.raises(CircuitError, match="out of range"):
            library.dicke_column(n, k)


def loop_w_swap(t, s):
    """Table and domain of w_swap(t, s), one basis index at a time."""
    w = t + s * (t + 1)
    mask = (1 << s) - 1
    table = np.arange(2**w, dtype=np.int64)
    domain = []
    units = {1 << (t - i): i for i in range(1, t + 1)}
    for idx in range(2**w):
        a = idx >> (s * (t + 1))
        if a == 0:
            domain.append(idx)
            continue
        i = units.get(a)
        if i is None:
            continue
        domain.append(idx)
        shift_i = s * (t + 1 - i)
        qi = (idx >> shift_i) & mask
        qt = idx & mask
        out = idx & ~((mask << shift_i) | mask)
        out |= (qt << shift_i) | qi
        table[idx] = out
    return table, tuple(domain)


def loop_one_hot(count, zero_based):
    """Table and domain of one_hot(count, zero_based): the promised moves,
    then the unmapped inputs paired in increasing order with unused outputs."""
    w = library.entry("one_hot").width((count, zero_based))
    partial = {}
    if zero_based:
        for v in range(count):
            partial[v << count] = 1 << (count - v - 1)
    else:
        partial[0] = 0
        for i in range(1, count + 1):
            partial[i << count] = 1 << (count - i)
    outputs = set(partial.values())
    table = np.empty(2**w, dtype=np.int64)
    free = iter(o for o in range(2**w) if o not in outputs)
    for idx in range(2**w):
        if idx in partial:
            table[idx] = partial[idx]
        else:
            table[idx] = next(free)
    return table, tuple(sorted(partial))


W_SWAP_CASES = [(t, s) for t in range(1, 16) for s in range(1, 16) if t + s * (t + 1) <= 16]
ONE_HOT_CASES = [(count, zb) for count in range(1, 13) for zb in (False, True)]


@pytest.mark.parametrize(
    "tag,args,oracle",
    [("w_swap", args, loop_w_swap) for args in W_SWAP_CASES]
    + [("one_hot", args, loop_one_hot) for args in ONE_HOT_CASES],
    ids=lambda v: v.__name__ if callable(v) else str(v),
)
def test_index_tables_match_the_per_index_loops(tag, args, oracle):
    """Every w_swap up to 16 qubits and one_hot up to 12 slots, entry for
    entry, with the same domain of Python ints."""
    sem = library.semantics(tag, args)
    table, domain = oracle(*args)
    assert sem.permutation.dtype == np.int64
    assert np.array_equal(sem.permutation, table)
    assert sem.domain == domain
    assert all(type(d) is int for d in sem.domain)
