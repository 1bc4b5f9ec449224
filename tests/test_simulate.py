"""Simulator conventions, verification helpers, and certification checks."""

import cmath
import json
import math
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from shallowprep import acceptance, library, primitives, rounds, simulate
from shallowprep.circuits import (
    Builder,
    Circuit,
    Z_MATRIX,
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
    serialize,
)
from shallowprep.primitives import ctrl_dicke_explicit, ham_gadget
from shallowprep.simulate import (
    CertificationError,
    SimulationError,
    StateVector,
    certify_library_gate,
    check_clean_preparation,
    mass_bounds,
    output_overlap,
    project,
    residual_mass,
    run,
)
from shallowprep.synthesis import build_dicke

H_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def test_qubit_index_is_bit_position():
    """Qubit q set means bit q of the flat amplitude index is set."""
    b = Builder()
    r = b.add_register("x", 3)
    b.append(g_x(r[0]))
    assert abs(run(b.build()).amplitudes[0b001] - 1.0) < 1e-12
    b2 = Builder()
    r2 = b2.add_register("x", 3)
    b2.append(g_x(r2[2]))
    assert abs(run(b2.build()).amplitudes[0b100] - 1.0) < 1e-12


def start_vector(circuit, initial=None):
    """The dense vector ``run`` starts from: the circuit with no layers run."""
    return run(replace(circuit, layers=()), initial).amplitudes


def test_initial_state_forms():
    b = Builder()
    b.add_register("x", 2)
    circuit = b.build()
    assert abs(start_vector(circuit)[0] - 1.0) < 1e-12
    assert abs(start_vector(circuit, {1: 1})[2] - 1.0) < 1e-12
    vec = np.zeros(4, dtype=complex)
    vec[3] = 1.0
    assert abs(start_vector(circuit, vec)[3] - 1.0) < 1e-12
    with pytest.raises(SimulationError):
        start_vector(circuit, vec * 2.0)
    # a basis input names qubits of the circuit only
    with pytest.raises(SimulationError, match="qubit 2"):
        run(circuit, {2: 1})


def test_support_input_matches_the_dense_one():
    """A StateVector start runs exactly as the dense array with the same
    nonzero entries; a support that is not a normalized n-qubit state with
    distinct indices is refused."""
    b = Builder()
    r = b.add_register("q", 4)
    b.append(g_unitary1(r[0], H_MATRIX))
    b.append(g_cnot(r[0], r[2]))
    b.append(library.make("exact", (2, 1), (r[1], r[2], r[3])))
    b.append(g_product_reflection((r[1], r[3])).with_params(ctrl=r[0]))
    circuit = b.build()
    idx = np.array([0b0010, 0b1001])
    vals = np.array([0.6, 0.8j])
    dense = np.zeros(16, dtype=complex)
    dense[idx] = vals
    want = run(circuit, dense)
    got = run(circuit, StateVector(4, idx, vals))
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.values, want.values)
    assert got.error_bound == want.error_bound
    for bad in (
        StateVector(5, idx, vals),
        StateVector(4, idx, 2 * vals),
        StateVector(4, np.array([1, 1]), vals),
        StateVector(4, np.array([1, 16]), vals),
    ):
        with pytest.raises(SimulationError):
            run(circuit, bad)


def test_norm_is_checked_after_each_layer():
    """A gate that scales the state fails the per-layer norm check at its
    own layer, even when a later layer would undo the change."""
    b = Builder()
    r = b.add_register("q", 2)
    valid = b.build()
    # the builder refuses such gates, so the layers are set directly
    grow = g_x(r[0]).with_params(matrix=1.5 * np.eye(2))
    shrink = g_x(r[1]).with_params(matrix=np.eye(2) / 1.5)
    circuit = Circuit(valid.registers, ((grow,), (shrink,)), valid.metadata)
    with pytest.raises(SimulationError, match="drifted"):
        run(circuit)


def test_dense_vector_is_refused_past_the_cap():
    """A 21-qubit state of one entry reads fine from its support, and asking
    for its dense 2^21 vector raises before anything that size is built."""
    state = StateVector(simulate.MAX_DENSE_QUBITS + 1, np.array([5]), np.array([1.0 + 0j]))
    assert np.array_equal(project(state, (0, 1, 2)), [0, 0, 0, 0, 0, 1, 0, 0])
    tracemalloc.start()
    try:
        with pytest.raises(SimulationError, match="dense"):
            state.amplitudes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_certify_compiles_each_gate_once(monkeypatch):
    """ham_gadget(3, 1) is certified from 33 starts, and each of its gates
    is compiled into a step once."""
    b = Builder()
    x = b.add_register("x", 3, ancilla=False)
    tally = tuple(ham_gadget(b, tuple(x), 1))
    circuit = b.build()
    compiled = []
    real_step = simulate._step
    monkeypatch.setattr(simulate, "_step", lambda gate: compiled.append(gate) or real_step(gate))
    report = certify_library_gate("ham", (3, 1), circuit, tuple(x) + tally)
    assert report.inputs_checked == 2**5 + 1
    assert compiled == list(circuit.gates())


def test_output_overlap_extracts_named_qubits():
    b = Builder()
    r = b.add_register("x", 3)
    b.append(g_x(r[1]))
    state = run(b.build())
    target = np.array([0.0, 1.0], dtype=complex)
    assert abs(output_overlap(state, target, (r[1],)) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        output_overlap(state, np.zeros(4, dtype=complex), (r[1],))
    # the first listed qubit is the top bit of the projected index
    assert np.array_equal(project(state, (r[1], r[0])), [0, 0, 1, 0])
    assert np.array_equal(project(state, (r[0], r[1])), [0, 1, 0, 0])


def test_output_overlap_requires_other_qubits_zero():
    b = Builder()
    r = b.add_register("x", 2)
    b.append(g_x(r[0]))
    b.append(g_x(r[1]))
    state = run(b.build())
    target = np.array([0.0, 1.0], dtype=complex)
    # qubit 1 is hot, so the block with qubit 1 = 0 is empty
    assert abs(output_overlap(state, target, (r[0],))) < 1e-12


def test_residual_mass():
    b = Builder()
    r = b.add_register("x", 2)
    b.append(g_unitary1(r[0], H_MATRIX))
    state = run(b.build())
    assert residual_mass(state, ()) == 0.0
    assert abs(residual_mass(state, (r[0],)) - 0.5) < 1e-12
    assert residual_mass(state, (r[1],)) < 1e-12
    # summed over the stray entries, not 1 - (mass at zero), so rounding sets
    # no floor near 4e-16 under the stray mass of a clean padded circuit
    out = build_dicke(7, 2, 4)
    ancillas = [q for q in range(out.circuit.n_qubits) if q not in out.output_qubits]
    assert residual_mass(run(out.circuit), ancillas) < 1e-25


def test_check_clean_preparation_flags_dirty_ancilla():
    b = Builder()
    data = b.add_register("d", 1)
    anc = b.add_register("a", 1, ancilla=True)
    b.append(g_x(data[0]))
    b.append(g_x(anc[0]))
    target = np.array([0.0, 1.0], dtype=complex)
    res = check_clean_preparation(b.build(), target, (data[0],))
    assert not res.clean
    assert abs(res.residual_ancilla_mass - 1.0) < 1e-12
    assert res.fidelity < 1e-12


def test_check_clean_preparation_passes_clean_circuit():
    b = Builder()
    data = b.add_register("d", 2)
    b.append(g_unitary1(data[0], H_MATRIX))
    b.append(g_cnot(data[0], data[1]))
    target = np.zeros(4, dtype=complex)
    target[0b00] = target[0b11] = math.sqrt(0.5)
    res = check_clean_preparation(b.build(), target, tuple(data))
    assert res.clean
    assert res.fidelity > 1 - 1e-12


@pytest.mark.parametrize(
    "target", [[0, 1.2], [0, 0.5], [0, math.nan], [math.nan, 1], [0, math.inf]]
)
def test_check_clean_preparation_refuses_a_target_that_is_not_unit_norm(target):
    """A target of norm 1.2 read fidelity 1.44; a NaN one read fidelity 0."""
    b = Builder()
    data = b.add_register("d", 1)
    b.append(g_x(data[0]))
    with pytest.raises(ValueError, match="norm"):
        check_clean_preparation(b.build(), np.array(target, dtype=complex), (data[0],))


def test_wide_state_is_read_from_its_support():
    """One X gate on 40 qubits: the state is one support entry, and every
    reader works from it (a dense vector would take 16 TiB)."""
    b = Builder()
    data = b.add_register("d", 2)
    anc = b.add_register("a", 38, ancilla=True)
    b.append(g_x(data[1]))
    circuit = b.build()
    state = run(circuit)
    assert state.n_qubits == 40
    assert state.indices.tolist() == [1 << data[1]]
    assert state.values.tolist() == [1.0]
    assert np.array_equal(project(state, tuple(data)), [0, 1, 0, 0])
    assert np.array_equal(project(state, (data[1], anc[37])), [0, 0, 1, 0])
    assert np.array_equal(project(state, (anc[0],)), [0, 0])
    target = np.array([0, 1, 0, 0], dtype=complex)
    assert output_overlap(state, target, tuple(data)) == 1.0
    assert residual_mass(state, (data[1],)) == 1.0
    assert residual_mass(state, tuple(anc)) == 0.0
    res = check_clean_preparation(circuit, target, tuple(data))
    assert (res.fidelity, res.clean, res.residual_ancilla_mass) == (1.0, True, 0.0)
    assert res.error_bound == 0.0


def test_mass_bounds_widen_by_the_error_bound():
    low, high = mass_bounds(0.6j, 0.1)
    assert abs(low - 0.25) < 1e-15 and abs(high - 0.49) < 1e-15
    assert mass_bounds(0.05, 0.1)[0] == 0.0
    assert mass_bounds(-0.5, 0.0) == (0.25, 0.25)


def test_controlled_reflection_about_zero_needs_its_control():
    """I - 2|00><00| on qubits 0, 1 behind control qubit 2: with the control
    off the state is unchanged, with it on only the |00> entry flips sign."""
    b = Builder()
    r = b.add_register("q", 3)
    b.append_layer([g_unitary1(r[0], H_MATRIX), g_unitary1(r[1], H_MATRIX)])
    b.append(g_product_reflection((r[0], r[1])).with_params(ctrl=r[2]))
    circuit = b.build()
    off = run(circuit).amplitudes
    assert np.allclose(off[:4], 0.5, rtol=0.0, atol=1e-15) and not off[4:].any()
    on = run(circuit, {r[2]: 1}).amplitudes
    assert np.allclose(on[4:], [-0.5, 0.5, 0.5, 0.5], rtol=0.0, atol=1e-15)
    assert not on[:4].any()


def test_residue_is_dropped_from_dicke_12_2():
    """Only the C(12, 2) = 66 real amplitudes survive; exact-zero dropping
    ended this run with 74,086 nonzero entries."""
    state = run(build_dicke(12, 2, 4).circuit)
    assert np.count_nonzero(state.amplitudes) == 66
    assert 0.0 < state.error_bound < 1e-12


def cnot_as_exact11():
    """An explicit realization of the exact(1, 1) popcount flag flip."""
    b = Builder()
    x = b.add_register("x", 1)
    f = b.add_register("f", 1)
    b.append(g_cnot(x[0], f[0]))
    return b.build(), (x[0], f[0])


def test_certify_accepts_correct_explicit_circuit():
    circuit, io = cnot_as_exact11()
    report = certify_library_gate("exact", (1, 1), circuit, io)
    assert report.inputs_checked == 4 + 1
    assert report.worst_overlap > 1 - 1e-9
    assert report.tag == "exact"


def test_certify_rejects_corrupted_circuit():
    circuit, io = cnot_as_exact11()
    b = Builder.from_circuit(circuit)
    b.append(g_x(io[1]))
    with pytest.raises(CertificationError, match="disagrees"):
        certify_library_gate("exact", (1, 1), b.build(), io)


def test_certify_is_phase_strict():
    """A stray controlled phase fails even though all probabilities match."""
    circuit, io = cnot_as_exact11()
    b = Builder.from_circuit(circuit)
    b.append(g_ctrl_unitary1(io[0], io[1], Z_MATRIX))
    with pytest.raises(CertificationError):
        certify_library_gate("exact", (1, 1), b.build(), io)


def test_certify_probe_covers_skipped_inputs():
    """The superposition probe catches damage outside the domain subset."""
    circuit, io = cnot_as_exact11()
    b = Builder.from_circuit(circuit)
    b.append(g_ctrl_unitary1(io[0], io[1], Z_MATRIX))
    damaged = b.build()
    subset = [0b00, 0b01, 0b11]  # the phase only hits input 0b10
    report = certify_library_gate(
        "exact", (1, 1), damaged, io, domain_subset=subset, probe=False
    )
    assert report.inputs_checked == 3
    with pytest.raises(CertificationError, match="probe"):
        certify_library_gate("exact", (1, 1), damaged, io, domain_subset=subset)


def test_certify_enforces_qubit_cap():
    circuit, io = cnot_as_exact11()
    with pytest.raises(CertificationError, match="max_qubits"):
        certify_library_gate("exact", (1, 1), circuit, io, max_qubits=1)


def test_certify_checks_io_width():
    circuit, io = cnot_as_exact11()
    with pytest.raises(CertificationError):
        certify_library_gate("exact", (1, 1), circuit, io[:1])


def test_certify_rejects_subset_inputs_outside_the_domain():
    """dicke_prep declares input 0 only; input 1 has no declared output."""
    b = Builder()
    r = b.add_register("q", 2)
    b.append(library.make("dicke_prep", (2, 1), tuple(r)))
    circuit = b.build()
    report = certify_library_gate("dicke_prep", (2, 1), circuit, tuple(r), domain_subset=[0])
    assert report.worst_overlap > 1 - 1e-9
    with pytest.raises(CertificationError, match="outside"):
        certify_library_gate("dicke_prep", (2, 1), circuit, tuple(r), domain_subset=[0, 1])
    # a permutation gate with a partial domain: one_hot(1, classic) takes 0 and 0b10 only
    with pytest.raises(CertificationError, match="outside"):
        certify_library_gate("one_hot", (1, False), circuit, tuple(r), domain_subset=[1])


def certify_by_separate_runs(tag, args, circuit, io, domain_subset=None, probe=True):
    """The certification loop as one ``run`` per basis input and one for the
    probe, each overlap read by ``output_overlap`` less the run's error
    bound.  Returns (inputs checked, worst overlap), or raises what the
    first failing run raises."""
    sem = library.semantics(tag, args)
    w, n = sem.n_qubits, circuit.n_qubits
    domain = list(range(2**w)) if sem.domain is None else [int(d) for d in sem.domain]
    inputs = domain if domain_subset is None else list(domain_subset)

    def declared(d):
        if sem.permutation is None:
            return sem.columns[d]
        out = np.zeros(2**w, dtype=complex)
        out[sem.permutation[d]] = 1.0
        return out

    def start(d):
        """Basis index of input d on io; io[0] holds its top bit."""
        return sum(1 << q for j, q in enumerate(io) if (d >> (w - 1 - j)) & 1)

    cases = [
        (
            StateVector(n, np.array([start(d)]), np.ones(1, dtype=complex)),
            declared(d),
            f"disagrees with its declared action on input {d:0{w}b}",
        )
        for d in inputs
    ]
    if probe and len(domain) > 1:
        scale = 1.0 / np.sqrt(len(domain))
        probe_start = np.array([start(d) for d in domain])
        cases.append((
            StateVector(n, probe_start, np.full(len(domain), scale, dtype=complex)),
            sum(declared(d) for d in domain) * scale,
            "fails the superposition probe",
        ))
    worst = 1.0
    for initial, expected, failure in cases:
        state = run(circuit, initial)
        ov = output_overlap(state, expected, io).real - state.error_bound
        worst = min(worst, ov)
        if ov < 1.0 - 1e-9:
            raise CertificationError(f"{tag}{args} {failure} (overlap {ov:.12f})")
    return len(cases), worst


def assert_batched_matches_separate_runs(tag, args, circuit, io, **kwargs):
    """Batched certification reports what separate runs report, or raises
    the same error with the same message; returns that message, if any."""
    kwargs["max_qubits"] = circuit.n_qubits
    try:
        checked, worst = certify_by_separate_runs(
            tag, args, circuit, io, kwargs.get("domain_subset"), kwargs.get("probe", True)
        )
    except (CertificationError, SimulationError) as exc:
        with pytest.raises(type(exc)) as got:
            certify_library_gate(tag, args, circuit, io, **kwargs)
        assert str(got.value) == str(exc)
        return str(exc)
    report = certify_library_gate(tag, args, circuit, io, **kwargs)
    assert report.inputs_checked == checked
    assert abs(report.worst_overlap - worst) <= 1e-15
    return None


def ham_case(n, k):
    b = Builder()
    x = b.add_register("x", n, ancilla=False)
    tally = tuple(ham_gadget(b, tuple(x), k))
    return "ham", (n, k), b.build(), tuple(x) + tally


def ctrl_dicke_case(ell, slots, weights):
    return ("ctrl_dicke", (ell, slots, weights)) + ctrl_dicke_explicit(ell, slots, weights)


ORACLE_CASES = [ham_case(n, k) for n in range(1, 4) for k in range(0, 3)] + [
    ctrl_dicke_case(2, 1, (0,)),
    ctrl_dicke_case(2, 2, (0, 1)),
    ctrl_dicke_case(3, 2, (1, 2)),
]


@pytest.mark.parametrize("case", ORACLE_CASES, ids=lambda c: f"{c[0]}{c[1]}")
def test_batched_certification_matches_separate_runs(case):
    assert assert_batched_matches_separate_runs(*case) is None


def test_batched_certification_of_a_domain_subset_matches_separate_runs():
    tag, args, circuit, io = ham_case(3, 1)
    subset = [0b00000, 0b10110, 0b01001, 0b10110, 0b11111]
    for probe in (True, False):
        kwargs = dict(domain_subset=subset, probe=probe)
        assert assert_batched_matches_separate_runs(tag, args, circuit, io, **kwargs) is None
    assert certify_library_gate(tag, args, circuit, io, domain_subset=subset).inputs_checked == 6


def with_phase_on_output(circuit, io, pattern):
    """The circuit followed by a sign flip of the io basis state ``pattern``
    (io[0] its top bit)."""
    b = Builder.from_circuit(circuit)
    flips = [q for j, q in enumerate(io) if (pattern >> (len(io) - 1 - j)) & 1]
    for q in flips:
        b.append(g_x(q))
    b.append(g_reflect_zero(io))
    for q in flips:
        b.append(g_x(q))
    return b.build()


def test_batched_certification_names_the_one_failing_middle_input():
    """A sign flip on the output of input 10110 of ham_gadget(3, 1) fails
    that input only; the message names it, as separate runs do."""
    tag, args, circuit, io = ham_case(3, 1)
    sem = library.semantics(tag, args)
    bad = 0b10110
    mutant = with_phase_on_output(circuit, io, int(sem.permutation[bad]))
    message = assert_batched_matches_separate_runs(tag, args, mutant, io)
    assert "disagrees with its declared action on input 10110 (overlap -1.0" in message
    for d in range(2**5):
        if d != bad:
            subset = [d]
            certify_library_gate(tag, args, mutant, io, domain_subset=subset, probe=False)


def test_batched_certification_raises_the_first_failure_in_input_order():
    """Input 10 of exact(1, 1) fails its overlap and input 11 drives a
    library gate outside its domain: the overlap failure comes first, as in
    separate runs.  With the order reversed the domain error comes first."""
    circuit, io = cnot_as_exact11()
    for phase_on, stray_on in ((0b11, 0b10), (0b10, 0b11)):
        b = Builder.from_circuit(with_phase_on_output(circuit, io, phase_on))
        flag = b.add_register("flag", 2)
        zeros = [q for j, q in enumerate(io) if not (stray_on >> (1 - j)) & 1]
        for q in zeros:
            b.append(g_x(q))
        b.append(g_and(io, flag[0]))
        for q in zeros:
            b.append(g_x(q))
        # dicke_prep(2, 1) declares input 00 only; its inverse undoes it there
        b.append(library.make("dicke_prep", (2, 1), tuple(flag)))
        b.append(library.make("dicke_prep", (2, 1), tuple(flag), inverse=True))
        message = assert_batched_matches_separate_runs("exact", (1, 1), b.build(), io)
        if phase_on == 0b11:
            assert "disagrees with its declared action on input 10" in message
        else:
            assert "outside its domain" in message


def test_batched_certification_checks_each_state_norm():
    """A gate that scales only the states with x set fails the norm check
    of input 10, the first of them, though input 00 keeps its norm and a
    later layer undoes the scaling."""
    circuit, io = cnot_as_exact11()
    b = Builder.from_circuit(circuit)
    a = b.add_register("a", 1)
    valid = b.build()
    # the builder refuses such gates, so the layers are set directly
    grow = g_ctrl_unitary1(io[0], a[0], Z_MATRIX).with_params(matrix=1.5 * np.eye(2))
    shrink = grow.with_params(matrix=np.eye(2) / 1.5)
    scaled = Circuit(valid.registers, valid.layers + ((grow,), (shrink,)), valid.metadata)
    message = assert_batched_matches_separate_runs("exact", (1, 1), scaled, io)
    assert "drifted to 2.25" in message


def test_domain_and_error_bounds_are_kept_per_input(monkeypatch):
    """Each input of this gadget leaves 6e-10 of stray mass at two checked
    library gates, under DOMAIN_TOL for each run but not summed over the
    five states; inputs with x set drop a 5e-15 entry twice.  Batched
    certification passes as the separate runs do, and its worst overlap is
    the one the separate runs report, not one charged every drop."""
    circuit, io = cnot_as_exact11()
    b = Builder.from_circuit(circuit)
    a = b.add_register("a", 2)
    stray = math.asin(math.sqrt(6e-10))
    tiny = math.asin(5e-15)
    rotate = lambda t: np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    b.append(g_unitary1(a[0], rotate(stray)))
    b.append(g_ctrl_unitary1(io[0], a[1], rotate(tiny)))
    b.append(library.make("dicke_prep", (2, 1), tuple(a)))
    b.append(library.make("dicke_prep", (2, 1), tuple(a), inverse=True))
    b.append(g_ctrl_unitary1(io[0], a[1], rotate(-tiny)))
    b.append(g_unitary1(a[0], rotate(-stray)))
    mutant = b.build()
    assert 5 * 6e-10 > simulate.DOMAIN_TOL
    bounds = [run(mutant, {io[0]: x}).error_bound for x in (0, 1)]
    assert bounds[1] > bounds[0] + 5e-15
    assert assert_batched_matches_separate_runs("exact", (1, 1), mutant, io) is None
    # and in one batch: no state failed a check and sent it back to separate runs
    batches = []
    real_execute = simulate._execute
    monkeypatch.setattr(
        simulate, "_execute", lambda *a: batches.append(a[3]) or real_execute(*a)
    )
    certify_library_gate("exact", (1, 1), mutant, io)
    assert batches == [(mutant.n_qubits, 5)]


def test_inputs_split_into_batches_that_fit_int64(monkeypatch):
    """On 61 qubits two state numbers fit under bit 62, so exact(1, 1)'s
    four inputs and the probe run in three batches, with the same report
    as separate runs, and a failing input is still the one named."""
    b = Builder()
    b.add_register("idle", 59)
    x = b.add_register("x", 1)
    f = b.add_register("f", 1)
    b.append(g_cnot(x[0], f[0]))
    circuit, io = b.build(), (x[0], f[0])
    assert circuit.n_qubits == 61
    batches = []
    real_execute = simulate._execute

    def execute(plan, idx, amp, batch, bound=0.0):
        assert int(idx.max()) < 2**62
        batches.append(batch[1])
        return real_execute(plan, idx, amp, batch, bound)

    assert assert_batched_matches_separate_runs("exact", (1, 1), circuit, io) is None
    monkeypatch.setattr(simulate, "_execute", execute)
    certify_library_gate("exact", (1, 1), circuit, io, max_qubits=61)
    assert batches == [2, 2, 1]
    monkeypatch.undo()
    mutant = with_phase_on_output(circuit, io, 0b11)
    message = assert_batched_matches_separate_runs("exact", (1, 1), mutant, io)
    assert "on input 10 " in message


def test_w_state_on_19_qubits_verifies_exact_and_clean():
    """build_dicke(16, 1) applies ctrl_damped(16, 1) on 17 qubits.

    A dense completion of that gate is a 2^17 x 2^17 matrix; the low-rank
    form keeps a basis of at most 2d = 4 columns.
    """
    out = build_dicke(16, 1)
    assert out.circuit.n_qubits == 19
    res = check_clean_preparation(out.circuit, out.target, out.output_qubits)
    assert res.fidelity >= 1 - 1e-9
    assert res.clean
    widest = max(
        (g for g in out.circuit.gates() if g.kind == "library"),
        key=lambda g: len(g.targets),
    )
    op = simulate._compiled(widest.params["tag"], widest.params["args"])
    assert (widest.params["tag"], op.n_qubits) == ("ctrl_damped", 17)
    assert op.basis.shape[1] <= 4


# ---- the support kernel against a dense oracle ----

# Library instances of at most 5 qubits: table gates (total and partial
# domains) and column-declared gates.
ORACLE_LIBRARY = [
    ("exact", (2, 1)),
    ("threshold", (3, 2)),
    ("ham", (2, 1)),
    ("one_hot", (2, False)),
    ("w_swap", (2, 1)),
    ("dicke_prep", (3, 1)),
    ("zero_w", (3,)),
    ("ctrl_damped", (3, 1)),
    ("ctrl_dicke", (2, 1, (0,))),
    ("onehot_dist", (3, (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)))),
    ("small_state", ((0.5, 0.5j, -0.5, -0.5j),)),
]


def local_action(gate):
    """(qubits, matrix, domain, after): the gate's 2^w x 2^w matrix on its
    qubits, first listed as the top bit; for a checked library gate with a
    domain, the domain inputs and whether the check falls on the outputs."""
    p = gate.params
    domain, after = None, False
    qubits = gate.controls + gate.targets
    w = len(qubits)
    if gate.kind == "unitary1":
        mat = np.asarray(p["matrix"])
    elif gate.kind == "ctrl_unitary1":
        mat = np.eye(4, dtype=complex)
        mat[2:, 2:] = p["matrix"]
    elif gate.kind == "product_reflection":
        vec = np.array([1.0 + 0j])
        for s in p.get("local_states") or [np.array([1.0, 0.0])] * w:
            vec = np.kron(vec, s)
        mat = np.eye(2**w) - 2.0 * np.outer(vec, vec.conj())
    elif gate.kind == "library":
        sem = library.semantics(p["tag"], p["args"])
        if sem.permutation is not None:
            mat = np.zeros((2**w, 2**w), dtype=complex)
            mat[sem.permutation, np.arange(2**w)] = 1.0
        else:
            basis, correction = library.low_rank_completion(w, sem.columns)
            mat = np.eye(2**w) + basis @ correction @ basis.conj().T
        if p["inverse"]:
            mat = mat.conj().T
        if p.get("checked", True) and sem.domain is not None:
            domain, after = list(sem.domain), p["inverse"]
    else:
        # and / or / nor / fanout / swap as basis-state maps
        image = []
        for i in range(2**w):
            top, ins = i >> (w - 1), i >> 1
            if gate.kind == "and":
                out = i ^ (ins == 2 ** (w - 1) - 1)
            elif gate.kind == "or":
                out = i ^ (ins != 0)
            elif gate.kind == "nor":
                out = i ^ (ins == 0)
            elif gate.kind == "fanout":
                out = i ^ (top * (2 ** (w - 1) - 1))
            else:
                out = [0, 2, 1, 3][i]
            image.append(out)
        mat = np.zeros((2**w, 2**w), dtype=complex)
        mat[image, np.arange(2**w)] = 1.0
    if p.get("ctrl") is not None:
        size = 2**w
        ctrl_mat = np.eye(2 * size, dtype=complex)
        ctrl_mat[size:, size:] = mat
        qubits, mat = (p["ctrl"],) + qubits, ctrl_mat
        if domain is not None:
            domain = list(range(size)) + [size + d for d in domain]
    return qubits, mat, domain, after


def dense_oracle(circuit, amps):
    """Gate by gate: move the gate's qubits to the front, multiply, move back.

    Returns None when a checked library gate is driven outside its domain.
    """
    n = circuit.n_qubits
    for gate in circuit.gates():
        qubits, mat, domain, after = local_action(gate)
        w = len(qubits)
        axes = [n - 1 - q for q in qubits]
        tensor = np.moveaxis(amps.reshape((2,) * n), axes, range(w))
        shape = tensor.shape
        block = tensor.reshape(2**w, -1)
        out = mat @ block
        if domain is not None:
            mass = np.sum(np.abs(out if after else block) ** 2, axis=1)
            stray = float(np.sum(mass) - np.sum(mass[domain]))
            # too close to the simulator's tolerance to call either way
            assume(not 0.5 * simulate.DOMAIN_TOL < stray < 2 * simulate.DOMAIN_TOL)
            if stray > simulate.DOMAIN_TOL:
                return None
        amps = np.moveaxis(out.reshape(shape), range(w), axes).reshape(2**n)
    return amps


def hermitian_unitary(theta, phi):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s * cmath.exp(-1j * phi)], [s * cmath.exp(1j * phi), -c]])


ORACLE_KINDS = (
    "unitary1", "ctrl_unitary1", "and", "or", "nor", "fanout", "swap",
    "product_reflection", "library",
)


@st.composite
def random_gate(draw, n):
    kind = draw(st.sampled_from(ORACLE_KINDS))
    order = draw(st.permutations(range(n)))
    angle = st.floats(0.0, 2 * math.pi)
    if kind == "unitary1":
        theta = draw(angle)
        c, s = math.cos(theta), math.sin(theta)
        phi, lam = cmath.exp(1j * draw(angle)), cmath.exp(1j * draw(angle))
        mat = np.array([[c, -lam * s], [phi * s, phi * lam * c]])
        gate, used = g_unitary1(order[0], mat), 1
    elif kind == "ctrl_unitary1":
        mat = hermitian_unitary(draw(angle), draw(angle))
        gate, used = g_ctrl_unitary1(order[0], order[1], mat), 2
    elif kind in ("and", "or", "nor"):
        used = draw(st.integers(2, min(4, n)))
        maker = {"and": g_and, "or": g_or, "nor": g_nor}[kind]
        gate = maker(order[: used - 1], order[used - 1])
    elif kind == "fanout":
        used = draw(st.integers(2, min(4, n)))
        gate = g_fanout(order[0], order[1:used])
    elif kind == "swap":
        gate, used = g_swap(order[0], order[1]), 2
    elif kind == "product_reflection":
        used = draw(st.integers(1, min(3, n)))
        states = None
        if draw(st.booleans()):
            states = [
                (math.cos(t), cmath.exp(1j * f) * math.sin(t))
                for t, f in ((draw(angle), draw(angle)) for _ in range(used))
            ]
        gate = g_product_reflection(order[:used], states)
    else:
        fits = [c for c in ORACLE_LIBRARY if library.entry(c[0]).width(c[1]) <= n]
        tag, args = draw(st.sampled_from(fits))
        used = library.entry(tag).width(args)
        gate = library.make(tag, args, order[:used], inverse=draw(st.booleans()))
        gate = gate.with_params(checked=draw(st.booleans()))
    if used < n and draw(st.booleans()):
        if kind == "unitary1":
            gate = gate.with_params(matrix=hermitian_unitary(draw(angle), draw(angle)))
        gate = gate.with_params(ctrl=order[used])
    return gate


@st.composite
def random_circuit(draw):
    n = draw(st.integers(3, 8))
    b = Builder()
    b.add_register("q", n)
    for _ in range(draw(st.integers(1, 6))):
        b.append(draw(random_gate(n)))
    return b.build()


@settings(max_examples=150, deadline=None)
@given(random_circuit(), st.booleans(), st.integers(0, 2**32 - 1), st.data())
def test_support_kernel_matches_dense_oracle(circuit, from_basis, seed, data):
    n = circuit.n_qubits
    initial = seeded_input(n, from_basis, seed)
    expected = dense_oracle(circuit, start_vector(circuit, initial))
    if expected is None:
        with pytest.raises(SimulationError, match="outside its domain"):
            run(circuit, initial)
        return
    state = run(circuit, initial)
    got = state.amplitudes
    assert np.max(np.abs(got - expected)) < 1e-12
    # project on a random register is the dense gather, other qubits at zero
    register = data.draw(st.permutations(range(n)))[: data.draw(st.integers(0, n))]
    w = len(register)
    spots = [
        sum(((i >> (w - 1 - j)) & 1) << q for j, q in enumerate(register))
        for i in range(2**w)
    ]
    assert np.array_equal(project(state, register), got[spots])


def seeded_input(n, from_basis, seed):
    """The basis input given by the seed's low n bits, or a seeded normalized
    complex vector with every amplitude nonzero."""
    if from_basis:
        return {q: (seed >> q) & 1 for q in range(n)}
    rng = np.random.default_rng(seed)
    amps = rng.uniform(0.5, 1.0, 2**n) * np.exp(2j * math.pi * rng.uniform(size=2**n))
    return amps / np.linalg.norm(amps)


@settings(max_examples=150, deadline=None)
@given(random_circuit(), st.booleans(), st.integers(0, 2**32 - 1))
def test_dropped_residue_stays_within_the_error_bound(circuit, from_basis, seed):
    """With no threshold nothing is dropped and the bound is zero; with the
    default one the state moves from that run by at most its bound.  The
    circuit is followed by its inverse, whose cancellations leave residue."""
    b = Builder.from_circuit(circuit)
    b.replay_inverse(circuit.layers)
    circuit = b.build()
    initial = seeded_input(circuit.n_qubits, from_basis, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "DROP_EPS", 0.0)
        try:
            undropped = run(circuit, initial)
        except SimulationError:  # a library gate driven outside its domain
            return
    assert undropped.error_bound == 0.0
    dropped = run(circuit, initial)
    diff = np.linalg.norm(undropped.amplitudes - dropped.amplitudes)
    assert diff <= dropped.error_bound + 1e-15


def one_gate(tag, args, inverse, ctrl, checked=True):
    """The library gate on qubits 0..w-1, behind control qubit w if ctrl."""
    w = library.entry(tag).width(args)
    b = Builder()
    r = b.add_register("q", w + 1)
    gate = library.make(tag, args, tuple(r[:w]), inverse=inverse).with_params(checked=checked)
    if ctrl:
        gate = gate.with_params(ctrl=r[w])
    b.append(gate)
    return b.build()


def local_input(w, local):
    """Gate-local basis input on qubits 0..w-1 (qubit 0 on top), control qubit w on."""
    bits = {j: (local >> (w - 1 - j)) & 1 for j in range(w)}
    bits[w] = 1
    return bits


@pytest.mark.parametrize("ctrl", [False, True])
@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("tag,args", [("one_hot", (2, False)), ("dicke_prep", (3, 1))])
def test_gates_driven_outside_their_domain_raise(tag, args, inverse, ctrl):
    """one_hot(2) is a table gate with domain {0, 0b0100, 0b1000};
    dicke_prep(3, 1) a column gate with domain {0}.  Forward, the input 1 is
    outside.  Inverse, the check falls on the output: a domain input whose
    preimage is outside must raise, and for the table gate an input outside
    the domain whose preimage is inside must not."""
    sem = library.semantics(tag, args)
    w, domain = sem.n_qubits, set(sem.domain)
    bad = good = None
    if not inverse:
        bad = 1
    elif sem.permutation is not None:
        preimage = np.argsort(sem.permutation)
        bad = next(x for x in sorted(domain) if preimage[x] not in domain)
        good = next(x for x in range(2**w) if x not in domain and preimage[x] in domain)
    else:
        bad = 0b011  # not the declared column, so U^dagger leaves span{e_0}
    with pytest.raises(SimulationError, match="outside its domain"):
        run(one_gate(tag, args, inverse, ctrl), local_input(w, bad))
    unchecked = run(one_gate(tag, args, inverse, ctrl, checked=False), local_input(w, bad))
    assert abs(np.linalg.norm(unchecked.amplitudes) - 1.0) < 1e-12
    if good is not None:
        run(one_gate(tag, args, inverse, ctrl), local_input(w, good))


# ---- weight maps and column gates at scale ----


def weight_map_args(tag):
    """Every (n, k) of a weight-map tag whose gate spans at most 10 qubits,
    with k up to one past the largest weight for exact and threshold."""
    if tag == "ham":
        return [(n, k) for n in range(10) for k in range(10 - n)]
    return [(n, k) for n in range(10) for k in range(n + 2)]


@pytest.mark.parametrize("ctrl", [False, True])
@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("tag", ["exact", "threshold", "ham"])
def test_weight_maps_match_their_tables(tag, inverse, ctrl):
    """The simulator XORs a per-weight pattern into each index; every basis
    input must land where the registry's table (its inverse for an inverse
    gate) sends it, and nowhere else when the control qubit is clear."""
    for args in weight_map_args(tag):
        table = library.semantics(tag, args).permutation
        if inverse:
            table = np.argsort(table)
        w = library.entry(tag).width(args)
        n = w + 1
        idx = np.arange(2**n, dtype=np.int64)
        amp = (idx + 1) / np.linalg.norm(idx + 1) + 0j
        state = run(one_gate(tag, args, inverse, ctrl), StateVector(n, idx, amp))
        # gate-local index: qubit 0 is its top bit; qubit w is the control
        local = sum(((idx >> q) & 1) << (w - 1 - q) for q in range(w))
        moved = table[local] if not ctrl else np.where(idx >> w, table[local], local)
        expected = (idx >> w << w) | sum(((moved >> (w - 1 - q)) & 1) << q for q in range(w))
        assert len(np.unique(state.indices)) == 2**n, (tag, args)
        assert np.array_equal(state.amplitudes[expected], amp), (tag, args)


WIDE_REST = 13  # qubits beside the gate and its control: 8,192 patterns


def wide_circuit(tag, args, ctrl, inverses, checked):
    """The library gate on qubits 0..w-1 once per entry of ``inverses``
    (inverse or not), behind control qubit w if ctrl, in a register with
    WIDE_REST more qubits."""
    w = library.entry(tag).width(args)
    b = Builder()
    r = b.add_register("q", w + 1 + WIDE_REST)
    for inverse in inverses:
        gate = library.make(tag, args, tuple(r[:w]), inverse=inverse)
        gate = gate.with_params(checked=checked)
        b.append(gate.with_params(ctrl=r[w]) if ctrl else gate)
    return b.build()


@pytest.mark.parametrize("ctrl", [False, True])
@pytest.mark.parametrize(
    "tag,args",
    [("ctrl_dicke", (3, 3, (1, 2, 3))), ("onehot_dist", (2, (Fraction(2, 7), Fraction(5, 7))))],
)
def test_column_gates_on_wide_supports_match_the_dense_completion(tag, args, ctrl):
    """A column gate on a support with thousands of distinct patterns of the
    other qubits: unchecked, forward and inverse agree with the dense
    completion I + B M B^dagger; checked, on domain inputs, the gate and
    then its inverse give back the start."""
    sem = library.semantics(tag, args)
    w = sem.n_qubits
    n = w + 1 + WIDE_REST
    rng = np.random.default_rng(20261019)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    amps /= np.linalg.norm(amps)
    for inverse in (False, True):
        circuit = wide_circuit(tag, args, ctrl, [inverse], checked=False)
        expected = dense_oracle(circuit, amps)
        assert np.max(np.abs(run(circuit, amps).amplitudes - expected)) < 1e-12
    idx = np.arange(2**n)
    local = sum(((idx >> q) & 1) << (w - 1 - q) for q in range(w))
    start = np.where(np.isin(local, sem.domain), amps, 0)
    start /= np.linalg.norm(start)
    # distinct patterns of the qubits beside the gate and its control
    assert len(np.unique(np.flatnonzero(start) >> (w + 1))) >= 5000
    state = run(wide_circuit(tag, args, ctrl, [False], checked=True), start)
    expected = dense_oracle(wide_circuit(tag, args, ctrl, [False], checked=False), start)
    assert np.max(np.abs(state.amplitudes - expected)) < 1e-12
    back = run(wide_circuit(tag, args, ctrl, [False, True], checked=True), start)
    assert np.max(np.abs(back.amplitudes - start)) < 1e-12


def test_a_narrow_column_step_matches_the_sorted_rows_step():
    """A ctrl_unitary1 behind a ctrl has 8 gate-local rows, so its step takes
    all of them.  The same gate on 16 rows, acting as I on a spare top
    qubit, sorts the rows present instead.  On a support that leaves most
    rows absent, the two give the same entries, bit for bit, and the same
    norms and drops (summed in another order)."""
    matrix = hermitian_unitary(0.3, 0.7)
    narrow = simulate._step(g_ctrl_unitary1(1, 2, matrix).with_params(ctrl=0))
    basis = np.zeros((8, 2), dtype=complex)
    basis[-2:] = np.eye(2)
    left = np.zeros_like(basis)
    left[-2:] = matrix - np.eye(2)
    spare = np.eye(2)
    wide = simulate._column_step(
        (3, 0, 1, 2), np.kron(spare, basis), np.kron(spare, left), None, False, None
    )
    rng = np.random.default_rng(7)
    idx = np.sort(rng.choice(2**6, size=20, replace=False)).astype(np.int64)
    amp = rng.normal(size=20) + 1j * rng.normal(size=20)
    amp /= np.linalg.norm(amp)
    # an entry below DROP_EPS that the gate leaves alone (qubit 0 clear)
    idx, amp = np.append(idx, 0b110110), np.append(amp, 1e-15)
    i, a, kept, lost = narrow(idx, amp, (6, 1))
    j, b, want_kept, want_lost = wide(idx, amp, (6, 1))
    assert np.array_equal(np.sort(i), np.sort(j))
    assert np.array_equal(a[np.argsort(i)], b[np.argsort(j)])
    assert abs(kept[0] - want_kept[0]) < 1e-15 and lost[0] == want_lost[0] == 1e-30


# ---- Grover rounds as rank-1 reflections ----


PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)


def product_states(bits, plus):
    """|0> or |1> per bit, and |+> at the positions in ``plus``."""
    return [PLUS if i in plus else np.eye(2, dtype=complex)[b] for i, b in enumerate(bits)]


def test_a_wide_product_reflection_is_a_rank_one_update():
    """I - 2|a><a| on 48 of 50 qubits with a the product of |0>s and |1>s
    and two |+>s: a has 4 entries, where the product as one vector has
    2^48.  The run matches psi - 2a<a|psi> for each pattern of qubits 0
    and 49, worked out here entry by entry."""
    n, targets = 50, list(range(1, 49))
    bits = np.random.default_rng(3).integers(0, 2, size=len(targets))
    plus = (5, 30)
    b = Builder()
    b.add_register("q", n)
    b.append(g_product_reflection(targets, product_states(bits, plus)))
    circuit = b.build()
    base = sum(int(bits[i]) << t for i, t in enumerate(targets) if i not in plus)
    a = {
        base | (x << targets[plus[0]]) | (y << targets[plus[1]]): 0.5
        for x in (0, 1)
        for y in (0, 1)
    }
    a_idx, a_amp, _ = simulate._product_support(targets, product_states(bits, plus), None)
    assert a_idx.tolist() == sorted(a) and np.allclose(a_amp, 0.5, rtol=0.0, atol=1e-15)
    spots = sorted(a)
    far = 1 << 49
    psi = {
        spots[0]: 0.3 + 0.1j,
        spots[3]: -0.2j,
        spots[1] | 1: 0.4,
        spots[2] | 1: 0.25 - 0.3j,
        spots[2] ^ (1 << 10): 0.5j,
        spots[3] | far: -0.35,
        (1 << 10) | 1 | far: 0.2 + 0.2j,
    }
    scale = math.sqrt(sum(abs(v) ** 2 for v in psi.values()))
    psi = {i: v / scale for i, v in psi.items()}
    expected = dict(psi)
    for pattern in (0, 1, far, far | 1):
        overlap = sum(np.conj(amp) * psi.get(i | pattern, 0) for i, amp in a.items())
        for i, amp in a.items():
            expected[i | pattern] = expected.get(i | pattern, 0) - 2 * overlap * amp
    idx = np.array(sorted(psi), dtype=np.int64)
    state = run(circuit, StateVector(n, idx, np.array([psi[i] for i in idx.tolist()])))
    got = dict(zip(state.indices.tolist(), state.values.tolist()))
    assert set(got) <= set(expected)
    for i, want in expected.items():
        assert abs(got.get(i, 0) - want) < 1e-15, i
    assert state.error_bound == 0.0
    assert len(got) == sum(abs(v) >= simulate.DROP_EPS for v in expected.values())


@pytest.mark.parametrize("ctrl", [None, 4])
@pytest.mark.parametrize("zero", [False, True])
def test_product_reflections_match_the_dense_oracle(ctrl, zero):
    """The 8-qubit analogue of the wide reflection, on 6 targets listed out
    of order, with and without a control, about the product state and about
    |0...0>, from a state with every amplitude nonzero."""
    targets = [6, 0, 3, 1, 7, 2]
    states = None if zero else product_states([1, 0, 0, 1, 1, 0], (2, 4))
    gate = g_product_reflection(targets, states)
    if ctrl is not None:
        gate = gate.with_params(ctrl=ctrl)
    b = Builder()
    b.add_register("q", 8)
    b.append(gate)
    circuit = b.build()
    for seed in range(3):
        initial = seeded_input(8, False, seed)
        expected = dense_oracle(circuit, start_vector(circuit, initial))
        assert np.max(np.abs(run(circuit, initial).amplitudes - expected)) < 1e-15


def rounds_in(circuit):
    """How many rounds the plan fuses at its top level."""
    return sum(isinstance(item, rounds.Round) for item in simulate._plan(circuit))


def split_run(circuit, initial=None):
    """The plain result: the circuit run in pieces cut before every layer
    that holds a lone reflection, so no piece holds a mirror around one."""
    cuts = [c for c, layer in enumerate(circuit.layers) if rounds.is_zero_reflection(layer)]
    state = initial
    edges = [0] + cuts + [len(circuit.layers)]
    for lo, hi in zip(edges, edges[1:]):
        piece = replace(circuit, layers=circuit.layers[lo:hi])
        assert rounds_in(piece) == 0
        state = run(piece, state)
    return state


def as_dict(state):
    return dict(zip(state.indices.tolist(), state.values.tolist()))


def assert_same_run(circuit, initial=None):
    """A circuit the plan does not fuse runs exactly as the split run."""
    assert rounds_in(circuit) == 0
    got, want = run(circuit, initial), split_run(circuit, initial)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.values, want.values)
    assert got.error_bound == want.error_bound


def assert_fused_matches_split(circuit, initial=None):
    """Fused and split runs agree within 1e-13 on the union of their
    supports, and their 2-norm distance is within the sum of their bounds
    (plus 1e-14 of rounding, which no bound counts yet)."""
    fused, plain = run(circuit, initial), split_run(circuit, initial)
    got, want = as_dict(fused), as_dict(plain)
    diffs = [abs(got.get(i, 0) - want.get(i, 0)) for i in set(got) | set(want)]
    assert max(diffs) <= 1e-13
    distance = math.sqrt(sum(d * d for d in diffs))
    assert distance <= fused.error_bound + plain.error_bound + 1e-14
    return fused, plain


ORACLE = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)


def round_circuit(segment, n, targets=None, reflection=None):
    """The segment, then one round of it: -Z on qubit 0, the segment
    inverted, a reflection (about zero on the targets, all n qubits by
    default) and the segment, replayed unchecked as ``exact_grover`` does."""
    b = Builder()
    b.add_register("q", n)
    for layer in segment:
        b.append_layer(list(layer))
    b.append(g_unitary1(0, ORACLE))
    b.replay_inverse(segment, checked=False)
    b.append(reflection or g_reflect_zero(range(n) if targets is None else targets))
    b.replay(segment, checked=False)
    return b.build()


H0 = (g_unitary1(0, H_MATRIX),)
DAMPED = (library.make("ctrl_damped", (3, 1), (0, 1, 2, 3)),)
TURN = (g_ctrl_unitary1(1, 2, hermitian_unitary(0.3, 0.7)),)


def with_gate(circuit, layer, gate):
    layers = list(circuit.layers)
    layers[layer] = (gate,)
    return replace(circuit, layers=tuple(layers))


def test_a_strict_round_is_fused_and_matches_the_split_run():
    circuit = round_circuit((H0, DAMPED, TURN), 4)
    (item,) = [i for i in simulate._plan(circuit) if isinstance(i, rounds.Round)]
    # layers 4..10 around the reflection at 7; the forward half is the
    # circuit's first three layers, run before the round
    assert rounds.find(circuit.layers) == [(4, 10, 3)]
    assert item.prefix == 3
    assert_fused_matches_split(circuit)
    # from another start, a comes from the forward half's own steps
    assert_fused_matches_split(circuit, {0: 1})
    # a changed gate at distance 2 leaves the round of the mirror within it
    damped = circuit.layers[5][0]
    mutant = with_gate(circuit, 5, damped.with_params(args=(3, 2)))
    assert rounds.find(mutant.layers) == [(6, 8, 1)]
    assert_fused_matches_split(mutant, {0: 1})


def test_a_round_charges_the_bound_of_a():
    """The prefix drops a 5e-15 entry, so the a it holds is δ = 5e-15 from
    A|0>, and the round adds 2δ(2 + δ) to the bound, which then covers the
    distance from the exact state."""
    tilt = math.asin(5e-15)
    rotate = np.array([[math.cos(tilt), -math.sin(tilt)], [math.sin(tilt), math.cos(tilt)]])
    circuit = round_circuit(((g_unitary1(0, H_MATRIX),), (g_unitary1(1, rotate),)), 2)
    assert rounds_in(circuit) == 1
    state = run(circuit)
    # δ for the prefix's drop, about 4δ for the round
    assert state.error_bound > 4.9 * 5e-15
    exact = dense_oracle(circuit, start_vector(circuit))
    assert np.linalg.norm(state.amplitudes - exact) <= state.error_bound


def test_a_round_that_is_not_a_strict_mirror_is_not_fused():
    """Each case runs step for step as the circuit split at its reflection
    (layer 7; layer 6 is the last gate of the segment's inverse)."""
    damped_first = round_circuit((DAMPED, TURN, H0), 4)
    damped = damped_first.layers[6][0]
    assert (damped.params["tag"], damped.params["inverse"]) == ("ctrl_damped", True)
    turn_first = round_circuit((TURN, H0, DAMPED), 4)
    matrix = np.array(turn_first.layers[6][0].params["matrix"])
    matrix[0, 1] = np.nextafter(matrix[0, 1].real, 2.0)
    cases = [
        # a mirrored ctrl_damped gate with another k
        with_gate(damped_first, 6, damped.with_params(args=(3, 2))),
        # a mirrored matrix one ulp off its inverse
        with_gate(turn_first, 6, turn_first.layers[6][0].with_params(matrix=matrix)),
        # a controlled reflection, and a reflection about a product state
        round_circuit((H0, DAMPED), 5, reflection=g_reflect_zero(range(4)).with_params(ctrl=4)),
        round_circuit((H0, DAMPED), 4, reflection=g_product_reflection(range(4), [(1, 0)] * 4)),
        # a mirrored gate on a qubit outside the reflection's targets
        round_circuit(((g_cnot(0, 4),), H0), 5, targets=range(4)),
    ]
    for case in cases:
        assert_same_run(case)
        assert_same_run(case, {0: 1})
    # a loaded file whose reflection sits between empty layers
    doc = json.loads(serialize(damped_first))
    doc["layers"][7:8] = [[], doc["layers"][7], []]
    assert_same_run(deserialize(json.dumps(doc)))


def count_steps(monkeypatch):
    """The gates ``simulate._step`` compiles from here on."""
    compiled = []
    real_step = simulate._step
    monkeypatch.setattr(simulate, "_step", lambda gate: compiled.append(gate) or real_step(gate))
    return compiled


def test_the_plan_compiles_only_the_layers_a_run_executes(monkeypatch):
    """dicke(8, 2, 4) holds 49 gates, and a run from |0...0> compiles 24:
    its rounds take a from the prefix, so no gate of a round is compiled.
    A circuit with no round compiles every gate."""
    compiled = count_steps(monkeypatch)
    circuit = build_dicke(8, 2, 4).circuit
    assert rounds_in(circuit) >= 1
    compiled.clear()
    run(circuit)
    assert (len(list(circuit.gates())), len(compiled)) == (49, 24)
    plain = round_circuit((H0, DAMPED, TURN), 4)
    plain = replace(plain, layers=plain.layers[:4])
    compiled.clear()
    run(plain, {0: 1})
    assert compiled == list(plain.gates())


def test_a_round_compiles_its_forward_half_once_on_first_use(monkeypatch):
    """From |0...0> the round takes a from the prefix and never compiles its
    forward half; from another start the plan compiles it when the round is
    reached, and the next run of that plan compiles nothing."""
    circuit = round_circuit((H0, DAMPED, TURN), 4)
    compiled = count_steps(monkeypatch)
    plan = simulate._plan(circuit)
    # the prefix and the -Z before the round
    assert compiled == list(circuit.gates())[:4]
    (item,) = [i for i in plan if isinstance(i, rounds.Round)]
    zero = (np.zeros(1, dtype=np.int64), np.ones(1, dtype=complex))
    simulate._execute(plan, *zero, (4, 1))
    assert len(compiled) == 4
    for _ in range(2):
        # qubit 0 set
        simulate._execute(plan, np.ones(1, dtype=np.int64), np.ones(1, dtype=complex), (4, 1))
        assert compiled[4:] == [g for layer in item.layers for g in layer]


def test_batched_certification_compiles_each_forward_half_once(monkeypatch):
    """Two rounds whose forward half is not the prefix: the batch of five
    states compiles the CNOT and each round's forward half, once."""
    b = Builder()
    b.add_register("q", 4)
    b.append(g_cnot(0, 1))
    for _ in range(2):
        b.replay_inverse((H0, DAMPED, TURN), checked=False)
        b.append(g_reflect_zero(range(4)))
        b.replay((H0, DAMPED, TURN), checked=False)
    circuit = b.build()
    assert [prefix for _, _, prefix in rounds.find(circuit.layers)] == [None, None]
    compiled = count_steps(monkeypatch)
    report = certify_library_gate("exact", (1, 1), circuit, (0, 1))
    assert report.inputs_checked == 5
    gates = list(circuit.gates())
    assert compiled == [gates[0]] + gates[5:8] + gates[12:15]


def test_a_gate_the_simulator_refuses_raises_from_a_lazy_forward_half():
    """The round's forward half is not the prefix, and the ctrl_damped gate
    in both halves is given 3 of its 4 qubits: the run raises when the
    round is reached, with the error the split run raises at compile time.
    A gate of no known kind ends the mirror, so its layer is compiled and
    refused, rather than failing the search for rounds."""
    circuit = round_circuit((H0, DAMPED, TURN), 4)
    circuit = replace(circuit, layers=circuit.layers[3:])
    assert rounds.find(circuit.layers) == [(1, 7, None)]
    for change in (dict(targets=(0, 1, 2)), dict(kind="bogus")):
        bad = circuit
        for layer in (2, 6):
            bad = with_gate(bad, layer, replace(bad.layers[layer][0], **change))
        with pytest.raises(SimulationError) as want:
            split_run(bad)
        assert "qubit count mismatch" in str(want.value) or "'bogus'" in str(want.value)
        for initial in (None, {0: 1}):
            with pytest.raises(SimulationError) as got:
                run(bad, initial)
            assert str(got.value) == str(want.value)


@settings(max_examples=60, deadline=None)
@given(random_circuit(), st.integers(0, 2**32 - 1))
def test_fused_rounds_match_the_dense_oracle(segment_circuit, seed):
    """Random layers as A in a round, from |0...0> (a is the state held
    after the prefix) and from a random start (a is run from |0>)."""
    n = segment_circuit.n_qubits
    circuit = round_circuit(segment_circuit.layers, n)
    assert rounds_in(circuit) >= 1
    for initial in (None, seeded_input(n, False, seed)):
        expected = dense_oracle(circuit, start_vector(circuit, initial))
        if expected is None:
            with pytest.raises(SimulationError, match="outside its domain"):
                run(circuit, initial)
            continue
        state = run(circuit, initial)
        assert np.linalg.norm(state.amplitudes - expected) <= state.error_bound + 1e-12


@settings(max_examples=30, deadline=None)
@given(random_circuit())
def test_batched_certification_runs_fused_rounds(segment_circuit):
    """CNOT then two rounds of random layers, which cancel: certified as
    exact(1, 1) in one batch whose rounds take a from the forward half."""
    n = segment_circuit.n_qubits
    b = Builder()
    b.add_register("q", n)
    b.append(g_cnot(0, 1))
    for _ in range(2):
        b.replay_inverse(segment_circuit.layers, checked=False)
        b.append(g_reflect_zero(range(n)))
        b.replay(segment_circuit.layers, checked=False)
    circuit = b.build()
    assert rounds_in(circuit) >= 1
    report = certify_library_gate("exact", (1, 1), circuit, (0, 1))
    assert report.inputs_checked == 5


def test_acceptance_circuits_fused_match_the_split_runs(monkeypatch):
    """Every run the acceptance battery makes, fused against split; the
    fused bound still counts every drop the two runs share, before the
    first round."""
    runs = []
    real_run = simulate.run

    def recorded(circuit, initial=None):
        runs.append((circuit, initial))
        return real_run(circuit, initial)

    for module in (simulate, primitives):
        monkeypatch.setattr(module, "run", recorded)
    simulating = ["exact-dicke-grid", "padding-path", "symmetric-states", "primitive-certification"]
    assert acceptance.run_acceptance(simulating).passed
    monkeypatch.undo()
    assert len(runs) > 40
    for circuit, initial in runs:
        fused, _ = assert_fused_matches_split(circuit, initial)
        spans = rounds.find(circuit.layers)
        # every amplification in these circuits fuses
        assert bool(spans) == any(rounds.is_zero_reflection(l) for l in circuit.layers)
        if spans:
            shared = run(replace(circuit, layers=circuit.layers[: spans[0][0]]), initial)
            assert fused.error_bound >= shared.error_bound


@pytest.mark.parametrize("n,k", [(27, 3), (30, 3), (20, 4)])
def test_wide_dicke_states_run_in_seconds(n, k):
    """Once each round is one reflection, these end with their C(n, k)
    amplitudes and no stray mass in under 2 s of CPU time each; layer by
    layer, dicke(27, 3) peaked at 21 million entries."""
    out = build_dicke(n, k)
    start = time.process_time()
    state = run(out.circuit)
    assert time.process_time() - start < 2.0
    assert len(state.indices) == math.comb(n, k)
    others = [q for q in range(out.circuit.n_qubits) if q not in set(out.output_qubits)]
    assert residual_mass(state, others) == 0.0


def test_circuits_past_63_qubits_raise_before_any_step_compiles(monkeypatch):
    compiled = []
    monkeypatch.setattr(simulate, "_step", lambda gate: compiled.append(gate))
    wide = build_dicke(64, 2).circuit
    assert wide.n_qubits == 76
    with pytest.raises(SimulationError, match="63-qubit"):
        run(wide)
    b = Builder()
    b.add_register("idle", 62)
    x, f = b.add_register("x", 1)[0], b.add_register("f", 1)[0]
    b.append(g_cnot(x, f))
    with pytest.raises(SimulationError, match="63-qubit"):
        certify_library_gate("exact", (1, 1), b.build(), (x, f), max_qubits=64)
    assert compiled == []
    monkeypatch.undo()
    # 63 qubits still run: the top qubit is bit 62
    b = Builder()
    q = b.add_register("q", 63)
    b.append(g_x(q[62]))
    assert run(b.build()).indices.tolist() == [1 << 62]
