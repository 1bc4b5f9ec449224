"""Simulator conventions, verification helpers, and certification checks."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from shallowprep import library, simulate
from shallowprep.circuits import (
    Builder,
    Z_MATRIX,
    g_and,
    g_cnot,
    g_ctrl_unitary1,
    g_fanout,
    g_nor,
    g_or,
    g_product_reflection,
    g_swap,
    g_unitary1,
    g_x,
)
from shallowprep.simulate import (
    CertificationError,
    SimulationError,
    certify_library_gate,
    check_clean_preparation,
    initial_state,
    mass_bounds,
    output_overlap,
    project,
    residual_mass,
    run,
    workers_from_env,
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


def test_initial_state_forms():
    assert abs(initial_state(2)[0] - 1.0) < 1e-12
    assert abs(initial_state(2, {1: 1})[2] - 1.0) < 1e-12
    vec = np.zeros(4, dtype=complex)
    vec[3] = 1.0
    assert abs(initial_state(2, vec)[3] - 1.0) < 1e-12
    with pytest.raises(SimulationError):
        initial_state(2, vec * 2.0)
    # a basis input names qubits of the circuit only
    b = Builder()
    b.add_register("x", 2)
    with pytest.raises(SimulationError, match="qubit 2"):
        run(b.build(), {2: 1})


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


@pytest.mark.filterwarnings("ignore::UserWarning")
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


@pytest.mark.filterwarnings("ignore:ratio bound skipped:UserWarning")
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


def test_workers_from_env(monkeypatch):
    monkeypatch.delenv("SHALLOWPREP_WORKERS", raising=False)
    assert workers_from_env() == 1
    monkeypatch.setenv("SHALLOWPREP_WORKERS", "4")
    assert workers_from_env() == 4
    monkeypatch.setenv("SHALLOWPREP_WORKERS", "zero")
    assert workers_from_env() == 1
    monkeypatch.setenv("SHALLOWPREP_WORKERS", "-2")
    assert workers_from_env() == 1


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
@given(random_circuit(), st.booleans(), st.integers(0, 2**32 - 1))
def test_support_kernel_matches_dense_oracle(circuit, from_basis, seed):
    initial = seeded_input(circuit.n_qubits, from_basis, seed)
    expected = dense_oracle(circuit, initial_state(circuit.n_qubits, initial))
    if expected is None:
        with pytest.raises(SimulationError, match="outside its domain"):
            run(circuit, initial)
        return
    got = run(circuit, initial).amplitudes
    assert np.max(np.abs(got - expected)) < 1e-12


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
