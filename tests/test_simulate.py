"""Simulator conventions, verification helpers, and certification checks."""

import math

import numpy as np
import pytest

from shallowprep import library, simulate
from shallowprep.circuits import Builder, Z_MATRIX, g_cnot, g_ctrl_unitary1, g_unitary1, g_x
from shallowprep.simulate import (
    CertificationError,
    SimulationError,
    certify_library_gate,
    check_clean_preparation,
    dump,
    initial_state,
    output_overlap,
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


def test_output_overlap_extracts_named_qubits():
    b = Builder()
    r = b.add_register("x", 3)
    b.append(g_x(r[1]))
    state = run(b.build())
    target = np.array([0.0, 1.0], dtype=complex)
    assert abs(output_overlap(state, target, (r[1],)) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        output_overlap(state, np.zeros(4, dtype=complex), (r[1],))


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


def test_dump_uses_register_order():
    b = Builder()
    b.add_register("x", 2)
    b.append(g_x(1))
    state = run(b.build())
    rows = dump(state, b.build())
    assert rows == [("01", 1.0, 0.0)]


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
