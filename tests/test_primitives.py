"""Primitive constructions checked against simulation and reference maps."""

import math
from fractions import Fraction

import numpy as np
import pytest

from shallowprep import library
from shallowprep.circuits import Builder, CircuitError, g_and, g_unitary1
from shallowprep.primitives import (
    MarkedPreparation,
    adjust_amplitudes,
    amplify_to_exact,
    ctrl_dicke_explicit,
    ctrl_from_zero_overlap,
    ctrl_state,
    custom_threshold,
    custom_threshold_predicate,
    exact_grover,
    ham_gadget,
    parallel_amplify,
    prepare_onehot_dist,
    prepare_small_state,
    rot_matrix,
    w_swap_explicit,
    zero_w_explicit,
)
from shallowprep.acceptance import custom_threshold_semantics
from shallowprep.simulate import (
    CertificationError,
    SimulationError,
    certify,
    certify_library_gate,
    check_clean_preparation,
    run,
)


def seeded_flag_builder(alpha):
    """Data qubit at |1> with mass alpha, flag = AND(data)."""
    b = Builder()
    data = b.add_register("d", 1)
    flag = b.add_register("f", 1)
    b.append(g_unitary1(data[0], rot_matrix(1.0 - alpha)))
    b.append(g_and((data[0],), flag[0]))
    return b, data[0], flag[0]


@pytest.mark.parametrize("r", [3, 5, 7])
def test_exact_grover_round_count_and_certainty(r):
    alpha = math.sin(math.pi / (2 * r)) ** 2
    b, data, flag = seeded_flag_builder(alpha)
    rounds = exact_grover(b, flag, alpha)
    assert rounds == (r - 1) // 2
    amps = run(b.build()).amplitudes
    assert abs(abs(amps[0b11]) ** 2 - 1.0) < 1e-9  # flag left set


def test_exact_grover_rejects_inexact_mass():
    b, data, flag = seeded_flag_builder(0.3)
    with pytest.raises(CircuitError, match="not an exact rotation angle"):
        exact_grover(b, flag, 0.3)


def test_amplify_to_exact_clears_flag():
    alpha = 0.4
    b, data, flag = seeded_flag_builder(alpha)
    info = amplify_to_exact(b, flag, alpha)
    assert info.rounds >= 1
    assert info.odd_r % 2 == 1
    target = np.array([0.0, 1.0], dtype=complex)
    res = check_clean_preparation(b.build(), target, (data,))
    assert res.fidelity > 1 - 1e-9
    assert res.clean


def test_amplify_to_exact_full_mass_shortcut():
    b, data, flag = seeded_flag_builder(1.0)
    info = amplify_to_exact(b, flag, 1.0)
    assert info.rounds == 0
    assert info.gamma is None
    state = run(b.build())
    assert abs(abs(state.amplitudes[0b01]) ** 2 - 1.0) < 1e-9


def test_amplify_to_exact_floor():
    b, data, flag = seeded_flag_builder(0.5)
    with pytest.raises(CircuitError, match="floor"):
        amplify_to_exact(b, flag, 1e-5)


def test_adjust_amplitudes_validation():
    b = Builder()
    r = b.add_register("s", 2)
    with pytest.raises(CircuitError):
        adjust_amplitudes(b, tuple(r), (0.1,), (1, 1))
    with pytest.raises(CircuitError):
        adjust_amplitudes(b, tuple(r), (0.1, 0.1), (0.5, 1.5))
    with pytest.raises(CircuitError):
        adjust_amplitudes(b, tuple(r), (0.7, 0.7), (1, 1))


def test_adjust_amplitudes_all_unit_betas_is_free():
    b = Builder()
    r = b.add_register("s", 2)
    z = adjust_amplitudes(b, tuple(r), (Fraction(1, 4), Fraction(1, 4)), (1, 1))
    assert z == 1
    assert b.layers == []


def test_adjust_amplitudes_rescales_branches():
    """alpha = (1/4, 1/4), beta = (1/2, 1): Z = 7/8 and only slot 1 shrinks."""
    b = Builder()
    slots = b.add_register("s", 2)
    amps = np.zeros(4, dtype=complex)
    amps[0] = math.sqrt(0.5)
    amps[0b01] = 0.5  # slot qubit 0 hot
    amps[0b10] = 0.5  # slot qubit 1 hot
    b.append(library.make("raw_state", (tuple(amps),), (slots[1], slots[0])))
    z = adjust_amplitudes(
        b, tuple(slots), (Fraction(1, 4), Fraction(1, 4)), (Fraction(1, 2), 1)
    )
    assert z == Fraction(7, 8)
    # target indices are MSB-first over the listed outputs (slots[0], slots[1])
    target = np.zeros(4, dtype=complex)
    target[0] = math.sqrt(float(Fraction(1, 2) / z))
    target[0b10] = math.sqrt(float(Fraction(1, 8) / z))
    target[0b01] = math.sqrt(float(Fraction(1, 4) / z))
    res = check_clean_preparation(b.build(), target, tuple(slots))
    assert res.fidelity > 1 - 1e-9
    assert res.clean


def test_parallel_amplify_recovers_marked_state():
    prep = Builder()
    d = prep.add_register("d", 1)
    f = prep.add_register("f", 1)
    amps = np.zeros(4, dtype=complex)
    amps[0] = math.sqrt(0.5)
    amps[0b11] = math.sqrt(0.5)  # data 1, flag 1
    prep.append(library.make("raw_state", (tuple(amps),), (d[0], f[0])))
    marked = MarkedPreparation(
        circuit=prep.build(), data_register=tuple(d), flag_qubit=f[0],
        alpha=Fraction(1, 2),
    )
    outer = Builder()
    out = parallel_amplify(outer, marked)
    assert not any(q in outer.build().ancilla_qubits for q in out)
    target = np.array([0.0, 1.0], dtype=complex)
    res = check_clean_preparation(outer.build(), target, tuple(out))
    assert res.fidelity > 1 - 1e-9
    assert res.clean


def test_ham_gadget_certifies():
    b = Builder()
    x = b.add_register("x", 2)
    tally = ham_gadget(b, tuple(x), 1)
    assert len(tally) == 2
    report = certify_library_gate("ham", (2, 1), b.build(), tuple(x) + tuple(tally))
    assert report.worst_overlap > 1 - 1e-9


def test_ham_gadget_weight_cap_zero():
    b = Builder()
    x = b.add_register("x", 2)
    tally = ham_gadget(b, tuple(x), 0)
    assert len(tally) == 1
    certify_library_gate("ham", (2, 0), b.build(), tuple(x) + tuple(tally))


def test_custom_threshold_matches_reference():
    n, k = 2, 2
    b = Builder()
    x = b.add_register("x", n)
    sel = b.add_register("sel", k)
    out = b.add_register("out", 1)
    custom_threshold(b, tuple(x), tuple(sel), out[0])
    c = b.build()
    selectors = [0] + [1 << (k - j) for j in range(1, k + 1)]
    for xv in range(2**n):
        for si, sv in enumerate(selectors):
            for ov in (0, 1):
                init = {x[i]: (xv >> (n - 1 - i)) & 1 for i in range(n)}
                init.update({sel[i]: (sv >> (k - 1 - i)) & 1 for i in range(k)})
                init[out[0]] = ov
                state = run(c, initial=init)
                want = ov ^ custom_threshold_predicate(bin(xv).count("1"), si)
                idx = sum(1 << q for q, bit in init.items() if bit)
                idx = (idx & ~(1 << out[0])) | (want << out[0])
                assert abs(abs(state.amplitudes[idx]) ** 2 - 1.0) < 1e-9


def test_custom_threshold_certification_needs_the_right_predicate():
    """The acceptance row certifies against a table over the 48 inputs with
    a clear or one-hot selector; the same circuit fails a table built from
    |x| < j instead of |x| <= j."""
    n, k = 3, 2
    b = Builder()
    x = b.add_register("x", n)
    sel = b.add_register("sel", k)
    out = b.add_register("out", 1)
    custom_threshold(b, tuple(x), tuple(sel), out[0])
    circuit, io = b.build(), tuple(x) + tuple(sel) + tuple(out)
    sem = custom_threshold_semantics(n, k, custom_threshold_predicate)
    assert len(sem.domain) == 48
    report = certify("custom_threshold", (n, k), sem, circuit, io)
    assert report.inputs_checked == 49 and report.worst_overlap > 1 - 1e-9
    strict = custom_threshold_semantics(n, k, lambda xw, j: int(j >= 1 and xw < j))
    with pytest.raises(CertificationError, match="disagrees"):
        certify("custom_threshold", (n, k), strict, circuit, io)


def test_one_hot_gate_round_trip():
    count = 2
    width = library.entry("one_hot").width((count, False)) - count
    b = Builder()
    binary = b.add_register("v", width)
    slots = b.add_register("s", count)
    io = tuple(binary) + tuple(slots)
    b.append(library.make("one_hot", (count, False), io))
    b.append(library.make("one_hot", (count, False), io, inverse=True))
    state = run(b.build(), initial={binary[1]: 1})  # value 1
    idx = 1 << binary[1]
    assert abs(abs(state.amplitudes[idx]) ** 2 - 1.0) < 1e-9


def test_ctrl_state_requires_equal_split():
    b = Builder()
    d = b.add_register("d", 1)
    br = b.add_register("br", 1)
    amps = np.zeros(4, dtype=complex)
    amps[0] = math.sqrt(0.25)
    amps[0b11] = math.sqrt(0.75)
    b.append(library.make("raw_state", (tuple(amps),), (d[0], br[0])))
    with pytest.raises(SimulationError, match="equal split"):
        ctrl_state(b.build(), br[0])


def test_ctrl_state_prepares_branch_under_control():
    b = Builder()
    d = b.add_register("d", 1)
    br = b.add_register("br", 1)
    amps = np.zeros(4, dtype=complex)
    amps[0] = math.sqrt(0.5)
    amps[0b11] = math.sqrt(0.5)
    b.append(library.make("raw_state", (tuple(amps),), (d[0], br[0])))
    controlled, ctrl = ctrl_state(b.build(), br[0])
    off = run(controlled).amplitudes
    assert abs(abs(off[0]) ** 2 - 1.0) < 1e-9
    on = run(controlled, initial={ctrl: 1}).amplitudes
    idx = (1 << ctrl) | (1 << d[0])  # data at |1>, branch cleared, ctrl kept
    assert abs(on[idx].real - 1.0) < 1e-6
    assert abs(on[idx].imag) < 1e-6


def test_ctrl_from_zero_overlap_floor_and_mismatch():
    b = Builder()
    d = b.add_register("d", 2)
    amps = np.zeros(4, dtype=complex)
    amps[0] = math.sqrt(0.5)
    amps[0b01] = amps[0b10] = math.sqrt(0.25)
    b.append(library.make("raw_state", (tuple(amps),), (d[0], d[1])))
    prep = b.build()
    with pytest.raises(CircuitError, match="too extreme"):
        ctrl_from_zero_overlap(prep, tuple(d), 0.001)
    with pytest.raises(SimulationError, match="disagrees"):
        ctrl_from_zero_overlap(prep, tuple(d), 0.4)


def test_ctrl_from_zero_overlap_prepares_rest():
    b = Builder()
    d = b.add_register("d", 2)
    amps = np.zeros(4, dtype=complex)
    amps[0] = math.sqrt(0.5)
    amps[0b01] = amps[0b10] = math.sqrt(0.25)
    b.append(library.make("raw_state", (tuple(amps),), (d[0], d[1])))
    controlled, ctrl = ctrl_from_zero_overlap(b.build(), tuple(d), Fraction(1, 2))
    state = run(controlled, initial={ctrl: 1})
    rest = np.zeros(4, dtype=complex)
    rest[0b01] = rest[0b10] = math.sqrt(0.5)
    expected = np.zeros(2 ** controlled.n_qubits, dtype=complex)
    for local in (0b01, 0b10):
        gidx = (1 << ctrl) | (local >> 1) | ((local & 1) << 1)
        expected[gidx] = math.sqrt(0.5)
    ov = np.vdot(expected, state.amplitudes)
    assert abs(ov) ** 2 > 1 - 1e-9


def test_zero_w_explicit_certifies():
    for n in (1, 2, 3):
        circuit, io = zero_w_explicit(n)
        report = certify_library_gate("zero_w", (n,), circuit, io)
        assert report.worst_overlap > 1 - 1e-9


def test_w_swap_explicit_certifies():
    circuit, io = w_swap_explicit(2, 2)
    report = certify_library_gate("w_swap", (2, 2), circuit, io)
    assert report.worst_overlap > 1 - 1e-9


def test_ctrl_dicke_explicit_certifies():
    circuit, io = ctrl_dicke_explicit(2, 2, (1, 2))
    report = certify_library_gate("ctrl_dicke", (2, 2, (1, 2)), circuit, io)
    assert report.worst_overlap > 1 - 1e-9


def test_prepare_onehot_dist():
    p = (Fraction(1, 4), Fraction(3, 4))
    builder, out = prepare_onehot_dist(p)
    circuit = builder.build()
    target = np.zeros(4, dtype=complex)
    target[0b01] = math.sqrt(0.75)  # second listed slot = lower global qubit
    target[0b10] = math.sqrt(0.25)
    res = check_clean_preparation(circuit, target, tuple(out))
    assert res.fidelity > 1 - 1e-9
    assert res.clean


def test_prepare_onehot_dist_validation():
    with pytest.raises(CircuitError):
        prepare_onehot_dist((0.3, 0.3))


def test_prepare_small_state_with_phases():
    """The output register holds the value big-endian, so the target is amps."""
    amps = (0.5, 0.5j, -0.5, 0.5)
    builder, out = prepare_small_state(amps)
    circuit = builder.build()
    res = check_clean_preparation(circuit, np.asarray(amps, dtype=complex), tuple(out))
    assert res.fidelity > 1 - 1e-9
    assert res.clean


def test_prepare_small_state_validation():
    with pytest.raises(CircuitError):
        prepare_small_state((0.6, 0.8, 0.0))
    with pytest.raises(CircuitError):
        prepare_small_state((1.0, 1.0))
