"""Reusable circuit-building blocks: exact amplification, amplitude
adjustment, tally gadgets, and controlled state preparation.

Amplification here is always exact: a preparation segment is replayed
(forward and inverted) around a reflection so that after a computed number
of rounds the marked branch has probability one, not merely close to one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from . import library
from .circuits import (
    Builder,
    Circuit,
    CircuitError,
    Gate,
    Register,
    cost,
    g_and,
    g_cnot,
    g_ctrl_unitary1,
    g_fanout,
    g_nor,
    g_or,
    g_reflect_zero,
    g_swap,
    g_unitary1,
    g_x,
    g_z,
)
from .simulate import SimulationError, mass_bounds, project, residual_mass, run

Number = Union[Fraction, float]

ANGLE_TOL = 1e-12

# smallest branch mass that amplify_to_exact amplifies
AMPLIFY_FLOOR = 1e-4

# slack on the simulated masses that extract_marked_state and ctrl_state check
MASS_TOL = 1e-9

# ctrl_from_zero_overlap: the zero-branch mass must lie in
# [ZERO_BRANCH_FLOOR, 1 - ZERO_BRANCH_FLOOR] and match the simulated one
# within ZERO_BRANCH_TOL
ZERO_BRANCH_FLOOR = 0.01
ZERO_BRANCH_TOL = 1e-10

ORACLE_MATRIX = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)


def rot_matrix(gamma: float) -> np.ndarray:
    """Hermitian rotation sending |0> to sqrt(gamma)|0> + sqrt(1-gamma)|1>."""
    c = math.sqrt(gamma)
    s = math.sqrt(1.0 - gamma)
    return np.array([[c, s], [s, -c]], dtype=complex)


def reflect_rot_matrix(beta: float) -> np.ndarray:
    """Hermitian rotation sending |1> to sqrt(beta)|1> + sqrt(1-beta)|0>."""
    c = math.sqrt(beta)
    s = math.sqrt(1.0 - beta)
    return np.array([[-c, s], [s, c]], dtype=complex)


@dataclass(frozen=True)
class AmplifyInfo:
    rounds: int
    odd_r: int
    alpha: float
    alpha_target: float
    gamma: Optional[float]


@dataclass(frozen=True)
class MarkedPreparation:
    """A preparation whose flag qubit marks the wanted branch.

    The unflagged branch must be the all-zeros state on the data register
    (and the flag); ``alpha`` is the exact probability of the flag being set.
    """

    circuit: Circuit
    data_register: Tuple[int, ...]
    flag_qubit: int
    alpha: Number


def exact_grover(builder: Builder, flag: int, alpha: Number) -> int:
    """Amplify a branch whose mass is exactly sin^2(pi / (2r)) for odd r.

    Appends (r - 1) / 2 rounds; afterwards the flagged branch has
    probability one.  The flag is left set, not cleared.
    """
    af = float(alpha)
    if not 0.0 < af <= 1.0:
        raise CircuitError(f"branch mass {af} out of range")
    root = math.sqrt(af)
    theta = math.asin(root)
    r_near = round(math.pi / (2.0 * theta))
    candidates = {r_near - 1, r_near, r_near + 1}
    r = None
    for cand in sorted(candidates):
        if cand >= 1 and cand % 2 == 1 and abs(root - math.sin(math.pi / (2 * cand))) <= ANGLE_TOL:
            r = cand
            break
    if r is None:
        raise CircuitError(
            f"branch mass {af} is not an exact rotation angle sin^2(pi/(2r))"
        )
    segment = builder.layers_since(0)
    reflect_qubits = tuple(range(builder.n_qubits))
    rounds = (r - 1) // 2
    for _ in range(rounds):
        builder.append(g_unitary1(flag, ORACLE_MATRIX, label="-Z"))
        builder.replay_inverse(segment, checked=False)
        builder.append(g_reflect_zero(reflect_qubits))
        builder.replay(segment, checked=False)
    builder.record_rounds(rounds, 2 * len(segment) + 2)
    return rounds


def amplify_to_exact(builder: Builder, flag: int, alpha: Number) -> AmplifyInfo:
    """Make the flagged branch certain, for any branch mass above the floor.

    If the mass is not already an exact rotation angle, a fresh qubit is
    rotated inside the flagged branch to shrink the marked mass down to the
    nearest angle sin^2(pi/(2r)), and that qubit becomes the flag.  After
    the rounds, the flag (and the shrink qubit) are deterministically one
    and get cleared with X gates.
    """
    af = float(alpha)
    if not 0.0 < af <= 1.0 + ANGLE_TOL:
        raise CircuitError(f"branch mass {af} out of range")
    af = min(af, 1.0)
    if af < AMPLIFY_FLOOR:
        raise CircuitError(f"branch mass {af} below amplification floor {AMPLIFY_FLOOR}")
    if af >= 1.0 - ANGLE_TOL:
        builder.append(g_x(flag))
        builder.record_rounds(0, 0)
        return AmplifyInfo(rounds=0, odd_r=1, alpha=af, alpha_target=1.0, gamma=None)
    theta = math.asin(math.sqrt(af))
    r = math.ceil(math.pi / (2.0 * theta) - 1e-9)
    if r % 2 == 0:
        r += 1
    while math.pi / (2.0 * r) > theta + ANGLE_TOL:
        r += 2
    target = math.sin(math.pi / (2.0 * r)) ** 2
    gamma: Optional[float] = None
    flags = [flag]
    if abs(target - af) > ANGLE_TOL:
        gamma = target / af
        shrink = builder.new_register("shrink", 1)[0]
        builder.append(g_ctrl_unitary1(flag, shrink, rot_matrix(1.0 - gamma), label="shrink"))
        flags.append(shrink)
    rounds = exact_grover(builder, flags[-1], target)
    builder.append_layer([g_x(q) for q in flags])
    return AmplifyInfo(
        rounds=rounds, odd_r=r, alpha=af, alpha_target=target, gamma=gamma
    )


def adjust_amplitudes(
    builder: Builder,
    slots: Sequence[int],
    alphas: Sequence[Number],
    betas: Sequence[Number],
) -> Number:
    """Rescale one-hot branch masses: branch j goes from alpha_j to
    alpha_j * beta_j / Z, where Z = sum alpha_j beta_j + (1 - sum alpha_j).

    Each listed slot qubit indicates its branch; the branch with no slot set
    keeps relative weight one.  Slots with beta = 1 are left alone.  The
    renormalization is exact via one amplification.
    """
    if len(slots) != len(alphas) or len(slots) != len(betas):
        raise CircuitError("slots, alphas, betas must have equal length")
    if not slots:
        return Fraction(1)
    for b in betas:
        if not 0 <= float(b) <= 1:
            raise CircuitError(f"beta {b} out of [0, 1]")
    total_alpha = sum(alphas, Fraction(0) if isinstance(alphas[0], Fraction) else 0.0)
    if float(total_alpha) > 1 + 1e-9:
        raise CircuitError("branch masses exceed one")
    rotated = [j for j in range(len(slots)) if betas[j] != 1]
    zero_mass = 1 - total_alpha
    z = sum((alphas[j] * betas[j] for j in range(len(slots))), zero_mass * 1)
    if not rotated:
        return z
    ancs = builder.new_register("adj", len(rotated))
    builder.append_layer([g_x(a) for a in ancs])
    builder.append_layer(
        [
            g_ctrl_unitary1(
                slots[j], ancs[i], reflect_rot_matrix(float(betas[j])), label="adjust"
            )
            for i, j in enumerate(rotated)
        ]
    )
    gate_flag = builder.new_register("adjflag", 1)[0]
    builder.append(g_and(tuple(ancs), gate_flag))
    amplify_to_exact(builder, gate_flag, z)
    builder.append_layer([g_x(a) for a in ancs])
    return z


def extract_marked_state(marked: MarkedPreparation) -> np.ndarray:
    """Simulate the preparation once and pull out its (data, flag) state.

    Raises if ancillas are dirty or the unflagged branch is not all zeros.
    """
    state = run(marked.circuit)
    io = tuple(marked.data_register) + (marked.flag_qubit,)
    others = [q for q in range(marked.circuit.n_qubits) if q not in set(io)]
    _, dirt = mass_bounds(math.sqrt(residual_mass(state, others)), state.error_bound)
    if dirt > MASS_TOL:
        raise SimulationError(f"marked preparation leaves ancilla mass {dirt:.3e}")
    vec = project(state, io)
    norm = float(np.real(np.vdot(vec, vec)))
    vec = vec / math.sqrt(norm)
    flagged = float(np.sum(np.abs(vec[1::2]) ** 2))
    if abs(flagged - float(marked.alpha)) > MASS_TOL:
        raise SimulationError(
            f"flag mass {flagged} disagrees with declared alpha {float(marked.alpha)}"
        )
    bad = float(np.sum(np.abs(vec[2::2]) ** 2))
    if bad > MASS_TOL:
        raise SimulationError("unflagged branch of the preparation is not all zeros")
    return vec


def parallel_amplify(
    builder: Builder,
    marked: MarkedPreparation,
    out: Optional[Register] = None,
) -> Register:
    """Obtain the marked data state using parallel copies and one amplification.

    ceil(1/alpha) copies of the preparation run side by side; the branch
    with exactly one flag set is amplified, the lucky copy's data is routed
    to the output block, and the which-copy record is uncomputed.
    """
    alpha = marked.alpha
    if isinstance(alpha, Fraction):
        t = math.ceil(1 / alpha)
        p_star = t * alpha * (1 - alpha) ** (t - 1)
    else:
        t = math.ceil(1.0 / float(alpha) - 1e-12)
        p_star = t * alpha * (1.0 - alpha) ** (t - 1)
    vec = extract_marked_state(marked)
    d = len(marked.data_register)
    report = cost(marked.circuit)
    prep_gate_args = (
        d, tuple(complex(x) for x in vec), alpha, max(1, report.depth), report.max_fanout_width
    )
    copies = [builder.new_register(f"copy{i}_", d + 1) for i in range(t)]
    builder.append_layer(
        [library.make("marked_prep", prep_gate_args, tuple(reg)) for reg in copies]
    )
    flags = [reg[d] for reg in copies]
    h = builder.new_register("onecheck", 2)
    builder.append(library.make("threshold", (t, 1), tuple(flags) + (h[0],)))
    builder.append(library.make("threshold", (t, 2), tuple(flags) + (h[1],)))
    builder.append(g_x(h[1]))
    gate_flag = builder.new_register("oneflag", 1)[0]
    builder.append(g_and((h[0], h[1]), gate_flag))
    amplify_to_exact(builder, gate_flag, p_star)
    builder.append_layer([g_x(h[0]), g_x(h[1])])
    if out is None:
        out = builder.new_register("amp_out", d, ancilla=False)
    elif len(out) != d:
        raise CircuitError("output register size must match the data register")
    qubits: List[int] = list(flags)
    for reg in copies:
        qubits.extend(reg[:d])
    qubits.extend(out)
    builder.append(library.make("w_swap", (t, d), qubits))
    builder.append(library.make("dicke_prep", (t, 1), tuple(flags), inverse=True))
    return out


# ---- tally and selector gadgets ----


def ham_gadget(builder: Builder, x_qubits: Sequence[int], k: int) -> Register:
    """Tally register construction: rows of fanned-out copies feed one layer
    of weight tests, then the copies are uncomputed."""
    n = len(x_qubits)
    if k < 0:
        raise CircuitError("tally cap must be nonnegative")
    rows = builder.new_register("hamrows", n * (k + 1))
    tally = builder.new_register("tally", k + 1)
    fan_layer = [
        g_fanout(x_qubits[i], tuple(rows[j * n + i] for j in range(k + 1)))
        for i in range(n)
    ]
    builder.append_layer(fan_layer)
    tests = []
    for j in range(1, k + 1):
        row = tuple(rows[(j - 1) * n : j * n])
        tests.append(library.make("exact", (n, j), row + (tally[j - 1],)))
    last_row = tuple(rows[k * n : (k + 1) * n])
    tests.append(library.make("threshold", (n, k + 1), last_row + (tally[k],)))
    builder.append_layer(tests)
    builder.append_layer(fan_layer)
    return tally


def custom_threshold(
    builder: Builder,
    x_qubits: Sequence[int],
    selector_qubits: Sequence[int],
    out_qubit: int,
) -> None:
    """Flip the output iff the one-hot selector picks j and |x| <= j.

    An all-clear selector never flips the output.  Inputs are restored.
    """
    n = len(x_qubits)
    k = len(selector_qubits)
    if k < 1:
        raise CircuitError("selector register must be nonempty")
    rows = builder.new_register("selrows", n * k)
    fan_layer = [
        g_fanout(x_qubits[i], tuple(rows[j * n + i] for j in range(k)))
        for i in range(n)
    ]
    ladder = builder.new_register("ladder", k)
    matches = builder.new_register("selmatch", k)

    def thr_layer():
        return [
            library.make(
                "threshold", (n, j + 2), tuple(rows[j * n : (j + 1) * n]) + (ladder[j],)
            )
            for j in range(k)
        ]

    def x_layer():
        return [g_x(ladder[j]) for j in range(k)]

    def match_layer():
        return [
            g_and((ladder[j], selector_qubits[j]), matches[j]) for j in range(k)
        ]

    builder.append_layer(fan_layer)
    builder.append_layer(thr_layer())
    builder.append_layer(x_layer())
    builder.append_layer(match_layer())
    builder.append(g_or(tuple(matches), out_qubit))
    builder.append_layer(match_layer())
    builder.append_layer(x_layer())
    builder.append_layer(thr_layer())
    builder.append_layer(fan_layer)


def custom_threshold_predicate(x_weight: int, selector_index: int) -> int:
    """Reference map: 1 iff a slot j >= 1 is selected and the weight is <= j."""
    return int(selector_index >= 1 and x_weight <= selector_index)


# ---- controlled circuits and controlled state preparation ----


def ctrl_state(prep: Circuit, branch_qubit: int) -> Tuple[Circuit, int]:
    """Turn an equal-superposition preparation into a controlled preparation.

    ``prep`` must produce (|0...0>|0>_b + |phi>|1>_b) / sqrt(2) with a real
    positive amplitude on the all-zeros branch.  The result has one fresh
    control qubit: with it clear nothing happens, with it set the other
    qubits become |phi> and the branch qubit ends clear.
    """
    state = run(prep)
    amp0 = project(state, ())[0]
    # the mass with the branch qubit clear, for the exact state
    low, high = mass_bounds(
        math.sqrt(1.0 - residual_mass(state, [branch_qubit])), state.error_bound
    )
    if low < 0.5 - MASS_TOL or high > 0.5 + MASS_TOL or abs(amp0 - math.sqrt(0.5)) > 1e-6:
        raise SimulationError(
            "controlled preparation needs an equal split with a real positive "
            "all-zeros branch"
        )
    b = Builder.from_circuit(replace(prep, layers=()))
    x = b.new_register("ctrl_in", 1, ancilla=False)[0]
    segment: List[Tuple[Gate, ...]] = list(prep.layers)
    segment.append((g_x(x),))
    segment.append((g_cnot(branch_qubit, x),))
    segment.append((g_z(branch_qubit),))
    b.replay_inverse(segment, checked=False)
    b.append(g_reflect_zero(tuple(range(b.n_qubits))))
    b.replay(segment, checked=False)
    b.append(g_swap(x, branch_qubit))
    return b.build(), x


def ctrl_from_zero_overlap(
    prep: Circuit,
    data_qubits: Sequence[int],
    alpha: Number,
) -> Tuple[Circuit, int]:
    """Controlled preparation of the nonzero part of a state.

    ``prep`` produces sqrt(alpha)|0...0> + sqrt(1-alpha)|rest> on the data
    register, with |rest> supported on nonzero strings.  The result prepares
    |rest> under a fresh control.  Works by rebalancing to an equal split,
    then delegating to the reflection construction.
    """
    af = float(alpha)
    if af < ZERO_BRANCH_FLOOR or af > 1.0 - ZERO_BRANCH_FLOOR:
        raise CircuitError(
            f"zero-branch mass {af} too extreme (floor {ZERO_BRANCH_FLOOR} on both sides)"
        )
    state = run(prep)
    delta = state.error_bound
    amp0 = project(state, ())[0]
    low, high = mass_bounds(amp0, delta)
    if low < af - ZERO_BRANCH_TOL or high > af + ZERO_BRANCH_TOL:
        raise SimulationError(
            f"prepared zero-branch mass {abs(amp0)**2:.12f} disagrees with alpha {af}"
        )
    if abs(amp0.imag) > 1e-9 or amp0.real <= 0:
        raise SimulationError("zero-branch amplitude must be real positive")
    others = [q for q in range(prep.n_qubits) if q not in set(data_qubits)]
    if mass_bounds(math.sqrt(residual_mass(state, others)), delta)[1] > 1e-9:
        raise SimulationError("preparation ancillas are dirty")
    b = Builder.from_circuit(prep)
    a = b.new_register("halfflag", 1)[0]
    scratch = b.new_register("orscratch", 1)[0]
    b.append(g_x(a))
    small = af <= 0.5
    if small:
        ratio = af / (1.0 - af)
        marked = 2 * alpha if isinstance(alpha, Fraction) else 2.0 * af
        b.append(g_or(tuple(data_qubits), scratch))
    else:
        ratio = (1.0 - af) / af
        marked = 2 * (1 - alpha) if isinstance(alpha, Fraction) else 2.0 * (1.0 - af)
        b.append(g_nor(tuple(data_qubits), scratch))
    b.append(g_ctrl_unitary1(scratch, a, reflect_rot_matrix(ratio), label="rebalance"))
    if small:
        b.append(g_or(tuple(data_qubits), scratch))
    else:
        b.append(g_nor(tuple(data_qubits), scratch))
    amplify_to_exact(b, a, marked)
    branch = b.new_register("branch", 1)[0]
    b.append(g_or(tuple(data_qubits), branch))
    return ctrl_state(b.build(), branch)


# ---- one-hot controlled constructions ----


def ctrl_dicke_explicit(
    ell: int, slots: int, weights: Sequence[int]
) -> Tuple[Circuit, Tuple[int, ...]]:
    """Explicit form of the one-hot controlled Dicke preparation.

    Each slot's control drives its own staging block (slot i prepares
    weight ``weights[i]``), and the block picked by the one-hot pattern is
    routed to the shared output.
    """
    b = Builder()
    sel = b.add_register("sel", slots)
    stage = [b.add_register(f"stage{i}", ell, ancilla=True) for i in range(slots)]
    out = b.add_register("dout", ell)
    b.append_layer(
        [
            library.make("dicke_prep", (ell, weights[i]), tuple(stage[i])).with_params(
                ctrl=sel[i]
            )
            for i in range(slots)
        ]
    )
    qubits: List[int] = list(sel)
    for reg in stage:
        qubits.extend(reg)
    qubits.extend(out)
    b.append(library.make("w_swap", (slots, ell), qubits))
    return b.build(), tuple(sel) + tuple(out)


def w_swap_explicit(t: int, s: int) -> Tuple[Circuit, Tuple[int, ...]]:
    """Sequential controlled-swap realization of the block router."""
    b = Builder()
    sel = b.add_register("sel", t)
    blocks = [b.add_register(f"block{i}", s) for i in range(t)]
    out = b.add_register("target", s)
    for i in range(t):
        for j in range(s):
            b.append(g_swap(blocks[i][j], out[j]).with_params(ctrl=sel[i]))
    io: List[int] = list(sel)
    for reg in blocks:
        io.extend(reg)
    io.extend(out)
    return b.build(), tuple(io)


def zero_w_explicit(n: int) -> Tuple[Circuit, Tuple[int, ...]]:
    """Explicit preparation of half zero, half uniform one-hot mass.

    A product rotation puts each qubit at hot probability 1/(n+1), which
    makes the zero and weight-one classes equally likely; the weight cap is
    then enforced by exact amplification and the tally is uncomputed.
    """
    b = Builder()
    data = b.add_register("wdata", n)
    gamma = n / (n + 1.0)
    b.append_layer([g_unitary1(q, rot_matrix(gamma), label="seed") for q in data])
    tally = b.new_register("tally", 2)
    b.append(library.make("ham", (n, 1), tuple(data) + tuple(tally)))
    b.append(g_x(tally[1]))
    keep = Fraction(2 * n**n, (n + 1) ** n)
    amplify_to_exact(b, tally[1], keep)
    b.append(library.make("ham", (n, 1), tuple(data) + tuple(tally)))
    return b.build(), tuple(data)


def prepare_onehot_dist(p: Sequence[Number]) -> Tuple[Builder, Register]:
    """Prepare sum_i sqrt(p_i) |slot i hot> over len(p) slots, ancillas clean.

    The distribution is staged on a half-zero seed, rebalanced branch by
    branch, compressed to binary, boosted by parallel copies, and expanded
    back to one-hot form.
    """
    count = len(p)
    if count < 1:
        raise CircuitError("need at least one slot")
    total = sum(float(x) for x in p)
    if abs(total - 1.0) > 1e-9:
        raise CircuitError("slot probabilities must sum to one")

    stage = Builder()
    slots = stage.add_register("slots", count, ancilla=True)
    stage.append(library.make("zero_w", (count,), tuple(slots)))
    flag = stage.add_register("flag", 1)[0]
    stage.append(g_nor(tuple(slots), flag))
    half = Fraction(1, 2)
    adjust_amplitudes(
        stage,
        list(slots) + [flag],
        [Fraction(1, 2 * count)] * count + [half],
        list(p) + [1],
    )
    width = library.entry("one_hot").width((count, False)) - count
    binary = stage.add_register("value", width)
    stage.append(
        library.make("one_hot", (count, False), tuple(binary) + tuple(slots), inverse=True)
    )
    stage.append(g_x(flag))
    marked = MarkedPreparation(
        circuit=stage.build(),
        data_register=tuple(binary),
        flag_qubit=flag,
        alpha=Fraction(1, count + 1),
    )

    builder = Builder()
    carried = builder.new_register("pdata", width)
    parallel_amplify(builder, marked, out=carried)
    out = builder.new_register("onehot_out", count, ancilla=False)
    builder.append(library.make("one_hot", (count, False), tuple(carried) + tuple(out)))
    return builder, out


def prepare_small_state(amps: Sequence[complex]) -> Tuple[Builder, Register]:
    """Prepare an arbitrary state on log2(len(amps)) qubits, ancillas clean.

    Magnitudes ride on the one-hot distribution preparation; phases are
    painted on the hot slots; the one-hot pattern is then compressed to
    binary on the output register.
    """
    # the declared semantics of small_state check the length and the norm
    library.semantics("small_state", (tuple(amps),))
    size = len(amps)
    vec = np.asarray(amps, dtype=complex)
    builder = Builder()
    probs = tuple(float(abs(a)) ** 2 for a in vec)
    slots = builder.new_register("valslots", size)
    builder.append(library.make("onehot_dist", (size, probs), tuple(slots)))
    phase_gates = []
    for v in range(size):
        if abs(vec[v]) < 1e-12:
            continue
        phi = math.atan2(vec[v].imag, vec[v].real)
        if abs(phi) < 1e-15:
            continue
        mat = np.array([[1.0, 0.0], [0.0, complex(math.cos(phi), math.sin(phi))]])
        phase_gates.append(g_unitary1(slots[v], mat, label="phase"))
    if phase_gates:
        builder.append_layer(phase_gates)
    width = library.entry("one_hot").width((size, True)) - size
    out = builder.new_register("smallout", width, ancilla=False)
    builder.append(
        library.make("one_hot", (size, True), tuple(out) + tuple(slots), inverse=True)
    )
    return builder, out
