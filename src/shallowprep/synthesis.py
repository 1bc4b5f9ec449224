"""Top-level state synthesis: damped block states, Dicke states for
arbitrary (n, k), and weighted symmetric states.

The common scheme: draw a one-hot occupancy record j with probability
r_k(j) / R_k, spread the weight over j of ell equally sized blocks with
controlled block-level preparations, mark the wanted total weight, amplify
that branch to probability one with exactly computed branch masses, and
uncompute every record register.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from . import dists, library
from .circuits import (
    Builder,
    Circuit,
    CircuitError,
    CostReport,
    Register,
    cost,
    g_and,
    g_nor,
    g_or,
    g_unitary1,
    g_x,
)
from .primitives import (
    adjust_amplitudes,
    amplify_to_exact,
    append_ctrl_dicke,
    ctrl_from_zero_overlap,
    rot_matrix,
)


# ---- analytic target vectors ----


dicke_vector = library.dicke_column


def symmetric_vector(n: int, eta: Sequence[complex]) -> np.ndarray:
    """The weighted Dicke combination with weight-k coefficient eta[k]."""
    per_weight = np.zeros(n + 1, dtype=complex)
    for k, coeff in enumerate(eta):
        if coeff != 0:
            per_weight = per_weight + complex(coeff) * library.dicke_amplitudes(n, k)
    return per_weight[library.hamming_weights(n)]


# ---- output container ----


@dataclass
class SynthesisOutput:
    """A built circuit, its cost report, and the analytic target.

    The target vector is produced lazily: cost inspection of large builds
    must not force a 2^n-sized allocation.
    """

    circuit: Circuit
    report: CostReport
    output_qubits: Tuple[int, ...]
    info: Dict[str, Any] = field(default_factory=dict)
    _target_fn: Any = None
    _target_cache: Optional[np.ndarray] = None

    @property
    def target(self) -> np.ndarray:
        if self._target_cache is None:
            if self._target_fn is None:
                raise CircuitError("no analytic target attached")
            self._target_cache = self._target_fn()
        return self._target_cache


# ---- damped block state ----


def prepare_zero_damped(m: int, k: int) -> Tuple[Circuit, Tuple[int, ...], Fraction]:
    """Superpose the all-zeros block with the damped-weight block state.

    Returns (circuit, data qubits, gamma) where gamma is the exact mass of
    the damped part: a product of hot-probability-1/m rotations is
    truncated to weight <= k, the per-weight masses are rescaled to the
    damped profile, and the weight tally is uncomputed.
    """
    if m < 2:
        raise CircuitError("block size must be at least 2 (size 1 is a bare copy)")
    if not 1 <= k <= m:
        raise CircuitError(f"weight cap {k} out of range for block size {m}")
    b = Builder()
    data = b.add_register("damp", m, ancilla=False)
    b.append_layer([g_unitary1(q, rot_matrix(1.0 - 1.0 / m), label="seed") for q in data])
    tally = b.new_register("wtally", k + 1)
    ham_gate = library.make("ham", (m, k), tuple(data) + tuple(tally))
    b.append(ham_gate)
    b.append(g_x(tally[k]))
    keep = dists.damped_truncation_mass(m, k)
    amplify_to_exact(b, tally[k], keep)
    dist = dists.damped_binomial(m, k)
    alphas = [dists.binomial_pmf(m, Fraction(1, m), j) / keep for j in range(1, k + 1)]
    betas = [dist.s[j - 1] / (4 * alphas[j - 1]) for j in range(1, k + 1)]
    for j, beta in enumerate(betas, start=1):
        if beta > 1:
            raise CircuitError(
                f"damped weight {j} mass exceeds four times its binomial mass"
            )
    z = adjust_amplitudes(b, list(tally[:k]), alphas, betas)
    gamma = Fraction(1, 4) / z
    b.append(ham_gate)
    return b.build(), tuple(data), gamma


def ctrl_damped_explicit(m: int, k: int) -> Tuple[Circuit, Tuple[int, ...]]:
    """Explicit controlled damped-block preparation, control listed first."""
    if m == 1:
        b = Builder()
        ctrl = b.add_register("ctrl_in", 1, ancilla=False)
        data = b.add_register("damp", 1, ancilla=False)
        b.append(g_and((ctrl[0],), data[0]))
        return b.build(), (ctrl[0], data[0])
    prep, data, gamma = prepare_zero_damped(m, k)
    circuit, ctrl = ctrl_from_zero_overlap(prep, data, 1 - gamma)
    return circuit, (ctrl,) + tuple(data)


# ---- block distribution ----


def _block(qubits: Sequence[int], i: int, m: int) -> Tuple[int, ...]:
    return tuple(qubits[i * m : (i + 1) * m])


def _spread_blocks(
    b: Builder, data: Sequence[int], record: Register, ell: int
) -> Register:
    """Spread weight over the ell blocks of the data register.

    The one-hot record (slot j hot for j occupied blocks) picks j of the
    bucket markers uniformly, each marked block gets a nonzero damped sample
    capped at len(record), and an OR of each block then clears its marker.
    Returns the clean marker register, which ``_uncompute_record`` reuses.
    """
    k_cap = len(record)
    m = len(data) // ell
    marks = b.new_register("bucket", ell)
    append_ctrl_dicke(b, record, marks, weights=range(1, k_cap + 1))
    b.append_layer(
        [
            library.make("ctrl_damped", (m, k_cap), (marks[i],) + _block(data, i, m))
            for i in range(ell)
        ]
    )
    b.append_layer([g_or(_block(data, i, m), marks[i]) for i in range(ell)])
    return marks


def _uncompute_record(
    b: Builder, data: Sequence[int], record: Register, marks: Register
) -> None:
    """Clear the one-hot occupancy record using the block markers."""
    ell = len(marks)
    m = len(data) // ell
    or_layer = [g_or(_block(data, i, m), marks[i]) for i in range(ell)]
    b.append_layer(or_layer)
    b.append(
        library.make("ham", (ell, len(record) - 1), tuple(marks) + tuple(record))
    )
    b.append_layer(or_layer)


# ---- Dicke states ----


def default_ell(n: int, k: int) -> int:
    """Pick a block count: the largest divisor of n in [k, k^3] leaving
    blocks of size >= k, else the largest non-divisor value workable with
    padding."""
    best = 0
    for ell in range(k, min(k**3, n) + 1):
        if n % ell == 0 and n // ell >= k:
            best = max(best, ell)
    if best:
        return best
    for ell in range(min(k**3, n), k - 1, -1):
        if math.ceil(n / ell) >= k:
            return ell
    raise CircuitError(
        f"no workable block count for n={n}, k={k}; blocks must hold {k} ones, "
        f"so the builders need k <= min(ell, n/ell), i.e. k(k-1) < n "
        f"(every k <= sqrt(n) qualifies)"
    )


def _check_ell(ell: Optional[int]) -> None:
    if ell is not None and ell < 1:
        raise CircuitError(f"block count {ell} must be at least 1")


def _dicke_divisible(b: Builder, data: Sequence[int], k: int, ell: int) -> None:
    """Append the weight-k Dicke construction on ell blocks dividing the data.

    The record is drawn from class k of ``dists.ratio_tables``: slot j with
    probability r_k(j) / R_k, as reduced Fractions.  The weight-k branch of
    the spread then has mass exactly 1 / R_k.
    """
    n = len(data)
    m = n // ell
    if not 1 <= k <= min(ell, m):
        raise CircuitError(
            f"weight {k} needs 1 <= k <= min(blocks={ell}, block size={m})"
        )
    ratios = dists.ratio_tables(dists.hit_table(m, k), ell)[k]
    r_sum = Fraction(*dists.ratio_sum(ratios))
    probs = tuple(Fraction(*ratios[j]) / r_sum for j in range(1, k + 1))
    record = b.new_register("occ", k)
    b.append(library.make("onehot_dist", (k, probs), tuple(record)))
    marks = _spread_blocks(b, data, record, ell)
    hit = b.new_register("hit", 1)[0]
    b.append(library.make("exact", (n, k), tuple(data) + (hit,)))
    amplify_to_exact(b, hit, 1 / r_sum)
    _uncompute_record(b, data, record, marks)


def build_dicke(n: int, k: int, ell: Optional[int] = None) -> SynthesisOutput:
    """Prepare the n-qubit, weight-k Dicke state exactly, ancillas clean.

    Domain: k' = min(k, n - k) needs ell blocks with k' <= min(ell, n/ell)
    (block size rounded up after padding); they exist exactly when
    k'(k'-1) < n, so for every k' <= sqrt(n).  Outside it ``default_ell``
    raises CircuitError.
    """
    if not 0 <= k <= n:
        raise CircuitError(f"weight {k} out of range for {n} qubits")
    _check_ell(ell)
    if k == 0 or k == n:
        b = Builder()
        data = b.add_register("data", n, ancilla=False)
        if k == n:
            b.append_layer([g_x(q) for q in data])
        circuit = b.build()
        return SynthesisOutput(
            circuit=circuit,
            report=cost(circuit),
            output_qubits=tuple(data),
            info={"ell": None},
            _target_fn=lambda: dicke_vector(n, k),
        )
    if k > n - k and ell is None:
        inner = build_dicke(n, n - k)
        b = Builder.from_circuit(inner.circuit)
        b.append_layer([g_x(q) for q in inner.output_qubits])
        circuit = b.build()
        return SynthesisOutput(
            circuit=circuit,
            report=cost(circuit),
            output_qubits=inner.output_qubits,
            info=dict(inner.info, complemented=True),
            _target_fn=lambda: dicke_vector(n, k),
        )
    if ell is None:
        ell = default_ell(n, k)
    b = Builder(metadata={"fanout_budget": max(k + 1, ell)})
    info: Dict[str, Any] = {"ell": ell}
    if n % ell == 0:
        data = b.add_register("data", n, ancilla=False)
        _dicke_divisible(b, data, k, ell)
        out_qubits = tuple(data)
    else:
        n2 = ell * math.ceil(n / ell)
        data = b.add_register("data", n, ancilla=False)
        pad = b.add_register("pad", n2 - n, ancilla=True)
        _dicke_divisible(b, tuple(data) + tuple(pad), k, ell)
        flag = b.new_register("padflag", 1)[0]
        b.append(g_nor(tuple(pad), flag))
        p0 = dists.trailing_zero_mass(n, k, n2)
        amplify_to_exact(b, flag, p0)
        out_qubits = tuple(data)
        info.update({"padded_to": n2, "p0": p0})
    circuit = b.build()
    return SynthesisOutput(
        circuit=circuit,
        report=cost(circuit),
        output_qubits=out_qubits,
        info=info,
        _target_fn=lambda: dicke_vector(n, k),
    )


# ---- weighted symmetric states ----


def _pair_bits(k_star: int) -> int:
    """Binary half-width of the packed (weight class, occupancy) index."""
    return library.entry("one_hot").width((k_star, False)) - k_star


def _pair_amplitudes(
    ratios: Dict[int, Dict[int, Tuple[int, int]]], eta: Sequence[complex], r_eff: float
) -> np.ndarray:
    """Amplitudes over packed (weight class, occupancy) pairs.

    Pair (k, j) sits at flat index k * 2^bits + j; the k = 0 branch is the
    (0, 0) slot.  Squared masses are |eta_k|^2 p_k(j) / (q_k(j) R) for
    k >= 1 and |eta_0|^2 / R, with the per-bucket samples capped at the
    largest weight class; ``ratios`` is the point's ``dists.ratio_tables``,
    whose (num, den) pairs become floats by the one correctly rounded
    division ``num / den``.
    """
    k_star = len(eta) - 1
    bits = _pair_bits(k_star)
    vec = np.zeros(2 ** (2 * bits), dtype=complex)
    vec[0] = complex(eta[0]) / math.sqrt(r_eff)
    for k, per_class in ratios.items():
        if eta[k] == 0:
            continue
        for j, (num, den) in per_class.items():
            vec[(k << bits) | j] = complex(eta[k]) * math.sqrt(num / den / r_eff)
    return vec / np.linalg.norm(vec)


def _symmetric_divisible(
    b: Builder, data: Sequence[int], eta: Sequence[complex], ell: int
) -> float:
    """Append the weighted-symmetric construction; returns the ratio sum."""
    n = len(data)
    k_star = len(eta) - 1
    m = n // ell
    if not 1 <= k_star <= min(ell, m):
        raise CircuitError(
            f"max weight {k_star} needs 1 <= k_star <= min(blocks={ell}, size={m})"
        )
    ratios = dists.ratio_tables(dists.hit_table(m, k_star), ell)
    r_sum, _ = dists.weighted_ratio_sum(ratios, ell, eta)
    r_eff = r_sum + abs(complex(eta[0])) ** 2
    bits = _pair_bits(k_star)
    vec = _pair_amplitudes(ratios, eta, r_eff)
    pair = b.new_register("pairbits", 2 * bits)
    b.append(library.make("small_state", (tuple(vec),), tuple(pair)))
    classq = b.new_register("wclass", k_star)
    record = b.new_register("occ", k_star)
    b.append_layer(
        [
            library.make(
                "one_hot", (k_star, False), tuple(pair[:bits]) + tuple(classq)
            ),
            library.make(
                "one_hot", (k_star, False), tuple(pair[bits:]) + tuple(record)
            ),
        ]
    )
    marks = _spread_blocks(b, data, record, ell)

    # Weight marking: branch k must hold exactly k ones; the zero branch is
    # identified by its clear class register.
    scratch = b.new_register("wtest", 1)[0]
    zmarks = b.new_register("zmark", k_star + 1)
    for k in range(1, k_star + 1):
        test = library.make("exact", (n, k), tuple(data) + (scratch,))
        b.append(test)
        b.append(g_and((scratch, classq[k - 1]), zmarks[k]))
        b.append(test)
    b.append(g_nor(tuple(classq), zmarks[0]))
    flag = b.new_register("goal", 1)[0]
    b.append(g_or(tuple(zmarks), flag))
    b.append(g_nor(tuple(classq), zmarks[0]))
    for k in range(k_star, 0, -1):
        test = library.make("exact", (n, k), tuple(data) + (scratch,))
        b.append(test)
        b.append(g_and((scratch, classq[k - 1]), zmarks[k]))
        b.append(test)
    amplify_to_exact(b, flag, 1.0 / r_eff)

    b.append(library.make("ham", (n, k_star - 1), tuple(data) + tuple(classq)))
    _uncompute_record(b, data, record, marks)
    return r_eff


def build_symmetric(
    n: int, eta: Sequence[complex], ell: Optional[int] = None
) -> SynthesisOutput:
    """Prepare sum_k eta[k] |weight-k Dicke state> exactly, ancillas clean.

    ``eta`` lists one complex coefficient per weight 0..k_star and must be
    unit norm.  Domain: as for ``build_dicke``, with k' the top weight that
    has a nonzero coefficient, so no mix over all weights 0..n, n >= 2,
    builds.
    """
    eta = tuple(complex(x) for x in eta)
    norm = sum(abs(x) ** 2 for x in eta)
    if not abs(norm - 1.0) <= 1e-9:
        raise CircuitError(f"weight coefficients have norm {norm}, need 1")
    while len(eta) > 1 and eta[-1] == 0:
        eta = eta[:-1]
    k_star = len(eta) - 1
    if k_star > n:
        raise CircuitError(f"max weight {k_star} exceeds qubit count {n}")
    _check_ell(ell)
    if k_star == 0:
        b = Builder()
        data = b.add_register("data", n, ancilla=False)
        circuit = b.build()
        return SynthesisOutput(
            circuit=circuit,
            report=cost(circuit),
            output_qubits=tuple(data),
            info={"k_star": 0},
            _target_fn=lambda: symmetric_vector(n, eta),
        )
    if ell is None:
        ell = default_ell(n, k_star)
    pair_width = 1 << (2 * _pair_bits(k_star))
    b = Builder(metadata={"fanout_budget": max(k_star + 1, ell, pair_width)})
    info: Dict[str, Any] = {"ell": ell, "k_star": k_star}
    if n % ell == 0:
        data = b.add_register("data", n, ancilla=False)
        r_eff = _symmetric_divisible(b, tuple(data), eta, ell)
        out_qubits = tuple(data)
        info["R"] = r_eff
    else:
        n2 = ell * math.ceil(n / ell)
        data = b.add_register("data", n, ancilla=False)
        pad = b.add_register("pad", n2 - n, ancilla=True)
        p0 = [dists.trailing_zero_mass(n, k, n2) for k in range(k_star + 1)]
        z_r = sum(abs(eta[k]) ** 2 / float(p0[k]) for k in range(k_star + 1))
        eta2 = tuple(
            eta[k] / math.sqrt(float(p0[k]) * z_r) for k in range(k_star + 1)
        )
        r_eff = _symmetric_divisible(b, tuple(data) + tuple(pad), eta2, ell)
        flag = b.new_register("padflag", 1)[0]
        b.append(g_nor(tuple(pad), flag))
        amplify_to_exact(b, flag, 1.0 / z_r)
        out_qubits = tuple(data)
        info.update({"padded_to": n2, "R": r_eff, "Z": z_r})
    circuit = b.build()
    return SynthesisOutput(
        circuit=circuit,
        report=cost(circuit),
        output_qubits=out_qubits,
        info=info,
        _target_fn=lambda: symmetric_vector(n, eta),
    )
