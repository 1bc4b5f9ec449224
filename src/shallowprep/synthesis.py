"""Top-level state synthesis: damped block states and weighted symmetric
states, with the Dicke state D^n_k as the one-hot case e_k.

One builder, ``build_symmetric``, serves both: draw a one-hot occupancy
record j with probability r_k(j) / R_k (jointly with the weight class k when
eta mixes several weights), spread the weight over j of ell equally sized
blocks with controlled block-level preparations, mark the wanted total
weight, amplify that branch to probability one with exactly computed branch
masses, and uncompute every record register.
"""
from __future__ import annotations

import functools
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
    Number,
    adjust_amplitudes,
    amplify_to_exact,
    ctrl_from_zero_overlap,
    rot_matrix,
)


# ---- analytic target vectors ----


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
    """A built circuit, its cost report, and its target: the state
    sum_k eta[k] |D(n, k)> on the n output qubits."""

    circuit: Circuit
    report: CostReport
    output_qubits: Tuple[int, ...]
    eta: Tuple[complex, ...]
    info: Dict[str, Any] = field(default_factory=dict)

    @functools.cached_property
    def target(self) -> np.ndarray:
        """The dense target vector, built on the first request: cost
        inspection of a large build allocates nothing of size 2^n."""
        return symmetric_vector(len(self.output_qubits), self.eta)


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
    weights = tuple(range(1, k_cap + 1))
    b.append(library.make("ctrl_dicke", (ell, k_cap, weights), tuple(record) + tuple(marks)))
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


# ---- symmetric and Dicke states ----


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
        f"so the builder needs k <= min(ell, n/ell), i.e. k(k-1) < n "
        f"(every k <= sqrt(n) qualifies)"
    )


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


def _divisible(
    b: Builder, data: Sequence[int], eta: Sequence[complex], ell: int
) -> Number:
    """Append the construction on ell blocks dividing the data.

    Returns R, the inverse mass of the marked branch.  A one-hot eta holds
    one weight class k, so the class register and its marking are constant:
    the record is drawn from class k of ``dists.ratio_tables`` as the exact
    Fractions r_k(j) / R_k, one ``exact`` test marks weight k, and R = R_k
    is a Fraction.
    """
    n = len(data)
    k_star = len(eta) - 1
    m = n // ell
    if not 1 <= k_star <= min(ell, m):
        raise CircuitError(
            f"max weight {k_star} needs 1 <= k_star <= min(blocks={ell}, size={m})"
        )
    ratios = dists.ratio_tables(dists.hit_table(m, k_star), ell)
    if not any(eta[:-1]):
        ratios_k = ratios[k_star]
        r_sum = Fraction(*dists.ratio_sum(ratios_k))
        probs = tuple(Fraction(*ratios_k[j]) / r_sum for j in range(1, k_star + 1))
        record = b.new_register("occ", k_star)
        b.append(library.make("onehot_dist", (k_star, probs), tuple(record)))
        marks = _spread_blocks(b, data, record, ell)
        hit = b.new_register("hit", 1)[0]
        b.append(library.make("exact", (n, k_star), tuple(data) + (hit,)))
        amplify_to_exact(b, hit, 1 / r_sum)
        _uncompute_record(b, data, record, marks)
        return r_sum

    r_sum, _ = dists.weighted_ratio_sum(ratios, eta)
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
    amplify_to_exact(b, flag, 1 / r_eff)

    b.append(library.make("ham", (n, k_star - 1), tuple(data) + tuple(classq)))
    _uncompute_record(b, data, record, marks)
    return r_eff


def build_symmetric(
    n: int, eta: Sequence[complex], ell: Optional[int] = None
) -> SynthesisOutput:
    """Prepare sum_k eta[k] |weight-k Dicke state> exactly, ancillas clean.

    ``eta`` lists one complex coefficient per weight 0..k_star and must be
    unit norm.  A one-hot eta is the Dicke state of its weight; its phase is
    global and is dropped.  All weight on 0 or on n is a basis state.  An
    eta whose lowest weight w has n - w < k_star is built reversed (weight
    k as n - k, with the same ``ell``) and every data qubit is flipped.

    Domain: k' = the top weight of the eta that is built needs ell blocks
    with k' <= min(ell, n/ell) (block size rounded up after padding); they
    exist exactly when k'(k'-1) < n, so for every k' <= sqrt(n).  Outside
    it ``default_ell`` raises CircuitError; no mix over all weights 0..n,
    n >= 2, builds.
    """
    target = tuple(complex(x) for x in eta)
    norm = sum(abs(x) ** 2 for x in target)
    if not abs(norm - 1.0) <= 1e-9:
        raise CircuitError(f"weight coefficients have norm {norm}, need 1")
    weights = [k for k, c in enumerate(target) if c != 0]
    k_star = weights[-1]
    target = target[: k_star + 1]
    if k_star > n:
        raise CircuitError(f"max weight {k_star} exceeds qubit count {n}")
    if ell is not None and ell < 1:
        raise CircuitError(f"block count {ell} must be at least 1")
    # a one-hot eta's phase is global, so it is built as e_k, whose integer
    # entries keep its branch masses exact Fractions down to amplify_to_exact
    eta = target if len(weights) > 1 else (0,) * k_star + (1,)

    def output(
        b: Builder, out_qubits: Sequence[int], info: Dict[str, Any]
    ) -> SynthesisOutput:
        circuit = b.build()
        return SynthesisOutput(
            circuit=circuit,
            report=cost(circuit),
            output_qubits=tuple(out_qubits),
            eta=target,
            info=info,
        )

    if k_star == 0 or weights[0] == n:
        b = Builder()
        data = b.add_register("data", n, ancilla=False)
        if k_star:
            b.append_layer([g_x(q) for q in data])
        return output(b, data, {"ell": None, "k_star": k_star})
    if n - weights[0] < k_star:
        inner = build_symmetric(n, (eta + (0,) * (n - k_star))[::-1], ell)
        b = Builder.from_circuit(inner.circuit)
        b.append_layer([g_x(q) for q in inner.output_qubits])
        return output(b, inner.output_qubits, dict(inner.info, complemented=True))
    if ell is None:
        ell = default_ell(n, k_star)
    pair_width = 1 << (2 * _pair_bits(k_star)) if any(eta[:-1]) else 0
    b = Builder(metadata={"fanout_budget": max(k_star + 1, ell, pair_width)})
    data = b.add_register("data", n, ancilla=False)
    info: Dict[str, Any] = {"ell": ell, "k_star": k_star}
    if n % ell == 0:
        info["R"] = _divisible(b, tuple(data), eta, ell)
    else:
        # Pad to n2 qubits: reweight eta_k by 1/sqrt(p0_k), where p0_k is the
        # mass of weight k that leaves the pad clear, and amplify that branch.
        n2 = ell * math.ceil(n / ell)
        pad = b.add_register("pad", n2 - n, ancilla=True)
        p0 = {k: dists.trailing_zero_mass(n, k, n2) for k in weights}
        z_r = sum(abs(eta[k]) ** 2 / p0[k] for k in weights)
        eta2 = tuple(c / math.sqrt(p0[k] * z_r) if c else c for k, c in enumerate(eta))
        info["R"] = _divisible(b, tuple(data) + tuple(pad), eta2, ell)
        flag = b.new_register("padflag", 1)[0]
        b.append(g_nor(tuple(pad), flag))
        amplify_to_exact(b, flag, 1 / z_r)
        info.update({"padded_to": n2, "p0": 1 / z_r})
    return output(b, data, info)


def build_dicke(n: int, k: int, ell: Optional[int] = None) -> SynthesisOutput:
    """Prepare the n-qubit, weight-k Dicke state: ``build_symmetric`` on the
    one-hot e_k, with its domain."""
    if not 0 <= k <= n:
        raise CircuitError(f"weight {k} out of range for {n} qubits")
    return build_symmetric(n, (0,) * k + (1,), ell)
