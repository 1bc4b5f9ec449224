"""Reference computations the benchmark checks the program against.

Everything here is worked out from the definitions (binomial counts,
popcounts, the sweep grid, structural equality) without calling into
``shallowprep``, so a fault in the program cannot hide inside its own check.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

CLAIM_IDS = (
    "normalizer-bounds",
    "binomial-domination",
    "slice-uniformity",
    "occupancy-ratio-bound",
    "hit-floor",
    "ratio-sum-bound",
    "damping-lower-bound",
)


def popcounts(width: int) -> np.ndarray:
    """Number of set bits of every index in 0 .. 2^width - 1."""
    idx = np.arange(2**width, dtype=np.int64)
    counts = np.zeros(idx.shape, dtype=np.int64)
    for b in range(width):
        counts += (idx >> b) & 1
    return counts


def dicke_amplitudes(n: int, k: int) -> np.ndarray:
    """Weight-k Dicke state on n qubits: 1/sqrt(C(n, k)) on each weight-k index."""
    vec = np.zeros(2**n, dtype=complex)
    vec[popcounts(n) == k] = 1.0 / math.sqrt(math.comb(n, k))
    return vec


def symmetric_amplitudes(n: int, eta: Sequence[complex]) -> np.ndarray:
    """sum_k eta[k] |D(n, k)>, built weight class by weight class."""
    weights = popcounts(n)
    vec = np.zeros(2**n, dtype=complex)
    for k, coeff in enumerate(eta):
        vec[weights == k] = complex(coeff) / math.sqrt(math.comb(n, k))
    return vec


def ham_table(n: int, k: int) -> np.ndarray:
    """Basis map of the tally gate ham(n, k) on n + k + 1 qubits.

    The first n qubits (the high bits) hold x and are left alone.  When
    |x| >= 1, the k + 1 tally qubits get the one-hot pattern of slot
    j = min(k + 1, |x|) XORed in, where slot 1 is the highest tally bit.
    """
    tally = k + 1
    idx = np.arange(2 ** (n + tally), dtype=np.int64)
    hx = np.zeros(idx.shape, dtype=np.int64)
    for b in range(n):
        hx += (idx >> (tally + b)) & 1
    slot = np.minimum(tally, hx)
    flip = np.where(hx >= 1, np.left_shift(1, tally - np.maximum(slot, 1)), 0)
    return idx ^ flip


def certified_inputs(domain_size: int) -> int:
    """Runs a certification makes: each domain input, plus one superposition
    probe when the domain has more than one input."""
    return domain_size + (1 if domain_size > 1 else 0)


def claim_point_counts(
    m_values: Sequence[int], k_max: int, enumeration_budget: int = 20
) -> Dict[str, int]:
    """Grid points per claim: every (m, k) with 1 <= k <= min(m, k_max) for
    six claims, and every (m, k, j) with j <= k and m * j within the
    enumeration budget for slice uniformity."""
    counts = {c: 0 for c in CLAIM_IDS}
    for m in sorted(set(m_values)):
        for k in range(1, min(m, k_max) + 1):
            for c in CLAIM_IDS:
                if c != "slice-uniformity":
                    counts[c] += 1
            counts["slice-uniformity"] += sum(
                1 for j in range(1, k + 1) if m * j <= enumeration_budget
            )
    return counts


# ---- structural equality of circuits ----


def _same(a: Any, b: Any) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(np.asarray(a), np.asarray(b))
    if isinstance(a, Fraction) or isinstance(b, Fraction):
        return type(a) is type(b) and a == b
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, Mapping) and isinstance(b, Mapping):
        return set(a) == set(b) and all(_same(a[key], b[key]) for key in a)
    return a == b


def circuit_difference(a: Any, b: Any) -> Optional[str]:
    """First structural difference between two circuits, or None if equal.

    Compares registers, metadata and every gate (kind, qubits, parameters);
    matrices must match bit for bit, fractions must stay fractions.
    """
    regs_a = [(r.name, tuple(r.qubits), bool(r.ancilla)) for r in a.registers]
    regs_b = [(r.name, tuple(r.qubits), bool(r.ancilla)) for r in b.registers]
    if regs_a != regs_b:
        return "registers differ"
    if not _same(dict(a.metadata), dict(b.metadata)):
        return "metadata differs"
    if len(a.layers) != len(b.layers):
        return f"layer count {len(a.layers)} != {len(b.layers)}"
    for i, (la, lb) in enumerate(zip(a.layers, b.layers)):
        if len(la) != len(lb):
            return f"layer {i} gate count {len(la)} != {len(lb)}"
        for j, (ga, gb) in enumerate(zip(la, lb)):
            if (ga.kind, tuple(ga.targets), tuple(ga.controls)) != (
                gb.kind,
                tuple(gb.targets),
                tuple(gb.controls),
            ):
                return f"layer {i} gate {j} differs in kind or qubits"
            if not _same(dict(ga.params), dict(gb.params)):
                return f"layer {i} gate {j} ({ga.kind}) differs in parameters"
    return None


def ladder_violations(
    rows: Sequence[Tuple[int, int, int, int]], k: int, ell: int
) -> List[str]:
    """Check a fixed-(k, ell) ladder of (n, layers, max_fanout, depth) rows.

    Layer count, fanout width and declared depth must not depend on n, and
    the fanout must stay within max(k + 1, ell).
    """
    problems: List[str] = []
    if not rows:
        return ["empty ladder"]
    first = rows[0]
    cap = max(k + 1, ell)
    for n, layers, fan, depth in rows:
        if (layers, fan, depth) != first[1:]:
            problems.append(
                f"n={n}: (layers, fanout, depth) = {(layers, fan, depth)} "
                f"but n={first[0]} gives {first[1:]}"
            )
        if fan > cap:
            problems.append(f"n={n}: fanout {fan} exceeds max(k+1, ell) = {cap}")
    return problems
