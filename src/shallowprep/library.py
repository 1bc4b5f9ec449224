"""Library gate registry: declared semantics, completions, costs, codecs.

A library gate is an opaque unit inside a circuit.  Each tag declares
- its qubit width and the basis inputs on which its action is promised
  (the domain),
- the action itself, either a permutation of basis states or a set of
  output columns,
- a depth and fanout width charged by the cost model,
- an argument codec for JSON interchange.

The simulator applies library gates through these semantics; explicit
gate-level constructions are certified against them separately.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb, log2
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import dists
from .circuits import CircuitError, Gate, g_library, register_library_codec

ATOL = 1e-9
# singular values below this count as zero when spanning declared columns
_RANK_TOL = 1e-12


@dataclass(frozen=True)
class LibrarySemantics:
    """Declared action of one (tag, args) instance.

    Exactly one of ``permutation`` (a total table over basis states) or
    ``columns`` (output state per domain input) is set.  ``domain`` is the
    tuple of basis inputs the gate promises to handle; None means total.
    """

    n_qubits: int
    permutation: Optional[np.ndarray] = None
    columns: Optional[Dict[int, np.ndarray]] = None
    domain: Optional[Tuple[int, ...]] = None


def _one_hot_width(count: int) -> int:
    return max(1, ceil(log2(count)))


def _unit_index(total: int, position: int) -> int:
    """Basis index of the one-hot pattern with slot ``position`` (1-based) hot."""
    return 1 << (total - position)


# ---- semantics builders ----


def _sem_threshold(n: int, k: int) -> LibrarySemantics:
    w = n + 1
    table = np.arange(2**w, dtype=np.int64)
    for idx in range(2**w):
        if bin(idx >> 1).count("1") >= k:
            table[idx] = idx ^ 1
    return LibrarySemantics(n_qubits=w, permutation=table)


def _sem_exact(n: int, k: int) -> LibrarySemantics:
    w = n + 1
    table = np.arange(2**w, dtype=np.int64)
    for idx in range(2**w):
        if bin(idx >> 1).count("1") == k:
            table[idx] = idx ^ 1
    return LibrarySemantics(n_qubits=w, permutation=table)


def _sem_ham(n: int, k: int) -> LibrarySemantics:
    """x unchanged; the k+1 tally qubits get e_min(k+1, |x|) XORed in."""
    w = n + k + 1
    table = np.arange(2**w, dtype=np.int64)
    for idx in range(2**w):
        hx = bin(idx >> (k + 1)).count("1")
        if hx >= 1:
            j = min(k + 1, hx)
            table[idx] = idx ^ (1 << (k + 1 - j))
    return LibrarySemantics(n_qubits=w, permutation=table)


def _sem_one_hot(count: int, zero_based: bool) -> LibrarySemantics:
    """Move a value from binary to one-hot encoding over ``count`` slots.

    Classic form: value i in 0..count goes to slot i, with value 0 mapped to
    the all-clear slot pattern.  Zero-based form: value v in 0..count-1 goes
    to slot v+1.
    """
    if count < 1:
        raise CircuitError("one_hot needs at least one slot")
    b = _one_hot_width(count if zero_based else count + 1)
    w = b + count
    partial: Dict[int, int] = {}
    if zero_based:
        for v in range(count):
            partial[v << count] = _unit_index(count, v + 1)
    else:
        partial[0] = 0
        for i in range(1, count + 1):
            partial[i << count] = _unit_index(count, i)
    table = _complete_permutation(w, partial)
    return LibrarySemantics(
        n_qubits=w, permutation=table, domain=tuple(sorted(partial))
    )


def dicke_column(ell: int, weight: int) -> np.ndarray:
    """Uniform superposition over the weight-``weight`` strings of ell bits."""
    if not (0 <= weight <= ell):
        raise CircuitError(f"weight {weight} out of range for {ell} qubits")
    col = np.zeros(2**ell, dtype=complex)
    amp = 1.0 / np.sqrt(comb(ell, weight))
    for idx in range(2**ell):
        if bin(idx).count("1") == weight:
            col[idx] = amp
    return col


def _sem_dicke_prep(ell: int, weight: int) -> LibrarySemantics:
    return LibrarySemantics(
        n_qubits=ell, columns={0: dicke_column(ell, weight)}, domain=(0,)
    )


def _sem_zero_w(n: int) -> LibrarySemantics:
    """Half the mass on the all-zeros string, half spread over the n one-hots."""
    col = np.zeros(2**n, dtype=complex)
    col[0] = np.sqrt(0.5)
    for i in range(1, n + 1):
        col[_unit_index(n, i)] = np.sqrt(0.5 / n)
    return LibrarySemantics(n_qubits=n, columns={0: col}, domain=(0,))


def _sem_w_swap(t: int, s: int) -> LibrarySemantics:
    """One-hot-selected block swap: control e_i swaps block i with the target.

    Qubits: t control bits, then t data blocks of s qubits, then the target
    block.  Zero control is the identity; other control patterns are outside
    the promise and completed as the identity.
    """
    w = t + s * (t + 1)
    mask = (1 << s) - 1
    table = np.arange(2**w, dtype=np.int64)
    domain: List[int] = []
    units = {_unit_index(t, i): i for i in range(1, t + 1)}
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
    return LibrarySemantics(n_qubits=w, permutation=table, domain=tuple(domain))


def _sem_marked_prep(n_data: int, amps: Tuple[complex, ...], alpha: Any) -> LibrarySemantics:
    w = n_data + 1
    col = np.asarray(amps, dtype=complex)
    if col.shape != (2**w,):
        raise CircuitError("marked_prep amplitude vector has the wrong length")
    if abs(np.vdot(col, col) - 1.0) > ATOL:
        raise CircuitError("marked_prep amplitudes are not unit norm")
    flagged = sum(abs(col[idx]) ** 2 for idx in range(2**w) if idx & 1)
    if abs(flagged - float(alpha)) > ATOL:
        raise CircuitError("marked_prep flag mass disagrees with alpha")
    bad = sum(abs(col[idx]) ** 2 for idx in range(2, 2**w, 2))
    if bad > ATOL:
        raise CircuitError("marked_prep unmarked branch must be all zeros")
    return LibrarySemantics(n_qubits=w, columns={0: col}, domain=(0,))


def _sem_ctrl_dicke(ell: int, slots: int, weights: Tuple[int, ...]) -> LibrarySemantics:
    if len(weights) != slots:
        raise CircuitError("ctrl_dicke needs one weight per slot")
    w = slots + ell
    cols: Dict[int, np.ndarray] = {}
    zero = np.zeros(2**w, dtype=complex)
    zero[0] = 1.0
    cols[0] = zero
    for i in range(1, slots + 1):
        base = _unit_index(slots, i) << ell
        col = np.zeros(2**w, dtype=complex)
        col[base : base + 2**ell] = dicke_column(ell, weights[i - 1])
        cols[base] = col
    return LibrarySemantics(n_qubits=w, columns=cols, domain=tuple(sorted(cols)))


def damped_spread_column(m: int, k: int) -> np.ndarray:
    """Unit state over nonzero m-bit strings with weight-j mass s(j)."""
    dist = dists.damped_binomial(m, k)
    col = np.zeros(2**m, dtype=complex)
    for idx in range(1, 2**m):
        wt = bin(idx).count("1")
        if 1 <= wt <= k:
            col[idx] = np.sqrt(float(dist.pmf(wt) / comb(m, wt)))
    return col


def _sem_ctrl_damped(m: int, k: int) -> LibrarySemantics:
    w = m + 1
    zero = np.zeros(2**w, dtype=complex)
    zero[0] = 1.0
    hot = np.zeros(2**w, dtype=complex)
    hot[1 << m : 2**w] = damped_spread_column(m, k)
    return LibrarySemantics(
        n_qubits=w, columns={0: zero, 1 << m: hot}, domain=(0, 1 << m)
    )


def _sem_onehot_dist(count: int, p: Tuple[Any, ...]) -> LibrarySemantics:
    if len(p) != count:
        raise CircuitError("onehot_dist needs one probability per slot")
    total = sum(float(x) for x in p)
    if abs(total - 1.0) > ATOL:
        raise CircuitError("onehot_dist probabilities must sum to one")
    col = np.zeros(2**count, dtype=complex)
    for i in range(1, count + 1):
        col[_unit_index(count, i)] = np.sqrt(float(p[i - 1]))
    return LibrarySemantics(n_qubits=count, columns={0: col}, domain=(0,))


def _sem_state_vector(amps: Tuple[complex, ...]) -> LibrarySemantics:
    size = len(amps)
    if size < 2 or size & (size - 1):
        raise CircuitError("state vector length must be a power of two, >= 2")
    col = np.asarray(amps, dtype=complex)
    if abs(np.vdot(col, col) - 1.0) > ATOL:
        raise CircuitError("state vector must be unit norm")
    return LibrarySemantics(
        n_qubits=int(log2(size)), columns={0: col}, domain=(0,)
    )


def _complete_permutation(w: int, partial: Dict[int, int]) -> np.ndarray:
    """Extend a partial injection on basis states to a total permutation.

    Unmapped inputs are paired with unused outputs in increasing order, which
    keeps the completion deterministic.
    """
    size = 2**w
    outputs = set(partial.values())
    if len(outputs) != len(partial):
        raise CircuitError("partial permutation is not injective")
    table = np.empty(size, dtype=np.int64)
    free = iter(o for o in range(size) if o not in outputs)
    for idx in range(size):
        if idx in partial:
            table[idx] = partial[idx]
        else:
            table[idx] = next(free)
    return table


def _column_stack(w: int, columns: Dict[int, np.ndarray]) -> Tuple[List[int], np.ndarray]:
    """The declared columns side by side in domain order, checked orthonormal."""
    dom = sorted(columns)
    stack = np.zeros((2**w, len(dom)), dtype=complex)
    for j, idx in enumerate(dom):
        stack[:, j] = columns[idx]
    gram = stack.conj().T @ stack
    if np.max(np.abs(gram - np.eye(len(dom)))) > 1e-8:
        raise CircuitError("declared library columns are not orthonormal")
    return dom, stack


def complete_isometry(w: int, columns: Dict[int, np.ndarray]) -> np.ndarray:
    """Extend declared output columns to a full unitary deterministically.

    The declared columns must be orthonormal.  The remaining columns come
    from a Householder QR of the declared columns stacked with the identity,
    so the completion depends only on the inputs.  This dense 2^w x 2^w form
    is the reference for ``low_rank_completion``; the simulator does not
    use it.
    """
    size = 2**w
    dom, stack = _column_stack(w, columns)
    q, _ = np.linalg.qr(np.concatenate([stack, np.eye(size)], axis=1))
    rest = [i for i in range(size) if i not in columns]
    unitary = np.zeros((size, size), dtype=complex)
    for j, idx in enumerate(dom):
        unitary[:, idx] = columns[idx]
    for j, idx in enumerate(rest):
        unitary[:, idx] = q[:, len(dom) + j]
    return unitary


def low_rank_completion(
    w: int, columns: Dict[int, np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Extend declared output columns to a unitary that differs from I in low rank.

    For d declared columns c_j at domain inputs e_j, returns (B, M): B is a
    2^w x r orthonormal basis (r <= 2d) of the span of the e_j and c_j, and
    M = W - I for an r x r unitary W with W B^dagger e_j = B^dagger c_j.  The
    unitary I + B M B^dagger maps each e_j to c_j and is the identity on the
    complement of that span, so it takes O(2^w d) memory where
    ``complete_isometry`` takes O(4^w).  It completes the declared columns
    differently from ``complete_isometry``; both agree on the domain.
    """
    dom, stack = _column_stack(w, columns)
    d = len(dom)
    # the part of the columns outside span{e_j}; its range completes the basis
    outside = stack.copy()
    outside[dom] = 0.0
    u, sing, _ = np.linalg.svd(outside, full_matrices=False)
    extra = u[:, sing > _RANK_TOL]
    # a direction with a small singular value can leak onto the e_j rows
    extra[dom] = 0.0
    extra, _ = np.linalg.qr(extra)
    r = d + extra.shape[1]
    basis = np.zeros((2**w, r), dtype=complex)
    basis[dom, np.arange(d)] = 1.0
    basis[:, d:] = extra
    image = basis.conj().T @ stack
    q, _ = np.linalg.qr(np.concatenate([image, np.eye(r)], axis=1))
    # the nearest unitary to [image | completion]: rounding in image would
    # otherwise let every application shrink the state norm a little
    left, _, right = np.linalg.svd(np.concatenate([image, q[:, d:]], axis=1))
    return basis, left @ right - np.eye(r)


# ---- registry ----


@dataclass(frozen=True)
class LibraryEntry:
    tag: str
    width: Callable[[Tuple[Any, ...]], int]
    semantics: Callable[..., LibrarySemantics]
    declared_depth: Callable[[Tuple[Any, ...]], int]
    declared_width: Callable[[Tuple[Any, ...]], int]
    encode: Callable[[Tuple[Any, ...]], Any]
    decode: Callable[[Any], Tuple[Any, ...]]
    # costs are measured from the construction the gate stands in for and
    # passed to make(); the declared ones are placeholders
    measured_costs: bool = False


def _enc_number(x: Any) -> Any:
    if isinstance(x, Fraction):
        return [x.numerator, x.denominator]
    return float(x)


def _dec_number(v: Any) -> Any:
    if isinstance(v, list):
        return Fraction(int(v[0]), int(v[1]))
    return float(v)


def _enc_complex_seq(xs: Sequence[complex]) -> List[List[float]]:
    return [[complex(x).real, complex(x).imag] for x in xs]


def _dec_complex_seq(v: Any) -> Tuple[complex, ...]:
    return tuple(complex(float(a), float(b)) for a, b in v)


_REGISTRY: Dict[str, LibraryEntry] = {}


def _register(entry: LibraryEntry) -> None:
    _REGISTRY[entry.tag] = entry
    costs = None
    if not entry.measured_costs:
        costs = lambda a: (entry.declared_depth(a), entry.declared_width(a))  # noqa: E731
    register_library_codec(entry.tag, entry.encode, entry.decode, entry.width, costs)


_register(
    LibraryEntry(
        tag="threshold",
        width=lambda a: a[0] + 1,
        semantics=_sem_threshold,
        declared_depth=lambda a: 4,
        declared_width=lambda a: a[1],
        encode=lambda a: [a[0], a[1]],
        decode=lambda v: (int(v[0]), int(v[1])),
    )
)

_register(
    LibraryEntry(
        tag="exact",
        width=lambda a: a[0] + 1,
        semantics=_sem_exact,
        declared_depth=lambda a: 6,
        declared_width=lambda a: a[1] + 1,
        encode=lambda a: [a[0], a[1]],
        decode=lambda v: (int(v[0]), int(v[1])),
    )
)

_register(
    LibraryEntry(
        tag="ham",
        width=lambda a: a[0] + a[1] + 1,
        semantics=_sem_ham,
        declared_depth=lambda a: 8,
        declared_width=lambda a: a[1] + 1,
        encode=lambda a: [a[0], a[1]],
        decode=lambda v: (int(v[0]), int(v[1])),
    )
)

_register(
    LibraryEntry(
        tag="one_hot",
        width=lambda a: _one_hot_width(a[0] if a[1] else a[0] + 1) + a[0],
        semantics=_sem_one_hot,
        declared_depth=lambda a: 8,
        declared_width=lambda a: a[0],
        encode=lambda a: [a[0], bool(a[1])],
        decode=lambda v: (int(v[0]), bool(v[1])),
    )
)

_register(
    LibraryEntry(
        tag="dicke_prep",
        width=lambda a: a[0],
        semantics=_sem_dicke_prep,
        declared_depth=lambda a: 120,
        declared_width=lambda a: a[0],
        encode=lambda a: [a[0], a[1]],
        decode=lambda v: (int(v[0]), int(v[1])),
    )
)

_register(
    LibraryEntry(
        tag="zero_w",
        width=lambda a: a[0],
        semantics=_sem_zero_w,
        declared_depth=lambda a: 24,
        declared_width=lambda a: a[0],
        encode=lambda a: [a[0]],
        decode=lambda v: (int(v[0]),),
    )
)

_register(
    LibraryEntry(
        tag="w_swap",
        width=lambda a: a[0] + a[1] * (a[0] + 1),
        semantics=_sem_w_swap,
        declared_depth=lambda a: 6,
        declared_width=lambda a: a[0],
        encode=lambda a: [a[0], a[1]],
        decode=lambda v: (int(v[0]), int(v[1])),
    )
)

_register(
    LibraryEntry(
        tag="marked_prep",
        width=lambda a: a[0] + 1,
        semantics=_sem_marked_prep,
        declared_depth=lambda a: 1,
        declared_width=lambda a: 0,
        encode=lambda a: [a[0], _enc_complex_seq(a[1]), _enc_number(a[2])],
        decode=lambda v: (int(v[0]), _dec_complex_seq(v[1]), _dec_number(v[2])),
        measured_costs=True,
    )
)

_register(
    LibraryEntry(
        tag="ctrl_dicke",
        width=lambda a: a[1] + a[0],
        semantics=_sem_ctrl_dicke,
        declared_depth=lambda a: 140,
        declared_width=lambda a: a[0],
        encode=lambda a: [a[0], a[1], list(a[2])],
        decode=lambda v: (int(v[0]), int(v[1]), tuple(int(x) for x in v[2])),
    )
)

_register(
    LibraryEntry(
        tag="ctrl_damped",
        width=lambda a: a[0] + 1,
        semantics=_sem_ctrl_damped,
        declared_depth=lambda a: 180,
        declared_width=lambda a: a[1] + 1,
        encode=lambda a: [a[0], a[1]],
        decode=lambda v: (int(v[0]), int(v[1])),
    )
)

_register(
    LibraryEntry(
        tag="onehot_dist",
        width=lambda a: a[0],
        semantics=_sem_onehot_dist,
        declared_depth=lambda a: 160,
        declared_width=lambda a: a[0] + 1,
        encode=lambda a: [a[0], [_enc_number(x) for x in a[1]]],
        decode=lambda v: (int(v[0]), tuple(_dec_number(x) for x in v[1])),
    )
)

_register(
    LibraryEntry(
        tag="small_state",
        width=lambda a: int(log2(len(a[0]))),
        semantics=_sem_state_vector,
        declared_depth=lambda a: 200,
        declared_width=lambda a: len(a[0]),
        encode=lambda a: [_enc_complex_seq(a[0])],
        decode=lambda v: (_dec_complex_seq(v[0]),),
    )
)

_register(
    LibraryEntry(
        tag="raw_state",
        width=lambda a: int(log2(len(a[0]))),
        semantics=_sem_state_vector,
        declared_depth=lambda a: 1,
        declared_width=lambda a: 0,
        encode=lambda a: [_enc_complex_seq(a[0])],
        decode=lambda v: (_dec_complex_seq(v[0]),),
    )
)


def entry(tag: str) -> LibraryEntry:
    if tag not in _REGISTRY:
        raise CircuitError(f"unknown library tag {tag!r}")
    return _REGISTRY[tag]


def tags() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def semantics(tag: str, args: Tuple[Any, ...]) -> LibrarySemantics:
    return entry(tag).semantics(*args)


def make(
    tag: str,
    args: Tuple[Any, ...],
    qubits: Sequence[int],
    inverse: bool = False,
    declared_depth: Optional[int] = None,
    declared_width: Optional[int] = None,
) -> Gate:
    """Build a library Gate with registry-declared width and costs.

    Costs can be overridden per call; marked_prep uses that to carry the
    measured costs of the preparation it stands in for.
    """
    ent = entry(tag)
    expected = ent.width(args)
    if len(qubits) != expected:
        raise CircuitError(
            f"library gate {tag}{args} spans {expected} qubits, got {len(qubits)}"
        )
    return g_library(
        tag,
        args,
        qubits,
        declared_depth=ent.declared_depth(args) if declared_depth is None else declared_depth,
        declared_width=ent.declared_width(args) if declared_width is None else declared_width,
        inverse=inverse,
    )
