"""Library gate registry: declared semantics, completions, costs, codecs.

A library gate is an opaque unit inside a circuit.  Each tag declares
- its qubit width and the basis inputs on which its action is promised
  (the domain),
- the action itself, either a permutation of basis states or a set of
  output columns; a weight-map gate declares its permutation as the
  pattern it XORs in for each Hamming weight of its data qubits,
- the (depth, fanout width) the cost model charges, as a function of its
  arguments,
- an argument schema, from which its JSON codec follows.

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
from .circuits import (
    CircuitError,
    Gate,
    ParseError,
    _exactly,
    decode_complex,
    decode_fraction,
    encode_complex,
    encode_fraction,
)

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


def hamming_weights(w: int) -> np.ndarray:
    """The Hamming weight of every w-bit basis index 0..2^w-1."""
    return np.bitwise_count(np.arange(2**w, dtype=np.int64))


def _flag_pattern(hit: np.ufunc) -> Callable[[int, int], np.ndarray]:
    """Per weight 0..n of x, the flag qubit flips where hit(|x|, k) holds."""
    return lambda n, k: hit(np.arange(n + 1), k).astype(np.int64)


def _tally_pattern(n: int, k: int) -> np.ndarray:
    """Per weight 0..n of x, the k+1 tally qubits get e_min(k+1, |x|) XORed in."""
    weight = np.arange(n + 1)
    return np.where(weight >= 1, 1 << (k + 1 - np.minimum(k + 1, weight)), 0)


def _sem_weight_map(w: int, n_data: int, pattern: np.ndarray) -> LibrarySemantics:
    """The first n_data qubits x unchanged; the w - n_data qubits after them
    get pattern[|x|] XORed in."""
    idx = np.arange(2**w, dtype=np.int64)
    return LibrarySemantics(
        n_qubits=w, permutation=idx ^ pattern[np.bitwise_count(idx >> (w - n_data))]
    )


def _sem_one_hot(count: int, zero_based: bool) -> LibrarySemantics:
    """Move a value from binary to one-hot encoding over ``count`` slots.

    Classic form: value i in 0..count goes to slot i, with value 0 mapped to
    the all-clear slot pattern.  Zero-based form: value v in 0..count-1 goes
    to slot v+1.
    """
    b = _one_hot_width(count if zero_based else count + 1)
    w = b + count
    slot = np.arange(1, count + 1, dtype=np.int64)
    value = slot - 1 if zero_based else slot
    inputs, outputs = value << count, _unit_index(count, slot)
    if not zero_based:
        inputs, outputs = np.append(0, inputs), np.append(0, outputs)
    table = _complete_permutation(w, inputs, outputs)
    return LibrarySemantics(n_qubits=w, permutation=table, domain=tuple(inputs.tolist()))


def dicke_amplitudes(n: int, k: int) -> np.ndarray:
    """The amplitude of the weight-k Dicke state on n qubits at each weight 0..n."""
    if not 0 <= k <= n:
        raise CircuitError(f"weight {k} out of range for {n} qubits")
    amps = np.zeros(n + 1, dtype=complex)
    amps[k] = 1.0 / np.sqrt(comb(n, k))
    return amps


def dicke_column(n: int, k: int) -> np.ndarray:
    """Uniform superposition over the weight-k strings of n bits."""
    return dicke_amplitudes(n, k)[hamming_weights(n)]


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
    # the inputs with one control pattern are one contiguous run of indices
    run = 1 << (s * (t + 1))
    in_domain = np.zeros(2**w, dtype=bool)
    in_domain[:run] = True
    for i in range(1, t + 1):
        start = _unit_index(t, i) * run
        in_domain[start : start + run] = True
        idx = table[start : start + run]
        shift_i = s * (t + 1 - i)
        qi = (idx >> shift_i) & mask
        qt = idx & mask
        table[start : start + run] = idx & ~((mask << shift_i) | mask) | (qt << shift_i) | qi
    domain = tuple(np.flatnonzero(in_domain).tolist())
    return LibrarySemantics(n_qubits=w, permutation=table, domain=domain)


def _sem_marked_prep(
    n_data: int, amps: Tuple[complex, ...], alpha: Any, *costs: int
) -> LibrarySemantics:
    # costs: the measured depth and fanout width, which leave the action alone
    w = n_data + 1
    col = np.asarray(amps, dtype=complex)
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
    amps = np.zeros(m + 1, dtype=complex)
    for j in range(1, k + 1):
        amps[j] = np.sqrt(float(dist.pmf(j) / comb(m, j)))
    return amps[hamming_weights(m)]


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
    col = np.zeros(2**count, dtype=complex)
    for i in range(1, count + 1):
        col[_unit_index(count, i)] = np.sqrt(float(p[i - 1]))
    return LibrarySemantics(n_qubits=count, columns={0: col}, domain=(0,))


def _sem_state_vector(amps: Tuple[complex, ...]) -> LibrarySemantics:
    col = np.asarray(amps, dtype=complex)
    return LibrarySemantics(
        n_qubits=int(log2(len(amps))), columns={0: col}, domain=(0,)
    )


# The two value flaws below accept only ``x <= tol``, so that a NaN, which a
# JSON file may carry, counts as a flaw.


def _state_flaw(amps: Tuple[complex, ...]) -> Optional[str]:
    size = len(amps)
    if size < 2 or size & (size - 1):
        return "state vector length must be a power of two, >= 2"
    col = np.asarray(amps, dtype=complex)
    return None if abs(np.vdot(col, col) - 1.0) <= ATOL else "state vector must be unit norm"


def _onehot_dist_flaw(a: Tuple[Any, ...]) -> Optional[str]:
    count, p = a
    if not len(p) == count >= 1:
        return "needs one probability per slot"
    # bounded before the sum, so float() cannot overflow on a huge Fraction
    if not (all(0 <= x <= 1 for x in p) and abs(sum(float(x) for x in p) - 1.0) <= ATOL):
        return "probabilities must be nonnegative and sum to one"
    return None


def _marked_prep_flaw(a: Tuple[Any, ...]) -> Optional[str]:
    n_data, amps, alpha, depth, fanout_width = a
    # compare exponents: n_data may be untrusted input, too large to raise 2 to
    size = len(amps)
    if n_data < 0 or size & (size - 1) or size.bit_length() != n_data + 2:
        return f"needs 2^(n_data+1) amplitudes for n_data={n_data}, got {size}"
    # exactly, so float() cannot overflow on a huge Fraction
    if not 0 <= alpha <= 1:
        return "alpha must lie in [0, 1]"
    if not (depth >= 1 and fanout_width >= 0):
        return "costs out of range: depth must be >= 1 and fanout width >= 0"
    return None


def _ctrl_dicke_flaw(a: Tuple[Any, ...]) -> Optional[str]:
    ell, slots, weights = a
    if len(weights) != slots:
        return "needs one weight per slot"
    if not all(0 <= w <= ell for w in weights):
        return f"each weight must lie in 0..{ell}"
    return None


def _complete_permutation(w: int, inputs: np.ndarray, outputs: np.ndarray) -> np.ndarray:
    """Extend the injection inputs[j] -> outputs[j] on basis states to a
    total permutation.

    Unmapped inputs are paired with unused outputs in increasing order, which
    keeps the completion deterministic.
    """
    size = 2**w
    used = np.zeros(size, dtype=bool)
    used[outputs] = True
    if np.count_nonzero(used) != len(outputs):
        raise CircuitError("partial permutation is not injective")
    mapped = np.zeros(size, dtype=bool)
    mapped[inputs] = True
    table = np.empty(size, dtype=np.int64)
    table[inputs] = outputs
    table[~mapped] = np.flatnonzero(~used)
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
#
# Each tag is declared once: an argument schema, a qubit width and a
# (depth, fanout width) cost as functions of the arguments, and the declared
# semantics (or per-weight pattern).  A gate stores only its tag, arguments
# and inverse flag; its width and costs are read from here.  The JSON codec
# of a tag follows from its schema, one codec per argument kind; decoding
# checks the exact JSON type of every value, so a string, float or bool is
# never read as an int.


def _enc_number(x: Any) -> Any:
    return encode_fraction(x) if isinstance(x, Fraction) else float(x)


def _dec_number(v: Any) -> Any:
    return v if type(v) is float else decode_fraction(v)


def _tuple_of(enc: Callable[[Any], Any], dec: Callable[[Any], Any]):
    as_list = _exactly(list)

    def encode(xs: Sequence[Any]) -> List[Any]:
        return [enc(x) for x in xs]

    def decode(v: Any) -> Tuple[Any, ...]:
        return tuple(dec(x) for x in as_list(v))

    return encode, decode


# argument kind -> (encode, decode) between a Python value and its JSON form
ARG_KINDS: Dict[str, Tuple[Callable[[Any], Any], Callable[[Any], Any]]] = {
    "int": (int, _exactly(int)),
    "bool": (bool, _exactly(bool)),
    "number": (_enc_number, _dec_number),
    "ints": _tuple_of(int, _exactly(int)),
    "numbers": _tuple_of(_enc_number, _dec_number),
    "complexes": _tuple_of(encode_complex, decode_complex),
}


@dataclass(frozen=True)
class LibraryEntry:
    tag: str
    args: Tuple[str, ...]  # one ARG_KINDS name per argument
    width: Callable[[Tuple[Any, ...]], int]
    # the (depth, fanout width) the cost model charges the gate
    cost: Callable[[Tuple[Any, ...]], Tuple[int, int]]
    semantics: Optional[Callable[..., LibrarySemantics]] = None
    # A weight-map gate XORs onto its low qubits a pattern chosen by the
    # Hamming weight of its first n qubits, which it leaves unchanged; this
    # gives the pattern per weight 0..n (``weight_map`` states the layout).
    weight_pattern: Optional[Callable[..., np.ndarray]] = None
    # why arguments of the schema's types still describe no gate, or None
    flaw: Callable[[Tuple[Any, ...]], Optional[str]] = lambda a: None

    def encode(self, args: Tuple[Any, ...]) -> List[Any]:
        return [ARG_KINDS[kind][0](a) for kind, a in zip(self.args, args)]

    def decode(self, value: Any) -> Tuple[Any, ...]:
        if not (isinstance(value, list) and len(value) == len(self.args)):
            raise ParseError(f"{self.tag} takes arguments {list(self.args)}, got {value!r}")
        return tuple(ARG_KINDS[kind][1](v) for kind, v in zip(self.args, value))

    def check_args(self, args: Tuple[Any, ...]) -> None:
        """Raise CircuitError if the arguments describe no gate, before any
        width or table is computed from them."""
        if len(args) != len(self.args):
            raise CircuitError(
                f"library gate {self.tag}{args} takes arguments {list(self.args)}"
            )
        flaw = self.flaw(args)
        if flaw is not None:
            raise CircuitError(f"library gate {self.tag}{args}: {flaw}")

    def check(self, args: Tuple[Any, ...], n_qubits: int) -> None:
        """Raise CircuitError unless the arguments describe a gate that spans
        ``n_qubits`` qubits."""
        self.check_args(args)
        expected = self.width(args)
        if n_qubits != expected:
            raise CircuitError(
                f"library gate {self.tag}{args} spans {expected} qubits, got {n_qubits}"
            )


_REGISTRY: Dict[str, LibraryEntry] = {
    e.tag: e
    for e in (
        LibraryEntry(
            tag="threshold",
            args=("int", "int"),  # n, k
            width=lambda a: a[0] + 1,
            weight_pattern=_flag_pattern(np.greater_equal),
            cost=lambda a: (4, a[1]),
        ),
        LibraryEntry(
            tag="exact",
            args=("int", "int"),  # n, k
            width=lambda a: a[0] + 1,
            weight_pattern=_flag_pattern(np.equal),
            cost=lambda a: (6, a[1] + 1),
        ),
        LibraryEntry(
            tag="ham",
            args=("int", "int"),  # n, k
            width=lambda a: a[0] + a[1] + 1,
            weight_pattern=_tally_pattern,
            cost=lambda a: (8, a[1] + 1),
            flaw=lambda a: None if min(a) >= 0 else "n and k must be nonnegative",
        ),
        LibraryEntry(
            tag="one_hot",
            args=("int", "bool"),  # count, zero_based
            width=lambda a: _one_hot_width(a[0] if a[1] else a[0] + 1) + a[0],
            semantics=_sem_one_hot,
            cost=lambda a: (8, a[0]),
            flaw=lambda a: None if a[0] >= 1 else "needs at least one slot",
        ),
        LibraryEntry(
            tag="dicke_prep",
            args=("int", "int"),  # ell, weight
            width=lambda a: a[0],
            semantics=_sem_dicke_prep,
            cost=lambda a: (120, a[0]),
            flaw=lambda a: None if 0 <= a[1] <= a[0] else f"weight must lie in 0..{a[0]}",
        ),
        LibraryEntry(
            tag="zero_w",
            args=("int",),  # n
            width=lambda a: a[0],
            semantics=_sem_zero_w,
            cost=lambda a: (24, a[0]),
            flaw=lambda a: None if a[0] >= 1 else "needs at least one slot",
        ),
        LibraryEntry(
            tag="w_swap",
            args=("int", "int"),  # t, s
            width=lambda a: a[0] + a[1] * (a[0] + 1),
            semantics=_sem_w_swap,
            cost=lambda a: (6, a[0]),
        ),
        LibraryEntry(
            tag="marked_prep",
            # n_data, amps, alpha, and the depth and fanout width measured on
            # the preparation the gate stands in for
            args=("int", "complexes", "number", "int", "int"),
            width=lambda a: a[0] + 1,
            semantics=_sem_marked_prep,
            cost=lambda a: (a[3], a[4]),
            flaw=_marked_prep_flaw,
        ),
        LibraryEntry(
            tag="ctrl_dicke",
            args=("int", "int", "ints"),  # ell, slots, weights
            width=lambda a: a[1] + a[0],
            semantics=_sem_ctrl_dicke,
            cost=lambda a: (140, a[0]),
            flaw=_ctrl_dicke_flaw,
        ),
        LibraryEntry(
            tag="ctrl_damped",
            args=("int", "int"),  # m, k
            width=lambda a: a[0] + 1,
            semantics=_sem_ctrl_damped,
            cost=lambda a: (180, a[1] + 1),
            flaw=lambda a: None if 1 <= a[1] <= a[0] else f"k must lie in 1..{a[0]}",
        ),
        LibraryEntry(
            tag="onehot_dist",
            args=("int", "numbers"),  # count, p
            width=lambda a: a[0],
            semantics=_sem_onehot_dist,
            cost=lambda a: (160, a[0] + 1),
            flaw=_onehot_dist_flaw,
        ),
        LibraryEntry(
            tag="small_state",
            args=("complexes",),  # amps
            width=lambda a: int(log2(len(a[0]))),
            semantics=_sem_state_vector,
            cost=lambda a: (200, len(a[0])),
            flaw=lambda a: _state_flaw(a[0]),
        ),
        LibraryEntry(
            tag="raw_state",
            args=("complexes",),  # amps
            width=lambda a: int(log2(len(a[0]))),
            semantics=_sem_state_vector,
            cost=lambda a: (1, 0),
            flaw=lambda a: _state_flaw(a[0]),
        ),
    )
}


def entry(tag: str) -> LibraryEntry:
    if tag not in _REGISTRY:
        raise CircuitError(f"unknown library tag {tag!r}")
    return _REGISTRY[tag]


def tags() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def weight_map(tag: str, args: Tuple[Any, ...]) -> Optional[Tuple[int, np.ndarray]]:
    """(n_data, pattern) for a weight-map gate, None for any other: the gate
    leaves its first n_data qubits x unchanged and XORs pattern[|x|] onto
    the rest, the first of them taking the pattern's top bit."""
    ent = entry(tag)
    if ent.weight_pattern is None:
        return None
    ent.check_args(args)
    pattern = ent.weight_pattern(*args)
    return len(pattern) - 1, pattern


def semantics(tag: str, args: Tuple[Any, ...]) -> LibrarySemantics:
    form = weight_map(tag, args)
    ent = entry(tag)
    if form is not None:
        return _sem_weight_map(ent.width(args), *form)
    ent.check_args(args)
    return ent.semantics(*args)


def make(
    tag: str,
    args: Tuple[Any, ...],
    qubits: Sequence[int],
    inverse: bool = False,
) -> Gate:
    """A library Gate on ``qubits``.  Its width and costs are its registry
    entry's; the gate is checked against them when it enters a circuit."""
    params = {"tag": tag, "args": tuple(args), "inverse": bool(inverse)}
    return Gate("library", tuple(qubits), (), params)
