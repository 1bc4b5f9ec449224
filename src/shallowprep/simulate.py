"""Exact simulation of circuits on their support, plus verification helpers.

Gates act only on the basis states present in the state (its support);
``run`` returns that support, which every verdict here reads through
``project`` or ``residual_mass``.  Entries that a gate leaves below
``DROP_EPS`` in magnitude are dropped, and the norms of the dropped parts
add up to a certified bound on the distance from the exact state
(``StateVector.error_bound``), which every verdict here accounts for.

Conventions: qubit i is bit i of the flat amplitude index (qubit 0 is the
least significant bit).  Inside a gate, the first listed qubit is the most
significant bit of the gate-local index; library semantics use the same
rule, so tables and columns line up with no re-indexing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from . import library, rounds
from .circuits import Circuit, Gate

NORM_TOL = 1e-10
DOMAIN_TOL = 1e-9
# A matrix gate drops the entries it leaves with |a| < DROP_EPS.  Every gate
# is unitary, so the state run returns is within the sum of the dropped norms
# of the exact state, in 2-norm.
DROP_EPS = 1e-14
# The widest state built as a dense 2^n vector (16 MiB of amplitudes).  The
# CLI's synth self-check and verify stop here too, as nothing yet bounds the
# support a circuit can grow.
MAX_DENSE_QUBITS = 20
# The widest circuit simulated at all: basis indices are int64.
MAX_INDEX_QUBITS = 63


class SimulationError(RuntimeError):
    """Raised when a circuit drives a gate outside its promised behavior."""


class CertificationError(RuntimeError):
    """Raised when an explicit construction disagrees with its declared action."""


@dataclass
class StateVector:
    """A simulated state and a bound on its 2-norm distance from the exact one.

    ``indices`` and ``values`` are its support: the distinct basis indices of
    the entries ``run`` kept and their amplitudes.
    """

    n_qubits: int
    indices: np.ndarray
    values: np.ndarray
    error_bound: float = 0.0

    @property
    def amplitudes(self) -> np.ndarray:
        """The dense 2^n vector, built on each request, for at most
        ``MAX_DENSE_QUBITS`` qubits."""
        if self.n_qubits > MAX_DENSE_QUBITS:
            raise SimulationError(
                f"a dense {self.n_qubits}-qubit vector is over the "
                f"{MAX_DENSE_QUBITS}-qubit cap; read the support instead"
            )
        amps = np.zeros(2**self.n_qubits, dtype=complex)
        amps[self.indices] = self.values
        return amps


@dataclass(frozen=True)
class VerificationResult:
    """Certified verdict: ``fidelity`` is a lower bound and
    ``residual_ancilla_mass`` an upper bound for the exact state, given the
    simulation's ``error_bound``."""

    fidelity: float
    clean: bool
    residual_ancilla_mass: float
    error_bound: float = 0.0
    state: Optional[StateVector] = field(default=None, repr=False, compare=False)


def mass_bounds(amplitude: complex, error_bound: float) -> Tuple[float, float]:
    """Lower and upper bounds on |amplitude|^2 for the exact state.

    ``amplitude`` is read from a simulated state within ``error_bound`` of the
    exact one: an overlap with a unit vector, or the norm of the state's
    projection onto a subspace.  Either moves by at most ``error_bound``.
    """
    size = float(abs(amplitude))
    return max(0.0, size - error_bound) ** 2, (size + error_bound) ** 2


# ---- compiled library operations ----


@dataclass
class _CompiledOp:
    """A library gate ready to apply.

    Weight-map gates keep their ``library.weight_map`` form.  Permutation
    gates keep their table and its inverse.  Column-declared gates keep the
    low-rank form I + basis @ correction @ basis^H of their unitary.  A
    partial domain is kept as a mask of the domain inputs.
    """

    n_qubits: int
    weight_map: Optional[Tuple[int, np.ndarray]] = None
    table: Optional[np.ndarray] = None
    inverse_table: Optional[np.ndarray] = None
    in_domain: Optional[np.ndarray] = None
    basis: Optional[np.ndarray] = None
    correction: Optional[np.ndarray] = None
    _left: Dict[bool, np.ndarray] = field(default_factory=dict)

    def left(self, inverse: bool) -> np.ndarray:
        """basis @ correction, or basis @ correction^H for the inverse,
        built the first time a gate needs that direction."""
        if inverse not in self._left:
            correction = self.correction.conj().T if inverse else self.correction
            self._left[inverse] = self.basis @ correction
        return self._left[inverse]


_OP_CACHE: Dict[Tuple[str, Tuple[Any, ...]], _CompiledOp] = {}


def _compiled(tag: str, args: Tuple[Any, ...]) -> _CompiledOp:
    key = (tag, args)
    if key in _OP_CACHE:
        return _OP_CACHE[key]
    form = library.weight_map(tag, args)
    if form is not None:
        # applied as an index map: no table over the 2^w inputs is built
        op = _CompiledOp(library.entry(tag).width(args), weight_map=form)
    else:
        sem = library.semantics(tag, args)
        in_domain = None
        if sem.domain is not None:
            in_domain = np.zeros(2**sem.n_qubits, dtype=bool)
            in_domain[list(sem.domain)] = True
        if sem.permutation is not None:
            table = sem.permutation
            inverse = np.empty_like(table)
            inverse[table] = np.arange(len(table), dtype=table.dtype)
            op = _CompiledOp(
                sem.n_qubits, table=table, inverse_table=inverse, in_domain=in_domain
            )
        else:
            basis, correction = library.low_rank_completion(sem.n_qubits, sem.columns)
            op = _CompiledOp(
                sem.n_qubits, in_domain=in_domain, basis=basis, correction=correction
            )
    _OP_CACHE[key] = op
    return op


# ---- kernel ----
#
# The state is held as its support: distinct int64 basis indices and their
# amplitudes.  A circuit is compiled into a plan, one step per gate outside
# the Grover rounds and one reflection per round (``rounds``), and each run
# replays the plan on a support.  A round's gates are not compiled: only
# its forward half A, and only by a run that must compute A|0⟩ because it
# holds none.  Each step takes one of three forms.  An index map XORs a
# mask into each index, read from the weight of some bits or from a table
# over the gate-local index.  A low-rank update I + L·B†
# acts on a block whose rows are gate-local indices and whose columns are
# the G distinct patterns of the other qubits present in the support.  A
# reflection I − 2|a⟩⟨a| is ψ − 2a⟨a|ψ⟩ for each pattern of the bits
# outside a's: every Grover round and every ``product_reflection``.  No
# step makes a BLAS call: after a threaded call OpenBLAS keeps its second
# thread spinning, which on a 2-core host doubled the CPU time of a run
# and saved no wall time.
#
# One support can carry a batch of independent states: state s keeps its
# number in the index bits from the circuit's width up.  No gate touches
# those bits, so each state evolves as it would in a run of its own, and a
# matrix gate's patterns keep the states apart.  Norms, dropped mass and
# the mass outside a gate's domain are summed state by state.

# (the circuit's width, where the state numbers start; the number of states)
Batch = Tuple[int, int]

# step(indices, amplitudes, batch) -> (indices, amplitudes, per-state squared
# norms kept, per-state squared norms dropped); both are None for an index
# map, which only moves amplitudes
Step = Callable[
    [np.ndarray, np.ndarray, Batch],
    Tuple[np.ndarray, np.ndarray, Optional[np.ndarray], Optional[np.ndarray]],
]


def _per_state(batch: Batch, idx: np.ndarray, mag: np.ndarray) -> np.ndarray:
    """The sum of mag over the entries of each state, idx giving each
    entry's basis index (not read for a batch of one)."""
    shift, count = batch
    if count == 1:
        return mag.sum(keepdims=True)
    return np.bincount(idx >> shift, weights=mag, minlength=count)


def _gather_bits(qubits: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """(shifts, weights) that ``_move_bits`` takes to the gate-local index;
    qubits[0] is the top bit."""
    weights = np.int64(1) << np.arange(len(qubits) - 1, -1, -1, dtype=np.int64)
    return np.asarray(qubits, dtype=np.int64), weights


def _move_bits(x: np.ndarray, shifts: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Sum over j of bit shifts[j] of each x times weights[j], as one int64
    product (numpy calls no BLAS routine on integers)."""
    return ((x[:, None] >> shifts) & 1) @ weights


def _gather(idx: np.ndarray, qubits: Sequence[int]) -> np.ndarray:
    """Gate-local index of each basis index; qubits[0] is the top bit."""
    return _move_bits(idx, *_gather_bits(qubits))


def _spread(local: np.ndarray, qubits: Sequence[int]) -> np.ndarray:
    """Basis index with the gate-local bits on their qubits, others zero."""
    shifts = np.arange(len(qubits) - 1, -1, -1, dtype=np.int64)
    return _move_bits(local, shifts, np.int64(1) << np.asarray(qubits, dtype=np.int64))


def _mask(qubits: Sequence[int]) -> int:
    mask = 0
    for q in qubits:
        mask |= 1 << q
    return mask


def _raise_stray(outside: np.ndarray, tag: str) -> None:
    """Raise if the amplitudes a library gate holds outside its domain carry
    more than DOMAIN_TOL of mass in any state (outside: per-state masses)."""
    worst = float(np.max(outside))
    if worst > DOMAIN_TOL:
        raise SimulationError(
            f"library gate {tag!r} driven outside its domain "
            f"(stray mass {worst:.3e})"
        )


def _check_inputs(
    ok: np.ndarray, local: np.ndarray, idx: np.ndarray, amp: np.ndarray, tag: str, batch: Batch
) -> None:
    """ok[local] is False for an input that drives the gate outside its domain."""
    stray = ~ok[local]
    if stray.any():
        amp = amp[stray]
        _raise_stray(_per_state(batch, idx[stray], amp.real**2 + amp.imag**2), tag)


def _drop(idx: np.ndarray, out: np.ndarray, batch: Batch):
    """A step's entries as it returns them: those below DROP_EPS in magnitude
    are dropped and their squared norm counted to the state of their index."""
    mag = out.real**2 + out.imag**2
    # an entry whose square underflows (|a| < 1e-161) adds nothing to the bound
    keep = mag >= DROP_EPS * DROP_EPS
    lost = _per_state(batch, idx[~keep], mag[~keep])
    idx = idx[keep]
    return idx, out[keep], _per_state(batch, idx, mag[keep]), lost


def _weight_step(
    data: Sequence[int], out: Sequence[int], pattern: Sequence[int], ctrl: Optional[int]
) -> Step:
    """XOR pattern[weight of the data bits] into the out qubits (out[0] takes
    its top bit), where the control bit, if any, is set."""
    data_mask = _mask(data)
    delta = _spread(np.asarray(pattern, dtype=np.int64), out)

    def step(idx: np.ndarray, amp: np.ndarray, batch: Batch):
        flip = delta[np.bitwise_count(idx & data_mask)]
        if ctrl is not None:
            flip *= (idx >> ctrl) & 1
        return idx ^ flip, amp, None, None

    return step


def _table_step(
    qubits: Sequence[int], table: np.ndarray, ok: Optional[np.ndarray], tag: Optional[str]
) -> Step:
    """A permutation of gate-local indices; ok[local] is False for an input
    that drives the gate outside its domain."""
    shifts, weights = _gather_bits(qubits)
    # the bits each gate-local input flips, spread onto the circuit's qubits
    delta = _spread(np.arange(len(table), dtype=np.int64) ^ table, qubits)

    def step(idx: np.ndarray, amp: np.ndarray, batch: Batch):
        local = _move_bits(idx, shifts, weights)
        if ok is not None:
            _check_inputs(ok, local, idx, amp, tag, batch)
        return idx ^ delta[local], amp, None, None

    return step


def _column_step(
    qubits: Sequence[int],
    basis: np.ndarray,
    left: np.ndarray,
    in_domain: Optional[np.ndarray],
    after: bool,
    tag: Optional[str],
) -> Step:
    """U = I + left @ basis^H on the gate's qubits, on the rows present.

    U moves the rows present only onto them and the rows where basis is
    nonzero; on the block of those rows R, out = block + left[R] @
    (basis[R]^H @ block), summed one rank-one term at a time, so the work
    follows the support and no product is left to BLAS.  A gate of at most
    8 rows takes them all as R: sorting the rows present costs more than
    the zero rows it adds, which ``_drop`` drops with no mass.  The domain
    is checked on the inputs, or with ``after`` on the outputs.
    """
    shifts, weights = _gather_bits(qubits)
    rest = ~_mask(qubits)
    touched = np.flatnonzero(np.any(basis != 0, axis=1))
    every = np.arange(len(basis))

    def step(idx: np.ndarray, amp: np.ndarray, batch: Batch):
        local = _move_bits(idx, shifts, weights)
        if in_domain is not None and not after:
            _check_inputs(in_domain, local, idx, amp, tag, batch)
        if len(every) <= 8:
            rows, row = every, local
        else:
            # with return_inverse, np.unique does not import numpy.ma (1 MiB of RSS)
            rows, row = np.unique(np.concatenate([local, touched]), return_inverse=True)
        patterns, column = np.unique(idx & rest, return_inverse=True)
        block = np.zeros((len(rows), len(patterns)), dtype=complex)
        block[row[: len(local)], column] = amp
        into, onto = basis[rows].conj(), left[rows]
        out = block.copy()
        for j in range(basis.shape[1]):
            out += onto[:, j, None] * np.sum(into[:, j, None] * block, axis=0)
        if in_domain is not None and after:
            stray = out[~in_domain[rows]]
            mass = np.sum(stray.real**2 + stray.imag**2, axis=0)
            _raise_stray(_per_state(batch, patterns, mass), tag)
        return _drop((_spread(rows, qubits)[:, None] | patterns).ravel(), out.ravel(), batch)

    return step


# per weight 0..c of a logic gate's c control bits, the pattern XORed onto
# its t targets
_FLIPS: Dict[str, Callable[[int, int], Sequence[int]]] = {
    "and": lambda c, t: [0] * c + [1],
    "or": lambda c, t: [0] + [1] * c,
    "nor": lambda c, t: [1] + [0] * c,
    "fanout": lambda c, t: [0, 2**t - 1],
}


def _step(gate: Gate) -> Step:
    """Compile one gate: every table, mask and matrix entry it needs is
    built here, once, and the returned step only indexes and multiplies."""
    kind = gate.kind
    p = gate.params
    ctrl = p.get("ctrl")
    if kind in _FLIPS:
        pattern = _FLIPS[kind](len(gate.controls), len(gate.targets))
        return _weight_step(gate.controls, gate.targets, pattern, ctrl)
    if kind == "product_reflection":
        return _reflection_step(*_product_support(gate.targets, p.get("local_states"), ctrl))
    qubits: Tuple[int, ...] = gate.controls + gate.targets
    table: Optional[np.ndarray] = None
    in_domain: Optional[np.ndarray] = None
    basis: Optional[np.ndarray] = None
    left: Optional[np.ndarray] = None
    after = False

    if kind == "swap":
        table = np.array([0, 2, 1, 3], dtype=np.int64)
    elif kind in ("unitary1", "ctrl_unitary1"):
        # B is the last two rows, where every control is set; L = B·(U − I)
        basis = np.zeros((2 ** len(qubits), 2), dtype=complex)
        basis[-2:] = np.eye(2)
        left = np.zeros_like(basis)
        left[-2:] = np.asarray(p["matrix"]) - np.eye(2)
    elif kind == "library":
        op = _compiled(p["tag"], p["args"])
        if len(qubits) != op.n_qubits:
            raise SimulationError(f"library gate {p['tag']!r} qubit count mismatch")
        if op.weight_map is not None:
            n_data, pattern = op.weight_map
            return _weight_step(qubits[:n_data], qubits[n_data:], pattern, ctrl)
        if p.get("checked", True):
            in_domain = op.in_domain
        after = p["inverse"]
        if op.table is not None:
            table = op.inverse_table if after else op.table
        else:
            basis, left = op.basis, op.left(after)
    else:
        raise SimulationError(f"cannot simulate gate kind {kind!r}")

    if ctrl is not None:
        qubits = (ctrl,) + qubits
        # the control is the new top bit: the gate acts only on the upper
        # half of the gate-local indices, and the lower half is its domain
        if table is not None:
            size = len(table)
            table = np.concatenate([np.arange(size, dtype=np.int64), size + table])
        if in_domain is not None:
            in_domain = np.concatenate([np.ones(len(in_domain), dtype=bool), in_domain])
        if basis is not None:
            basis, left = (np.concatenate([np.zeros_like(m), m]) for m in (basis, left))
    if table is not None:
        # the check falls on the outputs of an inverse, so read it by input
        ok = None if in_domain is None else (in_domain[table] if after else in_domain)
        return _table_step(qubits, table, ok, p.get("tag"))
    return _column_step(qubits, basis, left, in_domain, after, p.get("tag"))


Plan = Tuple[Union[Tuple[Step, ...], rounds.Round], ...]


def _layer(layer: Sequence[Gate]) -> Tuple[Step, ...]:
    return tuple(_step(gate) for gate in layer)


def _plan(circuit: Circuit) -> Plan:
    """The layers' steps, with each Grover round that ``rounds.find`` finds
    as one item; only the layers outside a round are compiled here."""
    if circuit.n_qubits > MAX_INDEX_QUBITS:
        raise SimulationError(
            f"a {circuit.n_qubits}-qubit circuit is over the {MAX_INDEX_QUBITS}-qubit "
            f"limit of int64 basis indices"
        )
    return rounds.fuse(circuit.layers, _layer)


def _sorted(n: int, idx: np.ndarray, amp: np.ndarray, bound: float) -> StateVector:
    order = np.argsort(idx)
    return StateVector(n, idx[order], amp[order], bound)


def _product_support(
    targets: Sequence[int], local_states: Optional[Sequence[np.ndarray]], ctrl: Optional[int]
) -> Tuple[np.ndarray, np.ndarray, int]:
    """The sorted support of a = |1⟩ on the control, if any, times
    local_states[i] on targets[i] (|0⟩ where none are given), and the mask
    of those bits."""
    on = 0 if ctrl is None else 1 << ctrl
    idx = np.array([on], dtype=np.int64)
    amp = np.ones(1, dtype=complex)
    # a |0⟩ factor sets no bit and scales by one
    for t, s in zip(targets, local_states or ()):
        parts = [(idx | (bit << t), amp * s[bit]) for bit in (0, 1) if s[bit] != 0]
        idx = np.concatenate([part[0] for part in parts])
        amp = np.concatenate([part[1] for part in parts])
    order = np.argsort(idx)
    return idx[order], amp[order], _mask(targets) | on


def _reflection_step(a_idx: np.ndarray, a_amp: np.ndarray, mask: int) -> Step:
    """I − 2|a⟩⟨a| as ψ − 2a⟨a|ψ⟩ for each pattern of the bits outside the
    mask; a's indices are sorted and inside it."""

    def step(idx: np.ndarray, amp: np.ndarray, batch: Batch):
        return _drop(*rounds.reflect(a_idx, a_amp, mask, idx, amp), batch)

    return step


def _execute(
    plan: Plan, idx: np.ndarray, amp: np.ndarray, batch: Batch, bound: float = 0.0
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replay the plan on the support of a batch of normalized states, each
    starting ``bound`` from its exact state, and check after each layer and
    round that every state's norm plus the mass it dropped is within
    ``NORM_TOL`` of one.  Returns the final support and each state's error
    bound.

    A round takes a = A|0⟩ from the state a run of one state from |0…0⟩
    held after A, or else compiles A's layers and runs them from |0…0⟩
    once per plan (their own norm checks and drops included).  It costs
    each state 2δ(2 + δ)·‖ψ‖ of bound, δ being a's: I − 2|a⟩⟨a| is that
    close to I − 2|A0⟩⟨A0|.
    """
    norm = _per_state(batch, idx, amp.real**2 + amp.imag**2)
    dropped = np.zeros(batch[1])
    bounds = np.full(batch[1], bound)
    held: Dict[Optional[int], Optional[StateVector]] = {}
    if batch[1] == 1 and idx.size == 1 and idx[0] == 0 and amp[0] == 1:
        held = {item.prefix: None for item in plan if isinstance(item, rounds.Round)}
    for i, item in enumerate(plan):
        if i in held:
            held[i] = _sorted(batch[0], idx, amp, float(bounds[0]) - bound)
        if isinstance(item, rounds.Round):
            a = held.get(item.prefix) or item.a
            if a is None:
                forward = rounds.fuse(item.layers, _layer)
                zero = (np.zeros(1, dtype=np.int64), np.ones(1, dtype=complex))
                a_idx, a_amp, a_bound = _execute(forward, *zero, (batch[0], 1))
                a = item.a = _sorted(batch[0], a_idx, a_amp, float(a_bound[0]))
            bounds += 2.0 * a.error_bound * (2.0 + a.error_bound) * np.sqrt(norm)
            item = (_reflection_step(a.indices, a.values, item.mask),)
        moved = False
        for step in item:
            idx, amp, kept, lost = step(idx, amp, batch)
            if kept is not None:
                norm, moved = kept, True
                if lost.any():
                    dropped += lost
                    bounds += np.sqrt(lost)
        # a layer of index maps only keeps every norm
        if moved:
            drift = np.abs(norm + dropped - 1.0)
            if drift.max() > NORM_TOL:
                worst = int(np.argmax(drift))
                raise SimulationError(f"state norm drifted to {float(norm[worst])!r}")
    return idx, amp, bounds


def _basis_index(n: int, initial: Optional[Dict[int, int]]) -> int:
    index = 0
    for qubit, bit in (initial or {}).items():
        if not 0 <= qubit < n:
            raise SimulationError(f"initial bit on qubit {qubit} of a {n}-qubit circuit")
        if bit:
            index |= 1 << qubit
    return index


Initial = Union[None, Dict[int, int], np.ndarray, StateVector]


def _support(n: int, initial: Initial) -> StateVector:
    """The support ``run`` starts from (a dense array gives its nonzero entries)."""
    if isinstance(initial, StateVector):
        idx = np.asarray(initial.indices, dtype=np.int64)
        amp = np.asarray(initial.values, dtype=complex)
        if initial.n_qubits != n or idx.shape != amp.shape or idx.ndim != 1:
            raise SimulationError(f"initial support does not describe a {n}-qubit state")
        if idx.size and (idx.min() < 0 or idx.max() >= 2**n or len(np.unique(idx)) < idx.size):
            raise SimulationError(f"initial support needs distinct indices below 2^{n}")
        state = StateVector(n, idx, amp, initial.error_bound)
    elif isinstance(initial, np.ndarray):
        amps = np.asarray(initial, dtype=complex).reshape(2**n)
        # a bool mask first: flatnonzero scans a complex array about 3x slower
        idx = np.flatnonzero(amps != 0)
        amp = amps[idx]
        state = StateVector(n, idx, amp)
    else:
        idx = np.array([_basis_index(n, initial)], dtype=np.int64)
        return StateVector(n, idx, np.ones(1, dtype=complex))
    if abs(float(np.sum(amp.real**2 + amp.imag**2)) - 1.0) > NORM_TOL:
        raise SimulationError("initial state is not normalized")
    return state


def run(circuit: Circuit, initial: Initial = None) -> StateVector:
    """Simulate the circuit from ``initial``: a normalized ``StateVector``
    (a support on the circuit's qubits), a normalized dense 2^n array, or
    the basis state with the listed qubits set (every qubit zero for None).

    After each layer the norm of the state plus the mass dropped so far must
    be within ``NORM_TOL`` of one.
    """
    n = circuit.n_qubits
    plan = _plan(circuit)
    state = _support(n, initial)
    idx, amp, bound = _execute(plan, state.indices, state.values, (n, 1), state.error_bound)
    return StateVector(n, idx, amp, float(bound[0]))


# ---- verification ----


def project(state: StateVector, qubits: Sequence[int]) -> np.ndarray:
    """Amplitudes over the listed qubits with every other qubit at zero.

    Entry i sets qubits[0] to the top bit of i, qubits[-1] to its low bit.
    """
    out = np.zeros(2 ** len(qubits), dtype=complex)
    kept = (state.indices & ~_mask(qubits)) == 0
    out[_gather(state.indices[kept], qubits)] = state.values[kept]
    return out


def output_overlap(
    state: StateVector, target: np.ndarray, output_qubits: Sequence[int]
) -> complex:
    """Overlap of the state with target on the outputs and zeros elsewhere."""
    if target.shape != (2 ** len(output_qubits),):
        raise ValueError("target length does not match the output register")
    return complex(np.sum(np.conj(target) * project(state, output_qubits)))


def residual_mass(state: StateVector, qubits: Sequence[int]) -> float:
    """Probability that at least one of the listed qubits is not zero."""
    stray = state.values[(state.indices & _mask(qubits)) != 0]
    return float(np.sum(stray.real**2 + stray.imag**2))


def check_clean_preparation(
    circuit: Circuit,
    target: np.ndarray,
    output_qubits: Sequence[int],
    initial: Initial = None,
    clean_tol: float = 1e-9,
) -> VerificationResult:
    """Run the circuit and bound its fidelity with ``target`` on the outputs
    (every other qubit zero) from below and its mass off the zero state of
    the other qubits from above; ``clean`` means that bound is below
    ``clean_tol``.  A target that is not unit norm within 1e-9 raises
    ValueError."""
    norm = float(np.sum(target.real**2 + target.imag**2))
    # written so that a NaN or an infinite entry fails it too
    if not abs(norm - 1.0) <= 1e-9:
        raise ValueError(f"target has squared norm {norm!r}, need 1")
    state = run(circuit, initial)
    delta = state.error_bound
    outputs = set(output_qubits)
    non_output = [q for q in range(circuit.n_qubits) if q not in outputs]
    fid, _ = mass_bounds(output_overlap(state, target, output_qubits), delta)
    _, stray = mass_bounds(math.sqrt(residual_mass(state, non_output)), delta)
    return VerificationResult(
        fidelity=fid,
        clean=stray < clean_tol,
        residual_ancilla_mass=stray,
        error_bound=delta,
        state=state,
    )


# ---- certification of explicit constructions ----


@dataclass(frozen=True)
class CertificationReport:
    tag: str
    args: Tuple[Any, ...]
    inputs_checked: int
    worst_overlap: float


# The widest index a batch of certification states may reach: the state
# numbers sit above the circuit's qubits, and int64 indices hold 63 bits.
_BATCH_INDEX_BITS = 62


def certify(
    tag: str,
    args: Tuple[Any, ...],
    sem: library.LibrarySemantics,
    explicit: Circuit,
    io_qubits: Sequence[int],
    tol: float = 1e-9,
    domain_subset: Optional[Sequence[int]] = None,
    probe: bool = True,
) -> CertificationReport:
    """Check an explicit circuit against the declared semantics ``sem``;
    ``tag`` and ``args`` name them in the report and in errors.

    Each domain input is simulated and compared phase-strictly (the real
    part of the overlap must reach 1 - tol, so even a global phase fails).
    A uniform superposition probe over the domain is run as well, which
    catches errors on inputs left out by ``domain_subset``.

    The inputs and then the probe run as one batch of independent states
    (as few batches as keep the indices in int64), each with its own norm
    check, domain checks and error bound, as in a run of its own.  The
    error raised is the one separate runs in that order would raise first:
    a batch that raises ``SimulationError`` is run again state by state.
    """
    w = sem.n_qubits
    if len(io_qubits) != w:
        raise CertificationError(f"{tag!r} spans {w} qubits")
    domain = list(range(2**w)) if sem.domain is None else [int(d) for d in sem.domain]
    inputs = list(domain_subset) if domain_subset is not None else domain
    outside = sorted(set(inputs) - set(domain))
    if outside:
        raise CertificationError(
            f"{tag}{args} declares no action on input {outside[0]}: "
            f"it is outside the gate's domain"
        )

    n = explicit.n_qubits
    if len(set(io_qubits)) != w or not all(0 <= q < n for q in io_qubits):
        raise CertificationError(f"{tag!r} needs {w} distinct qubits of the circuit")
    plan = _plan(explicit)
    starts = _spread(np.asarray(inputs, dtype=np.int64), io_qubits)
    # the entries that count towards an overlap have every other qubit zero
    others = ((1 << n) - 1) ^ _mask(io_qubits)
    targets = None
    if sem.permutation is not None:
        # a basis input's declared output is the one index permutation[d];
        # the probe, if any, matches no index
        targets = np.append(sem.permutation[np.asarray(inputs, dtype=np.int64)], -1)
    states = len(inputs)
    if probe and len(domain) > 1:
        # state number len(inputs): the uniform superposition over the domain
        scale = 1.0 / np.sqrt(len(domain))
        probe_start = _spread(np.asarray(domain, dtype=np.int64), io_qubits)
        if sem.permutation is not None:
            probe_output = np.zeros(2**w, dtype=complex)
            probe_output[sem.permutation[domain]] = scale
        else:
            probe_output = np.asarray(sum(sem.columns[d] for d in domain) * scale)
        states += 1

    def overlaps(lo: int, hi: int) -> np.ndarray:
        """Real part of the overlap of states lo..hi-1 with their declared
        outputs, less each state's error bound (the real part moves by at
        most that much), from one batched run."""
        numbers = np.arange(lo, min(hi, len(inputs)))
        idx = [((numbers - lo) << n) | starts[numbers]]
        amp = [np.ones(len(numbers), dtype=complex)]
        if hi > len(inputs):
            idx.append(((len(inputs) - lo) << n) | probe_start)
            amp.append(np.full(len(domain), scale, dtype=complex))
        idx, amp, bounds = _execute(plan, np.concatenate(idx), np.concatenate(amp), (n, hi - lo))
        on = (idx & others) == 0
        state, local, amp = idx[on] >> n, _gather(idx[on], io_qubits), amp[on]
        vectors = {}
        if targets is not None:
            hit = local == targets[lo + state]
            out = np.bincount(state[hit], weights=amp[hit].real, minlength=hi - lo)
        else:
            out = np.zeros(hi - lo)
            vectors = {s - lo: sem.columns[inputs[s]] for s in numbers}
        if hi > len(inputs):
            vectors[len(inputs) - lo] = probe_output
        for s, vector in vectors.items():
            mine = state == s
            out[s] = np.sum(np.conj(vector[local[mine]]) * amp[mine]).real
        return out - bounds

    per_batch = 1 << max(0, _BATCH_INDEX_BITS - n)
    worst = 1.0
    for lo in range(0, states, per_batch):
        hi = min(states, lo + per_batch)
        try:
            runs: Iterable[Tuple[int, np.ndarray]] = [(lo, overlaps(lo, hi))]
        except SimulationError:
            # some state fails a check: run each on its own, in order, so
            # that the error raised is the one separate runs meet first
            runs = ((s, overlaps(s, s + 1)) for s in range(lo, hi))
        for first, found in runs:
            bad = np.flatnonzero(found < 1.0 - tol)
            if bad.size:
                s, ov = first + int(bad[0]), float(found[bad[0]])
                failure = (
                    f"disagrees with its declared action on input {inputs[s]:0{w}b}"
                    if s < len(inputs)
                    else "fails the superposition probe"
                )
                raise CertificationError(f"{tag}{args} {failure} (overlap {ov:.12f})")
            worst = min(worst, float(found.min()))
    return CertificationReport(tag, args, states, worst)


def certify_library_gate(
    tag: str,
    args: Tuple[Any, ...],
    explicit: Circuit,
    io_qubits: Sequence[int],
    max_qubits: int = 16,
    tol: float = 1e-9,
    domain_subset: Optional[Sequence[int]] = None,
    probe: bool = True,
) -> CertificationReport:
    """``certify`` an explicit circuit against the registry's semantics of
    the library gate (tag, args)."""
    if explicit.n_qubits > max_qubits:
        raise CertificationError(
            f"certification of {tag!r} needs {explicit.n_qubits} qubits; "
            f"raise max_qubits to allow it"
        )
    sem = library.semantics(tag, args)
    return certify(tag, args, sem, explicit, io_qubits, tol, domain_subset, probe)
