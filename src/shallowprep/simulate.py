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
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from . import library
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
# amplitudes.  A circuit is compiled once into a plan, one step per gate, and
# each run replays the plan on a support.  A gate that flips bits by a
# predicate on other bits XORs a mask into each index; a permutation gate
# remaps indices through a table over its gate-local index; a matrix gate
# acts on a block whose rows are gate-local indices and whose columns are
# the G distinct patterns of the other qubits present in the support.  No
# step makes a BLAS call: after a threaded call OpenBLAS keeps its second
# thread spinning, which on a 2-core host doubled the CPU time of a run
# and saved no wall time.

# step(indices, amplitudes) -> (indices, amplitudes, squared norm or None
# when the gate only moves or negates amplitudes, squared norm dropped)
Step = Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray, Optional[float], float]]


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


def _raise_stray(stray: np.ndarray, tag: str) -> None:
    """Raise if the amplitudes a library gate holds outside its domain carry
    more than DOMAIN_TOL of mass."""
    outside = float(np.sum(stray.real**2 + stray.imag**2))
    if outside > DOMAIN_TOL:
        raise SimulationError(
            f"library gate {tag!r} driven outside its domain "
            f"(stray mass {outside:.3e})"
        )


def _check_inputs(ok: np.ndarray, local: np.ndarray, amp: np.ndarray, tag: str) -> None:
    """ok[local] is False for an input that drives the gate outside its domain."""
    stray = ~ok[local]
    if stray.any():
        _raise_stray(amp[stray], tag)


def _kept(out: np.ndarray, rows: np.ndarray, patterns: np.ndarray):
    """The entries of a (rows, patterns) block as a step returns them: those
    below DROP_EPS in magnitude are dropped and their squared norm counted."""
    mag = (out.real**2 + out.imag**2).ravel()
    # an entry whose square underflows (|a| < 1e-161) adds nothing to the bound
    keep = mag >= DROP_EPS * DROP_EPS
    flat = np.flatnonzero(keep)
    r, c = np.divmod(flat, out.shape[1])
    return (
        patterns[c] | rows[r],
        out.ravel()[flat],
        float(np.sum(mag[flat])),
        float(np.sum(mag[~keep])),
    )


def _weight_step(
    data: Sequence[int], out: Sequence[int], pattern: Sequence[int], ctrl: Optional[int]
) -> Step:
    """XOR pattern[weight of the data bits] into the out qubits (out[0] takes
    its top bit), where the control bit, if any, is set."""
    data_mask = _mask(data)
    delta = _spread(np.asarray(pattern, dtype=np.int64), out)

    def step(idx: np.ndarray, amp: np.ndarray):
        flip = delta[np.bitwise_count(idx & data_mask)]
        if ctrl is not None:
            flip *= (idx >> ctrl) & 1
        return idx ^ flip, amp, None, 0.0

    return step


def _table_step(
    qubits: Sequence[int], table: np.ndarray, ok: Optional[np.ndarray], tag: Optional[str]
) -> Step:
    """A permutation of gate-local indices; ok[local] is False for an input
    that drives the gate outside its domain."""
    shifts, weights = _gather_bits(qubits)
    # the bits each gate-local input flips, spread onto the circuit's qubits
    delta = _spread(np.arange(len(table), dtype=np.int64) ^ table, qubits)

    def step(idx: np.ndarray, amp: np.ndarray):
        local = _move_bits(idx, shifts, weights)
        if ok is not None:
            _check_inputs(ok, local, amp, tag)
        return idx ^ delta[local], amp, None, 0.0

    return step


def _two_by_two(matrix: Any) -> Callable[[np.ndarray], np.ndarray]:
    """The 2x2 matrix on the last two rows of a block, the rows above kept
    (they are the rows where a control bit is zero); elementwise, as a
    BLAS product on a block this small costs more than it computes."""
    (a, b), (c, d) = [[complex(x) for x in row] for row in np.asarray(matrix)]

    def fn(block: np.ndarray) -> np.ndarray:
        out = block.copy()
        low, high = block[-2], block[-1]
        out[-2] = a * low + b * high
        out[-1] = c * low + d * high
        return out

    return fn


def _matrix_step(qubits: Sequence[int], fn: Callable[[np.ndarray], np.ndarray]) -> Step:
    """A block map on every row of the gate's (at most three) qubits."""
    shifts, weights = _gather_bits(qubits)
    rows = _spread(np.arange(2 ** len(qubits), dtype=np.int64), qubits)
    rest = ~_mask(qubits)

    def step(idx: np.ndarray, amp: np.ndarray):
        local = _move_bits(idx, shifts, weights)
        patterns, column = np.unique(idx & rest, return_inverse=True)
        block = np.zeros((len(rows), len(patterns)), dtype=complex)
        block[local, column] = amp
        return _kept(fn(block), rows, patterns)

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
    follows the support and no product is left to BLAS.  The domain is
    checked on the inputs, or with ``after`` on the outputs.
    """
    shifts, weights = _gather_bits(qubits)
    rest = ~_mask(qubits)
    touched = np.flatnonzero(np.any(basis != 0, axis=1))

    def step(idx: np.ndarray, amp: np.ndarray):
        local = _move_bits(idx, shifts, weights)
        if in_domain is not None and not after:
            _check_inputs(in_domain, local, amp, tag)
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
            _raise_stray(out[~in_domain[rows]], tag)
        return _kept(out, _spread(rows, qubits), patterns)

    return step


def _sign_step(targets: Sequence[int], ctrl: Optional[int]) -> Step:
    """I - 2|0...0><0...0| negates the entries with every target bit clear
    (and the control bit set)."""
    on = 0 if ctrl is None else 1 << ctrl
    mask = _mask(targets) | on

    def step(idx: np.ndarray, amp: np.ndarray):
        return idx, np.where((idx & mask) == on, -amp, amp), None, 0.0

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
    if kind == "product_reflection" and p.get("local_states") is None:
        return _sign_step(gate.targets, ctrl)
    if kind in _FLIPS:
        pattern = _FLIPS[kind](len(gate.controls), len(gate.targets))
        return _weight_step(gate.controls, gate.targets, pattern, ctrl)
    qubits: Tuple[int, ...] = gate.controls + gate.targets
    if kind in ("unitary1", "ctrl_unitary1"):
        # the 2x2 acts on the last two rows, which already need every control set
        return _matrix_step(qubits if ctrl is None else (ctrl,) + qubits, _two_by_two(p["matrix"]))
    table: Optional[np.ndarray] = None
    in_domain: Optional[np.ndarray] = None
    basis: Optional[np.ndarray] = None
    left: Optional[np.ndarray] = None
    after = False

    if kind == "swap":
        table = np.array([0, 2, 1, 3], dtype=np.int64)
    elif kind == "product_reflection":
        # I - 2 v v^H with v the product of the local states
        vec = p["local_states"][0]
        for s in p["local_states"][1:]:
            vec = np.kron(vec, s)
        basis = vec[:, None]
        left = -2.0 * basis
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


Plan = Tuple[Tuple[Step, ...], ...]


def _plan(circuit: Circuit) -> Plan:
    """One step per gate, layer by layer."""
    return tuple(tuple(_step(gate) for gate in layer) for layer in circuit.layers)


def _execute(plan: Plan, state: StateVector) -> StateVector:
    """Replay the plan on a normalized support, checking the norm after
    each layer as ``run`` describes."""
    idx, amp = state.indices, state.values
    norm = float(np.sum(amp.real**2 + amp.imag**2))
    dropped = 0.0
    bound = state.error_bound
    for layer in plan:
        for step in layer:
            idx, amp, kept, lost = step(idx, amp)
            if kept is not None:
                norm = kept
            if lost:
                dropped += lost
                bound += math.sqrt(lost)
        if abs(norm + dropped - 1.0) > NORM_TOL:
            raise SimulationError(f"state norm drifted to {norm!r}")
    return StateVector(state.n_qubits, idx, amp, bound)


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
    return _execute(_plan(circuit), _support(circuit.n_qubits, initial))


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
    ``clean_tol``."""
    state = run(circuit, initial)
    delta = state.error_bound
    non_output = [q for q in range(circuit.n_qubits) if q not in set(output_qubits)]
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


def _declared_output(sem: library.LibrarySemantics, local_index: int) -> np.ndarray:
    if sem.permutation is None:
        return sem.columns[local_index]
    col = np.zeros(2**sem.n_qubits, dtype=complex)
    col[sem.permutation[local_index]] = 1.0
    return col


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

    def cases():
        """(initial support, declared output on io_qubits, failure message)"""
        starts = _spread(np.asarray(inputs, dtype=np.int64), io_qubits)
        for d, start in zip(inputs, starts):
            yield (
                StateVector(n, start.reshape(1), np.ones(1, dtype=complex)),
                _declared_output(sem, d),
                f"disagrees with its declared action on input {d:0{w}b}",
            )
        if probe and len(domain) > 1:
            scale = 1.0 / np.sqrt(len(domain))
            idx = _spread(np.asarray(domain, dtype=np.int64), io_qubits)
            expected = sum(_declared_output(sem, d) for d in domain) * scale
            yield (
                StateVector(n, idx, np.full(len(domain), scale, dtype=complex)),
                np.asarray(expected),
                "fails the superposition probe",
            )

    worst = 1.0
    checked = 0
    for initial, expected, failure in cases():
        state = _execute(plan, initial)
        # the real part of an overlap moves by at most the error bound
        ov = output_overlap(state, expected, io_qubits).real - state.error_bound
        worst = min(worst, ov)
        if ov < 1.0 - tol:
            raise CertificationError(f"{tag}{args} {failure} (overlap {ov:.12f})")
        checked += 1
    return CertificationReport(tag, args, checked, worst)


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


def workers_from_env() -> int:
    raw = os.environ.get("SHALLOWPREP_WORKERS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1
