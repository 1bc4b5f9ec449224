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

    Permutation gates keep their table, its inverse and, for a partial
    domain, a mask of the domain inputs.  Column-declared gates keep the
    low-rank form I + basis @ correction @ basis_h of their unitary.
    """

    n_qubits: int
    domain: Optional[np.ndarray]
    table: Optional[np.ndarray] = None
    inverse_table: Optional[np.ndarray] = None
    in_domain: Optional[np.ndarray] = None
    basis: Optional[np.ndarray] = None
    basis_h: Optional[np.ndarray] = None
    correction: Optional[np.ndarray] = None


_OP_CACHE: Dict[Tuple[str, Tuple[Any, ...]], _CompiledOp] = {}


def _compiled(tag: str, args: Tuple[Any, ...]) -> _CompiledOp:
    key = (tag, args)
    if key in _OP_CACHE:
        return _OP_CACHE[key]
    sem = library.semantics(tag, args)
    domain = None if sem.domain is None else np.asarray(sem.domain)
    if sem.permutation is not None:
        table = sem.permutation
        inverse = np.empty_like(table)
        inverse[table] = np.arange(len(table), dtype=table.dtype)
        in_domain = None
        if domain is not None:
            in_domain = np.zeros(len(table), dtype=bool)
            in_domain[domain] = True
        op = _CompiledOp(
            sem.n_qubits, domain, table=table, inverse_table=inverse, in_domain=in_domain
        )
    else:
        basis, correction = library.low_rank_completion(sem.n_qubits, sem.columns)
        op = _CompiledOp(
            sem.n_qubits,
            domain,
            basis=basis,
            basis_h=basis.conj().T,
            correction=correction,
        )
    _OP_CACHE[key] = op
    return op


# ---- kernel ----
#
# The state is held as its support: distinct int64 basis indices and their
# amplitudes.  A circuit is compiled once into a plan, one step per gate, and
# each run replays the plan on a support.  A permutation gate remaps indices
# through a table over its gate-local index; a matrix gate acts on a
# (2^w, G) block whose columns are the G distinct patterns of the other
# qubits present in the support.

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


def _controlled(fn: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """Restrict fn to the rows where the control (the top bit) is one."""

    def wrapped(block: np.ndarray) -> np.ndarray:
        half = block.shape[0] // 2
        out = block.copy()
        out[half:] = fn(block[half:])
        return out

    return wrapped


def _logic_table(kind: str, n_inputs: int) -> np.ndarray:
    """Flip the target (the low bit) when the inputs meet the gate's predicate."""
    local = np.arange(2 ** (n_inputs + 1), dtype=np.int64)
    ins = local >> 1
    if kind == "and":
        pred = ins == 2**n_inputs - 1
    elif kind == "or":
        pred = ins != 0
    else:
        pred = ins == 0
    return local ^ pred


def _check_domain(block: np.ndarray, domain: np.ndarray, tag: str) -> None:
    mass = np.sum(np.abs(block) ** 2, axis=1)
    _raise_stray(float(np.sum(mass) - np.sum(mass[domain])), tag)


def _raise_stray(outside: float, tag: str) -> None:
    if outside > DOMAIN_TOL:
        raise SimulationError(
            f"library gate {tag!r} driven outside its domain "
            f"(stray mass {outside:.3e})"
        )


def _library_fn(gate: Gate) -> Tuple[Callable[[np.ndarray], np.ndarray], int]:
    """Block map and width of a column-declared library gate."""
    p = gate.params
    op = _compiled(p["tag"], p["args"])
    inverse = p["inverse"]
    domain = op.domain if p.get("checked", True) else None
    tag = p["tag"]
    basis, basis_h = op.basis, op.basis_h
    correction = op.correction.conj().T if inverse else op.correction

    def fn(block: np.ndarray) -> np.ndarray:
        if domain is not None and not inverse:
            _check_domain(block, domain, tag)
        out = basis @ (correction @ (basis_h @ block))
        out += block
        if domain is not None and inverse:
            _check_domain(out, domain, tag)
        return out

    return fn, op.n_qubits


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
            stray = ~ok[local]
            if stray.any():
                _raise_stray(float(np.sum(np.abs(amp[stray]) ** 2)), tag)
        return idx ^ delta[local], amp, None, 0.0

    return step


def _matrix_step(qubits: Sequence[int], fn: Callable[[np.ndarray], np.ndarray]) -> Step:
    """A block map on the gate's qubits, dropping what it leaves below DROP_EPS."""
    shifts, weights = _gather_bits(qubits)
    rows = _spread(np.arange(2 ** len(qubits), dtype=np.int64), qubits)
    rest = ~_mask(qubits)

    def step(idx: np.ndarray, amp: np.ndarray):
        local = _move_bits(idx, shifts, weights)
        patterns, column = np.unique(idx & rest, return_inverse=True)
        block = np.zeros((len(rows), len(patterns)), dtype=complex)
        block[local, column] = amp
        out = fn(block)
        mag = out.real**2 + out.imag**2
        # an entry whose square underflows (|a| < 1e-161) adds nothing to the bound
        keep = mag >= DROP_EPS * DROP_EPS
        r, c = np.nonzero(keep)
        return (
            patterns[c] | rows[r],
            out[r, c],
            float(np.sum(mag[r, c])),
            float(np.sum(mag, where=~keep)),
        )

    return step


def _sign_step(targets: Sequence[int], ctrl: Optional[int]) -> Step:
    """I - 2|0...0><0...0| negates the entries with every target bit clear
    (and the control bit set)."""
    on = 0 if ctrl is None else 1 << ctrl
    mask = _mask(targets) | on

    def step(idx: np.ndarray, amp: np.ndarray):
        return idx, np.where((idx & mask) == on, -amp, amp), None, 0.0

    return step


def _step(gate: Gate) -> Step:
    """Compile one gate: every table, weight and matrix entry it needs is
    built here, once, and the returned step only indexes and multiplies."""
    kind = gate.kind
    p = gate.params
    extra_ctrl = p.get("ctrl")
    if kind == "product_reflection" and p.get("local_states") is None:
        return _sign_step(gate.targets, extra_ctrl)
    table: Optional[np.ndarray] = None
    in_domain: Optional[np.ndarray] = None
    after = False

    if kind == "unitary1":
        qubits: Tuple[int, ...] = gate.targets
        fn = _two_by_two(p["matrix"])
    elif kind == "ctrl_unitary1":
        qubits = gate.controls + gate.targets
        fn = _two_by_two(p["matrix"])
    elif kind in ("and", "or", "nor"):
        qubits = gate.controls + gate.targets
        table = _logic_table(kind, len(gate.controls))
    elif kind == "fanout":
        qubits = gate.controls + gate.targets
        w = len(qubits)
        table = np.arange(2**w, dtype=np.int64)
        table[2 ** (w - 1) :] ^= 2 ** (w - 1) - 1
    elif kind == "swap":
        qubits = gate.targets
        table = np.array([0, 2, 1, 3], dtype=np.int64)
    elif kind == "product_reflection":
        qubits = gate.targets
        states = p["local_states"]
        vec = states[0]
        for s in states[1:]:
            vec = np.kron(vec, s)
        vec_h = vec.conj()[:, None]

        def fn(block: np.ndarray) -> np.ndarray:
            return block - 2.0 * np.outer(vec, (vec_h * block).sum(axis=0))

    elif kind == "library":
        op = _compiled(p["tag"], p["args"])
        qubits = gate.targets
        if len(qubits) != op.n_qubits:
            raise SimulationError(f"library gate {p['tag']!r} qubit count mismatch")
        if op.table is None:
            fn = _library_fn(gate)[0]
        else:
            table = op.inverse_table if p["inverse"] else op.table
            if p.get("checked", True):
                in_domain = op.in_domain
            after = p["inverse"]
    else:
        raise SimulationError(f"cannot simulate gate kind {kind!r}")

    if extra_ctrl is not None:
        qubits = (extra_ctrl,) + qubits
        # the control is the new top bit: the table doubles, identity below
        if table is not None:
            size = len(table)
            table = np.concatenate([np.arange(size, dtype=np.int64), size + table])
        if in_domain is not None:
            in_domain = np.concatenate([np.ones(len(in_domain), dtype=bool), in_domain])
    if table is not None:
        # the check falls on the outputs of an inverse, so read it by input
        ok = None if in_domain is None else (in_domain[table] if after else in_domain)
        return _table_step(qubits, table, ok, p.get("tag"))
    # a 2x2 acts on the last two rows, which already need every control set
    if extra_ctrl is not None and kind not in ("unitary1", "ctrl_unitary1"):
        fn = _controlled(fn)
    return _matrix_step(qubits, fn)


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
