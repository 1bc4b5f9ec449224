"""Exact statevector simulation of circuits, plus verification helpers.

Gates act only on the basis states present in the state (its nonzero
support); ``run`` returns the final state as a dense amplitude vector.

Conventions: qubit i is bit i of the flat amplitude index (qubit 0 is the
least significant bit).  Inside a gate, the first listed qubit is the most
significant bit of the gate-local index; library semantics use the same
rule, so tables and columns line up with no re-indexing.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import library
from .circuits import Circuit, Gate

NORM_TOL = 1e-10
DOMAIN_TOL = 1e-9


class SimulationError(RuntimeError):
    """Raised when a circuit drives a gate outside its promised behavior."""


class CertificationError(RuntimeError):
    """Raised when an explicit construction disagrees with its declared action."""


@dataclass
class StateVector:
    amplitudes: np.ndarray

    @property
    def n_qubits(self) -> int:
        return self.amplitudes.size.bit_length() - 1


@dataclass(frozen=True)
class VerificationResult:
    fidelity: float
    clean: bool
    residual_ancilla_mass: float


# ---- compiled library operations ----


@dataclass
class _CompiledOp:
    """A library gate ready to apply.

    Permutation gates keep their table, its inverse and, for a partial
    domain, a mask of the domain inputs.  Column-declared gates keep their
    declared columns and the low-rank form
    I + basis @ correction @ basis_h of their unitary.
    """

    n_qubits: int
    domain: Optional[np.ndarray]
    table: Optional[np.ndarray] = None
    inverse_table: Optional[np.ndarray] = None
    in_domain: Optional[np.ndarray] = None
    columns: Optional[Dict[int, np.ndarray]] = None
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
            columns=sem.columns,
            basis=basis,
            basis_h=basis.conj().T,
            correction=correction,
        )
    _OP_CACHE[key] = op
    return op


# ---- kernel ----
#
# The state is held as its support: distinct int64 basis indices and their
# amplitudes.  A permutation gate remaps indices through a table over its
# gate-local index; a matrix gate acts on a (2^w, G) block whose columns are
# the G distinct patterns of the other qubits present in the support.


def _gather(idx: np.ndarray, qubits: Sequence[int]) -> np.ndarray:
    """Gate-local index of each basis index; qubits[0] is the top bit."""
    w = len(qubits)
    local = np.zeros_like(idx)
    for j, q in enumerate(qubits):
        local |= ((idx >> q) & 1) << (w - 1 - j)
    return local


def _spread(local: np.ndarray, qubits: Sequence[int]) -> np.ndarray:
    """Basis index with the gate-local bits on their qubits, others zero."""
    w = len(qubits)
    idx = np.zeros_like(local)
    for j, q in enumerate(qubits):
        idx |= ((local >> (w - 1 - j)) & 1) << q
    return idx


def _with_controls(n_ctrl: int, fn: Callable[[np.ndarray], np.ndarray]):
    """Restrict fn to the rows where every control bit is one."""
    if n_ctrl == 0:
        return fn

    def wrapped(block: np.ndarray) -> np.ndarray:
        rows = block.shape[0]
        sub = rows >> n_ctrl
        out = block.copy()
        out[rows - sub :] = fn(block[rows - sub :])
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


Remap = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _table_remap(
    table: np.ndarray, in_domain: Optional[np.ndarray], after: bool, tag: str
) -> Remap:
    """remap(local, amp) -> new local, checking the domain before or after."""

    def remap(local: np.ndarray, amp: np.ndarray) -> np.ndarray:
        out = table[local]
        if in_domain is not None:
            stray = ~in_domain[out if after else local]
            _raise_stray(float(np.sum(np.abs(amp[stray]) ** 2)), tag)
        return out

    return remap


def _gate_action(
    gate: Gate,
) -> Tuple[Tuple[int, ...], Optional[Remap], Optional[Callable[[np.ndarray], np.ndarray]]]:
    """(qubits, remap, fn): qubits[0] is the top gate-local bit; a permutation
    gate gives a remap of gate-local indices, a matrix gate a block map fn."""
    kind = gate.kind
    p = gate.params
    extra_ctrl = p.get("ctrl")
    table: Optional[np.ndarray] = None
    in_domain: Optional[np.ndarray] = None
    after = False
    n_ctrl = 0

    if kind == "unitary1":
        mat = np.asarray(p["matrix"])
        qubits: Tuple[int, ...] = gate.targets
        fn = lambda block: mat @ block  # noqa: E731
    elif kind == "ctrl_unitary1":
        mat = np.asarray(p["matrix"])
        qubits = gate.controls + gate.targets
        fn = lambda block: mat @ block  # noqa: E731
        n_ctrl = 1
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
        states = p.get("local_states")
        if states is None:

            def fn(block: np.ndarray) -> np.ndarray:
                out = block.copy()
                out[0] = -out[0]
                return out

        else:
            vec = states[0]
            for s in states[1:]:
                vec = np.kron(vec, s)

            def fn(block: np.ndarray) -> np.ndarray:
                return block - 2.0 * np.outer(vec, vec.conj() @ block)

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
        n_ctrl += 1
        # the control is the new top bit: the table doubles, identity below
        if table is not None:
            size = len(table)
            table = np.concatenate([np.arange(size, dtype=np.int64), size + table])
        if in_domain is not None:
            in_domain = np.concatenate([np.ones(len(in_domain), dtype=bool), in_domain])
    if table is not None:
        return qubits, _table_remap(table, in_domain, after, p.get("tag")), None
    return qubits, None, _with_controls(n_ctrl, fn)


def apply_gate(
    idx: np.ndarray, amp: np.ndarray, gate: Gate
) -> Tuple[np.ndarray, np.ndarray]:
    """Apply one gate to the support (idx, amp); returns the new support."""
    qubits, remap, fn = _gate_action(gate)
    local = _gather(idx, qubits)
    if remap is not None:
        return idx ^ _spread(local ^ remap(local, amp), qubits), amp
    mask = 0
    for q in qubits:
        mask |= 1 << q
    patterns, column = np.unique(idx & ~mask, return_inverse=True)
    block = np.zeros((2 ** len(qubits), len(patterns)), dtype=complex)
    block[local, column] = amp
    out = fn(block)
    rows, cols = np.nonzero(out)
    return patterns[cols] | _spread(rows, qubits), out[rows, cols]


def initial_state(
    n: int, initial: Union[None, Dict[int, int], np.ndarray] = None
) -> np.ndarray:
    if isinstance(initial, np.ndarray):
        amps = np.asarray(initial, dtype=complex).reshape(2**n)
        if abs(np.vdot(amps, amps) - 1.0) > NORM_TOL:
            raise SimulationError("initial state is not normalized")
        return amps.copy()
    amps = np.zeros(2**n, dtype=complex)
    idx = 0
    if initial:
        for qubit, bit in initial.items():
            if bit:
                idx |= 1 << qubit
    amps[idx] = 1.0
    return amps


def run(
    circuit: Circuit,
    initial: Union[None, Dict[int, int], np.ndarray] = None,
) -> StateVector:
    n = circuit.n_qubits
    amps = initial_state(n, initial)
    # a bool mask first: flatnonzero scans a complex array about 3x slower
    idx = np.flatnonzero(amps != 0)
    amp = amps[idx]
    del amps
    for layer in circuit.layers:
        for gate in layer:
            idx, amp = apply_gate(idx, amp, gate)
        norm = float(np.real(np.vdot(amp, amp)))
        if abs(norm - 1.0) > NORM_TOL:
            raise SimulationError(f"state norm drifted to {norm!r}")
    # fresh zeros are mapped lazily, so only the pages the support touches
    # are written
    amps = np.zeros(2**n, dtype=complex)
    amps[idx] = amp
    return StateVector(amplitudes=amps)


# ---- verification ----


def project(state: StateVector, qubits: Sequence[int]) -> np.ndarray:
    """Amplitudes over the listed qubits with every other qubit at zero.

    Entry i sets qubits[0] to the top bit of i, qubits[-1] to its low bit.
    """
    local = np.arange(2 ** len(qubits), dtype=np.int64)
    return state.amplitudes[_spread(local, qubits)]


def output_overlap(
    state: StateVector, target: np.ndarray, output_qubits: Sequence[int]
) -> complex:
    """Overlap of the state with target on the outputs and zeros elsewhere."""
    if target.shape != (2 ** len(output_qubits),):
        raise ValueError("target length does not match the output register")
    return complex(np.conj(target) @ project(state, output_qubits))


def residual_mass(state: StateVector, qubits: Sequence[int]) -> float:
    """Probability that at least one of the listed qubits is not zero."""
    if not qubits:
        return 0.0
    listed = set(qubits)
    # the other qubits top bit first, so the sum runs in basis-index order
    others = [q for q in reversed(range(state.n_qubits)) if q not in listed]
    zero_mass = float(np.sum(np.abs(project(state, others)) ** 2))
    return max(0.0, 1.0 - zero_mass)


def check_clean_preparation(
    circuit: Circuit,
    target: np.ndarray,
    output_qubits: Sequence[int],
    initial: Union[None, Dict[int, int], np.ndarray] = None,
    clean_tol: float = 1e-9,
) -> VerificationResult:
    state = run(circuit, initial)
    non_output = [q for q in range(circuit.n_qubits) if q not in set(output_qubits)]
    residual = residual_mass(state, non_output)
    fid = abs(output_overlap(state, target, output_qubits)) ** 2
    return VerificationResult(
        fidelity=fid, clean=residual < clean_tol, residual_ancilla_mass=residual
    )


def dump(state: StateVector, circuit: Circuit, cutoff: float = 1e-12) -> List[Tuple[str, float, float]]:
    """Nonzero amplitudes as (bit string, real, imag), register order."""
    order: List[int] = []
    for reg in circuit.registers:
        order.extend(reg.qubits)
    rows: List[Tuple[str, float, float]] = []
    for idx, amp in enumerate(state.amplitudes):
        if abs(amp) <= cutoff:
            continue
        bits = "".join(str((idx >> q) & 1) for q in order)
        rows.append((bits, float(amp.real), float(amp.imag)))
    return rows


# ---- certification of explicit constructions ----


@dataclass(frozen=True)
class CertificationReport:
    tag: str
    args: Tuple[Any, ...]
    inputs_checked: int
    worst_overlap: float


def _embed_bits(io_qubits: Sequence[int], local_index: int) -> Dict[int, int]:
    w = len(io_qubits)
    return {io_qubits[j]: (local_index >> (w - 1 - j)) & 1 for j in range(w)}


def _semantic_output(op: _CompiledOp, local_index: int) -> np.ndarray:
    if op.table is not None:
        col = np.zeros(2**op.n_qubits, dtype=complex)
        col[op.table[local_index]] = 1.0
        return col
    return op.columns[local_index]


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
    """Check an explicit circuit against declared library semantics.

    Each domain input is simulated and compared phase-strictly (the real
    part of the overlap must reach 1 - tol, so even a global phase fails).
    A uniform superposition probe over the domain is run as well, which
    catches errors on inputs left out by ``domain_subset``.
    """
    if explicit.n_qubits > max_qubits:
        raise CertificationError(
            f"certification of {tag!r} needs {explicit.n_qubits} qubits; "
            f"raise max_qubits to allow it"
        )
    op = _compiled(tag, args)
    if len(io_qubits) != op.n_qubits:
        raise CertificationError(f"{tag!r} spans {op.n_qubits} qubits")
    domain = (
        list(range(2**op.n_qubits)) if op.domain is None else [int(d) for d in op.domain]
    )
    inputs = list(domain_subset) if domain_subset is not None else domain
    outside = sorted(set(inputs) - set(domain))
    if outside:
        raise CertificationError(
            f"{tag}{args} declares no action on input {outside[0]}: "
            f"it is outside the gate's domain"
        )
    n = explicit.n_qubits
    worst = 1.0
    for d in inputs:
        state = run(explicit, _embed_bits(io_qubits, d))
        expected = _semantic_output(op, d)
        ov = output_overlap(state, expected, io_qubits).real
        worst = min(worst, ov)
        if ov < 1.0 - tol:
            raise CertificationError(
                f"{tag}{args} disagrees with its declared action on input "
                f"{d:0{op.n_qubits}b} (overlap {ov:.12f})"
            )
    checked = len(inputs)
    if probe and len(domain) > 1:
        amps = np.zeros(2**n, dtype=complex)
        scale = 1.0 / np.sqrt(len(domain))
        for d in domain:
            idx = 0
            for q, b in _embed_bits(io_qubits, d).items():
                if b:
                    idx |= 1 << q
            amps[idx] = scale
        state = run(explicit, amps)
        expected = sum(_semantic_output(op, d) for d in domain) * scale
        ov = output_overlap(state, np.asarray(expected), io_qubits).real
        worst = min(worst, ov)
        if ov < 1.0 - tol:
            raise CertificationError(
                f"{tag}{args} fails the superposition probe (overlap {ov:.12f})"
            )
        checked += 1
    return CertificationReport(
        tag=tag, args=args, inputs_checked=checked, worst_overlap=worst
    )


def workers_from_env() -> int:
    raw = os.environ.get("SHALLOWPREP_WORKERS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1
