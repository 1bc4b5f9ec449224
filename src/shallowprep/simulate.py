"""Exact dense statevector simulation of circuits, plus verification helpers.

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
    qubit_order: Tuple[int, ...]
    amplitudes: np.ndarray

    @property
    def n_qubits(self) -> int:
        return len(self.qubit_order)


@dataclass(frozen=True)
class VerificationResult:
    fidelity: float
    clean: bool
    residual_ancilla_mass: float


# ---- compiled library operations ----


@dataclass
class _CompiledOp:
    """A library gate ready to apply.

    Permutation gates keep their table and its inverse.  Column-declared
    gates keep their declared columns and the low-rank form
    I + basis @ correction @ basis^dagger of their unitary.
    """

    n_qubits: int
    domain: Optional[np.ndarray]
    table: Optional[np.ndarray] = None
    inverse_table: Optional[np.ndarray] = None
    columns: Optional[Dict[int, np.ndarray]] = None
    basis: Optional[np.ndarray] = None
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
        op = _CompiledOp(sem.n_qubits, domain, table=table, inverse_table=inverse)
    else:
        basis, correction = library.low_rank_completion(sem.n_qubits, sem.columns)
        op = _CompiledOp(
            sem.n_qubits,
            domain,
            columns=sem.columns,
            basis=basis,
            correction=correction,
        )
    _OP_CACHE[key] = op
    return op


# ---- kernel ----


def _apply_block_fn(
    amps: np.ndarray,
    n: int,
    qubits: Sequence[int],
    fn: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Move the listed qubits to the front, apply fn to the (2^w, rest) block."""
    w = len(qubits)
    tensor = amps.reshape((2,) * n)
    axes = [n - 1 - q for q in qubits]
    tensor = np.moveaxis(tensor, axes, range(w))
    shape = tensor.shape
    block = np.ascontiguousarray(tensor).reshape(2**w, -1)
    block = fn(block)
    tensor = block.reshape(shape)
    tensor = np.moveaxis(tensor, range(w), axes)
    return np.ascontiguousarray(tensor).reshape(2**n)


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
    size = 2 ** (n_inputs + 1)
    table = np.arange(size, dtype=np.int64)
    full = 2**n_inputs - 1
    for idx in range(size):
        ins = idx >> 1
        if kind == "and":
            pred = ins == full
        elif kind == "or":
            pred = ins != 0
        else:
            pred = ins == 0
        if pred:
            table[idx] = idx ^ 1
    return table


def _perm_fn(table: np.ndarray, inverse: bool):
    def fn(block: np.ndarray) -> np.ndarray:
        if inverse:
            return block[table]
        out = np.empty_like(block)
        out[table] = block
        return out

    return fn


def _check_domain(block: np.ndarray, domain: np.ndarray, tag: str) -> None:
    mass = np.sum(np.abs(block) ** 2, axis=1)
    outside = float(np.sum(mass) - np.sum(mass[domain]))
    if outside > DOMAIN_TOL:
        raise SimulationError(
            f"library gate {tag!r} driven outside its domain "
            f"(stray mass {outside:.3e})"
        )


def _library_fn(gate: Gate) -> Tuple[Callable[[np.ndarray], np.ndarray], int]:
    p = gate.params
    op = _compiled(p["tag"], p["args"])
    inverse = p["inverse"]
    checked = p.get("checked", True)
    domain = op.domain if checked else None
    tag = p["tag"]

    if op.table is not None:
        perm = _perm_fn(op.inverse_table if inverse else op.table, inverse=False)

        def fn(block: np.ndarray) -> np.ndarray:
            if domain is not None and not inverse:
                _check_domain(block, domain, tag)
            out = perm(block)
            if domain is not None and inverse:
                _check_domain(out, domain, tag)
            return out

        return fn, op.n_qubits

    basis = op.basis
    basis_h = basis.conj().T
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


def apply_gate(amps: np.ndarray, n: int, gate: Gate) -> np.ndarray:
    kind = gate.kind
    extra_ctrl = gate.params.get("ctrl")

    if kind == "unitary1":
        mat = np.asarray(gate.params["matrix"])
        qubits: Tuple[int, ...] = gate.targets
        fn = lambda block: mat @ block  # noqa: E731
        n_ctrl = 0
    elif kind == "ctrl_unitary1":
        mat = np.asarray(gate.params["matrix"])
        qubits = gate.controls + gate.targets
        fn = lambda block: mat @ block  # noqa: E731
        n_ctrl = 1
    elif kind in ("and", "or", "nor"):
        qubits = gate.controls + gate.targets
        fn = _perm_fn(_logic_table(kind, len(gate.controls)), inverse=False)
        n_ctrl = 0
    elif kind == "fanout":
        qubits = gate.controls + gate.targets
        w = len(qubits)
        mask = 2 ** (w - 1) - 1
        src = 2 ** (w - 1)
        table = np.arange(2**w, dtype=np.int64)
        table[src:] ^= mask
        fn = _perm_fn(table, inverse=False)
        n_ctrl = 0
    elif kind == "swap":
        qubits = gate.targets
        fn = _perm_fn(np.array([0, 2, 1, 3], dtype=np.int64), inverse=False)
        n_ctrl = 0
    elif kind == "product_reflection":
        qubits = gate.targets
        states = gate.params.get("local_states")
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

        n_ctrl = 0
    elif kind == "library":
        fn, width = _library_fn(gate)
        qubits = gate.targets
        if len(qubits) != width:
            raise SimulationError(
                f"library gate {gate.params['tag']!r} qubit count mismatch"
            )
        n_ctrl = 0
    else:
        raise SimulationError(f"cannot simulate gate kind {kind!r}")

    if extra_ctrl is not None:
        qubits = (extra_ctrl,) + tuple(qubits)
        n_ctrl += 1

    return _apply_block_fn(amps, n, qubits, _with_controls(n_ctrl, fn))


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
    for layer in circuit.layers:
        for gate in layer:
            amps = apply_gate(amps, n, gate)
        norm = float(np.real(np.vdot(amps, amps)))
        if abs(norm - 1.0) > NORM_TOL:
            raise SimulationError(f"state norm drifted to {norm!r}")
    return StateVector(qubit_order=tuple(range(n)), amplitudes=amps)


# ---- verification ----


def output_overlap(
    state: StateVector, target: np.ndarray, output_qubits: Sequence[int]
) -> complex:
    """Overlap of the state with target on the outputs and zeros elsewhere."""
    n = state.n_qubits
    o = len(output_qubits)
    if target.shape != (2**o,):
        raise ValueError("target length does not match the output register")
    tensor = state.amplitudes.reshape((2,) * n)
    axes = [n - 1 - q for q in output_qubits]
    tensor = np.moveaxis(tensor, axes, range(o))
    block = np.ascontiguousarray(tensor).reshape(2**o, -1)
    return complex(np.conj(target) @ block[:, 0])


def residual_mass(state: StateVector, qubits: Sequence[int]) -> float:
    """Probability that at least one of the listed qubits is not zero."""
    if not qubits:
        return 0.0
    n = state.n_qubits
    tensor = state.amplitudes.reshape((2,) * n)
    axes = [n - 1 - q for q in qubits]
    tensor = np.moveaxis(tensor, axes, range(len(qubits)))
    block = np.ascontiguousarray(tensor).reshape(2 ** len(qubits), -1)
    zero_mass = float(np.sum(np.abs(block[0]) ** 2))
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
