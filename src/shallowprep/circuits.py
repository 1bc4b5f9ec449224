"""Circuit intermediate representation: gates, registers, builder, costs, JSON I/O.

Gates are grouped into layers; every gate in a layer must touch disjoint
qubits.  The gate set is the constant-depth one used throughout the package:
multi-input AND/OR/NOR with XOR-into-target semantics, fanout, swap,
single-qubit unitaries, controlled Hermitian single-qubit gates, reflections
about product states, and opaque library gates with declared costs.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

SERIAL_VERSION = 1
ATOL = 1e-12

GATE_KINDS = (
    "unitary1",
    "ctrl_unitary1",
    "product_reflection",
    "and",
    "or",
    "nor",
    "fanout",
    "swap",
    "library",
)


class CircuitError(ValueError):
    """Raised when a gate, layer, or circuit violates a structural rule."""


class ParseError(ValueError):
    """Raised when serialized circuit data cannot be decoded."""


@dataclass(frozen=True)
class Register:
    name: str
    qubits: Tuple[int, ...]
    ancilla: bool = False

    def __len__(self) -> int:
        return len(self.qubits)

    def __iter__(self):
        return iter(self.qubits)

    def __getitem__(self, i):
        return self.qubits[i]


@dataclass(frozen=True)
class Gate:
    kind: str
    targets: Tuple[int, ...]
    controls: Tuple[int, ...] = ()
    params: Mapping[str, Any] = field(default_factory=dict)

    def touched(self) -> Tuple[int, ...]:
        extra = ()
        ctrl = self.params.get("ctrl")
        if ctrl is not None:
            extra = (ctrl,)
        return self.targets + self.controls + extra

    def with_params(self, **updates: Any) -> "Gate":
        merged = dict(self.params)
        merged.update(updates)
        return Gate(self.kind, self.targets, self.controls, merged)


def _as_matrix(value: Any) -> np.ndarray:
    mat = np.asarray(value, dtype=complex)
    if mat.shape != (2, 2):
        raise CircuitError(f"single-qubit matrix must be 2x2, got shape {mat.shape}")
    return mat


def _check_unitary(mat: np.ndarray, who: str) -> None:
    if np.max(np.abs(mat @ mat.conj().T - np.eye(2))) > ATOL:
        raise CircuitError(f"{who} matrix is not unitary")


def _check_hermitian(mat: np.ndarray, who: str) -> None:
    if np.max(np.abs(mat - mat.conj().T)) > ATOL:
        raise CircuitError(f"{who} matrix must be Hermitian")


# Gate constructors.  These return validated Gate values; _check_layer adds
# the layer-level checks (disjointness, qubit existence, fanout budget).

X_MATRIX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Z_MATRIX = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def g_unitary1(qubit: int, matrix: Any, label: Optional[str] = None) -> Gate:
    mat = _as_matrix(matrix)
    _check_unitary(mat, "unitary1")
    params: Dict[str, Any] = {"matrix": mat}
    if label is not None:
        params["label"] = label
    return Gate("unitary1", (qubit,), (), params)


def g_x(qubit: int) -> Gate:
    return g_unitary1(qubit, X_MATRIX, label="X")


def g_z(qubit: int) -> Gate:
    return g_unitary1(qubit, Z_MATRIX, label="Z")


def g_ctrl_unitary1(control: int, target: int, matrix: Any, label: Optional[str] = None) -> Gate:
    mat = _as_matrix(matrix)
    _check_unitary(mat, "ctrl_unitary1")
    _check_hermitian(mat, "ctrl_unitary1")
    if control == target:
        raise CircuitError("control and target must differ")
    params: Dict[str, Any] = {"matrix": mat}
    if label is not None:
        params["label"] = label
    return Gate("ctrl_unitary1", (target,), (control,), params)


def g_product_reflection(qubits: Sequence[int], local_states: Optional[Sequence[Any]] = None) -> Gate:
    """Reflection I - 2|v><v| where |v| is the product of the local states.

    ``local_states`` is one 2-vector per qubit; None means the all-zeros
    product state, i.e. a reflection about |0...0> on the listed qubits.
    """
    qs = tuple(qubits)
    if len(set(qs)) != len(qs) or not qs:
        raise CircuitError("reflection qubits must be distinct and nonempty")
    params: Dict[str, Any] = {}
    if local_states is not None:
        states = tuple(np.asarray(s, dtype=complex) for s in local_states)
        if len(states) != len(qs):
            raise CircuitError("need one local state per reflected qubit")
        for s in states:
            if s.shape != (2,):
                raise CircuitError("local states must be 2-vectors")
            if abs(np.vdot(s, s) - 1.0) > ATOL:
                raise CircuitError("local reflection states must be normalized")
        params["local_states"] = states
    return Gate("product_reflection", qs, (), params)


def g_reflect_zero(qubits: Sequence[int]) -> Gate:
    return g_product_reflection(qubits, None)


def _g_logic(kind: str, inputs: Sequence[int], target: int) -> Gate:
    ins = tuple(inputs)
    if not ins:
        raise CircuitError(f"{kind} gate needs at least one input")
    if len(set(ins)) != len(ins):
        raise CircuitError(f"{kind} inputs must be distinct")
    if target in ins:
        raise CircuitError(f"{kind} target cannot be an input")
    return Gate(kind, (target,), ins, {})


def g_and(inputs: Sequence[int], target: int) -> Gate:
    return _g_logic("and", inputs, target)


def g_or(inputs: Sequence[int], target: int) -> Gate:
    return _g_logic("or", inputs, target)


def g_nor(inputs: Sequence[int], target: int) -> Gate:
    return _g_logic("nor", inputs, target)


def g_cnot(control: int, target: int) -> Gate:
    return g_and((control,), target)


def g_fanout(source: int, targets: Sequence[int], widened: bool = False) -> Gate:
    ts = tuple(targets)
    if not ts or len(set(ts)) != len(ts):
        raise CircuitError("fanout targets must be distinct and nonempty")
    if source in ts:
        raise CircuitError("fanout source cannot be a target")
    params: Dict[str, Any] = {}
    if widened:
        params["widened"] = True
    return Gate("fanout", ts, (source,), params)


def g_swap(a: int, b: int) -> Gate:
    if a == b:
        raise CircuitError("swap needs two distinct qubits")
    return Gate("swap", (a, b), (), {})


def g_library(
    tag: str,
    args: Tuple[Any, ...],
    qubits: Sequence[int],
    declared_depth: int,
    declared_width: int,
    inverse: bool = False,
) -> Gate:
    qs = tuple(qubits)
    if not qs or len(set(qs)) != len(qs):
        raise CircuitError("library gate qubits must be distinct and nonempty")
    if declared_depth < 1 or declared_width < 0:
        raise CircuitError("library gate declared costs out of range")
    params: Dict[str, Any] = {
        "tag": tag,
        "args": tuple(args),
        "inverse": bool(inverse),
        "declared_depth": int(declared_depth),
        "declared_width": int(declared_width),
    }
    return Gate("library", qs, (), params)


def invert_gate(gate: Gate) -> Gate:
    """Inverse of a single gate; everything here is unitary so this is total."""
    if gate.kind in ("and", "or", "nor", "fanout", "swap", "product_reflection"):
        return gate
    if gate.kind in ("unitary1", "ctrl_unitary1"):
        mat = np.asarray(gate.params["matrix"])
        return gate.with_params(matrix=mat.conj().T)
    if gate.kind == "library":
        return gate.with_params(inverse=not gate.params["inverse"])
    raise CircuitError(f"cannot invert gate kind {gate.kind!r}")


def _validate_gate(gate: Gate) -> None:
    if gate.kind not in GATE_KINDS:
        raise CircuitError(f"unknown gate kind {gate.kind!r}")
    touched = gate.touched()
    if len(set(touched)) != len(touched):
        raise CircuitError(f"gate {gate.kind} touches a qubit twice: {touched}")
    if gate.kind in ("unitary1", "ctrl_unitary1"):
        mat = np.asarray(gate.params["matrix"])
        _check_unitary(mat, gate.kind)
        if gate.kind == "ctrl_unitary1" or gate.params.get("ctrl") is not None:
            _check_hermitian(mat, f"controlled {gate.kind}")


def _check_layer(gates: Sequence[Gate], n_qubits: int, budget: Optional[int]) -> None:
    """Check each gate, that it touches qubits 0..n_qubits-1 not touched by an
    earlier gate of the layer, and that a fanout not flagged as widened fits
    the budget."""
    seen: set = set()
    for gate in gates:
        _validate_gate(gate)
        for q in gate.touched():
            if not 0 <= q < n_qubits:
                raise CircuitError(f"gate references unknown qubit {q}")
            if q in seen:
                raise CircuitError(f"layer touches qubit {q} twice")
            seen.add(q)
        if (
            gate.kind == "fanout"
            and budget is not None
            and len(gate.targets) > budget
            and not gate.params.get("widened")
        ):
            raise CircuitError(
                f"fanout width {len(gate.targets)} exceeds budget {budget}; "
                "flag the gate as widened to allow it"
            )


@dataclass(frozen=True)
class Circuit:
    registers: Tuple[Register, ...]
    layers: Tuple[Tuple[Gate, ...], ...]
    metadata: Mapping[str, Any]

    @property
    def n_qubits(self) -> int:
        return sum(len(r) for r in self.registers)

    def register(self, name: str) -> Register:
        for r in self.registers:
            if r.name == name:
                return r
        raise KeyError(f"no register named {name!r}")

    def gates(self) -> Iterable[Gate]:
        for layer in self.layers:
            yield from layer

    @property
    def ancilla_qubits(self) -> Tuple[int, ...]:
        out: List[int] = []
        for r in self.registers:
            if r.ancilla:
                out.extend(r.qubits)
        return tuple(out)


@dataclass(frozen=True)
class CostReport:
    """Headline costs of a circuit.

    depth counts layers, with each library gate charged its declared depth.
    max_fanout_width is the widest fanout, native or declared by a library
    gate.  grover_rounds totals the amplification rounds the builder logged.
    """

    depth: int
    ancilla_count: int
    max_fanout_width: int
    grover_rounds: int

    def as_dict(self) -> Dict[str, int]:
        return {
            "depth": self.depth,
            "ancilla_count": self.ancilla_count,
            "max_fanout_width": self.max_fanout_width,
            "grover_rounds": self.grover_rounds,
        }


def cost(circuit: Circuit) -> CostReport:
    depth = 0
    max_fan = 0
    for layer in circuit.layers:
        layer_depth = 1
        for gate in layer:
            if gate.kind == "library":
                layer_depth = max(layer_depth, gate.params["declared_depth"])
                max_fan = max(max_fan, gate.params["declared_width"])
            elif gate.kind == "fanout":
                max_fan = max(max_fan, len(gate.targets))
        depth += layer_depth
    rounds = sum(circuit.metadata.get("rounds", ()))
    return CostReport(
        depth=depth,
        ancilla_count=len(circuit.ancilla_qubits),
        max_fanout_width=max_fan,
        grover_rounds=rounds,
    )


class Builder:
    """Mutable circuit under construction: allocates qubits, appends layers.

    A segment of the layer log can be replayed (forward or inverted), which
    is how the amplification rounds re-run a preparation segment.
    """

    def __init__(self, metadata: Optional[Dict[str, Any]] = None):
        self.registers: List[Register] = []
        self._names: Dict[str, int] = {}
        self.layers: List[Tuple[Gate, ...]] = []
        self.metadata: Dict[str, Any] = dict(metadata or {})
        self._next_qubit = 0

    # ---- registers ----

    def add_register(self, name: str, size: int, ancilla: bool = False) -> Register:
        if size < 1:
            raise CircuitError("register size must be positive")
        if name in self._names:
            raise CircuitError(f"register {name!r} already exists")
        reg = Register(name, tuple(range(self._next_qubit, self._next_qubit + size)), ancilla)
        self._next_qubit += size
        self.registers.append(reg)
        self._names[name] = len(self.registers) - 1
        return reg

    def new_register(self, prefix: str, size: int, ancilla: bool = True) -> Register:
        """Allocate a register with a unique generated name."""
        i = 0
        while f"{prefix}{i}" in self._names:
            i += 1
        return self.add_register(f"{prefix}{i}", size, ancilla)

    def register(self, name: str) -> Register:
        return self.registers[self._names[name]]

    @property
    def n_qubits(self) -> int:
        return self._next_qubit

    # ---- appending ----

    def append(self, gate: Gate) -> None:
        self.append_layer([gate])

    def append_layer(self, gates: Sequence[Gate]) -> None:
        if not gates:
            return
        _check_layer(gates, self._next_qubit, self.metadata.get("fanout_budget"))
        self.layers.append(tuple(gates))

    # ---- replay ----

    def layers_since(self, mark: int) -> Tuple[Tuple[Gate, ...], ...]:
        return tuple(self.layers[mark:])

    def replay(self, segment: Sequence[Sequence[Gate]], checked: Optional[bool] = None) -> None:
        for layer in segment:
            if checked is not None:
                layer = [g.with_params(checked=checked) for g in layer]
            self.append_layer(layer)

    def replay_inverse(
        self, segment: Sequence[Sequence[Gate]], checked: Optional[bool] = None
    ) -> None:
        self.replay([[invert_gate(g) for g in layer] for layer in reversed(segment)], checked)

    def record_rounds(self, rounds: int, layer_cost: int) -> None:
        """Log one amplification: its round count and the layers each round adds."""
        for key, value in (("rounds", rounds), ("round_layer_cost", layer_cost)):
            self.metadata[key] = self.metadata.get(key, ()) + (int(value),)

    # ---- finishing ----

    def build(self) -> Circuit:
        return Circuit(
            registers=tuple(self.registers),
            layers=tuple(self.layers),
            metadata=dict(self.metadata),
        )

    @classmethod
    def from_circuit(cls, circuit: Circuit) -> "Builder":
        b = cls(metadata=dict(circuit.metadata))
        for reg in circuit.registers:
            b.add_register(reg.name, len(reg), reg.ancilla)
        for layer in circuit.layers:
            b.append_layer(list(layer))
        return b


# ---- serialization ----
#
# Values inside gate params follow fixed encodings: complex numbers are
# [re, im] pairs, 2x2 matrices are nested pairs, Fractions are [num, den].
# Library gate arguments follow the argument schema of their tag's registry
# entry, which also fixes the qubit width and the (depth, fanout width) a
# gate is charged; a tag with measured costs carries them in the file.

# what malformed JSON values raise when decoded field by field
_DECODE_ERRORS = (KeyError, IndexError, TypeError, ValueError)


def encode_complex(z: complex) -> List[float]:
    z = complex(z)
    return [z.real, z.imag]


def decode_complex(v: Any) -> complex:
    if not (isinstance(v, list) and len(v) == 2 and all(type(x) is float for x in v)):
        raise ParseError(f"expected an [re, im] pair of floats, got {v!r}")
    return complex(v[0], v[1])


def encode_matrix(mat: Any) -> List[List[List[float]]]:
    arr = np.asarray(mat, dtype=complex)
    return [[encode_complex(z) for z in row] for row in arr]


def decode_matrix(v: Any) -> np.ndarray:
    return _as_matrix([[decode_complex(z) for z in row] for row in v])


def encode_fraction(f: Fraction) -> List[int]:
    return [f.numerator, f.denominator]


def decode_fraction(v: Any) -> Fraction:
    if not (isinstance(v, list) and len(v) == 2 and all(type(x) is int for x in v) and v[1] > 0):
        raise ParseError(f"expected a [num, den] pair of ints with den > 0, got {v!r}")
    return Fraction(v[0], v[1])


def _encode_gate(gate: Gate) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "kind": gate.kind,
        "targets": list(gate.targets),
        "controls": list(gate.controls),
    }
    params: Dict[str, Any] = {}
    p = gate.params
    if gate.kind in ("unitary1", "ctrl_unitary1"):
        params["matrix"] = encode_matrix(p["matrix"])
        if "label" in p:
            params["label"] = p["label"]
    elif gate.kind == "product_reflection":
        if "local_states" in p:
            params["local_states"] = [
                [encode_complex(z) for z in state] for state in p["local_states"]
            ]
    elif gate.kind == "fanout":
        if p.get("widened"):
            params["widened"] = True
    elif gate.kind == "library":
        params["tag"] = p["tag"]
        params["args"] = library.entry(p["tag"]).encode(p["args"])
        params["inverse"] = p["inverse"]
        out["declared_depth"] = p["declared_depth"]
        out["declared_width"] = p["declared_width"]
    if p.get("ctrl") is not None:
        params["ctrl"] = p["ctrl"]
    if p.get("checked") is False:
        params["checked"] = False
    out["params"] = params
    return out


def _decode_gate(obj: Any) -> Gate:
    if not isinstance(obj, dict):
        raise ParseError(f"gate entry must be an object, got {type(obj).__name__}")
    try:
        kind = obj["kind"]
        targets = tuple(int(q) for q in obj["targets"])
        controls = tuple(int(q) for q in obj["controls"])
        raw = obj.get("params", {})
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed gate entry: {exc}") from exc
    if kind not in GATE_KINDS:
        raise ParseError(f"unknown gate kind {kind!r}")
    if not isinstance(raw, dict):
        raise ParseError(f"gate params must be an object, got {type(raw).__name__}")
    try:
        params = _decode_params(kind, raw, obj)
    except ParseError:
        raise
    except _DECODE_ERRORS as exc:
        raise ParseError(f"malformed {kind} gate params: {exc!r}") from exc
    if kind == "library":
        try:
            library.entry(params["tag"]).check(
                params["args"], len(targets), params["declared_depth"], params["declared_width"]
            )
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    gate = Gate(kind, targets, controls, params)
    _validate_gate(gate)
    return gate


def _decode_params(kind: str, raw: Dict[str, Any], obj: Dict[str, Any]) -> Dict[str, Any]:
    params: Dict[str, Any] = {}
    if kind in ("unitary1", "ctrl_unitary1"):
        params["matrix"] = decode_matrix(raw["matrix"])
        if "label" in raw:
            params["label"] = raw["label"]
    elif kind == "product_reflection":
        if "local_states" in raw:
            params["local_states"] = tuple(
                np.array([decode_complex(z) for z in state], dtype=complex)
                for state in raw["local_states"]
            )
    elif kind == "fanout":
        if raw.get("widened"):
            params["widened"] = True
    elif kind == "library":
        ent = library.entry(raw["tag"])
        params["tag"] = ent.tag
        params["args"] = ent.decode(raw["args"])
        params["inverse"] = bool(raw["inverse"])
        params["declared_depth"] = int(obj["declared_depth"])
        params["declared_width"] = int(obj["declared_width"])
    if "ctrl" in raw:
        params["ctrl"] = int(raw["ctrl"])
    if raw.get("checked") is False:
        params["checked"] = False
    return params


def _encode_meta(value: Any) -> Any:
    if isinstance(value, Fraction):
        return {"__frac__": encode_fraction(value)}
    if isinstance(value, dict):
        return {str(k): _encode_meta(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode_meta(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise ParseError(f"metadata value {value!r} is not serializable")


def _decode_meta(value: Any) -> Any:
    if isinstance(value, dict):
        if set(value.keys()) == {"__frac__"}:
            return decode_fraction(value["__frac__"])
        return {k: _decode_meta(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode_meta(v) for v in value]
    return value


def serialize(circuit: Circuit) -> str:
    doc = {
        "version": SERIAL_VERSION,
        "metadata": _encode_meta(dict(circuit.metadata)),
        "registers": [
            {"name": r.name, "qubits": list(r.qubits), "ancilla": r.ancilla}
            for r in circuit.registers
        ],
        "layers": [[_encode_gate(g) for g in layer] for layer in circuit.layers],
    }
    return json.dumps(doc, sort_keys=True)


def deserialize(text: str) -> Circuit:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    if doc.get("version") != SERIAL_VERSION:
        raise ParseError(f"unsupported format version {doc.get('version')!r}")
    for key, kind in (("metadata", dict), ("registers", list), ("layers", list)):
        if key not in doc:
            raise ParseError(f"missing top-level key {key!r}")
        if not isinstance(doc[key], kind):
            raise ParseError(f"top-level {key!r} must be a JSON {kind.__name__}")
    try:
        meta = _decode_meta(doc["metadata"])
        for key in ("rounds", "round_layer_cost"):
            if key in meta:
                meta[key] = tuple(int(r) for r in meta[key])
        if meta.get("fanout_budget") is not None:
            meta["fanout_budget"] = int(meta["fanout_budget"])
    except ParseError:
        raise
    except _DECODE_ERRORS as exc:
        raise ParseError(f"malformed circuit metadata: {exc!r}") from exc
    registers = []
    for entry in doc["registers"]:
        try:
            registers.append(
                Register(
                    name=str(entry["name"]),
                    qubits=tuple(int(q) for q in entry["qubits"]),
                    ancilla=bool(entry.get("ancilla", False)),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed register entry: {exc}") from exc
    if not all(isinstance(layer, list) for layer in doc["layers"]):
        raise ParseError("each layer must be a JSON list of gates")
    layers = tuple(
        tuple(_decode_gate(g) for g in layer) for layer in doc["layers"]
    )
    circuit = Circuit(registers=tuple(registers), layers=layers, metadata=meta)
    validate_circuit(circuit)
    return circuit


def validate_circuit(circuit: Circuit) -> None:
    """Structural checks on a full circuit, used on deserialized input."""
    known: set = set()
    names: set = set()
    for reg in circuit.registers:
        if reg.name in names:
            raise CircuitError(f"duplicate register name {reg.name!r}")
        names.add(reg.name)
        for q in reg.qubits:
            if q in known:
                raise CircuitError(f"qubit {q} appears in two registers")
            known.add(q)
    if known != set(range(len(known))):
        raise CircuitError("register qubits must number 0..n-1 with no gaps")
    budget = circuit.metadata.get("fanout_budget")
    for layer in circuit.layers:
        _check_layer(layer, len(known), budget)


# the registry is built on the gate types above, so it is imported after them
from . import library  # noqa: E402
