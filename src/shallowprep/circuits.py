"""Circuit intermediate representation: gates, registers, builder, costs, JSON I/O.

Gates are grouped into layers; every gate in a layer must touch disjoint
qubits.  The gate set is the constant-depth one used throughout the package:
multi-input AND/OR/NOR with XOR-into-target semantics, fanout, swap,
single-qubit unitaries, controlled Hermitian single-qubit gates, reflections
about |0...0>, and opaque library gates, whose width and costs come from
their registry entry.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from operator import sub
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

SERIAL_VERSION = 3
# the format versions deserialize reads: version 2 differs from version 3
# only in writing no qubit runs, so one decoder reads both
READ_VERSIONS = (2, 3)
# the most qubit entries a file's registers, targets and controls may name
# together, each run counted at its length: 40 a qubit at synth's largest
# --n, 2^20.  synth dicke writes at most 39,848,693 there for k = 1..4 (at
# the padded n = 1,048,573) and 41,190,279 for k = 32
MAX_QUBIT_ENTRIES = 40 * 2**20
ATOL = 1e-12

# how many targets and controls each gate kind takes: an exact count, or
# ONE_OR_MORE; the optional extra "ctrl" qubit of any gate is not counted
ONE_OR_MORE = "1+"
GATE_ARITY: Dict[str, Tuple[Any, Any]] = {
    "unitary1": (1, 0),
    "ctrl_unitary1": (1, 1),
    "product_reflection": (ONE_OR_MORE, 0),
    "and": (1, ONE_OR_MORE),
    "or": (1, ONE_OR_MORE),
    "nor": (1, ONE_OR_MORE),
    "fanout": (ONE_OR_MORE, 1),
    "swap": (2, 0),
    "library": (ONE_OR_MORE, 0),
}
GATE_KINDS = tuple(GATE_ARITY)

# the params each gate kind takes: its own, if listed, and on every kind
# "ctrl" (one extra control qubit) and "checked" (False skips a domain check)
_OWN_PARAMS = {
    "unitary1": ("matrix", "label"),
    "ctrl_unitary1": ("matrix", "label"),
    "library": ("tag", "args", "inverse"),
}
GATE_PARAMS: Dict[str, frozenset] = {
    kind: frozenset(_OWN_PARAMS.get(kind, ()) + ("ctrl", "checked")) for kind in GATE_KINDS
}
# the params a gate of each kind must carry: its own, but for "label"
GATE_NEEDS: Dict[str, frozenset] = {
    kind: frozenset(_OWN_PARAMS.get(kind, ())) - {"label"} for kind in GATE_KINDS
}
# the exact type of each scalar param, however the gate was made; the matrix
# and the library args follow their own rules
PARAM_TYPES: Dict[str, type] = {"label": str, "inverse": bool, "ctrl": int, "checked": bool}


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


# Gate constructors.  These only assemble a Gate; _check_layer applies the
# rules of its kind (_validate_gate) and the fanout budget when it enters a
# circuit, and walks its qubits once per distinct layer footprint.

X_MATRIX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Z_MATRIX = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _matrix_params(matrix: Any, label: Optional[str]) -> Dict[str, Any]:
    params: Dict[str, Any] = {"matrix": np.asarray(matrix, dtype=complex)}
    if label is not None:
        params["label"] = label
    return params


def g_unitary1(qubit: int, matrix: Any, label: Optional[str] = None) -> Gate:
    return Gate("unitary1", (qubit,), (), _matrix_params(matrix, label))


def g_x(qubit: int) -> Gate:
    return g_unitary1(qubit, X_MATRIX, label="X")


def g_z(qubit: int) -> Gate:
    return g_unitary1(qubit, Z_MATRIX, label="Z")


def g_ctrl_unitary1(control: int, target: int, matrix: Any, label: Optional[str] = None) -> Gate:
    return Gate("ctrl_unitary1", (target,), (control,), _matrix_params(matrix, label))


def g_reflect_zero(qubits: Sequence[int]) -> Gate:
    """Reflection I - 2|0...0><0...0| on the listed qubits."""
    return Gate("product_reflection", tuple(qubits), (), {})


def _g_logic(kind: str, inputs: Sequence[int], target: int) -> Gate:
    return Gate(kind, (target,), tuple(inputs), {})


def g_and(inputs: Sequence[int], target: int) -> Gate:
    return _g_logic("and", inputs, target)


def g_or(inputs: Sequence[int], target: int) -> Gate:
    return _g_logic("or", inputs, target)


def g_nor(inputs: Sequence[int], target: int) -> Gate:
    return _g_logic("nor", inputs, target)


def g_cnot(control: int, target: int) -> Gate:
    return g_and((control,), target)


def g_fanout(source: int, targets: Sequence[int]) -> Gate:
    return Gate("fanout", tuple(targets), (source,), {})


def g_swap(a: int, b: int) -> Gate:
    return Gate("swap", (a, b), (), {})


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


def _near_zero(x: complex, y: complex, z: complex) -> bool:
    """Whether all three values are within ATOL of zero; a NaN is not."""
    return abs(x) <= ATOL and abs(y) <= ATOL and abs(z) <= ATOL


def _validate_gate(gate: Gate) -> None:
    """The rules of the gate's kind, for every gate however it was made.

    Checks are written ``not x <= tol`` so that a NaN fails them.
    """
    if gate.kind not in GATE_ARITY:
        raise CircuitError(f"unknown gate kind {gate.kind!r}")
    counts = (len(gate.targets), len(gate.controls))
    for role, count, want in zip(("targets", "controls"), counts, GATE_ARITY[gate.kind]):
        if count != want and not (want == ONE_OR_MORE and count >= 1):
            raise CircuitError(f"{gate.kind} gate takes {want} {role}, got {count}")
    p = gate.params
    allowed = GATE_PARAMS[gate.kind]
    if not allowed.issuperset(p):
        key = next(k for k in p if k not in allowed)
        raise CircuitError(f"{gate.kind} gate takes no parameter {key!r}")
    if not p.keys() >= GATE_NEEDS[gate.kind]:
        key = min(GATE_NEEDS[gate.kind] - p.keys())
        raise CircuitError(f"{gate.kind} gate needs parameter {key!r}")
    for key, value in p.items():
        want = PARAM_TYPES.get(key)
        if want is not None and type(value) is not want:
            raise CircuitError(
                f"{gate.kind} gate param {key!r} must be a {want.__name__}, got {value!r}"
            )
    if gate.kind in ("unitary1", "ctrl_unitary1"):
        mat = np.asarray(p["matrix"])
        if mat.shape != (2, 2):
            raise CircuitError(f"single-qubit matrix must be 2x2, got shape {mat.shape}")
        # the entries of U U^dagger - I and U - U^dagger, whose (1, 0) entry
        # is the conjugate of the (0, 1) one, in scalar arithmetic
        (a, b), (c, d) = mat.tolist()
        ac, bc, cc, dc = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
        if not _near_zero(a * ac + b * bc - 1, a * cc + b * dc, c * cc + d * dc - 1):
            raise CircuitError(f"{gate.kind} matrix is not unitary")
        # a controlled U is a gate of the set only for Hermitian U
        controlled = gate.kind == "ctrl_unitary1" or p.get("ctrl") is not None
        if controlled and not _near_zero(a - ac, b - cc, d - dc):
            raise CircuitError(f"controlled {gate.kind} matrix must be Hermitian")
    elif gate.kind == "library":
        library.entry(p["tag"]).check(p["args"], len(gate.targets))


def _check_layer(
    gates: Sequence[Gate], n_qubits: int, budget: Optional[int], footprints: set
) -> None:
    """Check each gate against the rules of its kind, that it touches qubits
    0..n_qubits-1 that neither it nor an earlier gate of the layer touched
    already, and that every fanout fits the budget.

    ``footprints`` holds the layer footprints (each gate's touched qubits, in
    order) that passed the qubit walk at a qubit count no larger than
    ``n_qubits``; a layer with one of them skips only that walk.  A passing
    layer adds its footprint.
    """
    try:
        footprint: Any = tuple(g.touched() for g in gates)
        walk = footprint not in footprints
    except TypeError:
        # a qubit list that is not a tuple, or an unhashable qubit: the walk
        # raises at that gate, after the errors of the gates before it
        footprint, walk = None, True
    seen: set = set()
    for gate in gates:
        _validate_gate(gate)
        if walk:
            for q in gate.touched():
                if not 0 <= q < n_qubits:
                    raise CircuitError(f"gate references unknown qubit {q}")
                if q in seen:
                    raise CircuitError(f"layer touches a qubit twice: {q}, at a {gate.kind} gate")
                seen.add(q)
        if gate.kind == "fanout" and budget is not None and len(gate.targets) > budget:
            raise CircuitError(f"fanout width {len(gate.targets)} exceeds budget {budget}")
    footprints.add(footprint)


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

    depth counts layers, each library gate charged its registry depth.
    max_fanout_width is the widest fanout, native or a library gate's.
    grover_rounds totals the amplification rounds the builder logged.
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
                depth_g, fan_g = library.entry(gate.params["tag"]).cost(gate.params["args"])
                layer_depth = max(layer_depth, depth_g)
                max_fan = max(max_fan, fan_g)
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
    """Mutable circuit under construction: allocates qubits, appends layers."""

    def __init__(self, metadata: Optional[Dict[str, Any]] = None):
        self.registers: List[Register] = []
        self._names: Dict[str, int] = {}
        self.layers: List[Tuple[Gate, ...]] = []
        self.metadata: Dict[str, Any] = dict(metadata or {})
        _check_metadata(self.metadata)
        self._next_qubit = 0
        # footprints of the appended layers: the qubit count only grows, so
        # each would pass the qubit walk again
        self._footprints: set = set()

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
        _check_layer(
            gates, self._next_qubit, self.metadata.get("fanout_budget"), self._footprints
        )
        self.layers.append(tuple(gates))

    def record_rounds(self, rounds: int, layer_cost: int) -> None:
        """Log one amplification: its round count and the layers each round adds.

        A count that is not exactly an int is refused before either is
        logged; a negative one, when the circuit is built.
        """
        counts = (("rounds", rounds), ("round_layer_cost", layer_cost))
        for key, value in counts:
            if type(value) is not int:
                raise CircuitError(f"metadata {key!r} must hold nonnegative ints, got {value!r}")
        for key, value in counts:
            self.metadata[key] = self.metadata.get(key, ()) + (value,)

    # ---- finishing ----

    def build(self) -> Circuit:
        _check_metadata(self.metadata)
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
# gate is charged; marked_prep carries its measured costs as two arguments.

# what malformed JSON values raise when decoded field by field
_DECODE_ERRORS = (KeyError, IndexError, TypeError, ValueError)


def _exactly(kind: type) -> Callable[[Any], Any]:
    """A decoder that passes a JSON value through only if its type is exactly
    ``kind``, so a string, float or bool is never read as an int."""

    def decode(v: Any) -> Any:
        if type(v) is not kind:
            raise ParseError(f"expected a JSON {kind.__name__}, got {v!r}")
        return v

    return decode


_as_int, _as_bool, _as_list = _exactly(int), _exactly(bool), _exactly(list)


def _decode_ints(v: Any) -> Tuple[int, ...]:
    out = tuple(_as_list(v))
    if set(map(type, out)) <= {int}:
        return out
    # name the first entry that is not an int
    return tuple(_as_int(x) for x in out)


# A qubit list in a file holds ints and runs: the pair [start, stop] stands
# for the qubits start..stop-1.  serialize writes each maximal stretch of
# three or more consecutive qubits as a run, and shorter ones as ints.


def _encode_qubits(qubits: Tuple[int, ...]) -> List[Any]:
    n = len(qubits)
    if n < 3:
        return list(qubits)
    first = qubits[0]
    if qubits[-1] == first + n - 1 and qubits == tuple(range(first, first + n)):
        return [[first, first + n]]
    out: List[Any] = []
    start = 0
    # qubit minus position is one value along a run
    for offset, run in groupby(map(sub, qubits, range(n))):
        stop = start + len(list(run))
        if stop - start >= 3:
            out.append([offset + start, offset + stop])
        else:
            out.extend(qubits[start:stop])
        start = stop
    return out


def _is_run(x: List[Any]) -> bool:
    return len(x) == 2 and type(x[0]) is int and type(x[1]) is int and 0 <= x[0] < x[1]


def _count_qubits(lists: List[Any]) -> int:
    """How many qubits the lists name, each run counted at its length; an
    entry that is neither an int nor a run counts as one, for decoding to
    refuse."""
    lists = [v for v in lists if type(v) is list]
    runs = [x for v in lists for x in v if type(x) is list]
    return sum(map(len, lists)) + sum(x[1] - x[0] - 1 for x in runs if _is_run(x))


def _decode_qubits(v: Any) -> Tuple[int, ...]:
    entries = _as_list(v)
    if set(map(type, entries)) <= {int}:
        return tuple(entries)
    out: List[int] = []
    for x in entries:
        if type(x) is int:
            out.append(x)
        elif type(x) is list:
            if not _is_run(x):
                raise ParseError(
                    f"malformed qubit run {x!r}: expected [start, stop] with 0 <= start < stop"
                )
            out.extend(range(x[0], x[1]))
        else:
            _as_int(x)  # refuses the entry, naming it
    return tuple(out)


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
    return np.array([[decode_complex(z) for z in row] for row in v], dtype=complex)


def encode_fraction(f: Fraction) -> List[int]:
    return [f.numerator, f.denominator]


def decode_fraction(v: Any) -> Fraction:
    if not (isinstance(v, list) and len(v) == 2 and all(type(x) is int for x in v) and v[1] > 0):
        raise ParseError(f"expected a [num, den] pair of ints with den > 0, got {v!r}")
    return Fraction(v[0], v[1])


def _encode_gate(gate: Gate, qubits: Callable[[Tuple[int, ...]], List[Any]]) -> Dict[str, Any]:
    # a gate holds only the params of its kind: a matrix and library args
    # take their JSON forms, and a check left on is not written
    params = dict(gate.params)
    if "matrix" in params:
        params["matrix"] = encode_matrix(params["matrix"])
    if gate.kind == "library":
        params["args"] = library.entry(params["tag"]).encode(params["args"])
    if params.get("checked", False) is not False:
        del params["checked"]
    return {
        "kind": gate.kind,
        "targets": qubits(gate.targets),
        "controls": qubits(gate.controls),
        "params": params,
    }


def _decode_gate(obj: Any) -> Gate:
    if not isinstance(obj, dict):
        raise ParseError(f"gate entry must be an object, got {type(obj).__name__}")
    try:
        kind = obj["kind"]
        targets = _decode_qubits(obj["targets"])
        controls = _decode_qubits(obj["controls"])
        raw = obj.get("params", {})
    except KeyError as exc:
        raise ParseError(f"malformed gate entry: {exc}") from exc
    if kind not in GATE_KINDS:
        raise ParseError(f"unknown gate kind {kind!r}")
    if not isinstance(raw, dict):
        raise ParseError(f"gate params must be an object, got {type(raw).__name__}")
    try:
        params = _decode_params(kind, raw)
    except (ParseError, CircuitError):
        raise
    except _DECODE_ERRORS as exc:
        raise ParseError(f"malformed {kind} gate params: {exc!r}") from exc
    return Gate(kind, targets, controls, params)


def _decode_params(kind: str, raw: Dict[str, Any]) -> Dict[str, Any]:
    """A matrix and library args take their built forms, and a check left on
    is dropped.  Every other param is kept as it is: _validate_gate types the
    scalar ones (PARAM_TYPES) and refuses one the kind does not take."""
    params = dict(raw)
    if kind in ("unitary1", "ctrl_unitary1"):
        params["matrix"] = decode_matrix(raw["matrix"])
    elif kind == "library":
        params["args"] = library.entry(raw["tag"]).decode(raw["args"])
    if params.get("checked") is True:
        del params["checked"]
    return params


def serialize(circuit: Circuit) -> str:
    _check_metadata(circuit.metadata)
    # the gates of each Grover round repeat the qubit lists of the last, so
    # each distinct list is cut into runs once
    encoded: Dict[Tuple[int, ...], List[Any]] = {}

    def qubits(q: Tuple[int, ...]) -> List[Any]:
        out = encoded.get(q)
        if out is None:
            out = encoded[q] = _encode_qubits(q)
        return out

    doc = {
        "version": SERIAL_VERSION,
        "metadata": dict(circuit.metadata),
        "registers": [
            {"name": r.name, "qubits": qubits(r.qubits), "ancilla": r.ancilla}
            for r in circuit.registers
        ],
        "layers": [[_encode_gate(g, qubits) for g in layer] for layer in circuit.layers],
    }
    return json.dumps(doc, sort_keys=True)


def deserialize(text: str) -> Circuit:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    if doc.get("version") not in READ_VERSIONS:
        raise ParseError(f"unsupported format version {doc.get('version')!r}")
    for key, kind in (("metadata", dict), ("registers", list), ("layers", list)):
        if key not in doc:
            raise ParseError(f"missing top-level key {key!r}")
        if not isinstance(doc[key], kind):
            raise ParseError(f"top-level {key!r} must be a JSON {kind.__name__}")
    # the qubits that the file names, counted before any run is expanded
    lists = [r.get("qubits") for r in doc["registers"] if type(r) is dict]
    lists += [
        g.get(key) for layer in doc["layers"] if type(layer) is list
        for g in layer if type(g) is dict for key in ("targets", "controls")
    ]
    entries = _count_qubits(lists)
    if entries > MAX_QUBIT_ENTRIES:
        raise ParseError(
            f"file names {entries} qubit entries, over the limit of {MAX_QUBIT_ENTRIES}"
        )
    # the known keys by exact JSON type; _check_metadata names any other
    meta = dict(doc["metadata"])
    for key, decode in (("rounds", _decode_ints), ("round_layer_cost", _decode_ints),
                        ("fanout_budget", _as_int)):
        if key in meta:
            meta[key] = decode(meta[key])
    registers = []
    for entry in doc["registers"]:
        try:
            registers.append(
                Register(
                    name=str(entry["name"]),
                    qubits=_decode_qubits(entry["qubits"]),
                    ancilla=_as_bool(entry.get("ancilla", False)),
                )
            )
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed register entry: {exc}") from exc
    if not all(isinstance(layer, list) for layer in doc["layers"]):
        raise ParseError("each layer must be a JSON list of gates")
    layers = tuple(
        tuple(_decode_gate(g) for g in layer) for layer in doc["layers"]
    )
    circuit = Circuit(registers=tuple(registers), layers=layers, metadata=meta)
    validate_circuit(circuit)
    return circuit


def _check_metadata(meta: Mapping[str, Any]) -> None:
    """Metadata holds only a nonnegative int ``fanout_budget``, and the
    ``rounds`` and ``round_layer_cost`` of each amplification: two tuples of
    nonnegative ints, of equal length."""
    for key, value in meta.items():
        if key == "fanout_budget":
            ok = type(value) is int and value >= 0
        elif key in ("rounds", "round_layer_cost"):
            ok = type(value) is tuple and all(type(x) is int and x >= 0 for x in value)
        else:
            raise CircuitError(f"unknown metadata key {key!r}")
        if not ok:
            raise CircuitError(f"metadata {key!r} must hold nonnegative ints, got {value!r}")
    if len(meta.get("rounds", ())) != len(meta.get("round_layer_cost", ())):
        raise CircuitError("metadata 'rounds' and 'round_layer_cost' differ in length")


def validate_circuit(circuit: Circuit) -> None:
    """Structural checks on a full circuit, used on deserialized input."""
    _check_metadata(circuit.metadata)
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
    footprints: set = set()
    for layer in circuit.layers:
        _check_layer(layer, len(known), budget, footprints)


# the registry is built on the gate types above, so it is imported after them
from . import library  # noqa: E402
