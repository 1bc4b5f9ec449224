"""Grover rounds: written by ``append``, found and applied as reflections.

For every unitary A, A·S₀·A† = I − 2|a⟩⟨a| with |a⟩ = A|0⟩, where S₀ =
I − 2|0⟩⟨0| is the reflection about zero on A's qubits T (Brassard, Høyer,
Mosca & Tapp, quant-ph/0005055).  The simulator's plan finds such rounds
from the gates alone, never from circuit metadata (a loaded file is
untrusted), and applies each one as ψ − 2a⟨a|ψ⟩ for every pattern of the
bits outside T: one overlap and one axpy, whose support is at most
supp ψ ∪ supp a, where layer by layer A† would first spread ψ.

A round is a layer holding one reflection about zero with no control,
whose neighbours at distance j = 1..r are exact inverses of each other and
touch only T.  Gates are compared with ``checked`` and ``label`` left out;
a library gate's inverse has ``inverse`` flipped, a 2x2 matrix's inverse
is its conjugate transpose bit for bit, and every other gate is its own
inverse.  Where the mirrors of two reflections overlap, the
later one either takes in the earlier round whole or is cut to end before
it.  Its r is the largest that makes its forward half the circuit's own
first layers, run before the round (as ``exact_grover`` and
``amplify_to_exact`` emit them), else the largest the mirror holds.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from .circuits import GATE_KINDS, Builder, Gate, g_reflect_zero, invert_gate

# (first layer, last layer, prefix): prefix is r when the round's forward
# half is the layers 0..r-1, all run before it, with no round across their end
Span = Tuple[int, int, Optional[int]]


def _value(v: Any) -> Any:
    """A parameter as a hashable value: a matrix, an array or a list, as
    its shape and entries; any other, a library gate's ``args`` (a tuple
    of numbers and tuples of numbers) among them, is hashable as it is."""
    if isinstance(v, (np.ndarray, list)):
        v = np.asarray(v)
        return (v.shape, tuple(complex(x) for x in v.ravel()))
    return v


def _gate_key(gate: Gate) -> Tuple[Any, ...]:
    params = sorted((k, _value(v)) for k, v in gate.params.items() if k not in ("checked", "label"))
    return (gate.kind, gate.targets, gate.controls, tuple(params))


def append(builder: Builder, segment: Sequence[Sequence[Gate]]) -> None:
    """Append A·S₀·A† for A = ``segment``: A† (its layers inverted, in
    reverse), S₀ on every qubit, then A.  Both copies of A are marked
    ``checked=False``: ``find`` fuses the round, so only a gate-by-gate run
    (perfbench's tracer) applies A†, which drives A's gates off their domains."""
    for layer in reversed(segment):
        builder.append_layer([invert_gate(g).with_params(checked=False) for g in layer])
    builder.append(g_reflect_zero(range(builder.n_qubits)))
    for layer in segment:
        builder.append_layer([g.with_params(checked=False) for g in layer])


def is_zero_reflection(layer: Sequence[Gate]) -> bool:
    """The layer holds one reflection about |0…0⟩ with no control."""
    return (
        len(layer) == 1
        and layer[0].kind == "product_reflection"
        and layer[0].params.get("ctrl") is None
    )


def find(layers: Sequence[Sequence[Gate]]) -> List[Span]:
    """The rounds to fuse, in order."""
    keys: Dict[Tuple[int, bool], FrozenSet[Tuple[Any, ...]]] = {}

    def key(i: int, inverse: bool = False) -> FrozenSet[Tuple[Any, ...]]:
        if (i, inverse) not in keys:
            gates = [invert_gate(g) for g in layers[i]] if inverse else layers[i]
            keys[i, inverse] = frozenset(_gate_key(g) for g in gates)
        return keys[i, inverse]

    chosen: List[Span] = []
    for c, layer in enumerate(layers):
        if not is_zero_reflection(layer) or (chosen and c <= chosen[-1][1]):
            continue
        targets = set(layer[0].targets)
        reach = 0
        while c - reach > 0 and c + reach + 1 < len(layers):
            left = layers[c - reach - 1]
            # a gate of no known kind has no inverse; outside a round, its
            # layer is compiled, which refuses it
            if not left or any(
                g.kind not in GATE_KINDS or not set(g.touched()) <= targets for g in left
            ):
                break
            if key(c - reach - 1, inverse=True) != key(c + reach + 1):
                break
            reach += 1
        match = 0
        while match < reach and key(c + match + 1) == key(match):
            match += 1
        best: Optional[Tuple[int, Optional[int]]] = None
        for r in range(reach, 0, -1):
            lo = c - r
            if any(a < lo <= b for a, b, _ in chosen):
                continue  # it would cut an earlier round in two
            held = r <= min(match, lo) and not any(a < r <= b for a, b, _ in chosen)
            if best is None or held:
                best = (r, r if held else None)
            if held:
                break
        if best is not None:
            r, prefix = best
            chosen = [x for x in chosen if x[0] < c - r] + [(c - r, c + r, prefix)]
    return chosen


@dataclass
class Round:
    """A round on the target bits ``mask``: ``layers`` are its forward half
    A, ``prefix`` the plan item before which a run of one state from |0…0⟩
    holds A|0⟩, and ``a`` caches A|0⟩ once a run has computed it."""

    mask: int
    layers: Sequence[Sequence[Gate]]
    prefix: Optional[int]
    a: Any = None


def fuse(
    layers: Sequence[Sequence[Gate]], compile_layer: Callable[[Sequence[Gate]], Any]
) -> Tuple[Any, ...]:
    """The plan of these layers: ``compile_layer(layer)`` for each layer
    outside a round, and a ``Round`` in place of the layers of each round.
    No gate of a round is compiled here: its A† half and its reflection
    never run, and its forward half is compiled by the first run that needs
    A|0⟩ and holds none."""
    spans = {lo: (hi, prefix) for lo, hi, prefix in find(layers)}
    items: List[Any] = []
    # the plan item that starts at each layer
    start: Dict[int, int] = {}
    q = 0
    while q < len(layers):
        start[q] = len(items)
        if q in spans:
            hi, prefix = spans[q]
            c = (q + hi) // 2
            mask = sum(1 << t for t in set(layers[c][0].targets))
            items.append(Round(mask, layers[c + 1 : hi + 1], prefix))
            q = hi + 1
        else:
            items.append(compile_layer(layers[q]))
            q += 1
    for item in items:
        if isinstance(item, Round) and item.prefix is not None:
            item.prefix = start[item.prefix]
    return tuple(items)


def reflect(
    a_idx: np.ndarray, a_amp: np.ndarray, mask: int, idx: np.ndarray, amp: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """ψ − 2a⟨a|ψ⟩ for each pattern of the bits outside ``mask``, on a
    support; a's indices are sorted and inside the mask."""
    local = idx & mask
    pos = np.minimum(np.searchsorted(a_idx, local), len(a_idx) - 1)
    hit = a_idx[pos] == local
    terms = np.conj(a_amp[pos[hit]]) * amp[hit]
    rest = (idx ^ local)[hit]
    if rest.any():
        patterns, column = np.unique(rest, return_inverse=True)
        overlap = np.bincount(column, terms.real, len(patterns)) + 1j * np.bincount(
            column, terms.imag, len(patterns)
        )
    else:
        patterns, overlap = np.zeros(1, dtype=np.int64), terms.sum(keepdims=True)
    live = overlap != 0
    new = (patterns[live, None] | a_idx).ravel()
    out_idx, where = np.unique(np.concatenate([idx, new]), return_inverse=True)
    out = np.zeros(len(out_idx), dtype=complex)
    out[where[: len(idx)]] = amp
    # the new indices are distinct, so no entry is added to twice
    out[where[len(idx) :]] += (-2.0 * overlap[live, None] * a_amp).ravel()
    return out_idx, out
