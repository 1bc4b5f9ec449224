"""Timing of the calls the benchmark makes into the package, and the traced run.

``Meter`` times every public call of a round.  With a ``Tracer`` attached it
also keeps one span per call in memory (name, start, end, parent, case) and
the traced run adds its own measurements: it steps simulated circuits one
gate at a time through ``simulate.run``, counts amplitude support after each
layer, and times library compilation per distinct gate.  The spans are
written as JSONL when the run ends.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

import speed
from reference import CLAIM_IDS
from shallowprep import Circuit, cost, library, run

GATE_KINDS = (
    "unitary1",
    "ctrl_unitary1",
    "and",
    "or",
    "nor",
    "fanout",
    "swap",
    "product_reflection",
    "library",
)

LIBRARY_TAGS = (
    "threshold",
    "exact",
    "ham",
    "one_hot",
    "dicke_prep",
    "zero_w",
    "w_swap",
    "marked_prep",
    "ctrl_dicke",
    "ctrl_damped",
    "onehot_dist",
    "small_state",
    "raw_state",
)

SUPPORT_TOL = 1e-14
MIB = float(2**20)


class Meter:
    """Wall and CPU time spent inside program calls, and check time, per round."""

    def __init__(self, probe: speed.Probe, tracer: Optional["Tracer"] = None):
        self.tracer = tracer
        self._probe = probe
        self.wall = 0.0
        self.cpu = 0.0
        self.check_s = 0.0
        self.problems: List[str] = []
        self.probes: List[float] = []
        self._last_probe = 0.0

    def probe(self, count: int = 1) -> None:
        """Time the host-speed probe ``count`` times now; the round's times
        are rescaled by the median of its probes."""
        self.probes.extend(self._probe.time() for _ in range(count))
        self._last_probe = time.perf_counter()

    def rescaled(self) -> Tuple[float, float]:
        """The round's wall and CPU time at the reference host speed."""
        return (self._probe.rescale(self.wall, self.probes),
                self._probe.rescale(self.cpu, self.probes))

    def between_cases(self) -> None:
        """Probe between two cases if the last probe is PROBE_GAP_S old."""
        if time.perf_counter() - self._last_probe >= speed.PROBE_GAP_S:
            self.probe()

    def call(self, span: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run one public call of the package and charge it to the round."""
        c0 = time.process_time()
        w0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            w1 = time.perf_counter()
            self.cpu += time.process_time() - c0
            self.wall += w1 - w0
            if self.tracer is not None:
                self.tracer.record(span, w0, w1)

    @contextmanager
    def checking(self) -> Iterator[None]:
        """Time spent in the benchmark's own reference checks."""
        w0 = time.perf_counter()
        try:
            yield
        finally:
            self.check_s += time.perf_counter() - w0

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


class Tracer:
    """Spans and per-layer counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._case = ""
        self.span_s: Dict[str, float] = defaultdict(float)
        self.sums: Dict[str, float] = defaultdict(float)
        self.peaks: Dict[str, float] = defaultdict(float)
        self._compiled: set = set()

    # ---- spans ----

    def record(self, name: str, start: float, end: float, **attrs: Any) -> None:
        self.spans.append(
            {
                "id": len(self.spans),
                "name": name,
                "start": start,
                "end": end,
                "parent": self._stack[-1] if self._stack else None,
                "case": self._case,
                **attrs,
            }
        )
        self.span_s[name] += end - start

    @contextmanager
    def scope(self, name: str, case: str) -> Iterator[None]:
        """An enclosing span (a round or a case) that later spans point to."""
        span_id = len(self.spans)
        self.spans.append({"id": span_id, "name": name, "start": time.perf_counter(),
                           "end": None, "parent": self._stack[-1] if self._stack else None,
                           "case": case})
        prev_case = self._case
        self._case = case
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            self._case = prev_case
            self.spans[span_id]["end"] = time.perf_counter()

    def new_round(self) -> None:
        """Library compilation is timed once per distinct gate per round,
        as the simulator compiles it once per round from an empty cache."""
        self._compiled = set()

    # ---- circuits ----

    def circuit_counts(self, circuit: Any, json_bytes: int = 0) -> None:
        report = cost(circuit)
        self.sums["circuits.qubits"] += circuit.n_qubits
        self.sums["circuits.layers"] += len(circuit.layers)
        self.sums["circuits.json_bytes"] += json_bytes
        self.sums["circuits.declared_depth"] += report.depth
        for gate in circuit.gates():
            self.sums["circuits.gates"] += 1
            if gate.kind == "library":
                self.sums["circuits.library_gates"] += 1
        self.peaks["circuits.max_fanout_width"] = max(
            self.peaks["circuits.max_fanout_width"], report.max_fanout_width
        )

    # ---- library compilation ----

    def time_library(self, circuit: Any) -> None:
        """Time semantics and completion of each distinct library gate."""
        for gate in circuit.gates():
            if gate.kind != "library":
                continue
            key = (gate.params["tag"], gate.params["args"])
            if key in self._compiled:
                continue
            self._compiled.add(key)
            w0 = time.perf_counter()
            sem = library.semantics(*key)
            w1 = time.perf_counter()
            self.record("library.semantics", w0, w1, tag=key[0])
            self.sums["library.distinct_ops"] += 1
            if sem.permutation is not None:
                self.sums["library.table_entries"] += len(sem.permutation)
            else:
                w0 = time.perf_counter()
                unitary = library.complete_isometry(sem.n_qubits, sem.columns)
                w1 = time.perf_counter()
                self.record("library.isometry", w0, w1, tag=key[0])
                self.sums["library.unitary_mb"] += unitary.nbytes / MIB

    # ---- layer-by-layer simulation ----

    def step(self, circuit: Any, initial: Any = None) -> np.ndarray:
        """Simulate ``circuit`` one gate at a time through ``simulate.run``.

        Each gate is run as a one-gate circuit on the current state, which
        times it by kind (and by tag for library gates); the support of the
        state is counted after each layer.
        """
        n = circuit.n_qubits
        state = initial
        amps: Optional[np.ndarray] = None
        self.sums["simulate.runs"] += 1
        self.peaks["simulate.state_mb"] = max(
            self.peaks["simulate.state_mb"], (2**n) * 16 / MIB
        )
        for layer in circuit.layers:
            for gate in layer:
                one = Circuit(
                    registers=circuit.registers, layers=((gate,),), metadata=circuit.metadata
                )
                w0 = time.perf_counter()
                amps = run(one, state).amplitudes
                w1 = time.perf_counter()
                state = amps
                tag = gate.params.get("tag") if gate.kind == "library" else None
                self.record("simulate.run", w0, w1, kind=gate.kind, tag=tag)
                self.sums[f"simulate.kind_s.{gate.kind}"] += w1 - w0
                if tag is not None:
                    self.sums[f"simulate.library_s.{tag}"] += w1 - w0
                self.sums["simulate.gate_apps"] += 1
                self.sums["simulate.dense_amp_updates"] += 2**n
            if amps is not None:
                support = int(np.count_nonzero(np.abs(amps) > SUPPORT_TOL))
                self.sums["simulate.support_sum"] += support
                self.peaks["simulate.peak_support"] = max(
                    self.peaks["simulate.peak_support"], support
                )
        return amps

    # ---- output ----

    def per_layer(self, rounds: int, check_s: float) -> Dict[str, float]:
        """Per-round per-layer metrics; counts and times are divided by rounds,
        peaks are taken over the whole run."""
        per = 1.0 / max(1, rounds)
        s = self.span_s
        m: Dict[str, float] = {}
        run_s = s["simulate.run"] * per
        m["simulate.run_s"] = run_s
        m["simulate.verify_s"] = s["simulate.verify"] * per
        m["simulate.runs"] = self.sums["simulate.runs"] * per
        m["simulate.gate_apps"] = self.sums["simulate.gate_apps"] * per
        m["simulate.dense_amp_updates"] = self.sums["simulate.dense_amp_updates"] * per
        m["simulate.amp_updates_per_s"] = (
            m["simulate.dense_amp_updates"] / run_s if run_s > 0 else 0.0
        )
        for kind in GATE_KINDS:
            m[f"simulate.kind_s.{kind}"] = self.sums[f"simulate.kind_s.{kind}"] * per
        for tag in LIBRARY_TAGS:
            m[f"simulate.library_s.{tag}"] = self.sums[f"simulate.library_s.{tag}"] * per
        m["simulate.peak_support"] = self.peaks["simulate.peak_support"]
        m["simulate.support_sum"] = self.sums["simulate.support_sum"] * per
        m["simulate.state_mb"] = self.peaks["simulate.state_mb"]
        m["library.semantics_s"] = s["library.semantics"] * per
        m["library.isometry_s"] = s["library.isometry"] * per
        m["library.distinct_ops"] = self.sums["library.distinct_ops"] * per
        m["library.table_entries"] = self.sums["library.table_entries"] * per
        m["library.unitary_mb"] = self.sums["library.unitary_mb"] * per
        m["circuits.serialize_s"] = s["circuits.serialize"] * per
        m["circuits.deserialize_s"] = s["circuits.deserialize"] * per
        m["circuits.cost_s"] = s["circuits.cost"] * per
        for key in ("json_bytes", "qubits", "layers", "gates", "library_gates",
                    "declared_depth"):
            m[f"circuits.{key}"] = self.sums[f"circuits.{key}"] * per
        m["circuits.max_fanout_width"] = self.peaks["circuits.max_fanout_width"]
        m["synthesis.build_s"] = s["synthesis.build"] * per
        m["synthesis.builds"] = self.sums["synthesis.builds"] * per
        m["synthesis.target_s"] = s["synthesis.target"] * per
        m["primitives.build_s"] = s["primitives.build"] * per
        total_claim_s = 0.0
        for cid in CLAIM_IDS:
            m[f"claims.{cid}_s"] = self.sums[f"claims.{cid}_s"] * per
            total_claim_s += m[f"claims.{cid}_s"]
        m["claims.points"] = self.sums["claims.points"] * per
        m["claims.points_per_s"] = (
            m["claims.points"] / total_claim_s if total_claim_s > 0 else 0.0
        )
        m["bench.check_s"] = check_s * per
        return m

    def write(self, path: str, summary: Dict[str, Any]) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"summary": summary}) + "\n")
