"""The four workloads: inputs made from a seed, one round of cases, and the
negative controls each workload's checks must reject.

A round runs every case of the workload once; one case is one operation.
Each case calls the package only through its public functions, via
``Meter.call`` so that the call is timed (and traced when tracing is on), and
then checks the outputs against ``reference`` inside ``Meter.checking``.
"""
from __future__ import annotations

import cmath
import math
import random
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import reference as ref
import speed
from shallowprep import (
    Builder,
    CertificationError,
    Circuit,
    SweepConfig,
    build_dicke,
    build_symmetric,
    certify_library_gate,
    check_clean_preparation,
    cost,
    deserialize,
    ham_gadget,
    library,
    run_claims,
    serialize,
)
from shallowprep.primitives import ctrl_dicke_explicit
from tracing import Meter, Tracer

FIDELITY_TOL = 1e-9
AMPLITUDE_TOL = 1e-12


@dataclass(frozen=True)
class Case:
    name: str
    run: Callable[[Meter], None]


# One round of a workload: runs every case once, returns (attempted, failed).
Round = Callable[[Meter], Tuple[int, int]]


def run_cases(cases: Sequence[Case], meter: Meter) -> Tuple[int, int]:
    """Run one round; a case that raises counts as failed and the round goes on."""
    failed = 0
    for i, case in enumerate(cases):
        if i:
            meter.between_cases()
        tracer = meter.tracer
        try:
            if tracer is None:
                case.run(meter)
            else:
                with tracer.scope("case", case=case.name):
                    case.run(meter)
        except Exception:  # one failed operation must not end the run
            failed += 1
            print(f"perfbench: case {case.name} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
    return len(cases), failed


def _seeded_eta(rng: random.Random, k_star: int) -> Tuple[complex, ...]:
    """Unit-norm complex weights over 0..k_star, magnitudes in [0.3, 1] before
    normalising, phases uniform."""
    mags = [rng.uniform(0.3, 1.0) for _ in range(k_star + 1)]
    norm = math.sqrt(sum(m * m for m in mags))
    return tuple(m / norm * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)) for m in mags)


# ---- verify-states ----

DICKE_TARGETS = (
    # (label, n, k, ell)
    ("dicke(8,2,4)", 8, 2, 4),
    ("dicke(12,2,4)", 12, 2, 4),
    ("dicke(9,3,3)", 9, 3, 3),
    ("padded dicke(7,2,4)", 7, 2, 4),
    ("complement dicke(8,6)", 8, 6, None),
    ("W dicke(10,1)", 10, 1, None),
)
SYMMETRIC_MIXES = ((4, 2), (5, 1))  # (n, largest weight)


def _verify_case(label: str, build: Callable[[], Any], expected: np.ndarray) -> Case:
    def run(meter: Meter) -> None:
        out = meter.call("synthesis.build", build)
        text = meter.call("circuits.serialize", serialize, out.circuit)
        circ = meter.call("circuits.deserialize", deserialize, text)
        target = meter.call("synthesis.target", lambda: out.target)
        res = meter.call(
            "simulate.verify", check_clean_preparation, circ, expected, out.output_qubits
        )
        with meter.checking():
            diff = ref.circuit_difference(out.circuit, circ)
            meter.expect(diff is None, f"{label}: round trip changed the circuit: {diff}")
            meter.expect(
                target.shape == expected.shape
                and np.allclose(target, expected, rtol=0.0, atol=AMPLITUDE_TOL),
                f"{label}: SynthesisOutput.target differs from the binomial reference",
            )
            meter.expect(
                res.fidelity >= 1.0 - FIDELITY_TOL and res.clean,
                f"{label}: fidelity {res.fidelity!r}, clean={res.clean}",
            )
        tracer = meter.tracer
        if tracer is not None:
            tracer.sums["synthesis.builds"] += 1
            tracer.circuit_counts(circ, len(text))
            tracer.time_library(circ)
            tracer.step(circ)

    return Case(label, run)


def verify_states_round(seed: int) -> Round:
    cases = []
    for label, n, k, ell in DICKE_TARGETS:
        cases.append(
            _verify_case(label, lambda n=n, k=k, ell=ell: build_dicke(n, k, ell),
                         ref.dicke_amplitudes(n, k))
        )
    rng = random.Random(seed)
    for n, k_star in SYMMETRIC_MIXES:
        eta = _seeded_eta(rng, k_star)
        cases.append(
            _verify_case(f"symmetric(n={n}, weights 0..{k_star})",
                         lambda n=n, eta=eta: build_symmetric(n, eta),
                         ref.symmetric_amplitudes(n, eta))
        )
    return lambda meter: run_cases(cases, meter)


def verify_states_controls() -> List[str]:
    """A wrong-weight target must fail both the fidelity check and the
    comparison with SynthesisOutput.target."""
    problems = []
    out = build_dicke(8, 2, 4)
    wrong = ref.dicke_amplitudes(8, 3)
    res = check_clean_preparation(out.circuit, wrong, out.output_qubits)
    if res.fidelity >= 1.0 - FIDELITY_TOL:
        problems.append("control: dicke(8,2,4) passed against a weight-3 target")
    if np.allclose(out.target, wrong, rtol=0.0, atol=AMPLITUDE_TOL):
        problems.append("control: weight-3 reference matched the weight-2 target")
    return problems


# ---- certify-gadgets ----

# n=1..4, k=0..2 without (4, 2): that gadget alone (19 qubits, 129 runs) took
# about 12 s, so a 30 s run held two rounds and its median moved with every
# slow spell of the host; without it a round takes about 0.6 s.
HAM_CASES = tuple((n, k) for n in range(1, 5) for k in range(0, 3) if (n, k) != (4, 2))
CTRL_DICKE_CASES = ((2, 1, (0,)), (2, 2, (0, 1)), (3, 2, (1, 2)))
CERTIFY_MAX_QUBITS = 20


def build_ham(n: int, k: int, reverse_tally: bool = False) -> Tuple[Circuit, Tuple[int, ...]]:
    """The tally gadget on a fresh n-qubit input register, with its io order."""
    b = Builder()
    x = b.add_register("x", n, ancilla=False)
    tally = tuple(ham_gadget(b, tuple(x), k))
    if reverse_tally:
        tally = tally[::-1]
    return b.build(), tuple(x) + tally


def _step_certification(tracer: Tracer, tag: str, args: Tuple[Any, ...],
                        circ: Circuit, io: Sequence[int]) -> int:
    """Replay the runs a certification makes: every domain input from its
    basis state, then the uniform superposition over the domain."""
    domain = library.semantics(tag, args).domain
    w = len(io)
    inputs = list(range(2**w)) if domain is None else [int(d) for d in domain]

    def bits(d: int) -> Dict[int, int]:
        """Gate-local input d on the io qubits; io[0] holds the top bit."""
        return {q: (d >> (w - 1 - j)) & 1 for j, q in enumerate(io)}

    for d in inputs:
        tracer.step(circ, bits(d))
    if len(inputs) == 1:
        return 1
    probe = np.zeros(2**circ.n_qubits, dtype=complex)
    for d in inputs:
        probe[sum(b << q for q, b in bits(d).items())] = 1.0 / math.sqrt(len(inputs))
    tracer.step(circ, probe)
    return len(inputs) + 1


def _certify_case(label: str, tag: str, args: Tuple[Any, ...],
                  build: Callable[[], Tuple[Circuit, Tuple[int, ...]]],
                  domain_size: int, table: Optional[np.ndarray]) -> Case:
    def run(meter: Meter) -> None:
        circ, io = meter.call("primitives.build", build)
        rep = meter.call(
            "simulate.verify", certify_library_gate, tag, args, circ, io,
            max_qubits=CERTIFY_MAX_QUBITS,
        )
        with meter.checking():
            want = ref.certified_inputs(domain_size)
            meter.expect(rep.inputs_checked == want,
                         f"{label}: {rep.inputs_checked} inputs checked, expected {want}")
            meter.expect(rep.worst_overlap >= 1.0 - FIDELITY_TOL,
                         f"{label}: worst overlap {rep.worst_overlap!r}")
            if table is not None:
                sem = library.semantics(tag, args)
                meter.expect(sem.permutation is not None
                             and np.array_equal(sem.permutation, table),
                             f"{label}: library semantics differ from the popcount table")
        tracer = meter.tracer
        if tracer is not None:
            tracer.circuit_counts(circ)
            tracer.time_library(circ)
            runs = _step_certification(tracer, tag, args, circ, io)
            meter.expect(runs == rep.inputs_checked,
                         f"{label}: stepped {runs} runs, certification made {rep.inputs_checked}")

    return Case(label, run)


def certify_gadgets_round(seed: int) -> Round:
    """The gadget list is fixed; the seed does not change it."""
    cases = []
    for n, k in HAM_CASES:
        cases.append(_certify_case(
            f"ham_gadget(n={n}, k={k})", "ham", (n, k),
            lambda n=n, k=k: build_ham(n, k), 2 ** (n + k + 1), ref.ham_table(n, k)))
    for ell, slots, weights in CTRL_DICKE_CASES:
        cases.append(_certify_case(
            f"ctrl_dicke_explicit({ell}, {slots}, {weights})", "ctrl_dicke",
            (ell, slots, weights),
            lambda ell=ell, slots=slots, weights=weights: ctrl_dicke_explicit(ell, slots, weights),
            slots + 1, None))
    return lambda meter: run_cases(cases, meter)


def certify_gadgets_controls() -> List[str]:
    """A tally gadget certified with its tally register reversed must fail."""
    circ, io = build_ham(3, 1, reverse_tally=True)
    try:
        certify_library_gate("ham", (3, 1), circ, io, max_qubits=CERTIFY_MAX_QUBITS)
    except CertificationError:
        return []
    return ["control: ham_gadget(3,1) with its tally reversed was certified"]


# ---- claims-sweep ----

CLAIM_M_VALUES = tuple(range(1, 65))  # the CLI's default grid m=1..64, k=1..6
CLAIM_K_MAX = 6
CONTROL_M_VALUES = tuple(range(1, 7))
CONTROL_K_MAX = 3


def claims_sweep_round(seed: int) -> Round:
    """One run_claims call; every verdict is one operation.  The grid is
    fixed; the seed does not change it."""
    expected = ref.claim_point_counts(CLAIM_M_VALUES, CLAIM_K_MAX)
    points = sum(expected.values())
    config = SweepConfig(m_values=CLAIM_M_VALUES, k_max=CLAIM_K_MAX, workers=1)

    def run(meter: Meter) -> Tuple[int, int]:
        tracer = meter.tracer
        try:
            if tracer is None:
                verdicts = meter.call("claims.run", run_claims, config)
            else:
                with tracer.scope("case", case="run_claims(m=1..64, k<=6)"):
                    verdicts = meter.call("claims.run", run_claims, config)
        except Exception:  # the whole sweep failed: every point fails
            print("perfbench: run_claims failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return points, points
        with meter.checking():
            counts = dict(Counter(v.claim for v in verdicts))
            meter.expect(counts == expected,
                         f"claims: points per claim {counts} != grid {expected}")
        if tracer is not None:
            for v in verdicts:
                tracer.sums[f"claims.{v.claim}_s"] += v.seconds
            tracer.sums["claims.points"] += len(verdicts)
        failed = sum(1 for v in verdicts if not v.passed)
        return points, failed + max(0, points - len(verdicts))

    return run


def claims_sweep_controls() -> List[str]:
    """lambda-off-by-one must fail exactly the normalizer rows."""
    cfg = SweepConfig(m_values=CONTROL_M_VALUES, k_max=CONTROL_K_MAX, workers=1,
                      fault="lambda-off-by-one")
    verdicts = run_claims(cfg)
    failed = [v for v in verdicts if not v.passed]
    want = ref.claim_point_counts(CONTROL_M_VALUES, CONTROL_K_MAX)["normalizer-bounds"]
    if {v.claim for v in failed} != {"normalizer-bounds"} or len(failed) != want:
        return [f"control: lambda-off-by-one failed {len(failed)} rows "
                f"({sorted({v.claim for v in failed})}), expected the {want} normalizer rows"]
    return []


# ---- synth-wide ----

LADDER_K, LADDER_ELL = 2, 4
LADDER_N = (8, 16, 32, 64, 128, 256, 512, 1024)
WIDE_ANCHORS = (16, 32, 64, 128, 256, 512, 1024)


def _synth_case(label: str, n: int, build: Callable[[], Any],
                ladder: Optional[List[Tuple[int, int, int, int]]] = None) -> Case:
    def run(meter: Meter) -> None:
        out = meter.call("synthesis.build", build)
        text = meter.call("circuits.serialize", serialize, out.circuit)
        circ = meter.call("circuits.deserialize", deserialize, text)
        report = meter.call("circuits.cost", cost, circ)
        with meter.checking():
            diff = ref.circuit_difference(out.circuit, circ)
            meter.expect(diff is None, f"{label}: round trip changed the circuit: {diff}")
            meter.expect(report == out.report,
                         f"{label}: cost after the round trip {report} != {out.report}")
            meter.expect(len(out.output_qubits) == n,
                         f"{label}: {len(out.output_qubits)} output qubits")
            if ladder is not None:
                ladder.append((n, len(circ.layers), report.max_fanout_width, report.depth))
        tracer = meter.tracer
        if tracer is not None:
            tracer.sums["synthesis.builds"] += 1
            tracer.circuit_counts(circ, len(text))

    return Case(label, run)


def synth_wide_round(seed: int) -> Round:
    """Builds with no simulation: a fixed (k=2, ell=4) Dicke ladder, a
    default-layout Dicke build at each anchor size, and a seeded symmetric
    mix just below it.

    The sizes are fixed because the block layout, and with it the build
    cost, changes with the divisors of n; the seed draws only the mixes,
    which leave the circuit's structure unchanged.
    """
    rng = random.Random(seed)
    ladder: List[Tuple[int, int, int, int]] = []
    cases = [
        _synth_case(f"ladder dicke({n},2,4)", n,
                    lambda n=n: build_dicke(n, LADDER_K, LADDER_ELL), ladder)
        for n in LADDER_N
    ]
    for i, n in enumerate(WIDE_ANCHORS):
        k = 1 + i % 3
        cases.append(_synth_case(f"dicke({n},{k})", n, lambda n=n, k=k: build_dicke(n, k)))
        m = n - n // 8
        eta = _seeded_eta(rng, 1 + (i + 1) % 3)
        cases.append(_synth_case(f"symmetric(n={m}, weights 0..{len(eta) - 1})", m,
                                 lambda m=m, eta=eta: build_symmetric(m, eta)))

    def run(meter: Meter) -> Tuple[int, int]:
        ladder.clear()
        attempted, failed = run_cases(cases, meter)
        with meter.checking():
            for problem in ref.ladder_violations(ladder, LADDER_K, LADDER_ELL):
                meter.expect(False, f"ladder: {problem}")
        return attempted, failed

    return run


def synth_wide_controls() -> List[str]:
    """The round-trip comparison must see a one-gate change and a dropped
    layer, and the ladder check must see a padded size's extra layers."""
    problems = []
    circ = build_dicke(16, LADDER_K, LADDER_ELL).circuit
    i = next(i for i, layer in enumerate(circ.layers) if layer[0].kind == "library")
    gate = circ.layers[i][0]
    flipped = (gate.with_params(inverse=not gate.params["inverse"]),) + circ.layers[i][1:]
    changed = Circuit(registers=circ.registers,
                      layers=circ.layers[:i] + (flipped,) + circ.layers[i + 1:],
                      metadata=circ.metadata)
    if ref.circuit_difference(circ, changed) is None:
        problems.append("control: a changed gate parameter passed the round-trip check")
    dropped = Circuit(registers=circ.registers, layers=circ.layers[:-1], metadata=circ.metadata)
    if ref.circuit_difference(circ, dropped) is None:
        problems.append("control: a dropped layer passed the round-trip check")
    rows = []
    for n in (16, 18):
        out = build_dicke(n, LADDER_K, LADDER_ELL)
        rows.append((n, len(out.circuit.layers), out.report.max_fanout_width, out.report.depth))
    if not ref.ladder_violations(rows, LADDER_K, LADDER_ELL):
        problems.append("control: a padded size passed the constant-layer ladder check")
    return problems


# ---- registry ----

# workload name -> (round factory taking the seed, negative controls, the
# host-speed probe of the work the round spends its time in)
WORKLOADS: Dict[str, Tuple[Callable[[int], Round], Callable[[], List[str]], speed.Probe]] = {
    "verify-states": (verify_states_round, verify_states_controls, speed.DENSE),
    "certify-gadgets": (certify_gadgets_round, certify_gadgets_controls, speed.DENSE),
    "claims-sweep": (claims_sweep_round, claims_sweep_controls, speed.PYTHON),
    "synth-wide": (synth_wide_round, synth_wide_controls, speed.PYTHON),
}
