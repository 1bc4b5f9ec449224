"""End-to-end acceptance battery for the synthesis stack.

Every check emits one row holding the measured quantity, the requirement
it is held against, and a boolean verdict.  Rows carry wall-clock timings
for the human-facing table, but the canonical serialized report strips
them so that two runs of the same configuration compare byte for byte.
"""

from __future__ import annotations

import functools
import json
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import claims, library
from .circuits import Builder, CircuitError, g_and, g_unitary1
from .primitives import (
    MarkedPreparation,
    adjust_amplitudes,
    amplify_to_exact,
    ctrl_dicke_explicit,
    ctrl_from_zero_overlap,
    ctrl_state,
    custom_threshold,
    custom_threshold_predicate,
    exact_grover,
    ham_gadget,
    parallel_amplify,
    rot_matrix,
)
from .simulate import (
    CertificationError,
    CertificationReport,
    SimulationError,
    StateVector,
    certify,
    certify_library_gate,
    check_clean_preparation,
    split,
)
from .synthesis import SynthesisOutput, build_dicke, build_symmetric

FIDELITY_TOL = 1e-9

DICKE_GRID = (
    (4, 1, 2),
    (4, 1, 4),
    (4, 2, 2),
    (6, 2, 3),
    (8, 2, 4),
    (6, 1, 3),
    (8, 1, 4),
)

PADDED_GRID = ((5, 1, 2), (7, 2, 4))

_ISQ2 = math.sqrt(0.5)

_PRIMITIVE = "primitive-certification"


@dataclass
class CheckRow:
    check_id: str
    params: Dict[str, Any]
    lhs: str
    rhs: str
    verdict: bool
    seconds: float

    def as_dict(self, include_seconds: bool = True) -> Dict[str, Any]:
        row: Dict[str, Any] = {
            "id": self.check_id,
            "params": dict(self.params),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "verdict": self.verdict,
        }
        if include_seconds:
            row["seconds"] = round(self.seconds, 3)
        return row


def canonical_rows(rows: Sequence[CheckRow]) -> str:
    """Timing-free serialized form used for the determinism comparison."""
    payload = [row.as_dict(include_seconds=False) for row in rows]
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


Measure = Callable[[], Tuple[str, bool]]
# (params, rhs, measure): one row of a criterion, as data
Case = Tuple[Dict[str, Any], str, Measure]


def _row(check_id: str, params: Dict[str, Any], rhs: str, measure: Measure) -> CheckRow:
    """The one maker of rows: ``measure()`` is timed and returns lhs and verdict."""
    t0 = time.perf_counter()
    lhs, ok = measure()
    return CheckRow(check_id, params, lhs, rhs, ok, time.perf_counter() - t0)


# ---- prepared states ----


def _symmetric_cases() -> Tuple[Tuple[str, np.ndarray], ...]:
    return (
        ("weights-01", np.array([0.6, 0.8], dtype=complex)),
        (
            "weights-12",
            np.array([0.0, math.sqrt(1.0 / 3.0), math.sqrt(2.0 / 3.0)], dtype=complex),
        ),
        (
            "weights-012-phase",
            np.array([0.5, math.sqrt(0.5) * 1j, -0.5], dtype=complex),
        ),
    )


def _state_cases() -> List[Tuple[str, Dict[str, Any], str, Callable[[], SynthesisOutput], bool]]:
    """(criterion, params, label, build, padded) for every prepared state.

    A padded row also reports ``padded_to`` and ``p0``, and fails when the
    build did not pad.
    """
    cases = []
    for criterion, grid, kind in (
        ("exact-dicke-grid", DICKE_GRID, "dicke"),
        ("padding-path", PADDED_GRID, "dicke-padded"),
    ):
        for n, k, ell in grid:
            build = functools.partial(build_dicke, n, k, ell)
            label = f"{kind} n={n} k={k} ell={ell}"
            padded = criterion == "padding-path"
            cases.append((criterion, {"n": n, "k": k, "ell": ell}, label, build, padded))
    for case, eta in _symmetric_cases():
        build = functools.partial(build_symmetric, 4, eta)
        label = f"symmetric n=4 {case}"
        cases.append(("symmetric-states", {"n": 4, "case": case}, label, build, False))
    return cases


def _crit_states(ws: Dict[str, Any], check_id: str) -> List[CheckRow]:
    def measure(
        label: str, build: Callable[[], SynthesisOutput], padded: bool
    ) -> Tuple[str, bool]:
        out = build()
        res = check_clean_preparation(out.circuit, out.target, out.output_qubits)
        ws["states"].append((label, res.state, out.output_qubits))
        stray = res.residual_ancilla_mass
        lhs = f"fidelity={res.fidelity:.12f} stray={stray:.3e}"
        ok = res.fidelity >= 1.0 - FIDELITY_TOL and stray <= FIDELITY_TOL
        if padded:
            lhs += f" padded_to={out.info.get('padded_to')} p0={out.info.get('p0')}"
            ok = ok and out.info.get("padded_to") is not None
        return lhs, ok

    return [
        _row(
            check_id,
            params,
            "fidelity >= 1-1e-9 and stray <= 1e-9",
            functools.partial(measure, label, build, padded),
        )
        for criterion, params, label, build, padded in _state_cases()
        if criterion == check_id
    ]


def _crit_uniformity(ws: Dict[str, Any]) -> List[CheckRow]:
    if not ws["states"]:
        for check_id in ("exact-dicke-grid", "padding-path", "symmetric-states"):
            _crit_states(ws, check_id)

    def measure(state: StateVector, output_qubits: Sequence[int]) -> Tuple[str, bool]:
        local, values, _ = split(state, output_qubits)
        amps = np.zeros(2 ** len(output_qubits), dtype=complex)
        amps[local] = values
        weights = library.hamming_weights(len(output_qubits))
        worst = 0.0
        for weight in range(len(output_qubits) + 1):
            block = amps[weights == weight]
            peak = float(np.max(np.abs(block)))
            if peak < 1e-12:
                continue
            centre = complex(np.mean(block))
            worst = max(worst, float(np.max(np.abs(block - centre))) / peak)
        return f"spread={worst:.3e}", worst <= 1e-9

    return [
        _row(
            "weight-uniformity",
            {"state": label},
            "relative spread within each weight class <= 1e-9",
            functools.partial(measure, state, output_qubits),
        )
        for label, state, output_qubits in ws["states"]
    ]


def _crit_claims(ws: Dict[str, Any]) -> List[CheckRow]:
    """One sweep, then one row per claim; a row times only its own tally."""
    verdicts = claims.run_claims(claims.SweepConfig())

    def measure(sub: List[claims.ClaimVerdict]) -> Tuple[str, bool]:
        good = sum(1 for v in sub if v.passed)
        return f"{good}/{len(sub)} pass", bool(sub) and good == len(sub)

    by_claim = {c: [v for v in verdicts if v.claim == c] for c in claims.CLAIM_IDS}
    return [
        _row(
            "claim-sweep",
            {"claim": claim_id, "points": len(sub)},
            "every grid point passes",
            functools.partial(measure, sub),
        )
        for claim_id, sub in by_claim.items()
    ]


# ---- primitive certification cases ----


def _worst_controlled(
    circ, ctrl: int, phi: Sequence[complex], data: Sequence[int]
) -> Tuple[str, bool]:
    """Worst fidelity of a controlled preparation over four control states.

    With the control clear nothing may happen; with it set the data register
    must hold ``phi``, the control must stay set, and every other qubit must
    end clear.  Superposed controls check the relative phase.
    """
    # local images on (ctrl,) + data, the control on top
    zero = np.zeros(2 * len(phi), dtype=complex)
    zero[0] = 1.0
    one = np.concatenate([np.zeros(len(phi)), phi])
    worst = 1.0
    for c0, c1 in ((1.0, 0.0), (0.0, 1.0), (_ISQ2, _ISQ2), (_ISQ2, -1j * _ISQ2)):
        init = StateVector(circ.n_qubits, np.array([0, 1 << ctrl]), np.array([c0, c1]))
        target = c0 * zero + c1 * one
        res = check_clean_preparation(circ, target, (ctrl,) + tuple(data), init)
        worst = min(worst, res.fidelity)
    return f"worst_fidelity={worst:.12f}", worst >= 1.0 - FIDELITY_TOL


_CONTROLLED_RHS = "worst fidelity over four control states >= 1-1e-9"


def _certified(
    certified: Callable[..., CertificationReport], *args: Any, measure: str = "worst_overlap"
) -> Tuple[str, bool]:
    """The run ``certified(*args)`` as a measure; a failure is a failed row."""
    try:
        rep = certified(*args)
    except (CertificationError, SimulationError, CircuitError) as exc:
        return f"failed: {exc}", False
    return f"{measure}={rep.worst_overlap:.12f} inputs={rep.inputs_checked}", True


def _rows_exact_grover() -> Iterable[Case]:
    def measure(alpha: float, want: int) -> Tuple[str, bool]:
        b = Builder()
        data = b.add_register("data", 1, ancilla=False)[0]
        flag = b.add_register("flag", 1, ancilla=False)[0]
        b.append(g_unitary1(data, rot_matrix(1.0 - alpha)))
        b.append(g_and((data,), flag))
        rounds = exact_grover(b, flag, alpha)
        # fidelity with |data=1, flag=1>
        target = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)
        fid = check_clean_preparation(b.build(), target, (data, flag)).fidelity
        lhs = f"fidelity={fid:.12f} rounds={rounds}"
        return lhs, fid >= 1.0 - FIDELITY_TOL and rounds == want

    # alpha = sin^2(pi/(2r)) for odd r = 3, 5 takes (r - 1) / 2 rounds
    cases = (
        ("1/4", 0.25, 1),
        ("sin^2(pi/10)", math.sin(math.pi / 10.0) ** 2, 2),
    )
    return [
        (
            {"alpha": label},
            f"fidelity >= 1-1e-9 and rounds={want}",
            functools.partial(measure, alpha, want),
        )
        for label, alpha, want in cases
    ]


def _rows_amplify() -> Iterable[Case]:
    def measure(alpha: float, want_rounds: int) -> Tuple[str, bool]:
        b = Builder()
        data = b.add_register("data", 1, ancilla=False)
        flag = b.new_register("flag", 1)[0]
        b.append(g_unitary1(data[0], rot_matrix(1.0 - alpha)))
        b.append(g_and((data[0],), flag))
        rounds = amplify_to_exact(b, flag, alpha)
        res = check_clean_preparation(
            b.build(), np.array([0.0, 1.0], dtype=complex), tuple(data)
        )
        ok = res.fidelity >= 1.0 - FIDELITY_TOL and res.clean and rounds == want_rounds
        return f"fidelity={res.fidelity:.12f} clean={res.clean} rounds={rounds}", ok

    return [
        (
            {"alpha": label},
            f"fidelity >= 1-1e-9, clean, rounds={want_rounds}",
            functools.partial(measure, alpha, want_rounds),
        )
        for label, alpha, want_rounds in (("0.4", 0.4, 1), ("1", 1.0, 0))
    ]


def _rows_adjust() -> Iterable[Case]:
    def measure(alphas: List[float], betas: List[float]) -> Tuple[str, bool]:
        n_slots = len(alphas)
        b = Builder()
        slots = b.add_register("slots", n_slots, ancilla=False)
        amps = np.zeros(2**n_slots, dtype=complex)
        amps[0] = math.sqrt(1.0 - sum(alphas))
        for j in range(n_slots):
            amps[1 << (n_slots - 1 - j)] = math.sqrt(alphas[j])
        b.append(library.make("raw_state", (tuple(amps),), tuple(slots)))
        z = adjust_amplitudes(b, tuple(slots), alphas, betas)
        target = np.zeros_like(amps)
        target[0] = math.sqrt((1.0 - sum(alphas)) / float(z))
        for j in range(n_slots):
            target[1 << (n_slots - 1 - j)] = math.sqrt(alphas[j] * betas[j] / float(z))
        res = check_clean_preparation(b.build(), target, tuple(slots))
        lhs = f"fidelity={res.fidelity:.12f} clean={res.clean}"
        return lhs, res.fidelity >= 1.0 - FIDELITY_TOL and res.clean

    rng = random.Random(20240811)
    for draw in range(5):
        n_slots = rng.randint(1, 4)
        total = rng.uniform(0.3, 0.85)
        raw = [rng.uniform(0.2, 1.0) for _ in range(n_slots)]
        alphas = [r * total / sum(raw) for r in raw]
        betas = []
        for _ in range(n_slots):
            roll = rng.random()
            if roll < 0.2:
                betas.append(0.0)
            elif roll < 0.4:
                betas.append(1.0)
            else:
                betas.append(rng.uniform(0.1, 0.95))
        yield (
            {"draw": draw, "slots": n_slots},
            "fidelity >= 1-1e-9 and clean",
            functools.partial(measure, alphas, betas),
        )


def _rows_parallel_amplify() -> Iterable[Case]:
    psi = np.zeros(4, dtype=complex)
    psi[1] = psi[2] = _ISQ2

    def measure(alpha: Fraction) -> Tuple[str, bool]:
        mb = Builder()
        d = mb.add_register("pdata", 2, ancilla=False)
        f = mb.add_register("pflag", 1, ancilla=False)
        amps = np.zeros(8, dtype=complex)
        amps[0] = math.sqrt(float(1 - alpha))
        amps[3] = amps[5] = math.sqrt(float(alpha) / 2.0)
        mb.append(library.make("raw_state", (tuple(amps),), tuple(d) + tuple(f)))
        marked = MarkedPreparation(mb.build(), tuple(d), f[0], alpha)
        b = Builder()
        out = parallel_amplify(b, marked)
        res = check_clean_preparation(b.build(), psi, tuple(out))
        lhs = f"fidelity={res.fidelity:.12f} clean={res.clean}"
        return lhs, res.fidelity >= 1.0 - FIDELITY_TOL and res.clean

    return [
        ({"alpha": label}, "fidelity >= 1-1e-9 and clean", functools.partial(measure, alpha))
        for label, alpha in (("1/2", Fraction(1, 2)), ("1/3", Fraction(1, 3)))
    ]


def _rows_ham_gadget() -> Iterable[Case]:
    def certified(n: int, k: int) -> CertificationReport:
        b = Builder()
        x = b.add_register("x", n, ancilla=False)
        tally = ham_gadget(b, tuple(x), k)
        return certify_library_gate(
            "ham", (n, k), b.build(), tuple(x) + tuple(tally), max_qubits=20
        )

    return [
        (
            {"n": n, "k": k},
            "matches the tally semantics on every input",
            functools.partial(_certified, certified, n, k),
        )
        for n in range(1, 5)
        for k in range(0, 3)
    ]


def _rows_ctrl_state() -> Iterable[Case]:
    def measure(phi: Tuple[complex, ...]) -> Tuple[str, bool]:
        w = len(phi).bit_length() - 1
        pb = Builder()
        data = pb.add_register("sdata", w, ancilla=False)
        branch = pb.add_register("sbranch", 1, ancilla=False)
        amps = np.zeros(2 ** (w + 1), dtype=complex)
        amps[0] = _ISQ2
        for i, a in enumerate(phi):
            amps[2 * i + 1] = a * _ISQ2
        pb.append(library.make("raw_state", (tuple(amps),), tuple(data) + tuple(branch)))
        circ, ctrl = ctrl_state(pb.build(), branch[0])
        return _worst_controlled(circ, ctrl, phi, data)

    cases = (
        ("one", (0j, 1.0 + 0j)),
        ("plus", (_ISQ2 + 0j, _ISQ2 + 0j)),
        ("minus-i", (_ISQ2 + 0j, -1j * _ISQ2)),
        ("pair-complex", (0j, _ISQ2 + 0j, 1j * _ISQ2, 0j)),
    )
    return [
        ({"case": label}, _CONTROLLED_RHS, functools.partial(measure, phi))
        for label, phi in cases
    ]


def _rows_ctrl_from_zero_overlap() -> Iterable[Case]:
    rest = (0j, _ISQ2 + 0j, _ISQ2 + 0j, 0j)

    def measure(alpha: Any) -> Tuple[str, bool]:
        pb = Builder()
        data = pb.add_register("zdata", 2, ancilla=False)
        amps = np.zeros(4, dtype=complex)
        amps[0] = math.sqrt(float(alpha))
        amps[1] = amps[2] = math.sqrt((1.0 - float(alpha)) / 2.0)
        pb.append(library.make("raw_state", (tuple(amps),), tuple(data)))
        circ, ctrl = ctrl_from_zero_overlap(pb.build(), tuple(data), alpha)
        return _worst_controlled(circ, ctrl, rest, data)

    return [
        ({"alpha": label}, _CONTROLLED_RHS, functools.partial(measure, alpha))
        for label, alpha in (("0.3", 0.3), ("1/2", Fraction(1, 2)), ("0.75", 0.75))
    ]


def _rows_ctrl_dicke() -> Iterable[Case]:
    def certified(ell: int, slots: int, weights: Tuple[int, ...]) -> CertificationReport:
        return certify_library_gate(
            "ctrl_dicke", (ell, slots, weights), *ctrl_dicke_explicit(ell, slots, weights)
        )

    return [
        (
            {"ell": ell, "slots": slots},
            "matches the declared routing on its whole domain",
            functools.partial(_certified, certified, ell, slots, weights),
        )
        for ell, slots, weights in ((2, 1, (0,)), (2, 2, (0, 1)), (3, 2, (1, 2)))
    ]


def custom_threshold_semantics(
    n: int, k: int, predicate: Callable[[int, int], int]
) -> library.LibrarySemantics:
    """``custom_threshold``'s action on x + selectors + (out,), x[0] on top:
    the output flips when ``predicate(|x|, j)`` holds for the selected slot j
    (0 for a clear selector).  The domain is the 2^n (k+1) 2 inputs whose
    selector is clear or one-hot."""
    w = n + k + 1
    slot = {0: 0, **{1 << (k - j): j for j in range(1, k + 1)}}
    table = np.arange(2**w, dtype=np.int64)
    domain = [i for i in range(2**w) if (i >> 1) % 2**k in slot]
    for i in domain:
        table[i] ^= predicate(bin(i >> (k + 1)).count("1"), slot[(i >> 1) % 2**k])
    return library.LibrarySemantics(n_qubits=w, permutation=table, domain=tuple(domain))


def _rows_custom_threshold() -> Iterable[Case]:
    n, k = 3, 2

    def certified() -> CertificationReport:
        b = Builder()
        x = b.add_register("x", n, ancilla=False)
        sel = b.add_register("sel", k, ancilla=False)
        out = b.add_register("out", 1, ancilla=False)
        custom_threshold(b, tuple(x), tuple(sel), out[0])
        sem = custom_threshold_semantics(n, k, custom_threshold_predicate)
        io = tuple(x) + tuple(sel) + tuple(out)
        return certify("custom_threshold", (n, k), sem, b.build(), io)

    return [
        (
            {"n": n, "selectors": k},
            "matches the selector predicate on its whole domain",
            functools.partial(_certified, certified, measure="worst_fidelity"),
        )
    ]


_PRIMITIVE_CASES: Dict[str, Callable[[], Iterable[Case]]] = {
    "exact_grover": _rows_exact_grover,
    "amplify_to_exact": _rows_amplify,
    "adjust_amplitudes": _rows_adjust,
    "parallel_amplify": _rows_parallel_amplify,
    "ham_gadget": _rows_ham_gadget,
    "ctrl_state": _rows_ctrl_state,
    "ctrl_from_zero_overlap": _rows_ctrl_from_zero_overlap,
    "ctrl_dicke": _rows_ctrl_dicke,
    "custom_threshold": _rows_custom_threshold,
}

PRIMITIVE_NAMES = tuple(_PRIMITIVE_CASES)


def certify_primitive(name: str) -> List[CheckRow]:
    """Certification rows for one named primitive."""
    try:
        cases = _PRIMITIVE_CASES[name]
    except KeyError:
        raise ValueError(
            f"unknown primitive {name!r}; choose from " + ", ".join(PRIMITIVE_NAMES)
        ) from None
    return [
        _row(_PRIMITIVE, {"name": name, **params}, rhs, measure)
        for params, rhs, measure in cases()
    ]


def _crit_primitives(ws: Dict[str, Any]) -> List[CheckRow]:
    return [row for name in PRIMITIVE_NAMES for row in certify_primitive(name)]


def _crit_depth_witness(ws: Dict[str, Any]) -> List[CheckRow]:
    def shape(n: int) -> Tuple[int, List[int]]:
        """The layer count, then (layers outside Grover rounds, fanout width,
        depth), of ``build_dicke(n, 2, 4)``."""
        out = build_dicke(n, 2, 4)
        layers = len(out.circuit.layers)
        meta = out.circuit.metadata
        rounds = zip(meta.get("rounds", ()), meta.get("round_layer_cost", ()))
        base = layers - sum(r * c for r, c in rounds)
        return layers, [base, out.report.max_fanout_width, out.report.depth]

    ref = shape(8)[1]

    def measure(n: int) -> Tuple[str, bool]:
        layers, got = shape(n)
        return "layers={} base={} fanout={} depth={}".format(layers, *got), got == ref

    return [
        _row(
            "depth-witness",
            {"n": n, "k": 2, "ell": 4},
            "base={} fanout={} depth={} (the n=8 reference)".format(*ref),
            functools.partial(measure, n),
        )
        for n in (8, 16, 24, 32)
    ]


_CRITERIA: Dict[str, Callable[[Dict[str, Any]], List[CheckRow]]] = {
    "exact-dicke-grid": functools.partial(_crit_states, check_id="exact-dicke-grid"),
    "padding-path": functools.partial(_crit_states, check_id="padding-path"),
    "symmetric-states": functools.partial(_crit_states, check_id="symmetric-states"),
    "weight-uniformity": _crit_uniformity,
    "claim-sweep": _crit_claims,
    "primitive-certification": _crit_primitives,
    "depth-witness": _crit_depth_witness,
}

CRITERION_IDS = tuple(_CRITERIA) + ("determinism",)


@dataclass
class AcceptanceReport:
    rows: List[CheckRow]

    @property
    def passed(self) -> bool:
        return all(row.verdict for row in self.rows)

    def table(self, include_seconds: bool = True) -> str:
        lines = []
        for row in self.rows:
            params = " ".join(f"{k}={v}" for k, v in row.params.items())
            verdict = "PASS" if row.verdict else "FAIL"
            piece = f"{verdict}  {row.check_id:<24} {params:<32} {row.lhs}"
            if include_seconds:
                piece += f"  [{row.seconds:.2f}s]"
            lines.append(piece)
        # one line per criterion that produced rows
        for cid in CRITERION_IDS:
            verdicts = [row.verdict for row in self.rows if row.check_id == cid]
            if verdicts:
                lines.append(f"{'PASS' if all(verdicts) else 'FAIL'}  criterion {cid}")
        lines.append(f"{'PASS' if self.passed else 'FAIL'}  overall")
        return "\n".join(lines)


def _run_ids(ids: Sequence[str]) -> List[CheckRow]:
    ws: Dict[str, Any] = {"states": []}
    rows: List[CheckRow] = []
    for cid, criterion in _CRITERIA.items():
        if cid in ids:
            rows.extend(criterion(ws))
    return rows


def run_acceptance(only: Optional[Sequence[str]] = None) -> AcceptanceReport:
    """Run the acceptance battery, or a subset of its criteria.

    The determinism criterion repeats whatever else was selected (the full
    battery when it is run alone) and compares the timing-free reports.
    """
    chosen = list(CRITERION_IDS) if only is None else list(only)
    for cid in chosen:
        if cid not in CRITERION_IDS:
            raise ValueError(
                f"unknown criterion {cid!r}; choose from " + ", ".join(CRITERION_IDS)
            )
    base_ids = [cid for cid in chosen if cid != "determinism"]
    rows = _run_ids(base_ids)
    if "determinism" in chosen:
        repeat_ids = base_ids or list(_CRITERIA)

        def measure() -> Tuple[str, bool]:
            first = rows if base_ids else _run_ids(repeat_ids)
            same = canonical_rows(first) == canonical_rows(_run_ids(repeat_ids))
            return ("reports byte-identical" if same else "reports differ"), same

        rows.append(
            _row(
                "determinism",
                {"criteria": len(repeat_ids)},
                "two runs serialize identically (timings excluded)",
                measure,
            )
        )
    return AcceptanceReport(rows=rows)
