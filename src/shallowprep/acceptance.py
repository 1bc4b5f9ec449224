"""End-to-end acceptance battery for the synthesis stack.

Every check emits one row holding the measured quantity, the requirement
it is held against, and a boolean verdict.  Rows carry wall-clock timings
for the human-facing table, but the canonical serialized report strips
them so that two runs of the same configuration compare byte for byte.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

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
    SimulationError,
    certify_library_gate,
    check_clean_preparation,
    mass_bounds,
    project,
    run,
)
from .synthesis import build_dicke, build_symmetric

FIDELITY_TOL = 1e-9

CRITERION_IDS = (
    "exact-dicke-grid",
    "padding-path",
    "symmetric-states",
    "weight-uniformity",
    "claim-sweep",
    "primitive-certification",
    "depth-witness",
    "determinism",
)

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


def _verified_row(
    check_id: str,
    params: Dict[str, Any],
    out,
    ws: Dict[str, Any],
    label: str,
    extra: str = "",
    t0: float = 0.0,
) -> CheckRow:
    res = check_clean_preparation(out.circuit, out.target, out.output_qubits)
    ws["states"].append((label, res.state, out.output_qubits))
    stray = res.residual_ancilla_mass
    return CheckRow(
        check_id,
        params,
        f"fidelity={res.fidelity:.12f} stray={stray:.3e}{extra}",
        "fidelity >= 1-1e-9 and stray <= 1e-9",
        res.fidelity >= 1.0 - FIDELITY_TOL and stray <= FIDELITY_TOL,
        time.perf_counter() - t0,
    )


def _crit_dicke_grid(ws: Dict[str, Any]) -> List[CheckRow]:
    rows = []
    for n, k, ell in DICKE_GRID:
        t0 = time.perf_counter()
        out = build_dicke(n, k, ell)
        rows.append(
            _verified_row(
                "exact-dicke-grid",
                {"n": n, "k": k, "ell": ell},
                out,
                ws,
                f"dicke n={n} k={k} ell={ell}",
                t0=t0,
            )
        )
    return rows


def _crit_padding(ws: Dict[str, Any]) -> List[CheckRow]:
    rows = []
    for n, k, ell in PADDED_GRID:
        t0 = time.perf_counter()
        out = build_dicke(n, k, ell)
        padded = out.info.get("padded_to")
        extra = f" padded_to={padded} p0={out.info.get('p0')}"
        row = _verified_row(
            "padding-path",
            {"n": n, "k": k, "ell": ell},
            out,
            ws,
            f"dicke-padded n={n} k={k} ell={ell}",
            extra=extra,
            t0=t0,
        )
        row.verdict = row.verdict and padded is not None
        rows.append(row)
    return rows


def _crit_symmetric(ws: Dict[str, Any]) -> List[CheckRow]:
    rows = []
    for label, eta in _symmetric_cases():
        t0 = time.perf_counter()
        out = build_symmetric(4, eta)
        rows.append(
            _verified_row(
                "symmetric-states",
                {"n": 4, "case": label},
                out,
                ws,
                f"symmetric n=4 {label}",
                t0=t0,
            )
        )
    return rows


def _crit_uniformity(ws: Dict[str, Any]) -> List[CheckRow]:
    if not ws["states"]:
        for fn in (_crit_dicke_grid, _crit_padding, _crit_symmetric):
            fn(ws)
    rows = []
    for label, state, output_qubits in ws["states"]:
        t0 = time.perf_counter()
        amps = project(state, output_qubits)
        worst = 0.0
        for weight in range(len(output_qubits) + 1):
            members = [i for i in range(amps.size) if bin(i).count("1") == weight]
            block = amps[members]
            peak = float(np.max(np.abs(block)))
            if peak < 1e-12:
                continue
            centre = complex(np.mean(block))
            worst = max(worst, float(np.max(np.abs(block - centre))) / peak)
        rows.append(
            CheckRow(
                "weight-uniformity",
                {"state": label},
                f"spread={worst:.3e}",
                "relative spread within each weight class <= 1e-9",
                worst <= 1e-9,
                time.perf_counter() - t0,
            )
        )
    return rows


def _crit_claims(ws: Dict[str, Any]) -> List[CheckRow]:
    t0 = time.perf_counter()
    verdicts = claims.run_claims(claims.SweepConfig(workers=ws["workers"]))
    elapsed = time.perf_counter() - t0
    rows = []
    for claim_id in claims.CLAIM_IDS:
        sub = [v for v in verdicts if v.claim == claim_id]
        good = sum(1 for v in sub if v.passed)
        rows.append(
            CheckRow(
                "claim-sweep",
                {"claim": claim_id, "points": len(sub)},
                f"{good}/{len(sub)} pass",
                "every grid point passes",
                bool(sub) and good == len(sub),
                elapsed / len(claims.CLAIM_IDS),
            )
        )
    return rows


# ---- primitive certification cases ----


def _basis_embedding(phi: Sequence[complex], data: Sequence[int]) -> Dict[int, complex]:
    """Map local amplitudes on a listed register to global basis indices."""
    w = len(data)
    image: Dict[int, complex] = {}
    for local, amp in enumerate(phi):
        if amp == 0:
            continue
        g = 0
        for j in range(w):
            if (local >> (w - 1 - j)) & 1:
                g |= 1 << data[j]
        image[g] = complex(amp)
    return image


def _controlled_prep_fidelity(
    circ, ctrl: int, phi: Sequence[complex], data: Sequence[int]
) -> float:
    """Worst fidelity of a controlled preparation over four control states.

    With the control clear nothing may happen; with it set the data register
    must hold ``phi``, the control must stay set, and every other qubit must
    end clear.  Superposed controls check the relative phase.
    """
    nq = circ.n_qubits
    one_image = np.zeros(2**nq, dtype=complex)
    for g, amp in _basis_embedding(phi, data).items():
        one_image[g | (1 << ctrl)] = amp
    zero_image = np.zeros(2**nq, dtype=complex)
    zero_image[0] = 1.0
    worst = 1.0
    for c0, c1 in ((1.0, 0.0), (0.0, 1.0), (_ISQ2, _ISQ2), (_ISQ2, -1j * _ISQ2)):
        init = np.zeros(2**nq, dtype=complex)
        init[0] = c0
        init[1 << ctrl] = c1
        state = run(circ, init)
        expected = c0 * zero_image + c1 * one_image
        fid, _ = mass_bounds(np.vdot(expected, state.amplitudes), state.error_bound)
        worst = min(worst, fid)
    return worst


def _rows_exact_grover() -> List[CheckRow]:
    rows = []
    cases = (
        ("1/4", 0.25, 3),
        ("sin^2(pi/10)", math.sin(math.pi / 10.0) ** 2, 5),
    )
    for label, alpha, odd_r in cases:
        t0 = time.perf_counter()
        b = Builder()
        data = b.add_register("data", 1, ancilla=False)[0]
        flag = b.add_register("flag", 1, ancilla=False)[0]
        b.append(g_unitary1(data, rot_matrix(1.0 - alpha)))
        b.append(g_and((data,), flag))
        rounds = exact_grover(b, flag, alpha)
        state = run(b.build())
        fid, _ = mass_bounds(state.amplitudes[3], state.error_bound)
        want = (odd_r - 1) // 2
        rows.append(
            CheckRow(
                "primitive-certification",
                {"name": "exact_grover", "alpha": label},
                f"fidelity={fid:.12f} rounds={rounds}",
                f"fidelity >= 1-1e-9 and rounds={want}",
                fid >= 1.0 - FIDELITY_TOL and rounds == want,
                time.perf_counter() - t0,
            )
        )
    return rows


def _rows_amplify() -> List[CheckRow]:
    rows = []
    for label, alpha, want_rounds in (("0.4", 0.4, 1), ("1", 1.0, 0)):
        t0 = time.perf_counter()
        b = Builder()
        data = b.add_register("data", 1, ancilla=False)
        flag = b.new_register("flag", 1)[0]
        b.append(g_unitary1(data[0], rot_matrix(1.0 - alpha)))
        b.append(g_and((data[0],), flag))
        info = amplify_to_exact(b, flag, alpha)
        res = check_clean_preparation(
            b.build(), np.array([0.0, 1.0], dtype=complex), tuple(data)
        )
        ok = (
            res.fidelity >= 1.0 - FIDELITY_TOL
            and res.clean
            and info.rounds == want_rounds
        )
        rows.append(
            CheckRow(
                "primitive-certification",
                {"name": "amplify_to_exact", "alpha": label},
                f"fidelity={res.fidelity:.12f} clean={res.clean} rounds={info.rounds}",
                f"fidelity >= 1-1e-9, clean, rounds={want_rounds}",
                ok,
                time.perf_counter() - t0,
            )
        )
    return rows


def _rows_adjust() -> List[CheckRow]:
    rng = random.Random(20240811)
    rows = []
    for draw in range(5):
        t0 = time.perf_counter()
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
        rows.append(
            CheckRow(
                "primitive-certification",
                {"name": "adjust_amplitudes", "draw": draw, "slots": n_slots},
                f"fidelity={res.fidelity:.12f} clean={res.clean}",
                "fidelity >= 1-1e-9 and clean",
                res.fidelity >= 1.0 - FIDELITY_TOL and res.clean,
                time.perf_counter() - t0,
            )
        )
    return rows


def _rows_parallel_amplify() -> List[CheckRow]:
    rows = []
    psi = np.zeros(4, dtype=complex)
    psi[1] = psi[2] = _ISQ2
    for label, alpha in (("1/2", Fraction(1, 2)), ("1/3", Fraction(1, 3))):
        t0 = time.perf_counter()
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
        rows.append(
            CheckRow(
                "primitive-certification",
                {"name": "parallel_amplify", "alpha": label},
                f"fidelity={res.fidelity:.12f} clean={res.clean}",
                "fidelity >= 1-1e-9 and clean",
                res.fidelity >= 1.0 - FIDELITY_TOL and res.clean,
                time.perf_counter() - t0,
            )
        )
    return rows


def _rows_ham_gadget() -> List[CheckRow]:
    rows = []
    for n in range(1, 5):
        for k in range(0, 3):
            t0 = time.perf_counter()
            b = Builder()
            x = b.add_register("x", n, ancilla=False)
            tally = ham_gadget(b, tuple(x), k)
            try:
                rep = certify_library_gate(
                    "ham", (n, k), b.build(), tuple(x) + tuple(tally), max_qubits=20
                )
                lhs = f"worst_overlap={rep.worst_overlap:.12f} inputs={rep.inputs_checked}"
                ok = True
            except (CertificationError, SimulationError, CircuitError) as exc:
                lhs = f"failed: {exc}"
                ok = False
            rows.append(
                CheckRow(
                    "primitive-certification",
                    {"name": "ham_gadget", "n": n, "k": k},
                    lhs,
                    "matches the tally semantics on every input",
                    ok,
                    time.perf_counter() - t0,
                )
            )
    return rows


def _rows_ctrl_state() -> List[CheckRow]:
    cases = (
        ("one", (0j, 1.0 + 0j)),
        ("plus", (_ISQ2 + 0j, _ISQ2 + 0j)),
        ("minus-i", (_ISQ2 + 0j, -1j * _ISQ2)),
        ("pair-complex", (0j, _ISQ2 + 0j, 1j * _ISQ2, 0j)),
    )
    rows = []
    for label, phi in cases:
        t0 = time.perf_counter()
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
        worst = _controlled_prep_fidelity(circ, ctrl, phi, tuple(data))
        rows.append(
            CheckRow(
                "primitive-certification",
                {"name": "ctrl_state", "case": label},
                f"worst_fidelity={worst:.12f}",
                "worst fidelity over four control states >= 1-1e-9",
                worst >= 1.0 - FIDELITY_TOL,
                time.perf_counter() - t0,
            )
        )
    return rows


def _rows_ctrl_from_zero_overlap() -> List[CheckRow]:
    rows = []
    rest = (0j, _ISQ2 + 0j, _ISQ2 + 0j, 0j)
    for label, alpha in (("0.3", 0.3), ("1/2", Fraction(1, 2)), ("0.75", 0.75)):
        t0 = time.perf_counter()
        pb = Builder()
        data = pb.add_register("zdata", 2, ancilla=False)
        amps = np.zeros(4, dtype=complex)
        amps[0] = math.sqrt(float(alpha))
        amps[1] = amps[2] = math.sqrt((1.0 - float(alpha)) / 2.0)
        pb.append(library.make("raw_state", (tuple(amps),), tuple(data)))
        circ, ctrl = ctrl_from_zero_overlap(pb.build(), tuple(data), alpha)
        worst = _controlled_prep_fidelity(circ, ctrl, rest, tuple(data))
        rows.append(
            CheckRow(
                "primitive-certification",
                {"name": "ctrl_from_zero_overlap", "alpha": label},
                f"worst_fidelity={worst:.12f}",
                "worst fidelity over four control states >= 1-1e-9",
                worst >= 1.0 - FIDELITY_TOL,
                time.perf_counter() - t0,
            )
        )
    return rows


def _rows_ctrl_dicke() -> List[CheckRow]:
    rows = []
    for ell, slots, weights in ((2, 1, (0,)), (2, 2, (0, 1)), (3, 2, (1, 2))):
        t0 = time.perf_counter()
        circ, io = ctrl_dicke_explicit(ell, slots, weights)
        try:
            rep = certify_library_gate("ctrl_dicke", (ell, slots, weights), circ, io)
            lhs = f"worst_overlap={rep.worst_overlap:.12f} inputs={rep.inputs_checked}"
            ok = True
        except (CertificationError, SimulationError, CircuitError) as exc:
            lhs = f"failed: {exc}"
            ok = False
        rows.append(
            CheckRow(
                "primitive-certification",
                {"name": "ctrl_dicke", "ell": ell, "slots": slots},
                lhs,
                "matches the declared routing on its whole domain",
                ok,
                time.perf_counter() - t0,
            )
        )
    return rows


def _rows_custom_threshold() -> List[CheckRow]:
    t0 = time.perf_counter()
    n, k = 3, 2
    b = Builder()
    x = b.add_register("x", n, ancilla=False)
    sel = b.add_register("sel", k, ancilla=False)
    out = b.add_register("out", 1, ancilla=False)
    custom_threshold(b, tuple(x), tuple(sel), out[0])
    circ = b.build()
    worst = 1.0
    domain: List[int] = []
    for xv in range(2**n):
        for j in range(k + 1):
            for o in (0, 1):
                idx = 0
                for i in range(n):
                    if (xv >> i) & 1:
                        idx |= 1 << x[i]
                if j:
                    idx |= 1 << sel[j - 1]
                if o:
                    idx |= 1 << out[0]
                domain.append(idx)
                flip = custom_threshold_predicate(bin(xv).count("1"), j)
                expect = idx ^ ((1 << out[0]) if flip else 0)
                state = run(circ, {q: (idx >> q) & 1 for q in range(circ.n_qubits)})
                fid, _ = mass_bounds(state.amplitudes[expect], state.error_bound)
                worst = min(worst, fid)
    # one superposition probe across the whole promised domain
    init = np.zeros(2**circ.n_qubits, dtype=complex)
    expected = np.zeros_like(init)
    scale = 1.0 / math.sqrt(len(domain))
    for idx in domain:
        init[idx] = scale
        xv = sum(((idx >> x[i]) & 1) << i for i in range(n))
        j = 0
        for pos in range(k):
            if (idx >> sel[pos]) & 1:
                j = pos + 1
        flip = custom_threshold_predicate(bin(xv).count("1"), j)
        expected[idx ^ ((1 << out[0]) if flip else 0)] += scale
    state = run(circ, init)
    fid, _ = mass_bounds(np.vdot(expected, state.amplitudes), state.error_bound)
    worst = min(worst, fid)
    return [
        CheckRow(
            "primitive-certification",
            {"name": "custom_threshold", "n": n, "selectors": k},
            f"worst_fidelity={worst:.12f} inputs={len(domain) + 1}",
            "matches the selector predicate on its whole domain",
            worst >= 1.0 - FIDELITY_TOL,
            time.perf_counter() - t0,
        )
    ]


_PRIMITIVE_CASES: Dict[str, Callable[[], List[CheckRow]]] = {
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
        fn = _PRIMITIVE_CASES[name]
    except KeyError:
        raise ValueError(
            f"unknown primitive {name!r}; choose from " + ", ".join(PRIMITIVE_NAMES)
        ) from None
    return fn()


def _crit_primitives(ws: Dict[str, Any]) -> List[CheckRow]:
    rows: List[CheckRow] = []
    for name in PRIMITIVE_NAMES:
        rows.extend(certify_primitive(name))
    return rows


def _crit_depth_witness(ws: Dict[str, Any]) -> List[CheckRow]:
    measured = []
    for n in (8, 16, 24, 32):
        t0 = time.perf_counter()
        out = build_dicke(n, 2, 4)
        layers = len(out.circuit.layers)
        rounds = list(out.circuit.metadata.get("rounds", []))
        costs = list(out.circuit.metadata.get("round_layer_cost", []))
        replay = sum(r * c for r, c in zip(rounds, costs))
        measured.append(
            (
                n,
                layers,
                layers - replay,
                out.report.max_fanout_width,
                out.report.depth,
                time.perf_counter() - t0,
            )
        )
    ref = measured[0]
    rows = []
    for n, layers, base, fan, depth, dt in measured:
        ok = base == ref[2] and fan == ref[3] and depth == ref[4]
        rows.append(
            CheckRow(
                "depth-witness",
                {"n": n, "k": 2, "ell": 4},
                f"layers={layers} base={base} fanout={fan} depth={depth}",
                f"base={ref[2]} fanout={ref[3]} depth={ref[4]} (the n=8 reference)",
                ok,
                dt,
            )
        )
    return rows


_CRITERIA: Dict[str, Callable[[Dict[str, Any]], List[CheckRow]]] = {
    "exact-dicke-grid": _crit_dicke_grid,
    "padding-path": _crit_padding,
    "symmetric-states": _crit_symmetric,
    "weight-uniformity": _crit_uniformity,
    "claim-sweep": _crit_claims,
    "primitive-certification": _crit_primitives,
    "depth-witness": _crit_depth_witness,
}


@dataclass
class AcceptanceReport:
    rows: List[CheckRow]

    @property
    def passed(self) -> bool:
        return all(row.verdict for row in self.rows)

    def criteria_summary(self) -> List[Tuple[str, bool]]:
        """One (criterion, verdict) pair per criterion that produced rows."""
        summary = []
        for cid in CRITERION_IDS:
            sub = [row for row in self.rows if row.check_id == cid]
            if sub:
                summary.append((cid, all(row.verdict for row in sub)))
        return summary

    def table(self, include_seconds: bool = True) -> str:
        lines = []
        for row in self.rows:
            params = " ".join(f"{k}={v}" for k, v in row.params.items())
            verdict = "PASS" if row.verdict else "FAIL"
            piece = f"{verdict}  {row.check_id:<24} {params:<32} {row.lhs}"
            if include_seconds:
                piece += f"  [{row.seconds:.2f}s]"
            lines.append(piece)
        for cid, ok in self.criteria_summary():
            lines.append(f"{'PASS' if ok else 'FAIL'}  criterion {cid}")
        lines.append(f"{'PASS' if self.passed else 'FAIL'}  overall")
        return "\n".join(lines)


def _run_ids(ids: Sequence[str], workers: int) -> List[CheckRow]:
    ws: Dict[str, Any] = {"workers": workers, "states": []}
    rows: List[CheckRow] = []
    for cid in CRITERION_IDS:
        if cid in ids and cid in _CRITERIA:
            rows.extend(_CRITERIA[cid](ws))
    return rows


def run_acceptance(
    only: Optional[Sequence[str]] = None, workers: int = 1
) -> AcceptanceReport:
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
    rows = _run_ids(base_ids, workers)
    if "determinism" in chosen:
        t0 = time.perf_counter()
        repeat_ids = base_ids or [c for c in CRITERION_IDS if c != "determinism"]
        first = rows if base_ids else _run_ids(repeat_ids, workers)
        second = _run_ids(repeat_ids, workers)
        same = canonical_rows(first) == canonical_rows(second)
        rows.append(
            CheckRow(
                "determinism",
                {"criteria": len(repeat_ids)},
                "reports byte-identical" if same else "reports differ",
                "two runs serialize identically (timings excluded)",
                same,
                time.perf_counter() - t0,
            )
        )
    return AcceptanceReport(rows=rows)
