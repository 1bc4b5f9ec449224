"""Command-line front end: synthesis, verification, sweeps, and reports.

Exit codes: 0 when every requested check passes, 1 when a check fails,
2 for configuration or input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from typing import Any, Dict, Optional, Sequence

import numpy as np

from . import acceptance, claims
from .circuits import CircuitError, cost, deserialize, serialize
from .dists import DomainError
from .simulate import (
    MAX_DENSE_QUBITS,
    CertificationError,
    SimulationError,
    check_clean_preparation,
)
from .synthesis import build_dicke, build_symmetric, symmetric_vector

# The most data qubits synth builds (a circuit file takes about 110 bytes each)
MAX_SYNTH_QUBITS = 2**20


def _write_json(path: str, payload: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def read_eta(path: str, n: int) -> np.ndarray:
    """Read the weight amplitudes of an n-qubit state from lines of
    ``k real imag``.

    Blank lines and ``#`` comments are skipped; weights may come in any
    order but must not repeat, and none may exceed n.
    """
    weights: Dict[int, complex] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(
                    f"{path}:{lineno}: expected 'k real imag', got {line!r}"
                )
            try:
                field = "weight"
                k = int(parts[0])
                field = "amplitude"
                amp = complex(float(parts[1]), float(parts[2]))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: {field} is not a number in {line!r}") from None
            if k < 0:
                raise ValueError(f"{path}:{lineno}: negative weight {k}")
            if k > n:
                raise ValueError(f"{path}:{lineno}: weight {k} out of range for {n} qubits")
            if k in weights:
                raise ValueError(f"{path}:{lineno}: duplicate weight {k}")
            if not np.isfinite(amp):
                raise ValueError(f"{path}:{lineno}: amplitude {amp} is not finite")
            weights[k] = amp
    if not weights:
        raise ValueError(f"{path}: no amplitude lines found")
    eta = np.zeros(max(weights) + 1, dtype=complex)
    for k, amp in weights.items():
        eta[k] = amp
    return eta


def _parse_grid(spec: str) -> Dict[str, int]:
    """Parse a sweep grid like ``m=1..64,k=1..6``; each key at most once."""
    out = {"m_lo": 1, "m_hi": 64, "k_max": 6}
    seen = set()
    for part in spec.split(","):
        key, sep, rng = part.partition("=")
        key = key.strip()
        if not sep or key not in ("m", "k"):
            raise ValueError(f"bad grid component {part!r}; use m=LO..HI,k=LO..HI")
        if key in seen:
            raise ValueError(f"grid component {key!r} given twice in {spec!r}")
        seen.add(key)
        lo, sep2, hi = rng.partition("..")
        try:
            lo_v = int(lo)
            hi_v = int(hi) if sep2 else lo_v
        except ValueError:
            raise ValueError(
                f"bad grid component {part!r}; bounds must be integers"
            ) from None
        if key == "m":
            out["m_lo"], out["m_hi"] = lo_v, hi_v
        else:
            if lo_v != 1:
                raise ValueError("the weight grid always starts at 1")
            out["k_max"] = hi_v
    return out


# ---- subcommand handlers ----


def _cmd_claims(args: argparse.Namespace) -> int:
    grid = _parse_grid(args.grid)
    cfg = claims.SweepConfig(
        m_values=tuple(range(grid["m_lo"], grid["m_hi"] + 1)),
        k_max=grid["k_max"],
        workers=args.workers,
        fault=args.fault,
    )
    t0 = time.perf_counter()
    verdicts = claims.run_claims(cfg)
    elapsed = time.perf_counter() - t0
    failures = [v for v in verdicts if not v.passed]
    for claim_id in claims.CLAIM_IDS:
        sub = [v for v in verdicts if v.claim == claim_id]
        if not sub:
            continue
        good = sum(1 for v in sub if v.passed)
        mark = "PASS" if good == len(sub) else "FAIL"
        print(f"{mark}  {claim_id:<24} {good}/{len(sub)} points")
    for v in failures[:50]:
        print(f"FAIL  {v.claim} {v.params}: {v.lhs} outside {v.rhs}")
    if len(failures) > 50:
        print(f"...   and {len(failures) - 50} more failing points")
    print(f"{len(verdicts)} checks in {elapsed:.1f}s")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "claims.json")
        _write_json(path, [v.as_dict(include_seconds=False) for v in verdicts])
        print(f"wrote {path}")
    return 0 if not failures else 1


def _cmd_accept(args: argparse.Namespace) -> int:
    only = [s.strip() for s in args.only.split(",")] if args.only else None
    report = acceptance.run_acceptance(only=only)
    print(report.table())
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "acceptance.json")
        # canonical form: timing-free, so repeat runs compare byte for byte
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(acceptance.canonical_rows(report.rows))
            fh.write("\n")
        print(f"wrote {path}")
    return 0 if report.passed else 1


def _emit_synthesis(result, stem: str, outdir: Optional[str]) -> int:
    outdir = outdir or "."
    os.makedirs(outdir, exist_ok=True)
    circuit_path = os.path.join(outdir, stem + ".circuit")
    with open(circuit_path, "w", encoding="utf-8") as fh:
        fh.write(serialize(result.circuit))
    fidelity = None
    if result.circuit.n_qubits <= MAX_DENSE_QUBITS:
        fidelity = check_clean_preparation(
            result.circuit, result.target, result.output_qubits
        ).fidelity
    payload = {
        "circuit": os.path.basename(circuit_path),
        "cost": result.report.as_dict(),
        "qubits": result.circuit.n_qubits,
        "layers": len(result.circuit.layers),
        "output_qubits": list(result.output_qubits),
        "fidelity": fidelity,
        "info": result.info,
    }
    report_path = os.path.join(outdir, stem + ".report.json")
    _write_json(report_path, payload)
    rep = result.report
    print(
        f"{result.circuit.n_qubits} qubits, {len(result.circuit.layers)} layers, "
        f"declared depth {rep.depth}, fanout width {rep.max_fanout_width}"
    )
    if fidelity is not None:
        print(f"self-check fidelity {fidelity:.12f}")
    else:
        print(f"self-check skipped (over {MAX_DENSE_QUBITS} qubits)")
    print(f"wrote {circuit_path}")
    print(f"wrote {report_path}")
    if fidelity is not None and fidelity < 1.0 - 1e-9:
        return 1
    return 0


def _cmd_synth_dicke(args: argparse.Namespace) -> int:
    result = build_dicke(args.n, args.k, args.ell)
    return _emit_synthesis(result, f"dicke_n{args.n}_k{args.k}", args.out)


def _cmd_synth_symmetric(args: argparse.Namespace) -> int:
    eta = read_eta(args.eta, args.n)
    result = build_symmetric(args.n, eta, args.ell)
    return _emit_synthesis(result, f"symmetric_n{args.n}", args.out)


def _cmd_verify(args: argparse.Namespace) -> int:
    with open(args.circuit, "r", encoding="utf-8") as fh:
        circuit = deserialize(fh.read())
    if circuit.n_qubits > MAX_DENSE_QUBITS:
        raise ValueError(
            f"circuit has {circuit.n_qubits} qubits; verify is capped at "
            f"{MAX_DENSE_QUBITS}, as nothing bounds the support it may grow"
        )
    if args.n is None:
        raise ValueError("verify needs --n to know the data register size")
    if args.target == "dicke":
        if args.k is None:
            raise ValueError("verify --target dicke needs --k")
        if not 0 <= args.k <= args.n:
            raise ValueError(f"weight {args.k} out of range for {args.n} qubits")
        eta = (0,) * args.k + (1,)
    else:
        if args.eta is None:
            raise ValueError("verify --target symmetric needs --eta FILE")
        eta = read_eta(args.eta, args.n)
    # a file may not switch a domain check off (the builders flag only fused rounds)
    layers = (
        [replace(g, params={k: v for k, v in g.params.items() if k != "checked"}) for g in layer]
        for layer in circuit.layers
    )
    circuit = replace(circuit, layers=tuple(map(tuple, layers)))
    output_qubits = [
        q for reg in circuit.registers if not reg.ancilla for q in reg.qubits
    ]
    if len(output_qubits) != args.n:
        raise ValueError(
            f"circuit exposes {len(output_qubits)} output qubits, target has {args.n}"
        )
    target = symmetric_vector(args.n, eta)
    res = check_clean_preparation(circuit, target, output_qubits, clean_tol=args.tol)
    ok = res.fidelity >= 1.0 - args.tol and res.clean
    print(f"fidelity={res.fidelity:.12f}")
    print(f"residual_ancilla_mass={res.residual_ancilla_mass:.3e}")
    print(f"error_bound={res.error_bound:.3e}")
    print(f"{'PASS' if ok else 'FAIL'} (tolerance {args.tol})")
    return 0 if ok else 1


def _cmd_primitive(args: argparse.Namespace) -> int:
    names = acceptance.PRIMITIVE_NAMES if args.name == "all" else (args.name,)
    all_ok = True
    for name in names:
        for row in acceptance.certify_primitive(name):
            params = " ".join(f"{k}={v}" for k, v in row.params.items())
            mark = "PASS" if row.verdict else "FAIL"
            print(f"{mark}  {params:<40} {row.lhs}")
            all_ok = all_ok and row.verdict
    return 0 if all_ok else 1


def _cmd_report(args: argparse.Namespace) -> int:
    with open(args.circuit, "r", encoding="utf-8") as fh:
        circuit = deserialize(fh.read())
    rep = cost(circuit)
    payload = {
        "qubits": circuit.n_qubits,
        "layers": len(circuit.layers),
        "registers": [
            {"name": reg.name, "size": len(reg), "ancilla": reg.ancilla}
            for reg in circuit.registers
        ],
        **rep.as_dict(),
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


ELL_HELP = (
    "block count override: the number of equal blocks the data qubits are split "
    "into (n is padded up to a multiple of it), e.g. 4 on n = 8 makes four blocks of 2"
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shallowprep",
        description=(
            "Constant-depth synthesis of Dicke and permutation-symmetric "
            "states, with exact verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("claims", help="sweep the exact combinatorial claims")
    c.add_argument("--workers", type=int, default=1)
    c.add_argument("--grid", default="m=1..64,k=1..6", help="e.g. m=1..16,k=1..4")
    c.add_argument(
        "--fault",
        choices=claims.FAULT_IDS,
        default=None,
        help="inject a known fault as a negative control",
    )
    c.add_argument("--out", default=None, help="directory for the structured report")
    c.set_defaults(handler=_cmd_claims)

    a = sub.add_parser("accept", help="run the acceptance battery")
    a.add_argument(
        "--only",
        default=None,
        help="comma-separated criterion ids: " + ", ".join(acceptance.CRITERION_IDS),
    )
    a.add_argument("--out", default=None, help="directory for the structured report")
    a.set_defaults(handler=_cmd_accept)

    s = sub.add_parser("synth", help="synthesize a preparation circuit")
    starget = s.add_subparsers(dest="target", required=True)
    sd = starget.add_parser("dicke", help="uniform fixed-weight superposition")
    sd.add_argument("--n", type=int, required=True)
    sd.add_argument("--k", type=int, required=True)
    sd.add_argument("--ell", type=int, default=None, help=ELL_HELP)
    sd.add_argument("--out", default=None, help="output directory")
    sd.set_defaults(handler=_cmd_synth_dicke)
    sy = starget.add_parser("symmetric", help="weighted mix of Dicke states")
    sy.add_argument("--n", type=int, required=True)
    sy.add_argument("--eta", required=True, help="file of lines 'k real imag'")
    sy.add_argument("--ell", type=int, default=None, help=ELL_HELP)
    sy.add_argument("--out", default=None, help="output directory")
    sy.set_defaults(handler=_cmd_synth_symmetric)

    v = sub.add_parser("verify", help="check a serialized circuit against a target")
    v.add_argument("--circuit", required=True)
    v.add_argument("--target", choices=("dicke", "symmetric"), required=True)
    v.add_argument("--n", type=int, default=None)
    v.add_argument("--k", type=int, default=None)
    v.add_argument("--eta", default=None, help="file of lines 'k real imag'")
    v.add_argument("--tol", type=float, default=1e-9)
    v.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("primitive", help="certify one primitive construction")
    p.add_argument(
        "--name", required=True, choices=acceptance.PRIMITIVE_NAMES + ("all",)
    )
    p.set_defaults(handler=_cmd_primitive)

    r = sub.add_parser("report", help="cost report for a serialized circuit")
    r.add_argument("--circuit", required=True)
    r.set_defaults(handler=_cmd_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "synth" and args.n > MAX_SYNTH_QUBITS:
            raise ValueError(f"synth takes --n up to {MAX_SYNTH_QUBITS}, got {args.n}")
        return args.handler(args)
    except (
        CircuitError,
        SimulationError,
        CertificationError,
        DomainError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
