"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify-states --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run repeats whole rounds of the workload until the next round
would end after ``--seconds``, checks every output, runs the workload's
negative controls and the reference self-tests, and prints one JSON line:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1`` (which also writes its spans to ``perfbench/out/``).
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 11
# Probes taken at each end of a round and of a set-up sample; one probe alone
# moves too much from one to the next to set the speed.
ROUND_PROBES = 3
WORKLOAD_NAMES = ("verify-states", "certify-gadgets", "claims-sweep", "synth-wide")


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="stop once the first case could start (used to time set-up)")
    return p.parse_args(argv)


def _import_package() -> None:
    """Import shallowprep from this checkout's src/, and from nowhere else."""
    if not (SRC / "shallowprep" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'shallowprep'}")
    sys.path.insert(0, str(SRC))
    import shallowprep

    if Path(shallowprep.__file__).resolve().parent != SRC / "shallowprep":
        sys.exit(f"perfbench: imported shallowprep from {shallowprep.__file__}, not {SRC}")


def _empty_compiled_ops() -> None:
    """Start each round with no compiled library ops, as a fresh process does.

    The simulator keeps compiled library gates in a module-level cache; a
    round that found it full would skip the compilation a user pays on every
    ``shallowprep verify``.
    """
    from shallowprep import simulate

    cache = getattr(simulate, "_OP_CACHE", None)
    if cache is None:
        sys.exit("perfbench: shallowprep.simulate._OP_CACHE is gone; "
                 "rounds can no longer start from an empty compiled-op cache")
    cache.clear()


def _setup_sample(args: argparse.Namespace) -> float:
    """Time from process start to the point where the first case would
    start, in a fresh interpreter that stops there."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        proc.wait(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up child exited {proc.returncode} after {line!r}")
    return t1 - t0


def _rescaled_setup_sample(args: argparse.Namespace) -> float:
    """One set-up sample, rescaled by host-speed probes taken just before and
    just after it.  Set-up is interpreter start and imports, so the
    pure-Python probe is used whatever the workload."""
    before = [speed.PYTHON.time() for _ in range(ROUND_PROBES)]
    sample = _setup_sample(args)
    after = [speed.PYTHON.time() for _ in range(ROUND_PROBES)]
    return speed.PYTHON.rescale(sample, before + after)


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(argv)
    _import_package()
    import selftest
    from tracing import Meter, Tracer
    from workloads import WORKLOADS

    make_round, controls, probe = WORKLOADS[args.workload]
    round_ = make_round(args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    tracer = Tracer() if args.trace else None
    raw_walls: List[float] = []
    walls: List[float] = []
    cpus: List[float] = []
    attempted = failed = 0
    check_s = 0.0
    problems: List[str] = []
    setups: List[float] = []
    # Set-up samples are spread over the run, between rounds, so that their
    # median does not hang on one slow spell of the host.
    setup_every = args.seconds / SETUP_SAMPLES
    start = time.perf_counter()
    while True:
        while (tracer is None and len(setups) < SETUP_SAMPLES
               and time.perf_counter() - start >= len(setups) * setup_every):
            setups.append(_rescaled_setup_sample(args))
        t0 = time.perf_counter()
        _empty_compiled_ops()
        meter = Meter(probe, tracer)
        meter.probe(ROUND_PROBES)
        if tracer is None:
            a, f = round_(meter)
        else:
            tracer.new_round()
            with tracer.scope("round", case=""):
                a, f = round_(meter)
        meter.probe(ROUND_PROBES)
        attempted += a
        failed += f
        raw_walls.append(meter.wall)
        wall, cpu = meter.rescaled()
        walls.append(wall)
        cpus.append(cpu)
        check_s += meter.check_s
        problems.extend(p for p in meter.problems if p not in problems)
        now = time.perf_counter()
        if now - start + (now - t0) > args.seconds:
            break
    while tracer is None and len(setups) < SETUP_SAMPLES:
        setups.append(_rescaled_setup_sample(args))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems.extend(controls())
    problems.extend(f"selftest: {p}" for p in selftest.run_all())

    if tracer is None:
        metrics = {
            "wall_s": _metric(statistics.median(walls), "s"),
            "cpu_s": _metric(statistics.median(cpus), "s"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MiB"),
        }
    else:
        per_layer = tracer.per_layer(len(walls), check_s)
        metrics = {name: _metric(value, _unit(name)) for name, value in per_layer.items()}
        OUT.mkdir(exist_ok=True)
        tracer.write(
            str(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"),
            {"workload": args.workload, "seed": args.seed, "rounds": len(walls),
             "traced_wall_s": statistics.median(walls),
             "traced_cpu_s": statistics.median(cpus), "peak_rss_mb": peak_rss_mb,
             "per_layer": per_layer},
        )
    print(f"perfbench: {len(walls)} rounds, wall s per round (raw/rescaled): "
          + " ".join(f"{r:.3f}/{w:.3f}" for r, w in zip(raw_walls, walls)), file=sys.stderr)
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if not problems else 1


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("json_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
