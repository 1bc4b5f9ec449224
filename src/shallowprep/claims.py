"""Exhaustive rational checks of the distribution inequalities.

Every inequality is decided in exact arithmetic.  Transcendental constants
enter only through one-sided rational brackets (a sound lower bound when the
constant sits on the large side, an upper bound when it sits on the small
side), so a pass here is a proof on the swept grid, not a float comparison.
"""
from __future__ import annotations

import functools
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import comb
from typing import Dict, List, Optional, Tuple

from . import dists

CLAIM_IDS = (
    "normalizer-bounds",
    "binomial-domination",
    "slice-uniformity",
    "occupancy-ratio-bound",
    "hit-floor",
    "ratio-sum-bound",
    "damping-lower-bound",
)

FAULT_IDS = ("lambda-off-by-one",)


@dataclass(frozen=True)
class SweepConfig:
    """Grid and execution settings for a claim sweep."""

    m_values: Tuple[int, ...] = tuple(range(1, 65))
    k_max: int = 6
    enumeration_budget: int = 20
    workers: int = 1
    fault: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.m_values:
            raise ValueError("sweep grid is empty")
        if any(m < 1 for m in self.m_values):
            raise ValueError("bucket sizes must be positive")
        if self.k_max < 1:
            raise ValueError("k_max must be at least 1")
        if self.enumeration_budget < 1:
            raise ValueError("enumeration budget must be positive")
        if self.workers < 1:
            raise ValueError("worker count must be positive")
        if self.fault is not None and self.fault not in FAULT_IDS:
            raise ValueError(f"unknown fault {self.fault!r}; known: {FAULT_IDS}")


@dataclass(frozen=True)
class ClaimVerdict:
    claim: str
    params: Dict[str, int] = field(hash=False)
    lhs: str
    rhs: str
    passed: bool
    seconds: float = 0.0

    def as_dict(self, include_seconds: bool = True) -> Dict[str, object]:
        row: Dict[str, object] = {
            "claim": self.claim,
            "params": dict(self.params),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "passed": self.passed,
        }
        if include_seconds:
            row["seconds"] = round(self.seconds, 6)
        return row


@dataclass(frozen=True)
class Brackets:
    """Rational bounds on the transcendental constants of the claims.

    ``run_claims`` computes them once per call and hands them to every
    evaluator, serial or in a worker process.
    """

    e2: Fraction  # lower bound on e^2
    two_e4: Fraction  # lower bound on 2 e^4
    exp_neg: Dict[Tuple[int, int], Fraction]  # (j, k) -> upper bound on e^(-2j/k)


def _brackets(k_max: int) -> Brackets:
    return Brackets(
        e2=dists.e_squared_lower(),
        two_e4=dists.two_e_fourth_lower(),
        exp_neg={
            (j, k): dists.exp_neg_upper(Fraction(2 * j, k))
            for k in range(1, k_max + 1)
            for j in range(1, k + 1)
        },
    )


def _verdict(claim: str, params: Dict[str, int], lhs, rhs, passed: bool) -> ClaimVerdict:
    return ClaimVerdict(claim, params, str(lhs), str(rhs), bool(passed))


# ---- individual claim evaluators ----
#
# Each takes one grid point and returns one verdict.  The comparisons all
# reduce to Fraction order tests.


def _eval_normalizer(m: int, k: int, fault: Optional[str]) -> ClaimVerdict:
    """k^2/(k+1) <= normalizer <= k."""
    lam = dists.damped_binomial(m, k).lam
    if fault == "lambda-off-by-one":
        lam = lam + 1
    lo = Fraction(k * k, k + 1)
    ok = lo <= lam <= k
    return _verdict("normalizer-bounds", {"m": m, "k": k}, lam, f"[{lo}, {k}]", ok)


def _eval_domination(m: int, k: int) -> ClaimVerdict:
    """Damped pmf never exceeds four times the binomial pmf."""
    dist = dists.damped_binomial(m, k)
    worst = max(
        dist.s[j - 1] / (4 * dists.binomial_pmf(m, Fraction(1, m), j))
        for j in range(1, k + 1)
    )
    return _verdict("binomial-domination", {"m": m, "k": k}, worst, 1, worst <= 1)


def _eval_slice_uniformity(m: int, k: int, j: int) -> ClaimVerdict:
    """Strings of equal total weight are equally likely across j damped buckets.

    A weight-w string in one bucket has probability s(w) / C(m, w), the
    integer C(m, w)(mk)^(k-w) / C(m, w) over the pmf's one denominator S, so
    each assignment of weights to the j buckets has an integer numerator
    over S^j.  The distinct numerators of each total weight are built one
    bucket at a time; the claim holds when every total weight has one.
    """
    per_string = [
        num // comb(m, w) for w, num in enumerate(dists.damped_numerators(m, k), start=1)
    ]
    per_weight: Dict[int, set] = {0: {1}}
    for _ in range(j):
        grown: Dict[int, set] = {}
        for total, prods in per_weight.items():
            for w, q in enumerate(per_string, start=1):
                grown.setdefault(total + w, set()).update(p * q for p in prods)
        per_weight = grown
    worst = max(len(v) for v in per_weight.values())
    return _verdict(
        "slice-uniformity", {"m": m, "k": k, "j": j}, worst, 1, worst == 1
    )


def _eval_ratio_bound(m: int, k: int, brackets: Brackets) -> ClaimVerdict:
    """p(j)/q(j) <= e^2 k^(j-k) at the canonical bucket count k^3."""
    ell = k**3
    model = dists.ratio_report(m * ell, k, ell)
    # r(j) <= e^2 k^(j-k) for every j iff the largest r(j) k^(k-j) is at most
    # the rational lower bound on e^2
    worst = max(model.r[j] * Fraction(k) ** (k - j) for j in sorted(model.r))
    return _verdict(
        "occupancy-ratio-bound",
        {"m": m, "k": k, "ell": ell},
        worst,
        brackets.e2,
        model.bound_checked and worst <= brackets.e2,
    )


def _eval_hit_floor(m: int, k: int) -> ClaimVerdict:
    """Full-occupancy hit probability is at least (k/(k+1))^k."""
    q_kk = dists.hybrid_hit_prob(m, k, k, k)
    floor = Fraction(k, k + 1) ** k
    return _verdict("hit-floor", {"m": m, "k": k}, q_kk, floor, q_kk >= floor)


def _eval_ratio_sum(m: int, k_star: int, brackets: Brackets) -> ClaimVerdict:
    """Every per-class ratio sum stays below 2e^4 at bucket count k_star^3."""
    ell = k_star**3
    tables = dists.ratio_sum_tables(m * ell, k_star, ell)
    worst = max(tables[k] for k in range(1, k_star + 1))
    cap = brackets.two_e4
    return _verdict(
        "ratio-sum-bound",
        {"m": m, "k_star": k_star, "ell": ell},
        worst,
        cap,
        worst <= cap,
    )


def _eval_damping_floor(m: int, k_star: int, brackets: Brackets) -> ClaimVerdict:
    """Pr[j capped samples all have weight <= k] >= e^(-2j/k) for all j <= k <= cap."""
    dist = dists.damped_binomial(m, k_star)
    worst = Fraction(10**9)
    for k in range(1, k_star + 1):
        single = sum((dist.s[w - 1] for w in range(1, k + 1)), Fraction(0))
        for j in range(1, k + 1):
            floor = brackets.exp_neg[j, k]
            worst = min(worst, single**j / floor)
    return _verdict(
        "damping-lower-bound", {"m": m, "k_star": k_star}, worst, 1, worst >= 1
    )


# ---- sweep driver ----

Task = Tuple[str, Tuple[int, ...], Optional[str]]


def _tasks(cfg: SweepConfig) -> List[Task]:
    out: List[Task] = []
    for m in sorted(set(cfg.m_values)):
        for k in range(1, min(m, cfg.k_max) + 1):
            out.append(("normalizer-bounds", (m, k), cfg.fault))
            out.append(("binomial-domination", (m, k), None))
            out.append(("occupancy-ratio-bound", (m, k), None))
            out.append(("hit-floor", (m, k), None))
            out.append(("ratio-sum-bound", (m, k), None))
            out.append(("damping-lower-bound", (m, k), None))
            for j in range(1, k + 1):
                if m * j <= cfg.enumeration_budget:
                    out.append(("slice-uniformity", (m, k, j), None))
    return out


def _run_task(brackets: Brackets, task: Task) -> ClaimVerdict:
    t0 = time.perf_counter()
    verdict = _dispatch(task, brackets)
    return replace(verdict, seconds=time.perf_counter() - t0)


def _dispatch(task: Task, brackets: Brackets) -> ClaimVerdict:
    claim, point, fault = task
    if claim == "normalizer-bounds":
        return _eval_normalizer(point[0], point[1], fault)
    if claim == "binomial-domination":
        return _eval_domination(point[0], point[1])
    if claim == "slice-uniformity":
        return _eval_slice_uniformity(point[0], point[1], point[2])
    if claim == "occupancy-ratio-bound":
        return _eval_ratio_bound(point[0], point[1], brackets)
    if claim == "hit-floor":
        return _eval_hit_floor(point[0], point[1])
    if claim == "ratio-sum-bound":
        return _eval_ratio_sum(point[0], point[1], brackets)
    if claim == "damping-lower-bound":
        return _eval_damping_floor(point[0], point[1], brackets)
    raise ValueError(f"unknown claim {claim!r}")


def run_claims(cfg: SweepConfig) -> List[ClaimVerdict]:
    """Evaluate every claim on every grid point; deterministic order."""
    tasks = _tasks(cfg)
    run = functools.partial(_run_task, _brackets(cfg.k_max))
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(run, tasks, chunksize=16))
    else:
        results = [run(t) for t in tasks]
    order = {c: i for i, c in enumerate(CLAIM_IDS)}
    results.sort(key=lambda v: (order[v.claim], sorted(v.params.items())))
    return results
