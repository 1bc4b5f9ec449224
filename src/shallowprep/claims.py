"""Exhaustive rational checks of the distribution inequalities.

Every inequality is decided in exact arithmetic.  Transcendental constants
enter only through one-sided rational brackets (a sound lower bound when the
constant sits on the large side, an upper bound when it sits on the small
side), so a pass here is a proof on the swept grid, not a float comparison.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

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
    """One claim decided at one grid point.

    ``seconds`` is the wall time spent deciding it.  The exact tables of an
    (m, k) point are built once and shared by all of the point's claims; their
    build time is charged to the first claim that reads each table, so the
    ``seconds`` of a sweep add up to no more than its wall time.
    """

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


class _Point:
    """The exact tables of one (m, k) grid point, each built on first read.

    Every claim at the point reads these, so a sweep builds each table once
    per point, and nothing outlives the point.
    """

    def __init__(self, m: int, k: int) -> None:
        self.m = m
        self.k = k

    @functools.cached_property
    def dist(self) -> dists.DampedBinomial:
        return dists.damped_binomial(self.m, self.k)

    @functools.cached_property
    def hits(self) -> dists.HitTable:
        return dists.hit_table(self.m, self.k)

    @functools.cached_property
    def ratios(self) -> Dict[int, Dict[int, Tuple[int, int]]]:
        """Per-class ratios at the canonical bucket count k^3, as the
        unreduced (num, den) pairs of ``dists.ratio_tables``."""
        return dists.ratio_tables(self.hits, self.k**3)


# ---- individual claim evaluators ----
#
# Each takes one grid point's tables and returns (claim, params, lhs, rhs,
# passed).  Every comparison is exact: Fraction order tests, or integer
# cross-multiplication where only the extreme value is reported.

_Outcome = Tuple[str, Dict[str, int], Any, Any, bool]


def _largest(pairs: Iterable[Tuple[int, int]]) -> Tuple[int, int]:
    """The largest of non-negative ratios num/den (den > 0), each given as an
    unreduced pair, by integer cross-multiplication."""
    best_num, best_den = 0, 1
    for num, den in pairs:
        if num * best_den > best_num * den:
            best_num, best_den = num, den
    return best_num, best_den


def _eval_normalizer(pt: _Point, fault: Optional[str]) -> _Outcome:
    """k^2/(k+1) <= normalizer <= k."""
    m, k = pt.m, pt.k
    lam = pt.dist.lam
    if fault == "lambda-off-by-one":
        lam = lam + 1
    lo = Fraction(k * k, k + 1)
    return "normalizer-bounds", {"m": m, "k": k}, lam, f"[{lo}, {k}]", lo <= lam <= k


def _eval_domination(pt: _Point) -> _Outcome:
    """Damped pmf never exceeds four times the binomial pmf.

    With nums the scaled masses and S their total, s_j / (4 pmf_j) is
    nums[j-1] m^m / (4 S C(m, j) (m-1)^(m-j)).  Only nums[j-1] / (C(m, j)
    (m-1)^(m-j)) varies with j, so the largest is found by integer
    cross-multiplication and only it becomes a Fraction.
    """
    m, k = pt.m, pt.k
    best_num, best_den = _largest(
        # 0**0 == 1 covers m = 1
        (num, comb(m, j) * (m - 1) ** (m - j))
        for j, num in enumerate(pt.hits.masses, start=1)
    )
    worst = Fraction(best_num * m**m, 4 * pt.hits.total * best_den)
    return "binomial-domination", {"m": m, "k": k}, worst, 1, worst <= 1


def _eval_slice_uniformity(pt: _Point, j: int) -> _Outcome:
    """Strings of equal total weight are equally likely across j damped buckets.

    A weight-w string in one bucket has probability s(w) / C(m, w), the
    integer C(m, w)(mk)^(k-w) / C(m, w) over the pmf's one denominator S, so
    each assignment of weights to the j buckets has an integer numerator
    over S^j.  The distinct numerators of each total weight are built one
    bucket at a time; the claim holds when every total weight has one.
    """
    m, k = pt.m, pt.k
    per_string = [num // comb(m, w) for w, num in enumerate(pt.hits.masses, start=1)]
    per_weight: Dict[int, set] = {0: {1}}
    for _ in range(j):
        grown: Dict[int, set] = {}
        for total, prods in per_weight.items():
            for w, q in enumerate(per_string, start=1):
                grown.setdefault(total + w, set()).update(p * q for p in prods)
        per_weight = grown
    worst = max(len(v) for v in per_weight.values())
    return "slice-uniformity", {"m": m, "k": k, "j": j}, worst, 1, worst == 1


def _eval_ratio_bound(pt: _Point, brackets: Brackets) -> _Outcome:
    """p(j)/q(j) <= e^2 k^(j-k) at the canonical bucket count k^3.

    That holds for every j iff the largest r(j) k^(k-j) is at most the
    rational lower bound on e^2.  With r(j) the pair num/den, the largest
    num k^(k-j) / den is found by integer cross-multiplication and only it
    becomes a Fraction.
    """
    m, k = pt.m, pt.k
    worst = Fraction(
        *_largest((num * k ** (k - j), den) for j, (num, den) in pt.ratios[k].items())
    )
    params = {"m": m, "k": k, "ell": k**3}
    return "occupancy-ratio-bound", params, worst, brackets.e2, worst <= brackets.e2


def _eval_hit_floor(pt: _Point) -> _Outcome:
    """Full-occupancy hit probability is at least (k/(k+1))^k."""
    k = pt.k
    q_kk = pt.hits.prob(k, k)
    floor = Fraction(k, k + 1) ** k
    return "hit-floor", {"m": pt.m, "k": k}, q_kk, floor, q_kk >= floor


def _eval_ratio_sum(pt: _Point, brackets: Brackets) -> _Outcome:
    """Every per-class ratio sum stays below 2e^4 at bucket count k_star^3.

    Each class sum is added as one unreduced pair; the largest is found by
    integer cross-multiplication and only it becomes a Fraction.
    """
    worst = Fraction(*_largest(dists.ratio_sum(r) for r in pt.ratios.values()))
    cap = brackets.two_e4
    params = {"m": pt.m, "k_star": pt.k, "ell": pt.k**3}
    return "ratio-sum-bound", params, worst, cap, worst <= cap


def _eval_damping_floor(pt: _Point, brackets: Brackets) -> _Outcome:
    """Pr[j capped samples all have weight <= k] >= e^(-2j/k) for all j <= k <= cap.

    One capped sample weighs at most k with probability A_k / S, A_k the sum
    of the first k scaled masses, so single^j / floor is
    A_k^j floor.den / (S^j floor.num).  The smallest is found by integer
    cross-multiplication and only it becomes a Fraction.
    """
    total = pt.hits.total
    best_num, best_den = 1, 0  # +infinity
    single = 0
    for k, mass in enumerate(pt.hits.masses, start=1):
        single += mass
        for j in range(1, k + 1):
            floor = brackets.exp_neg[j, k]
            num = single**j * floor.denominator
            den = total**j * floor.numerator
            if num * best_den < best_num * den:
                best_num, best_den = num, den
    worst = Fraction(best_num, best_den)
    return "damping-lower-bound", {"m": pt.m, "k_star": pt.k}, worst, 1, worst >= 1


# ---- sweep driver ----


def _timed(evaluate: Callable[..., _Outcome], *args: Any) -> ClaimVerdict:
    t0 = time.perf_counter()
    claim, params, lhs, rhs, passed = evaluate(*args)
    return ClaimVerdict(
        claim, params, str(lhs), str(rhs), bool(passed), time.perf_counter() - t0
    )


def _run_point(
    brackets: Brackets, budget: int, fault: Optional[str], point: Tuple[int, int]
) -> List[ClaimVerdict]:
    """Every claim at one (m, k) point, in CLAIM_IDS order, from one set of tables."""
    m, k = point
    pt = _Point(m, k)
    checks: List[Tuple[Any, ...]] = [(_eval_normalizer, pt, fault), (_eval_domination, pt)]
    checks += [(_eval_slice_uniformity, pt, j) for j in range(1, k + 1) if m * j <= budget]
    checks += [
        (_eval_ratio_bound, pt, brackets),
        (_eval_hit_floor, pt),
        (_eval_ratio_sum, pt, brackets),
        (_eval_damping_floor, pt, brackets),
    ]
    return [_timed(*check) for check in checks]


def run_claims(cfg: SweepConfig) -> List[ClaimVerdict]:
    """Evaluate every claim on every grid point; deterministic order."""
    points = [
        (m, k) for m in sorted(set(cfg.m_values)) for k in range(1, min(m, cfg.k_max) + 1)
    ]
    # no point has k above its m, so brackets past the largest m go unread
    k_top = min(cfg.k_max, max(cfg.m_values))
    run = functools.partial(
        _run_point, _brackets(k_top), cfg.enumeration_budget, cfg.fault
    )
    if cfg.workers > 1:
        # imported here: with multiprocessing it costs about 15 ms of import
        # time and 1.4 MiB, which serial sweeps and other commands never need
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            per_point = list(pool.map(run, points, chunksize=4))
    else:
        per_point = [run(p) for p in points]
    results = [v for verdicts in per_point for v in verdicts]
    order = {c: i for i, c in enumerate(CLAIM_IDS)}
    results.sort(key=lambda v: (order[v.claim], sorted(v.params.items())))
    return results
