"""Claim sweep behavior: results, fault injection, config validation."""

import hashlib
import json
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from shallowprep import dists
from shallowprep.claims import CLAIM_IDS, SweepConfig, run_claims

TINY = SweepConfig(m_values=(1, 2, 3, 4), k_max=3)

# SHA-256 of the default-grid rows (m = 1..64, k <= 6) without timings, as
# computed by the per-(m, k, j) Fraction implementation these tables replaced
DEFAULT_GRID_SHA256 = "a3d759fa9dd771cea7b04dc1cb595d0a8e1b3878f7022eb101bcece33d6f6920"


def _rows(verdicts):
    return [v.as_dict(include_seconds=False) for v in verdicts]


def test_tiny_grid_all_pass():
    verdicts = run_claims(TINY)
    assert verdicts
    assert all(v.passed for v in verdicts)
    assert {v.claim for v in verdicts} == set(CLAIM_IDS)


def test_fault_injection_breaks_only_normalizer_rows():
    cfg = SweepConfig(m_values=(1, 2, 3, 4), k_max=3, fault="lambda-off-by-one")
    verdicts = run_claims(cfg)
    assert not all(v.passed for v in verdicts)
    for v in verdicts:
        if v.claim == "normalizer-bounds":
            assert not v.passed, v.params
        else:
            assert v.passed, (v.claim, v.params)


def test_sweep_config_validation():
    with pytest.raises(ValueError, match="empty"):
        SweepConfig(m_values=())
    with pytest.raises(ValueError, match="positive"):
        SweepConfig(m_values=(0, 1))
    with pytest.raises(ValueError, match="k_max"):
        SweepConfig(k_max=0)
    with pytest.raises(ValueError, match="worker"):
        SweepConfig(workers=0)
    with pytest.raises(ValueError, match="fault"):
        SweepConfig(fault="no-such-fault")


def test_parallel_run_matches_serial_order():
    serial = run_claims(TINY)
    parallel = run_claims(replace(TINY, workers=2))
    assert _rows(serial) == _rows(parallel)


def test_workers_get_every_bracket_up_to_k_max():
    """Workers read the rational brackets that run_claims hands them, up to
    the e^(-2j/k) bounds for k = 6."""
    cfg = SweepConfig(m_values=(6, 7), k_max=6)
    serial = run_claims(cfg)
    parallel = run_claims(replace(cfg, workers=2))
    assert {v.params["k_star"] for v in serial
            if v.claim == "damping-lower-bound"} == set(range(1, 7))
    assert _rows(serial) == _rows(parallel)


def test_brackets_are_sized_by_the_grid_not_by_k_max(monkeypatch):
    """A point has k <= m, so a huge k_max on a small grid builds only the
    e^(-2j/k) brackets for k <= max(m) and gives the k_max = 2 rows."""
    small = _rows(run_claims(SweepConfig(m_values=(1, 2), k_max=2)))
    built = []
    real = dists.exp_neg_upper

    def counted(x):
        built.append(x)
        assert len(built) <= 3, "brackets built past the largest m"
        return real(x)

    monkeypatch.setattr(dists, "exp_neg_upper", counted)
    assert _rows(run_claims(SweepConfig(m_values=(1, 2), k_max=10**6))) == small
    assert sorted(built) == [Fraction(1), Fraction(2), Fraction(2)]


def test_default_grid_rows_are_pinned_and_repeatable():
    """The default sweep is bit-identical to the pinned rows, and a second
    sweep in the same process gives the same rows."""
    first = _rows(run_claims(SweepConfig()))
    assert len(first) == 2367
    digest = hashlib.sha256(json.dumps(first).encode()).hexdigest()
    assert digest == DEFAULT_GRID_SHA256
    assert _rows(run_claims(SweepConfig())) == first


def test_verdict_rows_carry_timings_and_schema():
    verdicts = run_claims(SweepConfig(m_values=(2,), k_max=2))
    for v in verdicts:
        row = v.as_dict()
        assert set(row) == {"claim", "params", "lhs", "rhs", "passed", "seconds"}
        assert row["seconds"] >= 0.0
        assert set(row["params"]) <= {"m", "k", "j", "ell", "k_star"}
    assert "seconds" not in verdicts[0].as_dict(include_seconds=False)


def test_rows_sorted_by_claim_then_params():
    verdicts = run_claims(TINY)
    keys = [(CLAIM_IDS.index(v.claim), sorted(v.params.items())) for v in verdicts]
    assert keys == sorted(keys)


def test_default_grid_builds_each_point_table_once(monkeypatch):
    """One sweep builds the hit table and the damped pmf once per (m, k)
    point, 369 of each on the default grid, and a second sweep builds them
    again: no table outlives its sweep."""
    built = {"hit_table": [], "damped_binomial": []}

    def counted(real, calls):
        def build(m, k):
            calls.append((m, k))
            return real(m, k)

        return build

    for name, calls in built.items():
        monkeypatch.setattr(dists, name, counted(getattr(dists, name), calls))
    points = [(m, k) for m in range(1, 65) for k in range(1, min(m, 6) + 1)]
    assert len(points) == 369
    run_claims(SweepConfig())
    for calls in built.values():
        assert calls == points
    run_claims(SweepConfig())
    for calls in built.values():
        assert calls == points + points


def _domination_oracle(m, k):
    """The largest s_j / (4 pmf_j) as a maximum of Fraction quotients."""
    dist = dists.damped_binomial(m, k)
    return max(
        dist.s[j - 1] / (4 * dists.binomial_pmf(m, Fraction(1, m), j))
        for j in range(1, k + 1)
    )


def _damping_oracle(m, k_star):
    """The smallest single^j / e^(-2j/k) bracket as a minimum of Fraction
    quotients."""
    dist = dists.damped_binomial(m, k_star)
    worst = Fraction(10**9)
    for k in range(1, k_star + 1):
        single = sum((dist.s[w - 1] for w in range(1, k + 1)), Fraction(0))
        for j in range(1, k + 1):
            floor = dists.exp_neg_upper(Fraction(2 * j, k))
            worst = min(worst, single**j / floor)
    return worst


def _ratio_bound_oracle(m, k):
    """The largest p(j) k^(k-j) / q(j) at ell = k^3, from the occupancy pmf
    and the hit probabilities as Fractions."""
    ell = k**3
    p = dists.occupancy_pmf(m * ell, k, ell)
    hits = dists.hit_table(m, k)
    return max(p[j] / hits.prob(j, k) * k ** (k - j) for j in p)


def _ratio_sum_oracle(m, k_star):
    """The largest per-class sum of p_k(j) / q_k(j) at ell = k_star^3, with
    every class's samples capped at k_star."""
    ell = k_star**3
    hits = dists.hit_table(m, k_star)
    sums = []
    for k in range(1, k_star + 1):
        p = dists.occupancy_pmf(m * ell, k, ell)
        sums.append(sum((p[j] / hits.prob(j, k) for j in p), Fraction(0)))
    return max(sums)


def test_integer_worst_cases_match_fraction_oracles():
    """binomial-domination, damping-lower-bound and the two ratio claims pick
    their worst case by integer cross-multiplication; it is the Fraction
    forms' worst case, m = 1 (where (m-1)^(m-j) is 0^0) included."""
    verdicts = run_claims(SweepConfig(m_values=tuple(range(1, 17)), k_max=6))
    e2, two_e4 = dists.e_squared_lower(), dists.two_e_fourth_lower()
    checked = 0
    for v in verdicts:
        if v.claim == "binomial-domination":
            worst = _domination_oracle(v.params["m"], v.params["k"])
            assert (v.lhs, v.passed) == (str(worst), worst <= 1), v.params
        elif v.claim == "damping-lower-bound":
            worst = _damping_oracle(v.params["m"], v.params["k_star"])
            assert (v.lhs, v.passed) == (str(worst), worst >= 1), v.params
        elif v.claim == "occupancy-ratio-bound":
            worst = _ratio_bound_oracle(v.params["m"], v.params["k"])
            assert (v.lhs, v.passed) == (str(worst), worst <= e2), v.params
        elif v.claim == "ratio-sum-bound":
            worst = _ratio_sum_oracle(v.params["m"], v.params["k_star"])
            assert (v.lhs, v.passed) == (str(worst), worst <= two_e4), v.params
        else:
            continue
        checked += 1
    assert checked == 4 * sum(min(m, 6) for m in range(1, 17))


def test_ratio_claims_fail_where_one_ratio_is_inflated(monkeypatch):
    """Scaling the numerator of one point's top-class pair r_k(k) by 10^6
    fails the ratio bound at that point and nowhere else; the class sum
    there, which reads the same pair, fails with it."""
    real = dists.ratio_tables

    def inflated(hits, ell):
        tables = real(hits, ell)
        if (hits.m, hits.k_cap) == (5, 3):
            num, den = tables[3][3]
            tables[3][3] = (num * 10**6, den)
        return tables

    monkeypatch.setattr(dists, "ratio_tables", inflated)
    verdicts = run_claims(SweepConfig(m_values=tuple(range(1, 9)), k_max=4))
    failed = {(v.claim, v.params["m"], v.params.get("k", v.params.get("k_star")))
              for v in verdicts if not v.passed}
    assert failed == {("occupancy-ratio-bound", 5, 3), ("ratio-sum-bound", 5, 3)}


def test_verdict_seconds_add_up_to_at_most_the_sweep():
    """Shared tables are charged once, to the first claim that reads them."""
    t0 = time.perf_counter()
    verdicts = run_claims(SweepConfig(m_values=tuple(range(1, 33)), k_max=6))
    wall = time.perf_counter() - t0
    assert 0.0 < sum(v.seconds for v in verdicts) <= wall
