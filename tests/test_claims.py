"""Claim sweep behavior: results, fault injection, config validation."""

import hashlib
import json
from dataclasses import replace

import pytest

from shallowprep.claims import CLAIM_IDS, SweepConfig, run_claims

TINY = SweepConfig(m_values=(1, 2, 3, 4), k_max=3, enumeration_budget=8)

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
    cfg = SweepConfig(m_values=(1, 2, 3, 4), k_max=3, enumeration_budget=8,
                      fault="lambda-off-by-one")
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
    cfg = SweepConfig(m_values=TINY.m_values, k_max=TINY.k_max,
                      enumeration_budget=TINY.enumeration_budget, workers=2)
    parallel = run_claims(cfg)
    assert _rows(serial) == _rows(parallel)


def test_workers_get_every_bracket_up_to_k_max():
    """Workers read the rational brackets that run_claims hands them, up to
    the e^(-2j/k) bounds for k = 6."""
    cfg = SweepConfig(m_values=(6, 7), k_max=6, enumeration_budget=8)
    serial = run_claims(cfg)
    parallel = run_claims(replace(cfg, workers=2))
    assert {v.params["k_star"] for v in serial
            if v.claim == "damping-lower-bound"} == set(range(1, 7))
    assert _rows(serial) == _rows(parallel)


def test_default_grid_rows_are_pinned_and_repeatable():
    """The default sweep is bit-identical to the pinned rows, and a second
    sweep in the same process gives the same rows."""
    first = _rows(run_claims(SweepConfig()))
    assert len(first) == 2367
    digest = hashlib.sha256(json.dumps(first).encode()).hexdigest()
    assert digest == DEFAULT_GRID_SHA256
    assert _rows(run_claims(SweepConfig())) == first


def test_verdict_rows_carry_timings_and_schema():
    verdicts = run_claims(SweepConfig(m_values=(2,), k_max=2, enumeration_budget=4))
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
