"""Acceptance gate: one test per criterion, each a single pass/fail line.

The battery runs once per module; every criterion's rows must all hold with
fidelity slack 1e-9 or better where fidelities are involved.
"""

import hashlib

import pytest

from shallowprep.acceptance import canonical_rows, run_acceptance


@pytest.fixture(scope="module")
def battery():
    return run_acceptance()


def _assert_criterion(battery, check_id):
    rows = [r for r in battery.rows if r.check_id == check_id]
    assert rows, f"criterion {check_id} produced no rows"
    bad = [r for r in rows if not r.verdict]
    detail = "; ".join(f"{r.params}: {r.lhs} vs {r.rhs}" for r in bad)
    assert not bad, f"{check_id}: {len(bad)}/{len(rows)} rows failed ({detail})"


def test_exact_dicke_grid(battery):
    """Every fixed-weight target on the divisible grid is exact and clean."""
    _assert_criterion(battery, "exact-dicke-grid")


def test_padding_path(battery):
    """Non-divisible sizes go through padding and still come out exact."""
    _assert_criterion(battery, "padding-path")


def test_symmetric_states(battery):
    """Weighted mixes, including complex coefficients, are prepared exactly."""
    _assert_criterion(battery, "symmetric-states")


def test_weight_uniformity(battery):
    """Amplitudes within each weight class agree to within 1e-9 relative."""
    _assert_criterion(battery, "weight-uniformity")


def test_claim_sweep(battery):
    """All exact-arithmetic claims hold over the full default grid."""
    _assert_criterion(battery, "claim-sweep")


def test_primitive_certification(battery):
    """Every primitive matches its declared action on its whole domain."""
    _assert_criterion(battery, "primitive-certification")


def test_depth_witness(battery):
    """Layer count, fanout width, and rounds do not grow with qubit count."""
    _assert_criterion(battery, "depth-witness")


def test_determinism(battery):
    """A repeated run yields byte-identical canonical reports."""
    _assert_criterion(battery, "determinism")


def test_canonical_report_is_pinned(battery):
    """The timing-free report keeps its exact bytes: every lhs, rhs and
    verdict of the full battery, in order."""
    digest = hashlib.sha256(canonical_rows(battery.rows).encode()).hexdigest()
    assert digest == "fae4cb760287203ab63e066a579b256e9c4d3da422d37c057034678ce2fa61d5"


def test_table_is_pinned(battery):
    """The timing-free table keeps its exact bytes, including the order of
    each row's params, which the sorted canonical report does not fix."""
    digest = hashlib.sha256(battery.table(include_seconds=False).encode()).hexdigest()
    assert digest == "c5491e0c5f0b263c5727c59898e68d891f51a05d9936ca2ef3cb85e0ff4e5498"
