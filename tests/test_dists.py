"""Oracle and property tests for the exact distribution machinery."""

import itertools
import math
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, strategies as st

from shallowprep import dists


def test_damped_binomial_frozen_point():
    """Hand computation for m = k = 2: raw masses 1/2 and 1/16."""
    dist = dists.damped_binomial(2, 2)
    assert dist.lam == Fraction(16, 9)
    assert dist.s == (Fraction(8, 9), Fraction(1, 9))
    assert sum(dist.s) == 1


def test_damped_binomial_weight_one_is_deterministic():
    for m in (1, 2, 5, 9):
        dist = dists.damped_binomial(m, 1)
        assert dist.lam == 1
        assert dist.s == (Fraction(1),)


def test_damped_binomial_domain():
    with pytest.raises(dists.DomainError):
        dists.damped_binomial(2, 3)
    with pytest.raises(dists.DomainError):
        dists.damped_binomial(3, 0)


@given(
    st.integers(1, 40).flatmap(
        lambda m: st.tuples(st.just(m), st.integers(1, min(m, 8)))
    )
)
def test_normalizer_bounds(point):
    """The normalizer always sits in [k^2/(k+1), k]."""
    m, k = point
    lam = dists.damped_binomial(m, k).lam
    assert Fraction(k * k, k + 1) <= lam <= k


def test_occupancy_pmf_frozen_point():
    assert dists.occupancy_pmf(4, 2, 2) == {1: Fraction(1, 3), 2: Fraction(2, 3)}


@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 16))
def test_occupancy_closed_form_matches_enumeration(m, ell, k):
    """The closed form agrees with brute-force string enumeration."""
    n = m * ell
    assume(k <= n)
    closed = dists.occupancy_pmf(n, k, ell)
    # list every weight-k string and count the blocks it occupies
    counts = {}
    for positions in itertools.combinations(range(n), k):
        occupied = len({p // m for p in positions})
        counts[occupied] = counts.get(occupied, 0) + 1
    enumerated = {j: Fraction(c, comb(n, k)) for j, c in counts.items()}
    for j in set(closed) | set(enumerated):
        assert closed.get(j, Fraction(0)) == enumerated.get(j, Fraction(0))


def test_occupancy_pmf_domain():
    with pytest.raises(dists.DomainError):
        dists.occupancy_pmf(5, 1, 2)
    with pytest.raises(dists.DomainError):
        dists.occupancy_pmf(4, 5, 2)


def test_hybrid_hit_prob_frozen_points():
    """Hit probabilities read from the table: j samples capped at 2 on 2-bit
    buckets weigh 2 in all."""
    table = dists.hit_table(2, 2)
    assert table.prob(1, 2) == Fraction(1, 9)
    assert table.prob(2, 2) == Fraction(64, 81)


def test_hybrid_hit_prob_domain():
    with pytest.raises(dists.DomainError):
        dists.hit_table(2, 3)
    with pytest.raises(dists.DomainError):
        dists.hit_table(4, 0)


def _patched_gamma(monkeypatch, wrong):
    """Make composition_weight_sums add wrong(j, t) to every Gamma_j(t)."""
    real = dists.composition_weight_sums
    monkeypatch.setattr(
        dists,
        "composition_weight_sums",
        lambda m, t_max, j_max: tuple(
            tuple(g + wrong(j, t) for t, g in enumerate(row))
            for j, row in enumerate(real(m, t_max, j_max))
        ),
    )


def test_internal_cross_checks_raise_domain_error(monkeypatch):
    """A wrong composition table breaks both cross-checks, even under -O."""
    _patched_gamma(monkeypatch, lambda j, t: int(j >= 1))
    with pytest.raises(dists.DomainError, match="does not sum to 1"):
        dists.occupancy_pmf(4, 2, 2)
    with pytest.raises(dists.DomainError, match="routes disagree"):
        dists.hit_table(2, 2)


def test_hit_table_cross_checks_every_j(monkeypatch):
    """A composition count wrong at one (j, t) is caught by any hit table
    that spans it, whichever entry a caller goes on to read."""
    _patched_gamma(monkeypatch, lambda j, t: int(j == 1))
    with pytest.raises(dists.DomainError, match="at j=1, t=1: convolution"):
        dists.hit_table(2, 2)
    monkeypatch.undo()
    _patched_gamma(monkeypatch, lambda j, t: int((j, t) == (2, 2)))
    with pytest.raises(dists.DomainError, match="at j=2, t=2: convolution"):
        dists.hit_table(2, 2)


def _ratio_sums(m, k_star, ell, eta):
    """The weighted ratio sum and per-weight ratio sums R_k on ell buckets of
    m bits, with every class capped at k_star."""
    ratios = dists.ratio_tables(dists.hit_table(m, k_star), ell)
    return dists.weighted_ratio_sum(ratios, eta)


def test_ratio_sum_tables_frozen():
    # cap 1 samples always weigh 1, so the single-bucket ratio is exactly 1
    assert _ratio_sums(2, 1, 2, (0.0, 1.0))[1] == {0: Fraction(0), 1: Fraction(1)}
    # cap 2 on 2-bit buckets: one sample weighs 1 with mass 8/9, so R_1 = 9/8
    _, tables = _ratio_sums(2, 2, 2, (0.0, 0.0, 1.0))
    assert tables[0] == 0
    assert tables[1] == Fraction(9, 8)


def test_ratio_report_frozen_sums():
    # class 2 at (m, k, ell) = (2, 2, 2) and (2, 2, 4); the second is the R_2
    # that build_dicke(8, 2, 4) reads
    assert _ratio_sums(2, 2, 2, (0.0, 0.0, 1.0))[1][2] == Fraction(123, 32)
    assert _ratio_sums(2, 2, 4, (0.0, 0.0, 1.0))[1][2] == Fraction(531, 224)


def test_ratio_tables_checked_regime():
    """At ell >= k^3 each ratio is within r(j) <= e^2 * k^(j-k), here with k = 1."""
    ratios = dists.ratio_tables(dists.hit_table(1, 1), 8)[1]
    assert Fraction(*dists.ratio_sum(ratios)) == 1
    assert max(Fraction(*r) for r in ratios.values()) <= dists.e_squared_lower()


def test_ratio_sum_tables_domain():
    with pytest.raises(dists.DomainError):
        dists.ratio_tables(dists.hit_table(2, 1), 0)
    with pytest.raises(dists.DomainError):
        dists.hit_table(2, 3)


def test_symmetric_R_matches_table_mix():
    eta = (0.0, math.sqrt(1.0 / 3.0), math.sqrt(2.0 / 3.0))
    total, tables = _ratio_sums(2, 2, 2, eta)
    expected = float(tables[1]) / 3.0 + 2.0 * float(tables[2]) / 3.0
    assert abs(total - expected) < 1e-12
    assert abs(total - 2.9375) < 1e-12


def test_symmetric_R_rejects_unnormalized():
    with pytest.raises(dists.DomainError):
        _ratio_sums(2, 1, 2, (0.5, 0.5))


def test_truncation_and_trailing_mass():
    assert dists.damped_truncation_mass(2, 1) == Fraction(3, 4)
    assert dists.trailing_zero_mass(5, 1, 6) == Fraction(5, 6)
    assert dists.trailing_zero_mass(7, 2, 8) == Fraction(3, 4)


def test_transcendental_brackets_are_tight_and_sound():
    """The series brackets sit on the correct side and within float error."""
    e2 = float(dists.e_squared_lower())
    assert e2 <= math.exp(2.0) <= e2 + 1e-9
    tf = float(dists.two_e_fourth_lower())
    assert tf <= 2.0 * math.exp(4.0) <= tf + 1e-7
    up = float(dists.exp_neg_upper(Fraction(2)))
    assert math.exp(-2.0) <= up <= math.exp(-2.0) + 1e-9


@given(
    st.integers(1, 24).flatmap(
        lambda m: st.tuples(st.just(m), st.integers(1, min(m, 5)))
    )
)
def test_hit_floor_property(point):
    """Hitting total weight k with k samples is at least (k/(k+1))^k likely."""
    m, k = point
    assert dists.hit_table(m, k).prob(k, k) >= Fraction(k, k + 1) ** k


@given(
    st.integers(1, 12).flatmap(
        lambda m: st.tuples(st.just(m), st.integers(1, min(m, 4)))
    )
)
def test_domination_property(point):
    """Damped masses never exceed four times the matching binomial masses."""
    m, k = point
    dist = dists.damped_binomial(m, k)
    for j in range(1, k + 1):
        assert dist.pmf(j) <= 4 * dists.binomial_pmf(m, Fraction(1, m), j)


# ---- oracles: the Fraction forms that the integer routes replaced ----


def _series_oracle(x):
    """sum_{i < 60} x^i / i!, one Fraction term at a time."""
    term = Fraction(1)
    total = Fraction(1)
    for i in range(1, dists._SERIES_TERMS):
        term = term * x / i
        total += term
    return total


def _damped_oracle(m, k):
    """Normalizer and pmf from the Fraction sum of C(m, j) / (m*k)**j."""
    v = Fraction(1, m * k)
    raw = [comb(m, j) * v**j for j in range(1, k + 1)]
    lam = 1 / sum(raw, Fraction(0))
    return lam, tuple(lam * t for t in raw)


def _hit_oracle(m, k_cap, j, k):
    """Hit probability for j samples, restarting the Fraction convolution."""
    _, s = _damped_oracle(m, k_cap)
    conv = {0: Fraction(1)}
    for _ in range(j):
        nxt = {}
        for have, pr in conv.items():
            for w in range(1, k_cap + 1):
                if have + w <= k:
                    nxt[have + w] = nxt.get(have + w, Fraction(0)) + pr * s[w - 1]
        conv = nxt
    return conv.get(k, Fraction(0))


def _composition_oracle(m, k, j):
    """Gamma_j(k), powering the generating polynomial afresh for one j."""
    if j == 0:
        return 1 if k == 0 else 0
    if k < j:
        return 0
    base = [0] + [comb(m, w) for w in range(1, k + 1)]
    acc = [0] * (k + 1)
    acc[0] = 1
    for _ in range(j):
        nxt = [0] * (k + 1)
        for have in range(k + 1):
            if acc[have] == 0:
                continue
            for w in range(1, k - have + 1):
                if base[w]:
                    nxt[have + w] += acc[have] * base[w]
        acc = nxt
    return acc[k]


def test_composition_table_matches_per_j_oracle():
    for m in (*range(1, 9), 16, 64):
        table = dists.composition_weight_sums(m, 6, 6)
        for t in range(7):
            for j in range(t + 1):
                assert table[j][t] == _composition_oracle(m, t, j), (m, t, j)


def test_ratio_tables_match_per_class_oracle():
    """Each ratio is an unreduced pair of ints whose quotient equals the
    Fraction quotient of the oracle pmf and hit probability, one class at a
    time, and whose float division is the Fraction's float."""
    for n, k_star, ell in [(4, 2, 2), (12, 3, 4), (24, 3, 8), (81, 3, 27), (64, 4, 16)]:
        tables = dists.ratio_tables(dists.hit_table(n // ell, k_star), ell)
        assert sorted(tables) == list(range(1, k_star + 1))
        for k, ratios in tables.items():
            p = dists.occupancy_pmf(n, k, ell)
            assert list(ratios) == sorted(p)
            for j, pair in ratios.items():
                num, den = pair
                assert type(num) is int and type(den) is int and den > 0, pair
                r = Fraction(num, den)
                assert r == p[j] / _hit_oracle(n // ell, k_star, j, k), (n, k, j)
                assert num / den == float(r), (n, k, j)


def test_exp_series_matches_term_by_term_oracle():
    xs = {Fraction(2), Fraction(4)} | {
        Fraction(2 * j, k) for k in range(1, 7) for j in range(1, k + 1)
    }
    for x in sorted(xs):
        assert dists._exp_series_lower(x) == _series_oracle(x)


def test_damped_binomial_matches_fraction_sum_oracle():
    for m in range(1, 65):
        for k in range(1, min(m, 6) + 1):
            dist = dists.damped_binomial(m, k)
            assert (dist.lam, dist.s) == _damped_oracle(m, k)


def test_hit_table_matches_per_j_oracle():
    for m in (*range(1, 9), 16, 64):
        for k_cap in range(1, min(m, 6) + 1):
            table = dists.hit_table(m, k_cap)
            assert table.masses == tuple(dists.damped_numerators(m, k_cap))
            for k in range(1, k_cap + 1):
                for j in range(1, k + 1):
                    assert table.prob(j, k) == _hit_oracle(m, k_cap, j, k), (m, k_cap, j, k)
