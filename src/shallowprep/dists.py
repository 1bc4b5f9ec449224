"""Exact rational tables for the weight distributions used by the synthesis pipeline.

Everything in this module is computed with arbitrary-precision rationals.
Floating point enters only at the simulator boundary, never here, so the
inequality checks in :mod:`shallowprep.claims` are exact comparisons.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Dict, List, Sequence, Tuple


class DomainError(ValueError):
    """Raised when distribution parameters are outside their stated domain."""


def binomial_pmf(m: int, p: Fraction, j: int) -> Fraction:
    """Pr[Binom(m, p) = j] as an exact rational."""
    if j < 0 or j > m:
        return Fraction(0)
    return comb(m, j) * p**j * (1 - p) ** (m - j)


def binomial_cdf(m: int, p: Fraction, k: int) -> Fraction:
    """Pr[Binom(m, p) <= k] as an exact rational."""
    return sum((binomial_pmf(m, p, j) for j in range(0, min(k, m) + 1)), Fraction(0))


@dataclass(frozen=True)
class DampedBinomial:
    """Weight distribution with pmf s(j) = lam * C(m, j) / (m*k)**j on j in [1..k].

    ``lam`` is the unique normalizer making the pmf sum to one.
    """

    m: int
    k: int
    lam: Fraction
    s: Tuple[Fraction, ...]  # s[j-1] = pmf at weight j, j in 1..k

    def pmf(self, j: int) -> Fraction:
        if 1 <= j <= self.k:
            return self.s[j - 1]
        return Fraction(0)


def damped_numerators(m: int, k: int) -> List[int]:
    """The damped masses C(m, w) / (m*k)**w scaled to the integers
    C(m, w) * (m*k)**(k-w), for w = 1..k."""
    mk = m * k
    return [comb(m, w) * mk ** (k - w) for w in range(1, k + 1)]


def damped_binomial(m: int, k: int) -> DampedBinomial:
    """Exact normalizer and pmf table for the damped weight distribution.

    With S the sum of the scaled masses C(m, j) * (m*k)**(k-j),
    lam = (m*k)**k / S and s(j) = C(m, j) * (m*k)**(k-j) / S.
    """
    if not (1 <= k <= m):
        raise DomainError(f"damped_binomial requires 1 <= k <= m, got m={m}, k={k}")
    nums = damped_numerators(m, k)
    total = sum(nums)
    lam = Fraction((m * k) ** k, total)
    s = tuple(Fraction(t, total) for t in nums)
    if sum(s, Fraction(0)) != 1:
        raise DomainError(f"damped pmf for m={m}, k={k} does not sum to 1")
    return DampedBinomial(m=m, k=k, lam=lam, s=s)


def composition_weight_sums(m: int, t_max: int, j_max: int) -> Tuple[Tuple[int, ...], ...]:
    """Gamma_j(t) for j in 0..j_max and t in 0..t_max, as rows indexed [j][t].

    Gamma_j(t) is the sum over ordered (w_1..w_j), w_i >= 1, sum w_i = t, of
    prod C(m, w_i): it counts the weight-t strings on j designated nonempty
    buckets of size m.  Row j holds the coefficients of the j-th power of
    the generating polynomial sum_{w>=1} C(m,w) x^w, so one pass that
    multiplies by the polynomial once per row yields every j.
    """
    base = [comb(m, w) for w in range(t_max + 1)]
    row = [1] + [0] * t_max
    rows = [tuple(row)]
    for _ in range(j_max):
        row = [sum(row[t - w] * base[w] for w in range(1, t + 1)) for t in range(t_max + 1)]
        rows.append(tuple(row))
    return tuple(rows)


def _bucket_size(n: int, ell: int) -> int:
    if ell <= 0 or n % ell != 0:
        raise DomainError(f"bucket count {ell} must divide n={n}")
    return n // ell


def _occupancy_counts(
    n: int, k: int, ell: int, gamma: Sequence[Sequence[int]]
) -> Dict[int, int]:
    """C(ell, j) * Gamma_j(k), the weight-k strings with exactly j nonempty
    buckets, for j in 1..min(k, ell); checked to number C(n, k) in all."""
    counts = {j: comb(ell, j) * gamma[j][k] for j in range(1, min(k, ell) + 1)}
    if sum(counts.values()) != comb(n, k):
        raise DomainError(f"occupancy pmf for n={n}, k={k}, ell={ell} does not sum to 1")
    return counts


def occupancy_pmf(n: int, k: int, ell: int) -> Dict[int, Fraction]:
    """Distribution of the number of nonempty buckets for a uniform weight-k string.

    The n positions are split into ``ell`` buckets of size m = n / ell.
    Closed form: p(j) = C(ell, j) * Gamma_j / C(n, k).
    """
    m = _bucket_size(n, ell)
    if not (0 <= k <= n):
        raise DomainError(f"weight k={k} out of range for n={n}")
    if k == 0:
        return {0: Fraction(1)}
    counts = _occupancy_counts(n, k, ell, composition_weight_sums(m, k, min(k, ell)))
    denom = comb(n, k)
    return {j: Fraction(c, denom) for j, c in counts.items()}


@dataclass(frozen=True)
class HitTable:
    """Total weights of j independent damped samples on m-bit buckets.

    Each sample has the damped pmf with cap k_cap: weight w with probability
    nums[w-1] / total, for the scaled masses of ``damped_binomial``.  So
    conv[j][t] / total**j is the probability that j samples weigh t in all,
    for every j, t <= k_cap.  ``gamma`` is the composition table
    (``composition_weight_sums(m, k_cap, k_cap)``) that cross-checked it.
    """

    m: int
    k_cap: int
    total: int
    conv: Tuple[Tuple[int, ...], ...]
    gamma: Tuple[Tuple[int, ...], ...]

    @property
    def masses(self) -> Tuple[int, ...]:
        """The scaled damped masses ``damped_numerators(m, k_cap)``, row j = 1."""
        return self.conv[1][1:]

    def prob(self, j: int, t: int) -> Fraction:
        return Fraction(self.conv[j][t], self.total**j)


def hit_table(m: int, k_cap: int) -> HitTable:
    """Convolve the damped pmf with itself in integers, j = 1..k_cap times.

    Every entry with 1 <= j <= t <= k_cap is checked against the composition
    route: with lam = (m*k_cap)**k_cap / total and v = 1 / (m*k_cap), the
    probability is lam**j * v**t * Gamma_j(t), which times total**j is the
    integer (m*k_cap)**(j*k_cap - t) * Gamma_j(t).
    """
    if not (1 <= k_cap <= m):
        raise DomainError(f"hit_table requires 1 <= k_cap <= m, got m={m}, k_cap={k_cap}")
    nums = damped_numerators(m, k_cap)
    gamma = composition_weight_sums(m, k_cap, k_cap)
    mk = m * k_cap
    row = [1] + [0] * k_cap
    conv = [tuple(row)]
    for j in range(1, k_cap + 1):
        row = [
            sum(row[t - w] * nums[w - 1] for w in range(1, t + 1))
            for t in range(k_cap + 1)
        ]
        for t in range(j, k_cap + 1):
            if row[t] != mk ** (j * k_cap - t) * gamma[j][t]:
                raise DomainError(
                    f"hit table for m={m}, k_cap={k_cap} at j={j}, t={t}: "
                    f"convolution and composition routes disagree"
                )
        conv.append(tuple(row))
    return HitTable(m=m, k_cap=k_cap, total=sum(nums), conv=tuple(conv), gamma=gamma)


def ratio_tables(hits: HitTable, ell: int) -> Dict[int, Dict[int, Tuple[int, int]]]:
    """Per-class ratios r_k(j) = p_k(j) / q_k(j) for k in 1..hits.k_cap, each
    as an unreduced integer pair (num, den) with den > 0.

    p_k is the occupancy pmf of weight k on ell buckets of hits.m bits and
    q_k(j) the probability that j damped samples capped at hits.k_cap weigh
    k in all; the one hit table for the cap serves every class.  With
    p_k(j) = C(ell, j) Gamma_j(k) / C(n, k) and q_k(j) = conv[j][k] / total^j,
    num = C(ell, j) Gamma_j(k) total^j and den = C(n, k) conv[j][k]; callers
    compare pairs by cross-multiplication and reduce only what they report.
    """
    if ell < 1:
        raise DomainError(f"bucket count {ell} must be positive")
    n = hits.m * ell
    out: Dict[int, Dict[int, Tuple[int, int]]] = {}
    for k in range(1, hits.k_cap + 1):
        counts = _occupancy_counts(n, k, ell, hits.gamma)
        denom = comb(n, k)
        out[k] = {
            j: (c * hits.total**j, denom * hits.conv[j][k]) for j, c in counts.items()
        }
    return out


def ratio_sum(ratios: Dict[int, Tuple[int, int]]) -> Tuple[int, int]:
    """One class's ratio sum sum_j r_k(j) as an unreduced pair (num, den)."""
    num, den = 0, 1
    for a, b in ratios.values():
        num, den = num * b + a * den, den * b
    return num, den


def weighted_ratio_sum(
    ratios: Dict[int, Dict[int, Tuple[int, int]]], eta: Sequence[complex]
) -> Tuple[float, Dict[int, Fraction]]:
    """Weighted ratio sum R = sum_k |eta_k|^2 R_k and the per-weight table.

    ``ratios`` is one point's ``ratio_tables``; each class sum R_k is added
    in integers and reduced once.  ``eta`` lists weights for k = 0..k_star
    and must be unit norm.  The k = 0 slot contributes nothing because R_0
    is defined as zero.
    """
    k_star = len(ratios)
    if len(eta) != k_star + 1:
        raise DomainError(f"eta must have {k_star + 1} entries, got {len(eta)}")
    norm = sum(abs(e) ** 2 for e in eta)
    if abs(norm - 1.0) > 1e-9:
        raise DomainError(f"eta is not unit norm (sum |eta|^2 = {norm})")
    tables = {0: Fraction(0)}
    tables.update((k, Fraction(*ratio_sum(r))) for k, r in ratios.items())
    R = sum(abs(eta[k]) ** 2 * float(tables[k]) for k in range(k_star + 1))
    return R, tables


def damped_truncation_mass(m: int, k: int) -> Fraction:
    """Pr[Binom(m, 1/m) <= k], the mass kept by the weight truncation step."""
    return binomial_cdf(m, Fraction(1, m), k)


# Rational brackets for the transcendental constants in the claim checks.
# exp(x) > sum_{i<=N} x^i / i! for x > 0, so truncated series give sound
# one-sided bounds without floating point.

_SERIES_TERMS = 60


def _exp_series_lower(x: Fraction) -> Fraction:
    """sum_{i < _SERIES_TERMS} x^i / i!, by Horner's rule in integers.

    With x = p/q, 1 + (x/i) * (num/den) = (den*q*i + p*num) / (den*q*i),
    so the nested form 1 + x(1 + x/2(1 + ... (1 + x/59))) needs one
    reduction at the end instead of one per term.
    """
    p, q = x.numerator, x.denominator
    num, den = 1, 1
    for i in range(_SERIES_TERMS - 1, 0, -1):
        num, den = den * q * i + p * num, den * q * i
    return Fraction(num, den)


def e_squared_lower() -> Fraction:
    """Rational lower bound on e^2 (tight to far beyond double precision)."""
    return _exp_series_lower(Fraction(2))


def two_e_fourth_lower() -> Fraction:
    """Rational lower bound on 2 * e^4."""
    return 2 * _exp_series_lower(Fraction(4))


def exp_neg_upper(x: Fraction) -> Fraction:
    """Rational upper bound on exp(-x) for x >= 0, via 1 / lower-bound(exp(x))."""
    if x < 0:
        raise DomainError("exp_neg_upper expects x >= 0")
    return 1 / _exp_series_lower(x)


def trailing_zero_mass(n: int, k: int, n_prime: int) -> Fraction:
    """Pr over weight-k strings of n_prime bits that the last n_prime - n bits are 0."""
    if n_prime < n or k > n:
        raise DomainError("need n <= n_prime and k <= n")
    return Fraction(comb(n, k), comb(n_prime, k))
