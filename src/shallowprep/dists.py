"""Exact rational tables for the weight distributions used by the synthesis pipeline.

Everything in this module is computed with arbitrary-precision rationals.
Floating point enters only at the simulator boundary, never here, so the
inequality checks in :mod:`shallowprep.claims` are exact comparisons.
"""
from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Dict, List, Sequence, Tuple

ENUMERATION_CAP = 10**6


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

    def string_prob(self, weight: int) -> Fraction:
        """Probability of any single m-bit string of the given weight."""
        if weight < 1 or weight > self.k or comb(self.m, weight) == 0:
            return Fraction(0)
        return self.pmf(weight) / comb(self.m, weight)


def damped_binomial(m: int, k: int) -> DampedBinomial:
    """Exact normalizer and pmf table for the damped weight distribution.

    Scaling the raw masses C(m, j) / (m*k)**j by (m*k)**k makes them the
    integers C(m, j) * (m*k)**(k-j); with S their sum, lam = (m*k)**k / S
    and s(j) = C(m, j) * (m*k)**(k-j) / S.
    """
    if not (1 <= k <= m):
        raise DomainError(f"damped_binomial requires 1 <= k <= m, got m={m}, k={k}")
    mk = m * k
    nums = [comb(m, j) * mk ** (k - j) for j in range(1, k + 1)]
    total = sum(nums)
    lam = Fraction(mk**k, total)
    s = tuple(Fraction(t, total) for t in nums)
    if sum(s, Fraction(0)) != 1:
        raise DomainError(f"damped pmf for m={m}, k={k} does not sum to 1")
    return DampedBinomial(m=m, k=k, lam=lam, s=s)


def composition_weight_sum(m: int, k: int, j: int) -> int:
    """Sum over ordered (w_1..w_j), w_i >= 1, sum w_i = k, of prod C(m, w_i).

    Counts the weight-k strings on j designated nonempty buckets of size m.
    Computed by powering the generating polynomial sum_{w>=1} C(m,w) x^w.
    """
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


def occupancy_pmf(n: int, k: int, ell: int) -> Dict[int, Fraction]:
    """Distribution of the number of nonempty buckets for a uniform weight-k string.

    The n positions are split into ``ell`` buckets of size m = n / ell.
    Closed form: p(j) = C(ell, j) * Gamma_j / C(n, k).
    """
    if ell <= 0 or n % ell != 0:
        raise DomainError(f"bucket count {ell} must divide n={n}")
    if not (0 <= k <= n):
        raise DomainError(f"weight k={k} out of range for n={n}")
    m = n // ell
    if k == 0:
        return {0: Fraction(1)}
    denom = comb(n, k)
    table: Dict[int, Fraction] = {}
    for j in range(1, min(k, ell) + 1):
        gamma = composition_weight_sum(m, k, j)
        table[j] = Fraction(comb(ell, j) * gamma, denom)
    if sum(table.values(), Fraction(0)) != 1:
        raise DomainError(f"occupancy pmf for n={n}, k={k}, ell={ell} does not sum to 1")
    return table


def occupancy_pmf_enumerated(n: int, k: int, ell: int) -> Dict[int, Fraction]:
    """Brute-force occupancy pmf by listing every weight-k string.

    Only valid when C(n, k) <= ENUMERATION_CAP; used as an independent oracle
    against the closed form.
    """
    if ell <= 0 or n % ell != 0:
        raise DomainError(f"bucket count {ell} must divide n={n}")
    if comb(n, k) > ENUMERATION_CAP:
        raise DomainError(f"C({n},{k}) exceeds the enumeration cap")
    m = n // ell
    counts: Dict[int, int] = {}
    for positions in itertools.combinations(range(n), k):
        occupied = {p // m for p in positions}
        counts[len(occupied)] = counts.get(len(occupied), 0) + 1
    denom = comb(n, k)
    return {j: Fraction(c, denom) for j, c in sorted(counts.items())}


def hybrid_hit_probs(m: int, k_cap: int, j_max: int, k: int) -> Tuple[Fraction, ...]:
    """Probabilities that j independent damped samples have total weight exactly k.

    Entry j-1 is the probability for j samples, j = 1..j_max.  Each sample
    is drawn from the damped distribution with cap ``k_cap`` on m-bit
    buckets.  One convolution pass over the exact pmf yields every j, and
    each one is cross-checked against the composition-sum closed form.
    """
    if not (1 <= j_max <= k <= k_cap <= m):
        raise DomainError(
            f"hybrid_hit_probs requires 1 <= j_max <= k <= k_cap <= m, got "
            f"m={m}, k_cap={k_cap}, j_max={j_max}, k={k}"
        )
    dist = damped_binomial(m, k_cap)
    v = Fraction(1, m * k_cap)
    # The pmf over a common denominator d, so the convolution runs in integers:
    # after j samples, conv[t] / d**j is the probability of total weight t.
    d = lcm(*(s.denominator for s in dist.s))
    scaled = [s.numerator * (d // s.denominator) for s in dist.s]
    conv = [1] + [0] * k
    probs: List[Fraction] = []
    for j in range(1, j_max + 1):
        conv = [
            sum(conv[t - w] * scaled[w - 1] for w in range(1, min(k_cap, t) + 1))
            for t in range(k + 1)
        ]
        result = Fraction(conv[k], d**j)
        gamma_route = dist.lam**j * v**k * composition_weight_sum(m, k, j)
        if result != gamma_route:
            raise DomainError(
                f"hybrid_hit_probs(m={m}, k_cap={k_cap}, k={k}) at j={j}: "
                f"convolution and composition routes disagree"
            )
        probs.append(result)
    return tuple(probs)


def hybrid_hit_prob(m: int, k_cap: int, j: int, k: int) -> Fraction:
    """Probability that j independent damped samples have total weight exactly k."""
    return hybrid_hit_probs(m, k_cap, j, k)[-1]


@dataclass(frozen=True)
class OccupancyModel:
    """Exact occupancy/hybrid tables and their ratio for one (n, k, ell) point."""

    n: int
    k: int
    ell: int
    m: int
    p: Dict[int, Fraction]
    q: Dict[int, Fraction]
    r: Dict[int, Fraction]
    R: Fraction
    Gamma: Dict[int, int]
    bound_checked: bool
    bound_violations: Tuple[int, ...] = ()

    def support(self) -> List[int]:
        return sorted(self.p.keys())


def ratio_report(n: int, k: int, ell: int) -> OccupancyModel:
    """Full p, q, r tables plus the ratio sum R for weight k on ell buckets.

    The ratio bound check is gated on ell >= k**3; below that the tables are
    still produced and a warning records that the bound was skipped.
    """
    if k < 1:
        raise DomainError("ratio_report requires k >= 1")
    p = occupancy_pmf(n, k, ell)
    m = n // ell
    q: Dict[int, Fraction] = {}
    r: Dict[int, Fraction] = {}
    gam: Dict[int, int] = {}
    violations: List[int] = []
    check = ell >= k**3
    if not check:
        warnings.warn(
            f"ratio bound skipped for (n={n}, k={k}, ell={ell}): needs ell >= k^3",
            stacklevel=2,
        )
    hits = hybrid_hit_probs(m, k, max(p), k)
    e2 = e_squared_lower()
    for j in sorted(p):
        q[j] = hits[j - 1]
        r[j] = p[j] / q[j]
        gam[j] = composition_weight_sum(m, k, j)
        # r(j) <= e^2 * k^(j-k), decided soundly with a rational lower bound on e^2
        if check and r[j] > e2 * Fraction(k) ** (j - k):
            violations.append(j)
    R = sum(r.values(), Fraction(0))
    return OccupancyModel(
        n=n,
        k=k,
        ell=ell,
        m=m,
        p=p,
        q=q,
        r=r,
        R=R,
        Gamma=gam,
        bound_checked=check,
        bound_violations=tuple(violations),
    )


def ratio_sum_tables(n: int, k_star: int, ell: int) -> Dict[int, Fraction]:
    """Per-weight ratio sums R_k for k in 0..k_star, with cap k_star throughout.

    R_k = sum_j p_k(j) / q_k(j) where q_k uses damped samples capped at k_star.
    R_0 is defined as zero.
    """
    if not (0 <= k_star):
        raise DomainError("k_star must be nonnegative")
    if ell <= 0 or n % ell != 0:
        raise DomainError(f"bucket count {ell} must divide n={n}")
    m = n // ell
    if k_star > 0 and k_star > m:
        raise DomainError(f"cap k_star={k_star} exceeds bucket size m={m}")
    out: Dict[int, Fraction] = {0: Fraction(0)}
    for k in range(1, k_star + 1):
        p = occupancy_pmf(n, k, ell)
        hits = hybrid_hit_probs(m, k_star, max(p), k)
        out[k] = sum((p[j] / hits[j - 1] for j in sorted(p)), Fraction(0))
    return out


def symmetric_R(
    n: int, k_star: int, ell: int, eta: Sequence[complex]
) -> Tuple[float, Dict[int, Fraction]]:
    """Weighted ratio sum R = sum_k |eta_k|^2 R_k and the per-weight table.

    ``eta`` lists weights for k = 0..k_star and must be unit norm.  The k = 0
    slot contributes nothing because R_0 is defined as zero.
    """
    if len(eta) != k_star + 1:
        raise DomainError(f"eta must have {k_star + 1} entries, got {len(eta)}")
    norm = sum(abs(e) ** 2 for e in eta)
    if abs(norm - 1.0) > 1e-9:
        raise DomainError(f"eta is not unit norm (sum |eta|^2 = {norm})")
    if ell < k_star**3:
        warnings.warn(
            f"ell={ell} below k_star^3={k_star**3}; ratio constants are exact "
            "but the constant-bound regime is relaxed",
            stacklevel=2,
        )
    tables = ratio_sum_tables(n, k_star, ell)
    R = sum(abs(eta[k]) ** 2 * float(tables[k]) for k in range(k_star + 1))
    return R, tables


def damped_truncation_mass(m: int, k: int) -> Fraction:
    """Pr[Binom(m, 1/m) <= k], the mass kept by the weight truncation step."""
    return binomial_cdf(m, Fraction(1, m), k)


def kept_weight_masses(m: int, k: int) -> Dict[int, Fraction]:
    """Conditional masses alpha_j = Pr[Binom(m,1/m) = j | <= k] for j in 0..k."""
    keep = damped_truncation_mass(m, k)
    return {j: binomial_pmf(m, Fraction(1, m), j) / keep for j in range(0, k + 1)}


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
