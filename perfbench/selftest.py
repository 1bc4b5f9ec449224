"""Self-tests of the benchmark's reference computations on hand-worked cases.

Run alone with ``python3 perfbench/selftest.py``; every benchmark run also
runs them and reports ``correct: false`` if one fails.
"""
from __future__ import annotations

import math
import sys
from typing import List

import numpy as np

import reference as ref


def _dicke_cases() -> List[str]:
    problems = []
    third = 1 / math.sqrt(3)
    want = np.zeros(8, dtype=complex)
    want[[1, 2, 4]] = third  # 001, 010, 100
    if not np.allclose(ref.dicke_amplitudes(3, 1), want, rtol=0, atol=1e-15):
        problems.append("dicke_amplitudes(3, 1) is not 1/sqrt(3) on 001, 010, 100")
    want = np.zeros(16, dtype=complex)
    want[[3, 5, 6, 9, 10, 12]] = 1 / math.sqrt(6)
    if not np.allclose(ref.dicke_amplitudes(4, 2), want, rtol=0, atol=1e-15):
        problems.append("dicke_amplitudes(4, 2) is not 1/sqrt(6) on the six weight-2 strings")
    a, b, c = 0.6, 0.0 + 0.6j, -0.52915026221291805
    want = np.array([a, b / math.sqrt(2), b / math.sqrt(2), c], dtype=complex)
    if not np.allclose(ref.symmetric_amplitudes(2, (a, b, c)), want, rtol=0, atol=1e-15):
        problems.append("symmetric_amplitudes(2, (a, b, c)) is not a|00> + b|D1> + c|11>")
    return problems


def _ham_cases() -> List[str]:
    problems = []
    # ham(2, 1): bits x1 x0 t1 t0.  |x| = 1 sets t1 (slot 1), |x| = 2 sets t0.
    table = ref.ham_table(2, 1)
    for idx, out in ((0b0000, 0b0000), (0b0011, 0b0011), (0b0100, 0b0110),
                     (0b1000, 0b1010), (0b1100, 0b1101), (0b1111, 0b1110),
                     (0b0110, 0b0100)):
        if table[idx] != out:
            problems.append(f"ham_table(2, 1)[{idx:04b}] = {table[idx]:04b}, want {out:04b}")
    # ham(3, 0): one tally bit, flipped whenever x is nonzero.
    table = ref.ham_table(3, 0)
    want = [i ^ (1 if i >> 1 else 0) for i in range(16)]
    if list(table) != want:
        problems.append("ham_table(3, 0) does not flip the tally for every nonzero x")
    if sorted(ref.ham_table(4, 2)) != list(range(2**7)):
        problems.append("ham_table(4, 2) is not a permutation")
    if ref.certified_inputs(2**4) != 17 or ref.certified_inputs(1) != 1:
        problems.append("certified_inputs miscounts the superposition probe")
    return problems


def _grid_cases() -> List[str]:
    problems = []
    # m=1: k=1 -> six claims, slice j=1.  m=2: k=1,2 -> twelve, slices
    # (k=1, j=1), (k=2, j=1), (k=2, j=2).
    counts = ref.claim_point_counts((1, 2), 2)
    want = {c: 3 for c in ref.CLAIM_IDS}
    want["slice-uniformity"] = 4
    if counts != want:
        problems.append(f"claim_point_counts((1, 2), 2) = {counts}, want {want}")
    # m=11, k<=2: slices need 11*j <= 20, so only (k=1, j=1) and (k=2, j=1).
    counts = ref.claim_point_counts((11,), 2)
    if counts["slice-uniformity"] != 2 or counts["hit-floor"] != 2:
        problems.append("claim_point_counts((11,), 2) ignores the enumeration budget")
    if ref.claim_point_counts((1, 1, 2), 2) != ref.claim_point_counts((1, 2), 2):
        problems.append("claim_point_counts counts a repeated m twice")
    return problems


def _ladder_cases() -> List[str]:
    problems = []
    if ref.ladder_violations([(8, 24, 4, 1477), (16, 24, 4, 1477)], 2, 4):
        problems.append("ladder_violations rejects an equal ladder")
    if not ref.ladder_violations([(8, 24, 4, 1477), (18, 30, 4, 1477)], 2, 4):
        problems.append("ladder_violations accepts a changed layer count")
    if not ref.ladder_violations([(8, 24, 5, 1477)], 2, 4):
        problems.append("ladder_violations accepts fanout 5 above max(k+1, ell) = 4")
    return problems


def run_all() -> List[str]:
    return _dicke_cases() + _ham_cases() + _grid_cases() + _ladder_cases()


if __name__ == "__main__":
    found = run_all()
    for line in found:
        print(line, file=sys.stderr)
    print("selftest:", "FAIL" if found else "ok")
    sys.exit(1 if found else 0)
