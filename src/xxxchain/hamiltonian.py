"""Beta coefficients, the local two-site Hamiltonian, and the periodic chain.

The local Hamiltonian is

    h = sum_{m1,m2,n} beta^n_{m1,m2} |s-m1-n><s-m1| (x) |s-m2+n><s-m2|

with n restricted to -min(m1, 2s-m2) .. min(m2, 2s-m1).  In lowering-count
indices the bond map is (m1, m2) -> (m1+n, m2-n), so total lowering is
conserved bond by bond and the chain is block diagonal over S^z sectors.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .errors import InputRangeError, ResourceCapError, WindowError
from .su2 import DEFAULT_CAP, DENSE_THRESHOLD, Spin, apply_bond_matrix, s_minus, s_plus
from . import hilbert


def beta_window(spin: Spin, m1: int, m2: int) -> tuple:
    """Admissible n-range (inclusive) for the pair (m1, m2)."""
    return -min(m1, spin.two_s - m2), min(m2, spin.two_s - m1)


def _m1m2(two_s: int, m1: int, m2: int) -> tuple:
    return min(m1, two_s - m2), min(m2, two_s - m1)


def _beta_positive(two_s: int, m1: int, m2: int, n: int) -> float:
    big_m1, big_m2 = _m1m2(two_s, m1, m2)
    num = math.comb(big_m1 + n, big_m1) * math.comb(big_m2, n)
    den = math.comb(two_s - big_m1, n) * math.comb(two_s - big_m2 + n, n)
    return (-1) ** (n - 1) / n * math.sqrt(num / den)


def _beta_zero(two_s: int, m1: int, m2: int) -> float:
    big_m1, big_m2 = _m1m2(two_s, m1, m2)
    total = Fraction(0)
    for ell in range(big_m1):
        total += Fraction(1, two_s - ell)
    for ell in range(big_m2):
        total += Fraction(1, two_s - ell)
    return -float(total) if total else 0.0


def beta(spin: Spin, m1: int, m2: int, n: int) -> float:
    """Coefficient beta^n_{m1,m2}; raises WindowError outside the n-window."""
    if not (0 <= m1 <= spin.two_s and 0 <= m2 <= spin.two_s):
        raise WindowError(f"m1={m1}, m2={m2} outside 0..{spin.two_s}")
    lo, hi = beta_window(spin, m1, m2)
    if not (lo <= n <= hi):
        raise WindowError(f"n={n} outside window [{lo}, {hi}] for (m1={m1}, m2={m2})")
    if n > 0:
        return _beta_positive(spin.two_s, m1, m2, n)
    if n == 0:
        return _beta_zero(spin.two_s, m1, m2)
    return beta(spin, m2, m1, -n)


@lru_cache(maxsize=None)
def build_beta_table(spin: Spin) -> MappingProxyType:
    """Read-only map (m1, m2, n) -> beta^n_{m1,m2} over the full window
    (zeros included), built once per spin."""
    table = {}
    for m1 in range(spin.two_s + 1):
        for m2 in range(spin.two_s + 1):
            lo, hi = beta_window(spin, m1, m2)
            for n in range(lo, hi + 1):
                table[(m1, m2, n)] = beta(spin, m1, m2, n)
    return MappingProxyType(table)


def local_h(spin: Spin) -> np.ndarray:
    """Dense (2s+1)^2 x (2s+1)^2 two-site Hamiltonian, first-site-major."""
    d = spin.dim
    out = np.zeros((d * d, d * d))
    for (m1, m2, n), v in build_beta_table(spin).items():
        out[(m1 + n) * d + (m2 - n), m1 * d + m2] = v
    return out


def check_beta_recursions(spin: Spin) -> float:
    """Max absolute violation of the two su(2)-symmetry recursion relations.

    Entries outside the admissible window count as zero; that matches the
    absence of the corresponding matrix element.  So do ladder elements
    outside the single-site space.
    """
    two_s = spin.two_s
    table = build_beta_table(spin)

    def b(m1, m2, n):
        return table.get((m1, m2, n), 0.0)

    def ladder(local, row, col):
        return local[row][col] if 0 <= min(row, col) and max(row, col) <= two_s else 0.0

    lower, upper = s_minus(spin).tolist(), s_plus(spin).tolist()
    worst = 0.0
    for m1 in range(two_s + 1):
        for m2 in range(two_s + 1):
            for n in range(-two_s - 1, two_s + 2):
                lhs = ladder(lower, m1 + 1, m1) * b(m1 + 1, m2, n)
                rhs = (
                    ladder(lower, m2 - n, m2 - n - 1) * b(m1, m2, n + 1)
                    - ladder(lower, m2 + 1, m2) * b(m1, m2 + 1, n + 1)
                    + ladder(lower, m1 + n + 1, m1 + n) * b(m1, m2, n)
                )
                worst = np.maximum(worst, abs(lhs - rhs))

                lhs = ladder(upper, m1 - 1, m1) * b(m1 - 1, m2, n)
                rhs = (
                    ladder(upper, m2 - n, m2 - n + 1) * b(m1, m2, n - 1)
                    - ladder(upper, m2 - 1, m2) * b(m1, m2 - 1, n - 1)
                    + ladder(upper, m1 + n - 1, m1 + n) * b(m1, m2, n)
                )
                worst = np.maximum(worst, abs(lhs - rhs))
    return worst


class ChainHamiltonian:
    """Periodic chain H = sum_j h_{j,j+1}, applied lazily on the full space
    or blockwise on fixed-lowering sectors."""

    def __init__(self, spin: Spin, length: int, cap: int = DEFAULT_CAP):
        if length < 2:
            raise InputRangeError(f"chain length must be >= 2, got {length}")
        dim = spin.dim**length
        if dim > cap:
            raise ResourceCapError(f"dimension {dim} exceeds cap {cap}")
        self.spin = spin
        self.length = length
        self.dim = dim
        self.local = local_h(spin)
        self._sector_cache = {}

    def bonds(self):
        return [(j, (j + 1) % self.length) for j in range(self.length)]

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """H @ vec on the full (2s+1)^L space; vec may carry a column batch."""
        vec = np.asarray(vec)
        if vec.shape[0] != self.dim:
            raise ValueError(f"vector has dimension {vec.shape[0]}, H needs {self.dim}")
        out = np.zeros(vec.shape, dtype=np.result_type(vec.dtype, float))
        for bond in self.bonds():
            out += apply_bond_matrix(vec, self.local, self.length, bond, self.spin.dim)
        return out

    def dense(self) -> np.ndarray:
        if self.dim > DENSE_THRESHOLD:
            raise ResourceCapError(
                f"dense materialization of dimension {self.dim} exceeds threshold {DENSE_THRESHOLD}"
            )
        return self.apply(np.eye(self.dim))

    def sector_matrix(self, m: int) -> hilbert.SectorBlock:
        """Block of H on the lowering-number-m sector, real and read-only."""
        if m not in self._sector_cache:
            self._sector_cache[m] = hilbert.local_sum_block(
                self.spin, self.length, m, self.local, self.bonds(), 0)
        return self._sector_cache[m]
