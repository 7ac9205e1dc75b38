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

import numpy as np

from .errors import InputRangeError, ResourceCapError, WindowError
from .su2 import DEFAULT_CAP, DENSE_THRESHOLD, Spin, apply_bond_matrix
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


class BetaTable:
    """All window entries beta^n_{m1,m2} for one spin, built once and reused.

    `entries` maps (m1, m2, n) -> value over the full window (zeros included).
    """

    def __init__(self, spin: Spin):
        self.spin = spin
        self.entries = {}
        for m1 in range(spin.two_s + 1):
            for m2 in range(spin.two_s + 1):
                lo, hi = beta_window(spin, m1, m2)
                for n in range(lo, hi + 1):
                    self.entries[(m1, m2, n)] = beta(spin, m1, m2, n)

    def __len__(self):
        return len(self.entries)

    def sorted_items(self):
        return sorted(self.entries.items())

    def to_json(self):
        return {
            "two_s": self.spin.two_s,
            "entries": [
                {"m1": m1, "m2": m2, "n": n, "value": v}
                for (m1, m2, n), v in self.sorted_items()
            ],
        }


@lru_cache(maxsize=None)
def build_beta_table(spin: Spin) -> BetaTable:
    return BetaTable(spin)


def local_h(spin: Spin) -> np.ndarray:
    """Dense (2s+1)^2 x (2s+1)^2 two-site Hamiltonian, first-site-major."""
    d = spin.dim
    out = np.zeros((d * d, d * d))
    for (m1, m2, n), v in build_beta_table(spin).entries.items():
        out[(m1 + n) * d + (m2 - n), m1 * d + m2] = v
    return out


def _ladder_weight(x: int) -> float:
    # a non-positive radicand means the transition does not exist
    return math.sqrt(x) if x > 0 else 0.0


def check_beta_recursions(spin: Spin) -> float:
    """Max absolute violation of the two su(2)-symmetry recursion relations.

    Entries outside the admissible window count as zero; that matches the
    absence of the corresponding matrix element.
    """
    two_s = spin.two_s
    table = build_beta_table(spin).entries

    def b(m1, m2, n):
        return table.get((m1, m2, n), 0.0)

    worst = 0.0
    for m1 in range(two_s + 1):
        for m2 in range(two_s + 1):
            for n in range(-two_s - 1, two_s + 2):
                lhs = _ladder_weight((m1 + 1) * (two_s - m1)) * b(m1 + 1, m2, n)
                rhs = (
                    _ladder_weight((two_s + n - m2 + 1) * (m2 - n)) * b(m1, m2, n + 1)
                    - _ladder_weight((m2 + 1) * (two_s - m2)) * b(m1, m2 + 1, n + 1)
                    + _ladder_weight((two_s - n - m1) * (n + m1 + 1)) * b(m1, m2, n)
                )
                worst = np.maximum(worst, abs(lhs - rhs))

                lhs = _ladder_weight(m1 * (two_s - m1 + 1)) * b(m1 - 1, m2, n)
                rhs = (
                    _ladder_weight((two_s + n - m2) * (m2 - n + 1)) * b(m1, m2, n - 1)
                    - _ladder_weight(m2 * (two_s - m2 + 1)) * b(m1, m2 - 1, n - 1)
                    + _ladder_weight((two_s - n - m1 + 1) * (n + m1)) * b(m1, m2, n)
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
        # the nonzero entries of each column a*d + b of local_h, as hops n
        # (a, b) -> (a + n, b - n) in ascending n, padded with zero values
        # at n = 0 to a common width
        pairs, targets = np.nonzero(self.local.T)
        slots = np.arange(len(pairs)) - np.searchsorted(pairs, pairs)
        d = spin.dim
        self._hop_shifts = np.zeros((d * d, slots.max() + 1), dtype=np.int64)
        self._hop_values = np.zeros(self._hop_shifts.shape)
        self._hop_shifts[pairs, slots] = targets // d - pairs // d
        self._hop_values[pairs, slots] = self.local[targets, pairs]
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
        if m in self._sector_cache:
            return self._sector_cache[m]
        basis = hilbert.sector_basis(self.spin, self.length, m)
        occ, full = basis.occupations, basis.full_indices
        diag = np.zeros(len(basis))
        rows, cols, vals = [], [], []
        for j, k in self.bonds():
            # hop n moves the occupations (a, b) at (j, k) to (a + n, b - n);
            # n = 0 and the zero-valued padding stay on the diagonal
            pair = occ[:, j] * self.spin.dim + occ[:, k]
            shifts, values = self._hop_shifts[pair], self._hop_values[pair]
            diag += np.where(shifts == 0, values, 0.0).sum(axis=1)
            col, slot = np.nonzero(shifts)
            target = full[col] + shifts[col, slot] * (basis.weights[j] - basis.weights[k])
            rows.append(np.searchsorted(full, target))
            cols.append(col)
            vals.append(values[col, slot])
        on = np.flatnonzero(diag)
        mat = hilbert.SectorBlock(np.concatenate(vals + [diag[on]]),
                                  np.concatenate(rows + [on]), np.concatenate(cols + [on]),
                                  (len(basis), len(basis)))
        self._sector_cache[m] = mat
        return mat
