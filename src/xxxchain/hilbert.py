"""Product-basis enumeration, fixed-S^z sectors, and coordinate states.

A sector is labelled by the total lowering number m; its basis states are
occupation tuples (m_1, ..., m_L) with 0 <= m_j <= 2s and sum m_j = m,
listed in lexicographic order.  The orthonormal occupation basis is what
exact diagonalization works in; coordinate states |x_1,...,x_m> carry the
extra alpha-normalization sqrt(C(2s, m_j)) per site.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .errors import InputRangeError
from .su2 import Spin


class SectorBasis:
    """Ordered occupation basis of the total-lowering-m sector."""

    def __init__(self, spin: Spin, length: int, m: int, states: tuple):
        self.spin = spin
        self.length = length
        self.m = m
        self.states = states
        base = spin.dim
        self._index = {self._key(occ, base): i for i, occ in enumerate(states)}

    @staticmethod
    def _key(occ, base):
        # little-endian digits in base 2s+1: O(1) lookup during H application
        key = 0
        for j, digit in enumerate(occ):
            key += digit * base**j
        return key

    def __len__(self):
        return len(self.states)

    def index_of(self, occ) -> int:
        return self._index[self._key(occ, self.spin.dim)]

    def to_json(self):
        return {
            "two_s": self.spin.two_s,
            "L": self.length,
            "m": self.m,
            "dim": len(self),
            "states": [list(occ) for occ in self.states],
        }


def _compositions(length: int, total: int, maxdigit: int):
    if length == 0:
        if total == 0:
            yield ()
        return
    for first in range(max(0, total - (length - 1) * maxdigit), min(maxdigit, total) + 1):
        for rest in _compositions(length - 1, total - first, maxdigit):
            yield (first,) + rest


@lru_cache(maxsize=None)
def sector_basis(spin: Spin, length: int, m: int) -> SectorBasis:
    if not (0 <= m <= spin.two_s * length):
        raise InputRangeError(f"sector m={m} outside 0..{spin.two_s * length}")
    states = tuple(_compositions(length, m, spin.two_s))
    return SectorBasis(spin, length, m, states)


def sector_dimension(spin: Spin, length: int, m: int) -> int:
    return len(sector_basis(spin, length, m))


def full_index(occ, dim: int) -> int:
    """First-site-major index of an occupation tuple in the full space."""
    idx = 0
    for digit in occ:
        idx = idx * dim + digit
    return idx


def embed_sector_vector(basis: SectorBasis, vec: np.ndarray) -> np.ndarray:
    """Lift a sector vector to the full (2s+1)^L space."""
    out = np.zeros(basis.spin.dim**basis.length, dtype=complex)
    for i, occ in enumerate(basis.states):
        out[full_index(occ, basis.spin.dim)] = vec[i]
    return out


def occupation_of(x, length: int) -> tuple:
    occ = [0] * length
    for site in x:
        occ[site - 1] += 1
    return tuple(occ)


def coordinates_of(occ) -> tuple:
    return tuple(site + 1 for site, mj in enumerate(occ) for _ in range(mj))


def coords_to_vector(spin: Spin, length: int, x) -> np.ndarray:
    """Occupation-basis vector of |x_1,...,x_m>, including its normalization.

    The amplitude is prod_j sqrt(C(2s, m_j)); a multiplicity above 2s makes
    it vanish, so the zero vector is returned rather than an error.
    """
    x = tuple(x)
    if any(a > b for a, b in zip(x, x[1:])):
        raise ValueError(f"coordinates must be non-decreasing, got {x}")
    if x and not (1 <= x[0] and x[-1] <= length):
        raise ValueError(f"coordinates must lie in 1..{length}, got {x}")
    basis = sector_basis(spin, length, len(x))
    out = np.zeros(len(basis), dtype=complex)
    occ = occupation_of(x, length)
    if max(occ, default=0) > spin.two_s:
        return out
    amp = 1.0
    for mj in occ:
        amp *= math.sqrt(math.comb(spin.two_s, mj))
    out[basis.index_of(occ)] = amp
    return out


def sector_s_minus(spin: Spin, length: int, m: int) -> sp.csr_matrix:
    """S^- block mapping the m sector to the (m+1) sector."""
    src = sector_basis(spin, length, m)
    dst = sector_basis(spin, length, m + 1)
    rows, cols, vals = [], [], []
    for col, occ in enumerate(src.states):
        for j, mj in enumerate(occ):
            if mj < spin.two_s:
                new = list(occ)
                new[j] += 1
                rows.append(dst.index_of(tuple(new)))
                cols.append(col)
                vals.append(math.sqrt((spin.two_s - mj) * (mj + 1)))
    return sp.csr_matrix((vals, (rows, cols)), shape=(len(dst), len(src)))


def sector_s_plus(spin: Spin, length: int, m: int) -> sp.csr_matrix:
    """S^+ block mapping the m sector to the (m-1) sector."""
    src = sector_basis(spin, length, m)
    dst = sector_basis(spin, length, m - 1)
    rows, cols, vals = [], [], []
    for col, occ in enumerate(src.states):
        for j, mj in enumerate(occ):
            if mj >= 1:
                new = list(occ)
                new[j] -= 1
                rows.append(dst.index_of(tuple(new)))
                cols.append(col)
                vals.append(math.sqrt(mj * (spin.two_s - mj + 1)))
    return sp.csr_matrix((vals, (rows, cols)), shape=(len(dst), len(src)))


def apply_chain_h_in_sector(hamiltonian, basis: SectorBasis, vec: np.ndarray) -> np.ndarray:
    """Apply the chain Hamiltonian inside one fixed-m sector."""
    if hamiltonian.spin != basis.spin or hamiltonian.length != basis.length:
        raise ValueError("Hamiltonian and basis describe different chains")
    vec = np.asarray(vec)
    if vec.shape[0] != len(basis):
        raise ValueError(f"vector has dimension {vec.shape[0]}, sector has {len(basis)}")
    return hamiltonian.sector_matrix(basis.m) @ vec
