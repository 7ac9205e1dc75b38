"""Product-basis enumeration, fixed-S^z sectors, and sparse sector blocks.

A sector is labelled by the total lowering number m; its basis states are
occupation tuples (m_1, ..., m_L) with 0 <= m_j <= 2s and sum m_j = m,
listed in lexicographic order.  The orthonormal occupation basis is what
exact diagonalization works in.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .errors import InputRangeError
from .su2 import Spin, s_minus, s_plus

INT64_MAX = np.iinfo(np.int64).max


class SectorBasis:
    """Ordered occupation basis of the total-lowering-m sector.

    `occupations` is the read-only (n, L) array of occupation tuples and
    `full_indices` their first-site-major indices in the full (2s+1)^L space,
    the dot products with `weights` = ((2s+1)^(L-1), ..., 1).  Lexicographic
    order of the tuples is ascending order of those indices, so `full_indices`
    is strictly ascending and lookups are binary searches.
    """

    def __init__(self, spin: Spin, length: int, m: int, occupations: np.ndarray):
        self.spin = spin
        self.length = length
        self.m = m
        self.weights = spin.dim ** np.arange(length - 1, -1, -1, dtype=np.int64)
        self.occupations = occupations
        self.full_indices = occupations @ self.weights
        for arr in (self.weights, self.occupations, self.full_indices):
            arr.flags.writeable = False

    def __len__(self):
        return len(self.full_indices)

    @cached_property
    def states(self) -> tuple:
        return tuple(map(tuple, self.occupations.tolist()))

    def indices_of(self, occ) -> np.ndarray:
        """Basis positions of the rows of an (k, L) occupation array; raises
        KeyError if any row lies outside the sector."""
        occ = np.atleast_2d(np.asarray(occ, dtype=np.int64))
        if occ.shape[1] != self.length:
            raise KeyError(f"occupations of length {occ.shape[1]}, chain has {self.length}")
        idx = occ @ self.weights
        pos = np.minimum(np.searchsorted(self.full_indices, idx), len(self) - 1)
        # out-of-range digits can alias the index of another state
        in_range = np.all((occ >= 0) & (occ <= self.spin.two_s), axis=1)
        found = in_range & (self.full_indices[pos] == idx)
        if not np.all(found):
            raise KeyError(tuple(occ[np.argmin(found)].tolist()))
        return pos

    def index_of(self, occ) -> int:
        return int(self.indices_of(occ)[0])

    def to_json(self):
        return {
            "two_s": self.spin.two_s,
            "L": self.length,
            "m": self.m,
            "dim": len(self),
            "states": [list(occ) for occ in self.states],
        }


def check_sector(spin: Spin, length: int, m: int):
    """Raise InputRangeError unless m is a sector of the (spin, length) chain."""
    if not (0 <= m <= spin.two_s * length):
        raise InputRangeError(f"sector m={m} outside 0..{spin.two_s * length}")


@lru_cache(maxsize=None)
def sector_basis(spin: Spin, length: int, m: int) -> SectorBasis:
    check_sector(spin, length, m)
    if spin.dim**length > INT64_MAX:
        raise InputRangeError(
            f"full space (2s+1)^L = {spin.dim}^{length} overflows 64-bit state indices")
    # grow the lexicographic prefixes site by site, keeping those whose
    # remaining sites can still complete the total m
    digits = np.arange(spin.dim, dtype=np.int64)
    occ = np.zeros((1, 0), dtype=np.int64)
    total = np.zeros(1, dtype=np.int64)
    for rest in range(length - 1, -1, -1):
        grown = total[:, None] + digits
        rows, cols = np.nonzero((grown <= m) & (grown >= m - spin.two_s * rest))
        occ = np.column_stack((occ[rows], cols))
        total = grown[rows, cols]
    return SectorBasis(spin, length, m, occ)


def embed_sector_vector(basis: SectorBasis, vec: np.ndarray) -> np.ndarray:
    """Lift a sector vector to the full (2s+1)^L space."""
    out = np.zeros(basis.spin.dim**basis.length, dtype=complex)
    out[basis.full_indices] = vec
    return out


class SectorBlock:
    """Read-only real sparse block between two sectors, in compressed rows.

    Built from entry lists (vals, rows, cols) and a shape: the entries are
    sorted row-major and repeated positions summed, so `data`, `indices` and
    `indptr` are the canonical CSR arrays, `rows` is the row of each stored
    entry and `nnz` counts distinct positions.  `block @ vec` adds each row's
    terms in stored order to 0, as a CSR product loop does.
    """

    def __init__(self, vals, rows, cols, shape: tuple):
        self.shape = shape
        key = rows * shape[1] + cols
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.ones(len(key), dtype=bool)
        first[1:] = key[1:] != key[:-1]
        self.data = np.bincount(np.cumsum(first) - 1, weights=vals[order])
        self.rows, self.indices = np.divmod(key[first], shape[1])
        self.indptr = np.searchsorted(self.rows, np.arange(shape[0] + 1))
        # cached and shared between callers
        for arr in (self.data, self.rows, self.indices, self.indptr):
            arr.flags.writeable = False

    @property
    def nnz(self) -> int:
        return len(self.data)

    def __matmul__(self, vec) -> np.ndarray:
        vec = np.asarray(vec)
        if vec.shape != self.shape[1:]:
            raise ValueError(f"vector has shape {vec.shape}, block needs ({self.shape[1]},)")
        terms = self.data * vec[self.indices]
        out = np.zeros(self.shape[0], dtype=terms.dtype)
        np.add.at(out, self.rows, terms)
        return out

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.rows, self.indices] = self.data
        return out


@lru_cache(maxsize=None)
def _ladder_block(spin: Spin, length: int, m: int, step: int) -> SectorBlock:
    """S^- (step +1) or S^+ (step -1) block from sector m to sector m + step."""
    src = sector_basis(spin, length, m)
    dst = sector_basis(spin, length, m + step)
    new = src.occupations + step
    cols, sites = np.nonzero((new >= 0) & (new <= spin.two_s))
    local = s_minus(spin) if step == 1 else s_plus(spin)
    vals = local[new[cols, sites], src.occupations[cols, sites]]
    rows = np.searchsorted(dst.full_indices, src.full_indices[cols] + step * src.weights[sites])
    return SectorBlock(vals, rows, cols, (len(dst), len(src)))


def sector_s_minus(spin: Spin, length: int, m: int) -> SectorBlock:
    """S^- block mapping the m sector to the (m+1) sector."""
    return _ladder_block(spin, length, m, 1)


def sector_s_plus(spin: Spin, length: int, m: int) -> SectorBlock:
    """S^+ block mapping the m sector to the (m-1) sector."""
    return _ladder_block(spin, length, m, -1)
