"""Product-basis enumeration, fixed-S^z sectors, and sparse sector blocks.

A sector is labelled by the total lowering number m; its basis states are
occupation tuples (m_1, ..., m_L) with 0 <= m_j <= 2s and sum m_j = m,
listed in lexicographic order.  The orthonormal occupation basis is what
exact diagonalization works in.
"""

from __future__ import annotations

from functools import lru_cache

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
    is strictly ascending.
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


def check_sector(spin: Spin, length: int, m: int):
    """Raise InputRangeError unless m is a sector of the (spin, length) chain
    whose states have 64-bit full-space indices."""
    if not (0 <= m <= spin.two_s * length):
        raise InputRangeError(f"sector m={m} outside 0..{spin.two_s * length}")
    if spin.dim**length > INT64_MAX:
        raise InputRangeError(
            f"full space (2s+1)^L = {spin.dim}^{length} overflows 64-bit state indices")


@lru_cache(maxsize=None)
def sector_basis(spin: Spin, length: int, m: int) -> SectorBasis:
    check_sector(spin, length, m)
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
    """Read-only real sparse block between two sectors: the entry lists
    `data`, `rows` and `indices` it was built from, in build order.  Repeated
    positions add, entry by entry in stored order, in `@` and `toarray()`;
    `nnz` counts distinct positions."""

    def __init__(self, vals, rows, cols, shape: tuple):
        self.shape = shape
        self.data, self.rows, self.indices = vals, rows, cols
        # cached and shared between callers
        for arr in (self.data, self.rows, self.indices):
            arr.flags.writeable = False

    @property
    def nnz(self) -> int:
        return len(np.unique(self.rows * self.shape[1] + self.indices))

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
        np.add.at(out, (self.rows, self.indices), self.data)
        return out


@lru_cache(maxsize=None)
def _column_table(dim: int, width: int, data: bytes) -> tuple:
    """Read-only (radix, moves, values) of the operator on `width` sites of dimension
    `dim` with float64 entries `data`: each site's place value, and the off-diagonal
    entries of each column by ascending row, as digit changes and values, padded."""
    op = np.frombuffer(data).reshape(dim**width, -1)
    radix = dim ** np.arange(width - 1, -1, -1, dtype=np.int64)
    entry_cols, entry_rows = np.nonzero(op.T - np.diag(np.diagonal(op)))
    slots = np.arange(len(entry_cols)) - np.searchsorted(entry_cols, entry_cols)
    moves = np.zeros((len(op), slots.max(initial=0) + 1, width), dtype=np.int64)
    moves[entry_cols, slots] = (entry_rows[:, None] // radix % dim
                                - entry_cols[:, None] // radix % dim)
    values = np.zeros(moves.shape[:2])
    values[entry_cols, slots] = op[entry_rows, entry_cols]
    radix.flags.writeable = moves.flags.writeable = values.flags.writeable = False
    return radix, moves, values


def local_sum_block(spin: Spin, length: int, m: int, op: np.ndarray, sites,
                    step: int) -> SectorBlock:
    """Block of sum_{t in sites} op_t from the m sector to the m + step sector.

    `op` acts on k sites, first-site-major like `su2.apply_bond_matrix`, and
    moves every state it does not annihilate by `step` in total lowering;
    each term t of `sites` is a k-tuple of distinct chain sites.  An
    off-diagonal entry op[r, c] changes the occupation digits of column c
    into those of row r, which shifts a state's full index by
    sum_i (r_i - c_i) * weight(t_i); the diagonal entries are summed over
    the terms, in order, into one diagonal.
    """
    src = sector_basis(spin, length, m)
    dst = sector_basis(spin, length, m + step) if step else src
    terms = np.array(sites, dtype=np.int64)
    radix, moves, values = _column_table(spin.dim, terms.shape[1], op.astype(float).tobytes())
    # the column of op that each (term, state) selects
    columns = np.einsum("tkn,k->tn", src.occupations.T[terms], radix)
    diag = np.diagonal(op)[columns].sum(axis=0)  # adds the terms in order
    # (term, state, slot) full-index shifts, zero at the padding
    shift_table = np.einsum("cwk,tk->tcw", moves, src.weights[terms])
    shifts = shift_table[np.arange(len(terms))[:, None], columns]
    off = shifts != 0
    cols = np.nonzero(off)[1]
    rows = np.searchsorted(dst.full_indices, src.full_indices[cols] + shifts[off])
    on = np.flatnonzero(diag)
    return SectorBlock(np.concatenate((values[columns][off], diag[on])),
                       np.concatenate((rows, on)), np.concatenate((cols, on)),
                       (len(dst), len(src)))


@lru_cache(maxsize=None)
def sector_s_minus(spin: Spin, length: int, m: int) -> SectorBlock:
    """S^- block mapping the m sector to the (m+1) sector."""
    return local_sum_block(spin, length, m, s_minus(spin), [(j,) for j in range(length)], 1)


@lru_cache(maxsize=None)
def sector_s_plus(spin: Spin, length: int, m: int) -> SectorBlock:
    """S^+ block mapping the m sector to the (m-1) sector."""
    return local_sum_block(spin, length, m, s_plus(spin), [(j,) for j in range(length)], -1)
