"""Local spin-s operators and global su(2) generators on the periodic chain.

Single-site basis order is descending weight |s>, |s-1>, ..., |-s>, so the
basis index equals the lowering count m = s - n.  All chain-level routines
index the full product space first-site-major: site 1 is the most
significant digit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputRangeError, ResourceCapError

DEFAULT_CAP = 1 << 20
DENSE_THRESHOLD = 4096


@dataclass(frozen=True)
class Spin:
    """Spin label stored as two_s = 2s so half-integers stay exact."""

    two_s: int

    def __post_init__(self):
        if not isinstance(self.two_s, int) or self.two_s < 1:
            raise ValueError(f"two_s must be a positive integer, got {self.two_s!r}")

    @property
    def dim(self) -> int:
        return self.two_s + 1

    @property
    def s(self) -> float:
        return self.two_s / 2.0

    @classmethod
    def parse(cls, text: str) -> "Spin":
        """Parse an exact rational spin in halves, e.g. '1/2', '1', '3/2'."""
        frac = Fraction(text.strip())
        two_s = 2 * frac
        if two_s.denominator != 1:
            raise ValueError(f"spin must be an integer or half-integer, got {text!r}")
        return cls(int(two_s))

    def __str__(self):
        return str(self.two_s // 2) if self.two_s % 2 == 0 else f"{self.two_s}/2"


def s_minus(spin: Spin) -> np.ndarray:
    """Lowering operator: sqrt((s+n)(s-n+1)) |n-1><n|."""
    d = spin.dim
    out = np.zeros((d, d))
    for m in range(d - 1):  # source lowering count
        out[m + 1, m] = math.sqrt((spin.two_s - m) * (m + 1))
    return out


def s_plus(spin: Spin) -> np.ndarray:
    """Raising operator: sqrt((s-n)(s+n+1)) |n+1><n|."""
    return s_minus(spin).T.copy()


def s_z(spin: Spin) -> np.ndarray:
    """Weight operator diag(s, s-1, ..., -s)."""
    return np.diag([(spin.two_s - 2 * m) / 2.0 for m in range(spin.dim)])


def g_matrix(spin: Spin) -> np.ndarray:
    """Diagonal conjugator diag((2s)!/(s-n)!); invertible for 2s <= 20."""
    fact = math.factorial(spin.two_s)
    return np.diag([fact / math.factorial(m) for m in range(spin.dim)]).astype(float)


def e_minus(spin: Spin) -> np.ndarray:
    """Pseudo-excitation operator sqrt((s+n)/(s-n+1)) |n-1><n| = g s- g^-1."""
    d = spin.dim
    out = np.zeros((d, d))
    for m in range(d - 1):
        out[m + 1, m] = math.sqrt((spin.two_s - m) / (m + 1))
    return out


def apply_site_matrix(vec: np.ndarray, op: np.ndarray, length: int, site: int, dim: int,
                      out: np.ndarray = None) -> np.ndarray:
    """Add a single-site operator applied to a full-space vector (or column
    batch) into `out`, a new zero array if None, and return `out`.

    `vec` has shape (dim**length,) or (dim**length, batch).  Each nonzero
    entry op[a, b] is one strided update of the a-slice of `site` from the
    b-slice, so no full-size reordered copy is made.
    """
    if vec.shape[0] != dim**length:
        raise ValueError(f"vector has dimension {vec.shape[0]}, chain needs {dim**length}")
    if out is None:
        out = np.zeros(vec.shape, dtype=np.result_type(vec.dtype, op.dtype, float))
    elif out.shape != vec.shape or not out.flags.c_contiguous:
        raise ValueError(f"out must be C-contiguous with the vector's shape {vec.shape}")
    src = vec.reshape(dim**site, dim, -1)
    dst = out.reshape(dim**site, dim, -1)
    for a, b in zip(*np.nonzero(op)):
        dst[:, a] += op[a, b] * src[:, b]
    return out


def apply_bond_matrix(vec: np.ndarray, op: np.ndarray, length: int, bond: tuple, dim: int) -> np.ndarray:
    """Apply a two-site operator at `bond` = (j, k) with j the first tensor slot."""
    j, k = bond
    batch = vec.shape[1:] if vec.ndim > 1 else ()
    t = vec.reshape((dim,) * length + batch)
    t = np.moveaxis(t, (j, k), (0, 1))
    shape = t.shape
    out = (op @ t.reshape(dim * dim, -1)).reshape(shape)
    out = np.moveaxis(out, (0, 1), (j, k))
    return out.reshape(vec.shape)


def check_length(length: int):
    """Raise InputRangeError unless the chain has at least two sites."""
    if length < 2:
        raise InputRangeError(f"chain length must be >= 2, got {length}")


@dataclass(frozen=True)
class SiteSumOperator:
    """Sum of the same single-site operator over all sites, applied lazily."""

    spin: Spin
    length: int
    local: np.ndarray

    @property
    def dim(self) -> int:
        return self.spin.dim ** self.length

    def apply(self, vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec)
        if vec.shape[0] != self.dim:
            raise ValueError(f"vector has dimension {vec.shape[0]}, operator needs {self.dim}")
        out = np.zeros(vec.shape, dtype=np.result_type(vec.dtype, self.local.dtype, float))
        for site in range(self.length):
            apply_site_matrix(vec, self.local, self.length, site, self.spin.dim, out)
        return out


def global_generator(spin: Spin, length: int, alpha: str) -> SiteSumOperator:
    """Global su(2) generator S^alpha = sum_j s^alpha_j, alpha in {'z', '+', '-'}."""
    check_length(length)
    if spin.dim**length > DEFAULT_CAP:
        raise ResourceCapError(f"dimension {spin.dim**length} exceeds cap {DEFAULT_CAP}")
    local = {"z": s_z, "+": s_plus, "-": s_minus}
    if alpha not in local:
        raise ValueError(f"alpha must be one of 'z', '+', '-', got {alpha!r}")
    return SiteSumOperator(spin, length, local[alpha](spin))
