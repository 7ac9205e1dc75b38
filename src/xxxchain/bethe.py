"""Plane-wave amplitudes, the scattering matrix, and Bethe wavefunctions.

Amplitudes follow the exchange relation A_{P T_j} = sigma(u_{Pj}, u_{P(j+1)}) A_P
with u = e^{ik}.  The closed product form used here is

    A_P = prod_{j<k} (1 - (1/2s) (u_{Pj}-1)(u_{Pk}-1) / (u_{Pj}-u_{Pk})),

which satisfies the exchange relation together with the coinciding-coordinate
constraint; the recursion itself is kept as a test oracle only.  The sum over
P in a(x) runs over subsets of the momenta instead, as A_P is a pair product.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import hilbert
from .errors import (ChainError, DegenerateRootsError, InputRangeError, PoleError,
                     SingularScatteringError)
from .su2 import Spin

POLE_TOL = 1e-10
U_DEGENERACY_TOL = 1e-9
SIGMA_DENOM_TOL = 1e-13
# the largest x with e^x finite
LOG_MAX = float(np.log(np.finfo(float).max))
# bound on one block's work arrays: a plane-wave block's terms over rows x sets, a Newton block's widest
BLOCK_ENTRIES = 1 << 20


def u_from_lambda(lam, spin: Spin):
    """Moebius map e^{ik} = (lambda + is)/(lambda - is)."""
    lam = np.asarray(lam, dtype=complex)
    if np.min(np.abs(lam - 1j * spin.s)) < POLE_TOL:
        raise PoleError(f"rapidity within {POLE_TOL} of +i*s")
    return (lam + 1j * spin.s) / (lam - 1j * spin.s)


def lambda_from_u(u, spin: Spin):
    u = np.asarray(u, dtype=complex)
    if np.min(np.abs(u - 1.0)) < U_DEGENERACY_TOL:
        raise PoleError("e^{ik} too close to 1 (zero-momentum / descendant direction)")
    return 1j * spin.s * (u + 1.0) / (u - 1.0)


def k_to_lambda(k, spin: Spin):
    return lambda_from_u(np.exp(1j * np.asarray(k, dtype=complex)), spin)


def lambda_to_k(lam, spin: Spin):
    u = u_from_lambda(lam, spin)
    if np.min(np.abs(u)) < POLE_TOL:
        raise PoleError(f"rapidity within {POLE_TOL} of -i*s")
    return -1j * np.log(u)


def _sigma_terms(u, v, spin: Spin) -> tuple:
    """Numerator and denominator of sigma_u(u, v) = -num / den."""
    two_s = spin.two_s
    num = u * v + (two_s - 1) * u - (two_s + 1) * v + 1.0
    den = u * v + (two_s - 1) * v - (two_s + 1) * u + 1.0
    return num, den


def sigma_u(u, v, spin: Spin):
    """Scattering matrix in shift-eigenvalue variables, eqn-level convention."""
    num, den = _sigma_terms(np.asarray(u, dtype=complex), np.asarray(v, dtype=complex), spin)
    if np.min(np.abs(den)) < SIGMA_DENOM_TOL:
        raise SingularScatteringError("scattering denominator vanishes for this pair")
    return -num / den


def sigma_lambda(lam, mu):
    """Rapidity form (lambda - mu - i)/(lambda - mu + i); spin independent."""
    lam = np.asarray(lam, dtype=complex)
    mu = np.asarray(mu, dtype=complex)
    den = lam - mu + 1j
    if np.min(np.abs(den)) < SIGMA_DENOM_TOL:
        raise SingularScatteringError("rapidity difference at -i")
    return (lam - mu - 1j) / den


@lru_cache(maxsize=None)
def subsets_of(m: int) -> tuple:
    """Read-only (members, rest) for t = 1..m: members[i] is the i-th t-subset S
    of range(m), rest[i, j] the index of S less members[i, j] in layer t - 1."""
    layers, index = [], {(): 0}
    for t in range(1, m + 1):
        subsets = list(itertools.combinations(range(m), t))
        rest = [[index[s[:j] + s[j + 1:]] for j in range(t)] for s in subsets]
        layers.append(tuple(np.array(a, dtype=np.intp) for a in (subsets, rest)))
        index = {s: i for i, s in enumerate(subsets)}
    for arr in (arr for layer in layers for arr in layer):
        arr.flags.writeable = False
    return tuple(layers)


def _check_momenta(u: np.ndarray):
    m = len(u)
    if np.min(np.abs(u - 1.0), initial=np.inf) < U_DEGENERACY_TOL:
        raise PoleError("momentum with e^{ik} = 1 (descendant direction)")
    for a in range(m):
        for b in range(a + 1, m):
            if abs(u[a] - u[b]) < U_DEGENERACY_TOL:
                raise DegenerateRootsError(f"coinciding momenta at indices {a}, {b}")


def _pair_factors(u: np.ndarray, spin: Spin) -> np.ndarray:
    """Factor (j, k) of the closed-form amplitude for the ordered pair (u_j, u_k)
    of the last axis of u; A_P is the product of factor[..., P_j, P_k] over j < k."""
    # the diagonal u_j - u_j is exactly 0, so adding the identity sets it to 1
    diff = u[..., :, None] - u[..., None, :] + np.eye(u.shape[-1])
    return 1.0 - (u - 1.0)[..., :, None] * (u - 1.0)[..., None, :] / (spin.two_s * diff)


def energy_k(k, spin: Spin):
    """E = -(1/2s) sum_j (2 - e^{ik_j} - e^{-ik_j}), summed over the last axis."""
    k = np.atleast_1d(np.asarray(k, dtype=complex))
    if k.size == 0:
        return 0.0 + 0.0j
    u = np.exp(1j * k)
    energy = -np.sum(2.0 - u - 1.0 / u, axis=-1) / spin.two_s
    return complex(energy) if energy.ndim == 0 else energy


def energy_lambda(lam, spin: Spin):
    """E = -sum_j 2s/(lambda_j^2 + s^2), summed over the last axis."""
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    if lam.size == 0:
        return 0.0 + 0.0j
    if min(np.min(np.abs(lam - 1j * spin.s)), np.min(np.abs(lam + 1j * spin.s))) < POLE_TOL:
        raise PoleError("rapidity at a pole of the energy")
    energy = -np.sum(spin.two_s / (lam**2 + spin.s**2), axis=-1)
    return complex(energy) if energy.ndim == 0 else energy


@dataclass
class BetheState:
    """Realized Bethe vector on its fixed-m sector.

    `k` is None for states built from exactly singular rapidity sets, where
    individual momenta are not finite.
    """

    spin: Spin
    length: int
    k: Optional[tuple]
    lam: tuple
    basis: hilbert.SectorBasis
    vector: np.ndarray
    energy: complex
    norm: float

    @property
    def m(self) -> int:
        return self.basis.m

    def to_json(self, residual=None):
        out = {
            "two_s": self.spin.two_s,
            "L": self.length,
            "m": self.m,
            "k": None if self.k is None else [[z.real, z.imag] for z in self.k],
            "lambda": [[z.real, z.imag] for z in self.lam],
            "energy": [self.energy.real, self.energy.imag],
            "norm": self.norm,
        }
        if residual is not None:
            out["residual"] = residual
        return out


def _plane_wave_sum(coords: np.ndarray, u: np.ndarray, spin: Spin) -> tuple:
    """a(x) = sum_P A_P prod_t u_{Pt}^{x_t} at every row x, ordered or not, of the
    (n, m) integer `coords` for each momentum set of the (sets, m) `u`, as (sets, n),
    and sum_P |A_P| per set.  P_t = p multiplies A_P by prod_{q in S} factor[q, p]
    over the earlier momenta S in any order, so one partial sum per subset S stands
    for all m! orderings.  Layer t is evaluated once per run of rows that share
    x_1..x_t, on a sorted table once per distinct prefix, for all sets of a block of
    rows x sets whose terms, m 2^(m-1) a row and set, stay within about BLOCK_ENTRIES."""
    n, m = coords.shape
    lo, hi = int(coords.min(initial=0)), int(coords.max(initial=0))
    # upow[b, p, x - lo] = u_p^x for x = lo..hi, as running products from u^lo
    upow = u[:, :, None].repeat(hi - lo + 1, axis=-1)
    upow[..., 0] = u ** lo
    upow = upow.cumprod(axis=-1)
    factor = _pair_factors(u, spin)
    factor[:, range(m), range(m)] = 1.0
    # coef[b, S, j] = prod_{q in S - p} factor[q, p] for p = members[S, j], by factor[p, p] = 1
    layers = [(members, rest, factor[:, members[:, :, None], members[:, None]].prod(axis=-2))
              for members, rest in subsets_of(m)]
    amp_sum = np.ones((len(u), 1))
    for _, rest, coef in layers:
        amp_sum = (amp_sum[:, rest] * abs(coef)).sum(axis=-1)
    rows = max(1, BLOCK_ENTRIES // max(sum(members.size for members, _, _ in layers), 1))
    sets = max(1, rows // max(n, 1))  # a block of all n rows takes as many sets as fit
    vec = np.empty((len(u), n), dtype=complex)
    for start in range(0, n, rows):
        cols = coords[start:start + rows]
        # a row opens a run at layer t where its x_1..x_t differ from the row before
        opens = np.ones((len(cols), m + 1), dtype=bool)
        opens[1:, 0], opens[1:, 1:] = False, cols[1:] != cols[:-1]
        np.logical_or.accumulate(opens, axis=1, out=opens)
        ids = opens.cumsum(axis=0) - 1  # ids[r, t]: the run of layer t that holds row r
        # per layer t, the run of layer t - 1 that holds each run's first row, and its x_t
        runs = [(ids[first, t - 1, None], cols[first, t - 1, None] - lo)
                for t, first in enumerate(map(np.flatnonzero, opens.T[1:]), 1)]
        for b in range(0, len(u), sets):
            # f[set, run, S]: the partial sum of subset S over the run's prefix; one
            # member at a time keeps temporaries a layer wide
            f = np.ones((1, 1, 1), dtype=complex)
            for (members, rest, coef), (parent, x) in zip(layers, runs):
                f = sum(f[:, parent, rest[:, j]] * coef[b:b + sets, None, :, j] *
                        upow[b:b + sets, members[:, j], x] for j in range(members.shape[1]))
            vec[b:b + sets, start:start + rows] = f[:, ids[:, -1], 0]
    return vec, amp_sum[:, 0]


def build_bethe_states(spin: Spin, length: int, lam_rows) -> list:
    """Per row of the n x m rapidities `lam_rows`, what `build_bethe_state(spin, length,
    lam=row)` returns or raises; the rows that pass its checks share one kernel call."""
    return _build_states(spin, length, [(None, lam) for lam in lam_rows])


def build_bethe_state(spin: Spin, length: int, k=None, lam=None) -> BetheState:
    """Assemble Psi_m = sum_{x1<=...<=xm} a(x) |x1,...,xm> on the m sector: the
    one-row call of `build_bethe_states`, which here also takes momenta."""
    if (k is None) == (lam is None):
        raise ValueError("provide exactly one of k or lam")
    state, = _build_states(spin, length, [(k, lam)])
    if isinstance(state, ChainError):
        raise state
    return state


def _build_states(spin: Spin, length: int, sets: list) -> list:
    """build_bethe_states on root sets given as (k, lambda) pairs, one of each None."""
    out = []
    for k, lam in sets:
        try:
            given = np.atleast_1d(np.asarray(k if lam is None else lam, dtype=complex))
            if not np.isfinite(given).all():
                raise InputRangeError(f"{'k' if lam is None else 'lambda'} must be finite, got {given}")
            if lam is not None:
                # past this |lambda|, e^{ik} - 1 = 2is/(lambda - is) is below U_DEGENERACY_TOL
                # and the quotient itself can overflow
                if np.max(np.maximum(abs(given.real), abs(given.imag)), initial=0.0) > \
                        spin.s * (2 / U_DEGENERACY_TOL + 1):
                    raise PoleError("momentum with e^{ik} = 1 (descendant direction)")
                lam = tuple(complex(z) for z in given)
                k = tuple(np.atleast_1d(lambda_to_k(given, spin))) if lam else ()
            else:
                k = tuple(complex(z) for z in given)
            # |e^{+-ik}| and the plane-wave products of powers up to L are at most
            # e^{L sum|Im k|}; the norm and the eigen-residual square them, the latter
            # after a product with E, itself at most ~e^{sum|Im k|}
            growth = 2 * (length + 1) * np.sum(np.abs(np.imag(k)))
            if growth > LOG_MAX:
                raise InputRangeError(f"2(L+1) sum|Im k| = {growth:.4g} exceeds {LOG_MAX:.4g}: e^{{ik}}, "
                                      "its powers up to L and their squares are not representable")
            if lam is None:
                lam = tuple(np.atleast_1d(k_to_lambda(given, spin))) if k else ()
            basis = hilbert.sector_basis(spin, length, len(k))
            u = np.exp(1j * np.asarray(k, dtype=complex))
            _check_momenta(u)
            out.append((k, lam, basis, u))
        except ChainError as exc:
            out.append(exc)
    good = [i for i, row in enumerate(out) if not isinstance(row, ChainError)]
    if not good:
        return out
    basis = out[good[0]][2]
    # coordinates x_1 <= ... <= x_m of every basis state, one row each
    sites = np.tile(np.arange(1, length + 1), len(basis))
    coords = np.repeat(sites, basis.occupations.ravel()).reshape(len(basis), basis.m)
    vec, amp_sum = _plane_wave_sum(coords, np.array([out[i][3] for i in good]), spin)
    # |x_1,...,x_m> carries the normalization sqrt(C(2s, m_j)) per site
    alpha = np.sqrt([math.comb(spin.two_s, j) for j in range(spin.dim)])
    vec *= np.prod(alpha[basis.occupations], axis=1)
    scale = amp_sum * np.sqrt(len(basis))
    for j, i in enumerate(good):
        k, lam = out[i][:2]
        energy = energy_k(k, spin)
        # the norm squares a(x) and the eigen-residual E a(x), so ||a|| max(1, |E|) must
        # stay below sqrt(max float); it is taken on a / max|a| so that it cannot overflow
        top = np.max(abs(vec[j]), initial=0.0)
        size = top * np.linalg.norm(vec[j] / top) * max(1.0, abs(energy)) if top else 0.0
        if not size <= math.exp(LOG_MAX / 2):
            out[i] = InputRangeError(f"||a|| max(1, |E|) = {size:.4g} overflows squared")
        elif (norm := float(np.linalg.norm(vec[j]))) <= 1e-10 * max(scale[j], 1.0):
            out[i] = DegenerateRootsError("Bethe state has vanishing norm for this root set")
        else:
            out[i] = BetheState(spin, length, k, lam, basis, vec[j].copy(), energy, norm)
    return out
