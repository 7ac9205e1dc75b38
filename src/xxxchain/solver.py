"""Numerical solution of the Bethe equations in rapidity variables.

The residual is the polynomial-cleared form

    F_j = (l_j + is)^L prod_{l != j} (l_j - l_l - i)
        - (l_j - is)^L prod_{l != j} (l_j - l_l + i),

whose roots away from the poles +-is coincide with the k-form quantization
conditions carrying the exponent L.  Root sets approaching +-is are treated
separately: around an exact string the cleared system vanishes to high order
along a whole curve, so Newton iterates landing there are never accepted at
face value.  A sector with m >= 2s + 1 instead takes the exact string
{is, i(s-1), ..., -is} with n = m - 2s - 1 further roots, which solve the
reduced equations: (l_j +- is)^L becomes (l_j +- is)^(L-1) (l_j -+ i(s+1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import accumulate, combinations, product
from typing import ClassVar, Optional

import numpy as np
import numpy.random  # noqa: F401  (NumPy imports it lazily, on first use)

from . import bethe, hilbert, su2
from .bethe import BetheState, build_bethe_states
from .errors import ChainError, InputRangeError, NewtonFailureError
from .hamiltonian import ChainHamiltonian
from .su2 import Spin
from .verify import eigen_residual, highest_weight_residual

DESCENDANT_CUTOFF = 1e8
DEGENERACY_TOL = 1e-6
SINGULAR_PROXIMITY_TOL = 1e-2
DEFLATION_TOL = 1e-6
MAX_ITER = 80
# seeding strategies, in the order solve_sector runs them by default
STRATEGIES = ("free-momenta", "strings", "random")
# the random strategy draws n_random seeds at each multiple of random_scale
RANDOM_SCALE_SWEEP = (0.5, 1.0, 2.5)
# a string state's shifted solve grows its level E by 1/STRING_SHIFT; a singular value
# above STRING_SHIFT^(-1/2) counts as a direction at E
STRING_SHIFT = 1e-9


@dataclass(frozen=True)
class BetheSystem:
    """The Bethe equations of m roots on a chain of `length` sites; with `string`,
    the reduced equations of m roots beside the exact string {is, i(s-1), ..., -is}."""

    spin: Spin
    length: int
    m: int
    string: bool = False


@dataclass
class SolverOptions:
    tol_newton: float = 1e-10
    tol_eigen: float = 1e-8
    tol_hw: float = 1e-8
    seed: int = 0
    strategies: tuple = STRATEGIES
    # how near two energies match: a level to ED, a string state to a certificate
    tol_match: ClassVar[float] = 1e-7
    n_random: ClassVar[int] = 64
    random_scale: ClassVar[float] = 1.5

    def __post_init__(self):
        if not 0.0 < self.tol_newton < math.inf:
            raise InputRangeError(f"tol_newton must be finite and positive, got {self.tol_newton!r}")
        # an infinite tol_eigen or tol_hw switches that filter off
        for name in ("tol_eigen", "tol_hw"):
            value = getattr(self, name)
            if not value > 0.0:
                raise InputRangeError(f"{name} must be positive, got {value!r}")
        # None would draw the random seeds from OS entropy, so runs would not repeat
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise InputRangeError(f"seed must be a non-negative integer, got {self.seed!r}")
        for strategy in self.strategies:
            if strategy not in STRATEGIES:
                raise InputRangeError(
                    f"unknown seeding strategy {strategy!r}, expected one of {STRATEGIES}")


@dataclass
class RootCertificate:
    """A root set with its three residual certificates."""

    lam: tuple
    bethe_residual: float
    eigen_residual: float
    hw_residual: float
    energy: complex
    iterations: int
    singular: bool = False
    state: Optional[BetheState] = field(default=None, repr=False)

    def certified(self, opts: SolverOptions) -> bool:
        return (
            self.bethe_residual <= opts.tol_newton
            and self.eigen_residual <= opts.tol_eigen
            and self.hw_residual <= opts.tol_hw
        )

    def to_json(self):
        return {
            "lambda": [[z.real, z.imag] for z in self.lam],
            "bethe_residual": self.bethe_residual,
            "eigen_residual": self.eigen_residual,
            "hw_residual": self.hw_residual,
            "energy": [self.energy.real, self.energy.imag],
            "iterations": self.iterations,
            "singular": self.singular,
        }


# the sign axis of the factor arrays: entry 0 carries lambda + is and the factors
# lambda_j - lambda_l - i, entry 1 carries lambda - is and lambda_j - lambda_l + i
_SHIFTS = np.array([[1j], [-1j]])
# step damping of the Newton line search: all levels are evaluated at once,
# and a row takes the first that lowers its residual
_DAMPING = (1.0, 0.5, 0.25, 0.125, 1 / 16, 1 / 32, 1 / 64, 1 / 128)


@lru_cache(maxsize=None)
def _pair_columns(m: int) -> np.ndarray:
    """Entry [c, j]: the c-th index l != j in ascending order (c < m - 1, j < m)."""
    c, j = np.indices((m - 1, m))
    cols = c + (c >= j)
    cols.flags.writeable = False
    return cols


def _row(lam) -> np.ndarray:
    """One root set as a 1 x m complex array."""
    return np.atleast_1d(np.asarray(lam, dtype=complex)).reshape(1, -1)


def _factors(lam: np.ndarray, system: BetheSystem):
    """For root sets as the rows of an n x m array, held on the last axis:
    (lambda_j +- is) as a 2 x m x n array; with `system.string` the factors
    lambda_j -+ i(s+1) likewise, else None; and the pair factors
    lambda_j - lambda_l -+ i as an (m-1) x 2 x m x n array whose entry c
    holds the c-th l != j in ascending order.  A product over l multiplies
    whole entries elementwise, left to right, so a row's bits depend neither
    on the batch size nor on its place in the batch."""
    s = system.spin.s
    lam = np.ascontiguousarray(lam.T)
    diff = lam - lam[_pair_columns(len(lam))]
    string = lam - (s + 1) * _SHIFTS[..., None] if system.string else None
    return lam + s * _SHIFTS[..., None], string, (diff - _SHIFTS[..., None, None]).swapaxes(0, 1)


def _power(z: np.ndarray, n: int) -> np.ndarray:
    """z**n (n >= 1) by binary powering of whole arrays: square the base, and
    multiply it into the result at each set bit of n.  With FMA rounding it is
    within 2n ulp of `z**n`, and may stay finite at `z**n`'s overflow edge.
    For n = 1 it is z itself, so callers never write into it."""
    out = z if n & 1 else None
    while n := n >> 1:
        z = np.multiply(z, z)
        if n & 1:
            out = z if out is None else np.multiply(out, z)
    return out


# far out, (lambda +- is)^L overflows and its products meet inf - inf or 0 * inf,
# so the scaled residual reads NaN; Newton and the one-row helpers share this errstate
@np.errstate(over="ignore", invalid="ignore")
def _residuals(lam: np.ndarray, system: BetheSystem):
    """F(lambda) of each row of lam and its scaled maximum, from one pass over
    the terms t1, t2 of F = t1 - t2, each `_power(lambda_j +- is, L)` times the
    pair product; with `system.string`, `_power(lambda_j +- is, L-1)` times
    lambda_j -+ i(s+1) instead.  Products keep a fixed operand order,
    `np.multiply(a, b)` and never `a * tmp`, so a row's bits do not depend on the batch."""
    poles, string, pairs = _factors(lam, system)
    if string is None:
        terms = _power(poles, system.length)
    else:
        terms = np.multiply(_power(poles, system.length - 1), string)
    if len(pairs):
        terms = np.multiply(terms, reduce(np.multiply, pairs))
    f = terms[0] - terms[1]
    size = np.abs(terms)
    scale = size[0] + size[1]
    out = np.zeros(f.shape)
    np.divide(np.abs(f), scale, out=out, where=scale != 0.0)
    # 0/0 reads 0; an overflowed scale hides the size of F, so it reads NaN
    out[scale == np.inf] = np.nan
    return f.T, out.max(axis=0)


@np.errstate(over="ignore", invalid="ignore")
def _jacobians(lam: np.ndarray, system: BetheSystem) -> np.ndarray:
    """Analytic Jacobians dF_j/dlambda_r of the rows of lam, n x m x m, as a
    transposed view; powers come from `_power` and products as in `_residuals`."""
    n, m = lam.shape
    length = system.length
    poles, string, pairs = _factors(lam, system)
    # head = the factor of t1, t2 that depends on lambda_j alone, d_head its derivative
    if string is None:
        lower = _power(poles, length - 1)
        head, d_head = np.multiply(lower, poles), length * lower
    else:
        lower = _power(poles, length - 2) if length > 2 else np.ones_like(poles)
        top = np.multiply(lower, poles)
        head, d_head = np.multiply(top, string), np.multiply((length - 1) * lower, string) + top
    if m == 1:
        return (d_head[0] - d_head[1]).reshape(n, 1, 1)
    # partial[c] = head times the entries before c, then those after c
    prefix = list(accumulate(pairs, np.multiply))
    suffix = list(accumulate(pairs[:0:-1], np.multiply))[::-1]
    partial = np.empty_like(pairs)
    partial[0] = head
    for c in range(1, m - 1):
        np.multiply(partial[0], prefix[c - 1], out=partial[c])
    for c in range(m - 2):
        partial[c] *= suffix[c]
    # d(lambda_j - lambda_r -+ i)/dlambda_r = -1 for the factor l = r
    off = partial[:, 1] - partial[:, 0]
    full = prefix[-1]
    out = np.empty((m, m, n), dtype=complex)
    out[np.arange(m), _pair_columns(m)] = off
    out.reshape(m * m, n)[::m + 1] = d_head[0] * full[0] - d_head[1] * full[1] - off.sum(axis=0)
    return out.transpose(2, 0, 1)


def bethe_residual(lam, system: BetheSystem) -> np.ndarray:
    """Polynomial-cleared residual vector F(lambda)."""
    return _residuals(_row(lam), system)[0][0]


def scaled_residual(lam, system: BetheSystem) -> float:
    """max_j |F_j| / (|t1_j| + |t2_j|); the 0/0 of an exactly-cancelling pair counts as 0,
    a NaN term or an overflowing |t1_j| + |t2_j| as NaN.  Relative scaling keeps the
    spurious near-zero sheet around the poles from masquerading as converged."""
    return float(_residuals(_row(lam), system)[1][0])


def jacobian(lam, system: BetheSystem) -> np.ndarray:
    """Analytic Jacobian dF_j/dlambda_r; products differentiate termwise.

    The product of all pair factors but one comes from prefix and suffix
    products, never by division, so an exactly vanishing factor (two roots
    at distance i, as in an exact string) is handled like any other."""
    return _jacobians(_row(lam), system)[0]


def _reject_reasons(lam: np.ndarray, s: float) -> np.ndarray:
    """Reject reason (or None) of each converged root set, the rows of an
    n x m array: the first that applies in the order descendant, degenerate,
    singular.  A converged row is finite: Newton starts only from finite
    seeds and moves only to points whose scaled residual is finite, which it
    is not where a root is infinite or NaN."""
    # the cleared system has a spurious near-zero sheet near +-is; only exact
    # strings are meaningful there, and they are solved apart
    near_pole = np.minimum(np.abs(lam - 1j * s), np.abs(lam + 1j * s)).min(axis=1)
    degenerate = np.abs(lam[:, None] - lam[:, _pair_columns(lam.shape[1])]) < DEGENERACY_TOL
    # each reason overwrites those after it in the order of precedence
    out = np.full(len(lam), None, dtype=object)
    out[near_pole < SINGULAR_PROXIMITY_TOL] = "singular"
    out[degenerate.any(axis=(1, 2))] = "degenerate"
    out[np.abs(lam).max(axis=1) > DESCENDANT_CUTOFF] = "descendant"
    return out


def newton_solve(system: BetheSystem, seed, tol: float = 1e-10, max_iter: int = MAX_ITER):
    """Newton iteration with step damping; returns (roots, iterations).

    The one-row call of `newton_batch`; raises the row's NewtonFailureError."""
    roots, iterations, reasons, best = newton_batch(system, _row(seed), tol, max_iter)
    if reasons[0] is not None:
        raise _newton_failure(reasons[0], iterations[0], best[0])
    return roots[0], int(iterations[0])


def _newton_failure(reason: str, iterations: int, best: float) -> NewtonFailureError:
    """The error of a `newton_batch` row that failed with `reason` after
    `iterations` iterations, its best scaled residual being `best`."""
    if reason in ("stalled", "max-iter"):
        return NewtonFailureError(reason, f"residual {best:.3e} after {iterations} iterations")
    if reason == "nonfinite":
        return NewtonFailureError(reason, "iterate left the finite domain")
    return NewtonFailureError(reason)


def newton_batch(system: BetheSystem, seeds, tol: float = 1e-10, max_iter: int = MAX_ITER,
                 settle=None):
    """Damped Newton from every row of an n x m seed array, in lockstep.

    Returns (roots, iterations, reasons, best): the last iterates as an n x m
    array, each row's iteration count (for a failed row, the iteration it
    failed in), per row None (converged) or the reason it failed as an object
    array ("nonfinite" or "descendant" for a seed with an entry nonfinite or
    beyond DESCENDANT_CUTOFF, at iteration 0, then "singular-jacobian",
    "stalled" or "max-iter", or "stopped" for a row a stop left unfinished), and
    each row's best scaled residual (NaN for such a seed, for a stopped row and
    where the seed's residual or its scale is not finite).  A row reaches the
    points it would reach alone (one line-search pass evaluates every damping
    level at once).  Rows run in blocks whose largest work array stays within
    bethe.BLOCK_ENTRIES: the Jacobian's (2 m^2 entries a row) or the line
    search's pair factors (2 m (m-1) per damping level, 16 m (m-1) a row).
    `settle`, if given, takes the roots, iterations and best residuals of the
    rows that converged in an iteration, in catalog order, block by block.  Once
    it returns True, newton_batch returns: the rows that had not ended read
    "stopped", with their seeds as roots and max_iter as iteration count.  A
    caller that never stops it gets the same bits as without it."""
    lam = np.array(seeds, dtype=complex)
    if lam.ndim != 2 or lam.shape[1] != system.m:
        raise ValueError(f"seeds have shape {lam.shape}, system needs rows of {system.m}")
    n, m = lam.shape
    # written for a row when it ends; a row that never ends keeps max_iter
    iterations = np.full(n, max_iter)
    reasons = np.full(n, "stopped", dtype=object)
    best = np.full(n, np.nan)
    rows = max(1, bethe.BLOCK_ENTRIES // max(2 * m**2, 2 * len(_DAMPING) * m * (m - 1)))
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        if _lockstep(system, lam[block], iterations[block], reasons[block], best[block],
                     tol, max_iter, settle):
            break
    return lam, iterations, reasons, best


def _lockstep(system: BetheSystem, lam, iterations, reasons, best, tol: float, max_iter: int,
              settle=None) -> bool:
    """newton_batch on one block, writing each row of lam, iterations, reasons
    and best once, when the row ends, and handing the rows that converged in
    an iteration to `settle`; True if `settle` stopped it.  The unfinished rows
    are a compact working set (ids, iterates, residual vectors, best residuals),
    rebuilt each iteration by one gather from the accepted candidates.  The line search
    evaluates every damping level of every row in one pass; a row takes the
    first level that lowers its residual, and a converged row polishes: it
    takes the full step unless that raises its residual, and ends."""
    # only a seed can be nonfinite: a nonfinite candidate's residual reads NaN
    finite = np.isfinite(lam).all(axis=1)
    far = finite & (np.abs(lam) > DESCENDANT_CUTOFF).any(axis=1)
    iterations[~finite], reasons[~finite] = 0, "nonfinite"
    iterations[far], reasons[far] = 0, "descendant"
    ids = np.flatnonzero(finite & ~far)
    # each accepted point's residual vector comes from the same product pass
    # as its scaled residual and feeds the next Newton step
    x = lam[ids]
    f, r_best = _residuals(x, system)
    damps = np.array(_DAMPING)[:, None, None]
    for it in range(max_iter):
        if not ids.size:
            break
        step = _newton_steps(_jacobians(x, system), f)
        done = r_best <= tol
        # the candidates level by level, each level over all rows
        with np.errstate(over="ignore", invalid="ignore"):  # a nonfinite step reads NaN
            cand = (x + damps * step).reshape(-1, x.shape[1])
        f_cand, r = _residuals(cand, system)
        r = r.reshape(len(_DAMPING), -1)
        accept = r < r_best
        if done.any():  # a converged row takes only level 1.0, and where r <= best
            accept[0] |= done & (r[0] == r_best)
            accept[1:, done] = False
        hit, r = accept.any(axis=0), r.ravel()
        pick = accept.argmax(axis=0) * len(ids) + np.arange(len(ids))
        # rows end converged, on a singular Jacobian, or stalled (no level improved)
        end = done | ~hit
        if end.any():
            rows, last = ids[end], pick[end]
            lam[rows] = np.where(hit[end, None], cand[last], x[end])
            best[rows], iterations[rows] = np.where(hit[end], r[last], r_best[end]), it
            reasons[rows] = np.where(done[end], None, np.where(
                np.isfinite(step[end]).all(axis=1), "stalled", "singular-jacobian"))
            ids, pick = ids[~end], pick[~end]
            conv = rows[done[end]]
            if settle and conv.size and settle(lam[conv], iterations[conv], best[conv]):
                return True
        x, f, r_best = cand[pick], f_cand[pick], r[pick]
    lam[ids], best[ids] = x, r_best
    reasons[ids] = np.where(r_best <= tol, None, "max-iter")
    conv = ids[r_best <= tol]  # converged in the last iteration, unpolished
    return bool(settle and conv.size and settle(lam[conv], iterations[conv], best[conv]))


def _newton_steps(jac: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Newton directions -J^{-1} F, one per row.  Where LAPACK's LU finds a
    Jacobian exactly singular, the solve raises; then slogdet's sign, 0 on
    the same rows, masks them, each takes least squares alone, and the others
    share one solve.  (A mask taken on every call costs more than the raises.)"""
    try:
        return np.linalg.solve(jac, -f[..., None])[..., 0]
    except np.linalg.LinAlgError:
        singular = np.linalg.slogdet(jac)[0] == 0
    steps = np.empty_like(f)
    steps[~singular] = np.linalg.solve(jac[~singular], -f[~singular, :, None])[..., 0]
    for row in np.flatnonzero(singular):
        steps[row] = np.linalg.lstsq(jac[row], -f[row], rcond=None)[0]
    return steps


def free_momenta_rapidities(spin: Spin, length: int) -> list:
    """Exact one-magnon roots s*cot(pi n/L), n = 1..L-1."""
    out = []
    for n in range(1, length):
        out.append(spin.s / math.tan(math.pi * n / length) + 0.0j)
    return out


def _string_centers(spin: Spin, length: int) -> list:
    vals = sorted(z.real for z in free_momenta_rapidities(spin, length))
    centers = {0.0} | {round(v, 12) for v in vals}
    centers |= {round((a + b) / 2, 12) for a, b in zip(vals, vals[1:])}
    return sorted(centers)


def _partitions(m: int, maxpart: int = None):
    if maxpart is None:
        maxpart = m
    if m == 0:
        yield ()
        return
    for first in range(min(m, maxpart), 0, -1):
        for rest in _partitions(m - first, first):
            yield (first,) + rest


def seed_catalog(system: BetheSystem, strategy: str, rng=None,
                 n_random: int = SolverOptions.n_random,
                 random_scale: float = SolverOptions.random_scale) -> list:
    """Initial rapidity sets for one of the STRATEGIES."""
    spin, length, m = system.spin, system.length, system.m
    if m == 0:
        return []
    if strategy == "free-momenta":
        singles = free_momenta_rapidities(spin, length)
        return [np.array(combo, dtype=complex) for combo in combinations(singles, m)]
    if strategy == "strings":
        # string-hypothesis seeds: split m into strings with spacing ~i, one
        # centre per string from the quantization grid, distinct centres for
        # strings of one length, so each unordered placement is listed once
        centers = _string_centers(spin, length)
        seeds = []
        for part in _partitions(m):
            if all(p == 1 for p in part):
                continue  # identical to free-momenta
            # placements grow like centers^len(part); coarsen for many strings
            grid = centers if len(part) <= 2 else centers[::2]
            sizes = sorted(set(part), reverse=True)
            for placement in product(*(combinations(grid, part.count(n)) for n in sizes)):
                # widths off the ideal i/2: the exact-width configuration is an
                # invariant manifold of the Newton map that drains into the poles
                for stretch in (0.88, 1.14):
                    lam = [c + 0.5j * stretch * (n - 1 - 2 * a)
                           for n, cs in zip(sizes, placement) for c in cs for a in range(n)]
                    # two strings of one parity on one centre share a root
                    if len(set(lam)) == m:
                        seeds.append(np.array(lam, dtype=complex))
        return seeds
    if strategy == "random":
        if rng is None:
            rng = np.random.default_rng(0)
        # seed j takes draws j (real parts) and j + 1/2 (imaginary parts) of
        # the generator's stream, as when drawn one seed at a time
        draws = rng.normal(scale=random_scale, size=(n_random, 2, m))
        return list(draws[:, 0] + 1j * draws[:, 1])
    raise InputRangeError(f"unknown seeding strategy {strategy!r}")


def sector_seeds(system: BetheSystem, opts: SolverOptions, strategies=None) -> np.ndarray:
    """The seeds of every strategy in `strategies` (default `opts.strategies`), in
    order, as the rows of an n x m array; the random strategy draws from one
    generator seeded with `opts.seed`, once per scale of RANDOM_SCALE_SWEEP."""
    rng = np.random.default_rng(opts.seed)
    seeds = [seed
             for strategy in (opts.strategies if strategies is None else strategies)
             for scale in (RANDOM_SCALE_SWEEP if strategy == "random" else (1.0,))
             for seed in seed_catalog(system, strategy, rng=rng, n_random=opts.n_random,
                                      random_scale=opts.random_scale * scale)]
    return np.array(seeds, dtype=complex).reshape(-1, system.m)


def _fingerprints(lam: np.ndarray) -> np.ndarray:
    """The coefficients of prod_j (z - lambda_j) after the leading 1, for each
    row of an n x m array."""
    coeffs = np.zeros((len(lam), lam.shape[1] + 1), dtype=complex)
    coeffs[:, 0] = 1.0
    for j, root in enumerate(lam.T[:, :, None]):
        coeffs[:, 1:j + 2] -= root * coeffs[:, :j + 1]
    return coeffs[:, 1:]


class DeflationRegistry:
    """Unordered root-set dedup via elementary symmetric polynomials,
    identifying a set with its complex conjugate."""

    def __init__(self):
        self._fingerprints = None  # one row per registered set

    def add_rows(self, lam: np.ndarray) -> np.ndarray:
        """Register the rows of an n x m array in order, each against the sets
        registered before it; True where a row was new.  One comparison matches the
        rows with the registered sets and with each other: a row is new where it
        matches no registered set and no earlier new row, nor their conjugates."""
        fps = _fingerprints(lam)
        known = fps[:0] if self._fingerprints is None else self._fingerprints
        hits = _matches(fps, np.concatenate((known, fps)))
        new, earlier = ~hits[:, :len(known)].any(axis=1), hits[:, len(known):]
        for row in np.flatnonzero(new):
            new[row] = not earlier[row, :row][new[:row]].any()
        self._fingerprints = np.concatenate((known, fps[new]))
        return new


def _matches(fps: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Entry [i, j]: fingerprint i matches registered fingerprint j or its conjugate."""
    bound = DEFLATION_TOL * (1.0 + np.abs(refs))
    return np.logical_or(*((np.abs(cands[:, None] - refs) <= bound).all(axis=2)
                           for cands in (fps, np.conj(fps))))


def _certificate(state: BetheState, bethe_res: float, iterations: int,
                 hamiltonian: ChainHamiltonian, singular: bool = False) -> RootCertificate:
    return RootCertificate(
        lam=tuple(complex(z) for z in state.lam),
        bethe_residual=bethe_res,
        eigen_residual=eigen_residual(state, hamiltonian),
        hw_residual=highest_weight_residual(state),
        energy=complex(state.energy),
        iterations=iterations,
        singular=singular,
        state=state,
    )


def order_key(energy: complex, lam) -> tuple:
    """Sort key of a certified root set: the energy rounded to 9 digits, so
    that last-bit noise rarely reorders degenerate levels (two energies on
    either side of a rounding boundary still differ), then m, then the roots."""
    return (round(energy.real, 9), round(energy.imag, 9), len(lam),
            tuple(sorted((z.real, z.imag) for z in lam)))


def _deflate(system: BetheSystem, roots: np.ndarray, registry: DeflationRegistry) -> np.ndarray:
    """Per converged root set, the rows of an n x m array in order, its reject reason
    ("descendant", "degenerate", "singular" or "duplicate") or None where it is new."""
    out = _reject_reasons(roots, system.spin.s)
    usable = np.flatnonzero(np.equal(out, None))
    if usable.size:
        out[usable[~registry.add_rows(roots[usable])]] = "duplicate"
    return out


def _certify(system: BetheSystem, roots, iterations, residuals, hamiltonian) -> list:
    """Per new root set, its RootCertificate or the ChainError its state build raised."""
    states = build_bethe_states(system.spin, system.length, roots)  # one kernel call
    return [s if isinstance(s, ChainError) else _certificate(s, float(r), int(i), hamiltonian)
            for s, i, r in zip(states, iterations, residuals)]


def _verified(cert: RootCertificate) -> bool:
    """Whether a certificate shows a highest-weight eigenvector by the default bounds."""
    return cert.eigen_residual <= SolverOptions.tol_eigen and \
        cert.hw_residual <= SolverOptions.tol_hw


def solve_newton(system: BetheSystem, seed, opts: SolverOptions,
                 hamiltonian: ChainHamiltonian = None,
                 registry: DeflationRegistry = None) -> RootCertificate:
    """The one-row call of `solve_sector`'s path: Newton from one seed, `_deflate`
    and `_certify`; raises the NewtonFailureError of a row that fails or is rejected."""
    if hamiltonian is None:
        hamiltonian = ChainHamiltonian(system.spin, system.length)
    roots, iterations, reasons, best = newton_batch(system, _row(seed), opts.tol_newton)
    if reasons[0] is not None:
        raise _newton_failure(reasons[0], iterations[0], best[0])
    outcome = _deflate(system, roots, DeflationRegistry() if registry is None else registry)[0]
    if outcome == "duplicate":
        raise NewtonFailureError(outcome, "root set already deflated")
    if isinstance(outcome, str):
        raise NewtonFailureError(outcome, f"roots {np.round(roots[0], 6)}")
    outcome, = _certify(system, roots, iterations, best, hamiltonian)
    if isinstance(outcome, ChainError):
        raise NewtonFailureError("state-degenerate", str(outcome)) from outcome
    return outcome


def _axis_seeds(spin: Spin, length: int, n: int) -> np.ndarray:
    """Seeds of n reduced roots with a pair +-iy just above the string factor's
    zero at i(s+1), y = s + 1 + 1/8, 3/8, 5/8 and 7/8, the other n - 2 roots
    each (n-2)-subset of the free momenta of `length` sites; none for n < 2."""
    if n < 2:
        return np.empty((0, n), dtype=complex)
    rest = seed_catalog(BetheSystem(spin, length, n - 2), "free-momenta") or [np.empty(0)]
    return np.array([np.concatenate(([1j * y, -1j * y], r))
                     for y in spin.s + 1 + np.arange(1, 8, 2) / 8 for r in rest])


def _string_sets(system: BetheSystem, opts: SolverOptions) -> list:
    """(further roots, iterations, Bethe part) of each physical set of n = m - 2s - 1
    roots beside the exact string, the one test of where strings apply: none unless
    n >= 0 and the sector has at most su2.DENSE_THRESHOLD states; the string alone for
    n = 0; for n >= 1, under `strings` only, the rows of Newton on the reduced equations,
    from `sector_seeds` of (spin, L - 2, n) and `_axis_seeds`, that pass `_deflate`.  A
    set is physical where |[(-1)^(2s) prod_j (l_j + is)/(l_j - is)]^L - 1| <= tol_newton;
    its Bethe part is the larger of that and its reduced scaled residual."""
    spin, length, n = system.spin, system.length, system.m - system.spin.two_s - 1
    if n < 0 or (n and "strings" not in opts.strategies) or \
            len(hilbert.sector_basis(spin, length, system.m)) > su2.DENSE_THRESHOLD:
        return []
    if n == 0:
        roots, iterations, best = np.empty((1, 0), dtype=complex), np.zeros(1, int), np.zeros(1)
    else:
        reduced = BetheSystem(spin, length, n, string=True)
        seeds = np.concatenate((sector_seeds(BetheSystem(spin, length - 2, n), opts),
                                _axis_seeds(spin, length - 2, n)))
        roots, iterations, reasons, best = newton_batch(reduced, seeds, opts.tol_newton)
        keep = np.flatnonzero(np.equal(reasons, None))
        keep = keep[np.equal(_deflate(reduced, roots[keep], DeflationRegistry()), None)]
        roots, iterations, best = roots[keep], iterations[keep], best[keep]
    phase = (-1) ** spin.two_s * np.prod((roots + 1j * spin.s) / (roots - 1j * spin.s), axis=1)
    parts = np.maximum(np.abs(_power(phase, length) - 1), best)
    return [(r, int(i), float(p)) for r, i, p in zip(roots, iterations, parts)
            if p <= opts.tol_newton]


def _string_certificates(system: BetheSystem, sets: list, certs: list,
                         hamiltonian: ChainHamiltonian) -> list:
    """Append to `certs` the singular certificate of each of `_string_sets`' `sets` that
    leaves one direction at E = -2 H_{2s} - sum_j 2s/(l_j^2 + s^2); return those that leave
    more.  Two shifted solves (H - E - STRING_SHIFT) x = b on the dense sector matrix, from
    two random b of a constant-seeded generator, a projection onto ker S^+ by one solve in
    sector m - 1 and orthogonalisation against the verified vectors of `certs` within
    `SolverOptions.tol_match` of E leave the directions at E that no certificate holds."""
    spin, length, m = system.spin, system.length, system.m
    if sets:
        ham = hamiltonian.sector_matrix(m).toarray()
        up = hilbert.sector_s_plus(spin, length, m).toarray()
    waiting = []
    for roots, iterations, part in sets:
        energy = -2 * math.fsum(1 / k for k in range(1, spin.two_s + 1)) + \
            bethe.energy_lambda(roots, spin)
        shifted = ham - (energy.real + STRING_SHIFT) * np.eye(len(ham))
        x = np.linalg.solve(shifted, np.random.default_rng(0).standard_normal((len(ham), 2)))
        x = np.linalg.solve(shifted, x / np.linalg.norm(x, axis=0))
        x = x - up.T @ np.linalg.solve(up @ up.T, up @ x)
        known = [c.state.vector for c in certs
                 if _verified(c) and abs(c.energy - energy) <= SolverOptions.tol_match]
        if known:
            q = np.linalg.qr(np.column_stack(known))[0]
            x = x - q @ (q.conj().T @ x)
        vecs, sizes, _ = np.linalg.svd(x, full_matrices=False)
        directions = np.count_nonzero(sizes > STRING_SHIFT ** -0.5)
        if directions == 1:
            lam = tuple(complex(0.0, spin.s - a) for a in range(spin.dim)) + tuple(roots)
            vec = vecs[:, 0].astype(complex)
            state = BetheState(spin, length, None, lam, hilbert.sector_basis(spin, length, m), vec,
                               energy, float(np.linalg.norm(vec)))
            certs.append(_certificate(state, part, iterations, hamiltonian, singular=True))
        elif directions > 1:
            waiting.append((roots, iterations, part))
    return waiting


def solve_sector(spin: Spin, length: int, m: int, opts: SolverOptions = None,
                 hamiltonian: ChainHamiltonian = None) -> list:
    """All distinct certified root sets the seed catalog reaches for one sector.

    `hilbert.check_sector` runs first, so an m outside 0..2sL raises InputRangeError;
    past the equator (m > sL) no basis is built and no set is certified.  The exact
    string's sets (`_string_sets` decides where they apply) are certified first, and
    those that leave more than one direction once more at the end.  Newton runs in two
    stages, each on a whole catalog at once (`newton_batch`): the seeds of every strategy
    in `opts.strategies` but random, then, as a fallback, the random ones.  Converged
    rows are deflated as they arrive, in order of convergence within a stage, ties in
    catalog order, so the first row to converge to a root set registers it.  Sector m
    holds N_hw(m) = dim(m) - dim(m-1) highest-weight states, and distinct root sets give
    orthogonal eigenvectors: Newton stops, or a stage never starts, once N_hw(m) sets,
    the singular ones included, have eigen and hw residuals within the default 1e-8,
    whatever filters `opts` set.  New sets wait for their states until they could bring
    the verified sets to N_hw(m), or the last stage ends; then one kernel call builds
    them all.  The vacuum's empty root set, sector 0's one, waits from the start.
    Root sets are returned sorted by `order_key`; each carries its Bethe, eigenvector
    and highest-weight residuals.  Sets failing the certification thresholds are dropped.
    """
    if opts is None:
        opts = SolverOptions()
    if hamiltonian is None:
        hamiltonian = ChainHamiltonian(spin, length)
    hilbert.check_sector(spin, length, m)
    if 2 * m > spin.two_s * length:
        # past the equator S^+ is injective on the sector: no highest-weight
        # vector exists, so no root set there can be certified
        return []
    system, certs, registry = BetheSystem(spin, length, m), [], DeflationRegistry()
    waiting = _string_certificates(system, _string_sets(system, opts), certs, hamiltonian)
    # N_hw(m) with dim(-1) = 0, and the (roots, iterations, best residuals) awaiting states
    need = len(hilbert.sector_basis(spin, length, m)) - \
        (m and len(hilbert.sector_basis(spin, length, m - 1)))
    held = [] if m else [(np.empty((1, 0), dtype=complex), np.zeros(1, int), np.zeros(1))]

    def settle(roots, iterations, best):
        """Deflate converged rows as they arrive, hold their new sets, `complete` at `need`."""
        fresh = np.equal(_deflate(system, roots, registry), None)
        held.append((roots[fresh], iterations[fresh], best[fresh]))
        return complete(need)

    def complete(target):
        """Certify the held sets (roots, iterations, best residuals) in one kernel call once
        they could bring the verified certificates to `target`; True once these reach it."""
        count = sum(len(rows[0]) for rows in held)
        if count and sum(map(_verified, certs)) + count >= target:
            certs.extend(c for c in _certify(system, *map(np.concatenate, zip(*held)), hamiltonian)
                         if isinstance(c, RootCertificate))
            held.clear()
        return sum(map(_verified, certs)) >= target

    for stage in ([s for s in opts.strategies if s != "random"],
                  [s for s in opts.strategies if s == "random"]):
        if stage and not complete(need):
            newton_batch(system, sector_seeds(system, opts, stage), opts.tol_newton, settle=settle)
    complete(0)
    _string_certificates(system, waiting, certs, hamiltonian)
    certs = [c for c in certs if c.certified(opts)]
    certs.sort(key=lambda c: order_key(c.energy, c.lam))
    return certs
