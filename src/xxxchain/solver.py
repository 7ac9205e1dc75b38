"""Numerical solution of the Bethe equations in rapidity variables.

The residual is the polynomial-cleared form

    F_j = (l_j + is)^L prod_{l != j} (l_j - l_l - i)
        - (l_j - is)^L prod_{l != j} (l_j - l_l + i),

whose roots away from the poles +-is coincide with the k-form quantization
conditions carrying the exponent L.  Root sets approaching +-is are treated
separately: around the exact pair {+is, -is} the cleared system vanishes to
high order along a whole curve, so Newton iterates landing there are never
accepted at face value.  For spin 1/2, m = 2 and even L the exact pair is a
genuine solution whose state is the alternating nearest-neighbour bound
state, built in closed form below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import accumulate, combinations, product
from typing import ClassVar, Optional

import numpy as np
import numpy.random  # noqa: F401  (NumPy imports it lazily, on first use)

from . import bethe, hilbert
from .bethe import BetheState, build_bethe_state, build_bethe_states
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


@dataclass(frozen=True)
class BetheSystem:
    spin: Spin
    length: int
    m: int


@dataclass
class SolverOptions:
    tol_newton: float = 1e-10
    tol_eigen: float = 1e-8
    tol_hw: float = 1e-8
    tol_match: float = 1e-7
    seed: int = 0
    strategies: tuple = STRATEGIES
    n_random: ClassVar[int] = 64
    random_scale: ClassVar[float] = 1.5

    def __post_init__(self):
        for name in ("tol_newton", "tol_match"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise InputRangeError(f"{name} must be finite and positive, got {value!r}")
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


def _factors(lam: np.ndarray, s: float):
    """For root sets as the rows of an n x m array, held on the last axis:
    (lambda_j +- is) as a 2 x m x n array, and the pair factors
    lambda_j - lambda_l -+ i as an (m-1) x 2 x m x n array whose entry c
    holds the c-th l != j in ascending order.  A product over l multiplies
    whole entries elementwise, left to right, so a row's bits depend neither
    on the batch size nor on its place in the batch."""
    lam = np.ascontiguousarray(lam.T)
    diff = lam - lam[_pair_columns(len(lam))]
    return lam + s * _SHIFTS[..., None], (diff - _SHIFTS[..., None, None]).swapaxes(0, 1)


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
    pair product.  Products keep a fixed operand order, `np.multiply(a, b)`
    and never `a * tmp`, so a row's bits do not depend on the batch."""
    poles, pairs = _factors(lam, system.spin.s)
    terms = _power(poles, system.length)
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
    s, length = system.spin.s, system.length
    poles, pairs = _factors(lam, s)
    lower = _power(poles, length - 1)
    d_poles = length * lower
    if m == 1:
        return (d_poles[0] - d_poles[1]).reshape(n, 1, 1)
    # partial[c] = poles^L times the entries before c, then those after c
    prefix = list(accumulate(pairs, np.multiply))
    suffix = list(accumulate(pairs[:0:-1], np.multiply))[::-1]
    partial = np.empty_like(pairs)
    np.multiply(lower, poles, out=partial[0])
    for c in range(1, m - 1):
        np.multiply(partial[0], prefix[c - 1], out=partial[c])
    for c in range(m - 2):
        partial[c] *= suffix[c]
    # d(lambda_j - lambda_r -+ i)/dlambda_r = -1 for the factor l = r
    off = partial[:, 1] - partial[:, 0]
    full = prefix[-1]
    out = np.empty((m, m, n), dtype=complex)
    out[np.arange(m), _pair_columns(m)] = off
    out.reshape(m * m, n)[::m + 1] = d_poles[0] * full[0] - d_poles[1] * full[1] - off.sum(axis=0)
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
    first, second = np.triu_indices(lam.shape[1], 1)
    # the cleared system has a spurious near-zero sheet near +-is; only the
    # exact pair is meaningful there and it is handled in closed form
    near_pole = np.minimum(np.abs(lam - 1j * s), np.abs(lam + 1j * s)).min(axis=1)
    return np.select([np.abs(lam).max(axis=1) > DESCENDANT_CUTOFF,
                      (np.abs(lam[:, first] - lam[:, second]) < DEGENERACY_TOL).any(axis=1),
                      near_pole < SINGULAR_PROXIMITY_TOL],
                     ["descendant", "degenerate", "singular"], None)


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


def newton_batch(system: BetheSystem, seeds, tol: float = 1e-10, max_iter: int = MAX_ITER):
    """Damped Newton from every row of an n x m seed array, in lockstep.

    Returns (roots, iterations, reasons, best): the last iterates as an n x m
    array, each row's iteration count (for a failed row, the iteration it
    failed in), per row None (converged) or the reason it failed as an object
    array ("nonfinite" or "descendant" for a seed with an entry nonfinite or
    beyond DESCENDANT_CUTOFF, at iteration 0, then "singular-jacobian",
    "stalled" or "max-iter"), and each row's best scaled residual (NaN for such
    a seed and where the seed's residual or its scale is not finite).  A row reaches the
    points it would reach alone (one line-search pass evaluates every damping
    level at once).  Rows run in blocks whose largest work array stays within
    bethe.BLOCK_ENTRIES: the Jacobian's (2 m^2 entries a row) or the line
    search's pair factors (2 m (m-1) per damping level, 16 m (m-1) a row)."""
    lam = np.array(seeds, dtype=complex)
    if lam.ndim != 2 or lam.shape[1] != system.m:
        raise ValueError(f"seeds have shape {lam.shape}, system needs rows of {system.m}")
    n, m = lam.shape
    # written for a row when it ends; a row that never ends keeps max_iter
    iterations = np.full(n, max_iter)
    reasons = np.full(n, None, dtype=object)
    best = np.full(n, np.nan)
    rows = max(1, bethe.BLOCK_ENTRIES // max(2 * m**2, 2 * len(_DAMPING) * m * (m - 1)))
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        _lockstep(system, lam[block], iterations[block], reasons[block], best[block],
                  tol, max_iter)
    return lam, iterations, reasons, best


# a nonfinite step makes nonfinite candidates, whose scaled residual reads NaN
@np.errstate(over="ignore", invalid="ignore")
def _lockstep(system: BetheSystem, lam, iterations, reasons, best, tol: float, max_iter: int):
    """newton_batch on one block, writing each row of lam, iterations, reasons
    and best once, when the row ends.  The unfinished rows are a compact working
    set (ids, iterates, residual vectors, best residuals), rebuilt each
    iteration by one gather from the accepted candidates.  The line search
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
        x, f, r_best = cand[pick], f_cand[pick], r[pick]
    lam[ids], best[ids] = x, r_best
    reasons[ids[~(r_best <= tol)]] = "max-iter"


def _newton_steps(jac: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Newton directions -J^{-1} F, one per row.  Where LAPACK finds a
    Jacobian singular, the rows are halved until it stands alone, and only
    it falls back to least squares."""
    try:
        return np.linalg.solve(jac, -f[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(jac) == 1:
            return np.linalg.lstsq(jac[0], -f[0], rcond=None)[0][None]
        half = len(jac) // 2
        return np.concatenate((_newton_steps(jac[:half], f[:half]),
                               _newton_steps(jac[half:], f[half:])))


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
                 n_random: int = 64, random_scale: float = 1.5) -> list:
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


def sector_seeds(system: BetheSystem, opts: SolverOptions) -> np.ndarray:
    """The seeds of every strategy in `opts.strategies`, in order, as the
    rows of an n x m array; the random strategy draws from one generator
    seeded with `opts.seed`, once per scale of RANDOM_SCALE_SWEEP."""
    rng = np.random.default_rng(opts.seed)
    seeds = [seed
             for strategy in opts.strategies
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
        self._fingerprints = []  # one per registered set

    def add_rows(self, lam: np.ndarray) -> np.ndarray:
        """Register the rows of an n x m array in order, each against the sets
        registered before it; True where a row was new.  Each registered set
        strikes every row that matches it or its conjugate, all at once."""
        fps = _fingerprints(lam)
        fresh, new = np.ones(len(fps), dtype=bool), np.zeros(len(fps), dtype=bool)
        strikers = list(self._fingerprints)
        while strikers or fresh.any():
            if strikers:
                ref = strikers.pop()
            else:  # the first row no registered set struck
                row = int(fresh.argmax())
                new[row], fresh[row], ref = True, False, fps[row]
                self._fingerprints.append(ref)
            bound = DEFLATION_TOL * (1.0 + np.abs(ref))
            for cands in (fps, np.conj(fps)):
                fresh &= ~(np.abs(cands - ref) <= bound).all(axis=1)
        return new


def singular_pair_state(spin: Spin, length: int) -> BetheState:
    """Exact bound state of the rapidity pair {+i/2, -i/2} for spin 1/2.

    The regularized limit of the pair is the alternating nearest-neighbour
    two-magnon state sum_x (-1)^x |x, x+1> with energy -2, an exact
    eigenvector for every even L (checked by the residuals attached to its
    certificate, not assumed).
    """
    if spin.two_s != 1 or length % 2 != 0:
        raise ChainError("exact singular pair exists for spin 1/2 and even L only")
    basis = hilbert.sector_basis(spin, length, 2)
    occ = basis.occupations
    # column x - 1 marks the pair (x, x + 1), site L + 1 being site 1
    pairs = occ * np.roll(occ, -1, axis=1)
    vec = (pairs @ (-1) ** np.arange(1, length + 1)).astype(complex)
    lam = (0.5j, -0.5j)
    return BetheState(spin, length, None, lam, basis, vec, -2.0 + 0.0j,
                      float(np.linalg.norm(vec)))


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


def _settle(system: BetheSystem, roots: np.ndarray, iterations, residuals,
            hamiltonian: ChainHamiltonian, registry: DeflationRegistry) -> np.ndarray:
    """Classify, deflate, build and certify converged Newton roots (rows, in catalog
    order) given their scaled residuals: per row, in an object array, its
    RootCertificate, its reject reason ("descendant", "degenerate", "singular" or
    "duplicate") or the ChainError its state build raised.  Only root sets new to
    the registry get a state, all of them from one `build_bethe_states` call."""
    out = _reject_reasons(roots, system.spin.s)
    usable = np.flatnonzero(np.equal(out, None))
    fresh = registry.add_rows(roots[usable])
    out[usable[~fresh]] = "duplicate"
    new = usable[fresh]
    for row, state in zip(new, build_bethe_states(system.spin, system.length, roots[new])):
        out[row] = state if isinstance(state, ChainError) else \
            _certificate(state, float(residuals[row]), int(iterations[row]), hamiltonian)
    return out


def solve_newton(system: BetheSystem, seed, opts: SolverOptions,
                 hamiltonian: ChainHamiltonian = None,
                 registry: DeflationRegistry = None) -> RootCertificate:
    """The one-row call of `solve_sector`'s path: Newton from one seed, then
    `_settle`; raises the NewtonFailureError of a row that fails or is rejected."""
    if hamiltonian is None:
        hamiltonian = ChainHamiltonian(system.spin, system.length)
    roots, iterations, reasons, best = newton_batch(system, _row(seed), opts.tol_newton)
    if reasons[0] is not None:
        raise _newton_failure(reasons[0], iterations[0], best[0])
    outcome = _settle(system, roots, iterations, best, hamiltonian,
                      DeflationRegistry() if registry is None else registry)[0]
    if outcome == "duplicate":
        raise NewtonFailureError(outcome, "root set already deflated")
    if isinstance(outcome, str):
        raise NewtonFailureError(outcome, f"roots {np.round(roots[0], 6)}")
    if isinstance(outcome, ChainError):
        raise NewtonFailureError("state-degenerate", str(outcome)) from outcome
    return outcome


def solve_sector(spin: Spin, length: int, m: int, opts: SolverOptions = None,
                 hamiltonian: ChainHamiltonian = None) -> list:
    """All distinct certified root sets the seed catalog reaches for one sector.

    Newton runs on the whole catalog at once (`newton_batch`); the roots are
    then classified and deflated as arrays in catalog order, so the first
    seed to reach a root set registers it.  Root sets are returned sorted by
    `order_key`; each carries its Bethe, eigenvector and highest-weight
    residuals.  Sets failing the certification thresholds are dropped.
    """
    if opts is None:
        opts = SolverOptions()
    if hamiltonian is None:
        hamiltonian = ChainHamiltonian(spin, length)
    if 2 * m > spin.two_s * length:
        # past the equator S^+ is injective on the sector: no highest-weight
        # vector exists, so no root set there can be certified
        return []
    hilbert.check_sector(spin, length, m)
    system = BetheSystem(spin, length, m)
    if m == 0:
        vacuum = build_bethe_state(spin, length, k=())
        return [_certificate(vacuum, 0.0, 0, hamiltonian)]

    roots, iterations, reasons, best = newton_batch(system, sector_seeds(system, opts),
                                                    opts.tol_newton)
    converged = np.flatnonzero(np.equal(reasons, None))
    settled = _settle(system, roots[converged], iterations[converged], best[converged],
                      hamiltonian, DeflationRegistry())
    certs = [c for c in settled if isinstance(c, RootCertificate) and c.certified(opts)]

    if spin.two_s == 1 and m == 2 and length % 2 == 0:
        # the pair is new: rows near +-is are rejected before deflation
        state = singular_pair_state(spin, length)
        bethe_res = scaled_residual(np.array(state.lam), system)
        cert = _certificate(state, bethe_res, 0, hamiltonian, singular=True)
        if cert.certified(opts):
            certs.append(cert)

    certs.sort(key=lambda c: order_key(c.energy, c.lam))
    return certs
