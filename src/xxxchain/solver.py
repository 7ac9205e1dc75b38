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
from functools import lru_cache
from itertools import combinations
from typing import Optional

import numpy as np

from . import bethe, hilbert
from .bethe import BetheState, build_bethe_state
from .errors import ChainError, InputRangeError, NewtonFailureError
from .hamiltonian import ChainHamiltonian
from .su2 import Spin

DESCENDANT_CUTOFF = 1e8
DEGENERACY_TOL = 1e-6
SINGULAR_PROXIMITY_TOL = 1e-2
DEFLATION_TOL = 1e-6
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
    max_iter: int = 80
    n_random: int = 64
    random_scale: float = 1.5
    seed: int = 0
    strategies: tuple = ("free-momenta", "two-string", "strings", "random")

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
        if self.max_iter < 1:
            raise InputRangeError(f"max_iter must be at least 1, got {self.max_iter!r}")


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


# axis 1 of the factor arrays: entry 0 carries lambda + is and the factors
# lambda_j - lambda_l - i, entry 1 carries lambda - is and lambda_j - lambda_l + i
_SHIFTS = np.array([[1j], [-1j]])
# step damping of the Newton line search, tried in this order
_DAMPING = (1.0, 0.5, 0.25, 0.125, 1 / 16, 1 / 32, 1 / 64, 1 / 128)


@lru_cache(maxsize=None)
def _off_diagonal(m: int):
    """Row and column indices of the off-diagonal entries of an m x m
    matrix, row by row."""
    rows, cols = np.nonzero(~np.eye(m, dtype=bool))
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _row(lam) -> np.ndarray:
    """One root set as a 1 x m complex array."""
    return np.atleast_1d(np.asarray(lam, dtype=complex)).reshape(1, -1)


def _factors(lam: np.ndarray, s: float):
    """For root sets as the rows of an n x m array: (lambda_j +- is) as an
    n x 2 x m array and the pair factors lambda_j - lambda_l -+ i (l != j,
    ascending) as an n x 2 x m x (m-1) array."""
    n, m = lam.shape
    rows, cols = _off_diagonal(m)
    diff = (lam[:, rows] - lam[:, cols]).reshape(n, 1, m, m - 1)
    # C order keeps each row's product over l a sequential scalar reduction,
    # so a root set gets the same bits in a batch of any size
    return lam[:, None, :] + s * _SHIFTS, np.subtract(diff, _SHIFTS[:, :, None], order="C")


def _residuals(lam: np.ndarray, system: BetheSystem):
    """F(lambda) of each row of lam and its scaled maximum, from one pass over
    the terms t1, t2 of F = t1 - t2."""
    poles, pairs = _factors(lam, system.spin.s)
    terms = poles**system.length * pairs.prod(axis=3)
    t1, t2 = terms[:, 0], terms[:, 1]
    f = t1 - t2
    scale = np.abs(t1) + np.abs(t2)
    out = np.zeros(f.shape)
    np.divide(np.abs(f), scale, out=out, where=scale > 0.0)
    return f, out.max(axis=1)


def _jacobians(lam: np.ndarray, system: BetheSystem) -> np.ndarray:
    """Analytic Jacobians dF_j/dlambda_r of the rows of lam, n x m x m."""
    n, m = lam.shape
    s, length = system.spin.s, system.length
    poles, pairs = _factors(lam, s)
    d_poles = length * poles ** (length - 1)
    if m == 1:
        return (d_poles[:, 0] - d_poles[:, 1]).reshape(n, 1, 1)
    ones = np.ones((n, 2, m, 1), dtype=complex)
    prefix = np.cumprod(np.concatenate((ones, pairs[..., :-1]), axis=3), axis=3)
    suffix = np.cumprod(np.concatenate((ones, pairs[..., :0:-1]), axis=3), axis=3)[..., ::-1]
    full = prefix[..., -1] * pairs[..., -1]
    # d(lambda_j - lambda_r -+ i)/dlambda_r = -1 for the factor l = r
    partial = poles[..., None] ** length * prefix * suffix
    off = partial[:, 1] - partial[:, 0]
    out = np.empty((n, m, m), dtype=complex)
    rows, cols = _off_diagonal(m)
    out[:, rows, cols] = off.reshape(n, -1)
    diag = np.arange(m)
    out[:, diag, diag] = d_poles[:, 0] * full[:, 0] - d_poles[:, 1] * full[:, 1] - off.sum(axis=2)
    return out


def bethe_residual(lam, system: BetheSystem) -> np.ndarray:
    """Polynomial-cleared residual vector F(lambda)."""
    return _residuals(_row(lam), system)[0][0]


def scaled_residual(lam, system: BetheSystem) -> float:
    """max_j |F_j| / (|t1_j| + |t2_j|); the 0/0 of an exactly-cancelling pair
    counts as 0.  Relative scaling keeps the spurious near-zero sheet around
    the poles from masquerading as converged."""
    return float(_residuals(_row(lam), system)[1][0])


def jacobian(lam, system: BetheSystem) -> np.ndarray:
    """Analytic Jacobian dF_j/dlambda_r; products differentiate termwise.

    The product of all pair factors but one comes from prefix and suffix
    products, never by division, so an exactly vanishing factor (two roots
    at distance i, as in an exact string) is handled like any other."""
    return _jacobians(_row(lam), system)[0]


def classify_roots(lam, system: BetheSystem) -> Optional[str]:
    """Reject reason for a converged iterate, or None if usable."""
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    if not np.all(np.isfinite(lam)):
        return "nonfinite"
    if np.max(np.abs(lam)) > DESCENDANT_CUTOFF:
        return "descendant"
    m = len(lam)
    for a in range(m):
        for b in range(a + 1, m):
            if abs(lam[a] - lam[b]) < DEGENERACY_TOL:
                return "degenerate"
    s = system.spin.s
    if min(np.min(np.abs(lam - 1j * s)), np.min(np.abs(lam + 1j * s))) < SINGULAR_PROXIMITY_TOL:
        # the cleared system has a spurious near-zero sheet here; only the
        # exact pair is meaningful and it is handled in closed form
        return "singular"
    return None


def newton_solve(system: BetheSystem, seed, tol: float = 1e-10, max_iter: int = 80):
    """Newton iteration with step damping; returns (roots, iterations).

    The one-row call of `newton_batch`; raises the row's NewtonFailureError."""
    lam = np.atleast_1d(np.asarray(seed, dtype=complex))
    if lam.size != system.m:
        raise ValueError(f"seed has {lam.size} components, system needs {system.m}")
    roots, iterations, failures = newton_batch(system, lam.reshape(1, -1), tol, max_iter)
    if failures[0] is not None:
        raise failures[0]
    return roots[0], int(iterations[0])


def newton_batch(system: BetheSystem, seeds, tol: float = 1e-10, max_iter: int = 80):
    """Damped Newton from every row of an n x m seed array, in lockstep.

    Returns (roots, iterations, failures): the last iterates as an n x m
    array, each row's iteration count (for a failed row, the iteration it
    failed in), and per row None (converged) or the NewtonFailureError it
    ended with.  Each row evaluates exactly the points it would evaluate
    alone.  Rows run in blocks whose largest work array (the Jacobian's,
    2 m^2 entries a row) stays within bethe.BLOCK_ENTRIES."""
    lam = np.asarray(seeds, dtype=complex)
    if lam.ndim != 2 or lam.shape[1] != system.m:
        raise ValueError(f"seeds have shape {lam.shape}, system needs rows of {system.m}")
    n = len(lam)
    roots, iterations, failures = np.empty_like(lam), np.empty(n, dtype=int), [None] * n
    rows = max(1, bethe.BLOCK_ENTRIES // (2 * system.m**2))
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        roots[block], iterations[block], failures[block] = _lockstep(
            system, lam[block], tol, max_iter)
    return roots, iterations, failures


def _lockstep(system: BetheSystem, seeds: np.ndarray, tol: float, max_iter: int):
    """newton_batch on one block: one Newton iteration of all unfinished
    rows at a time, the line search staged so that damping level k is tried
    only on the rows no earlier level accepted."""
    lam = seeds.copy()
    n = len(lam)
    iterations = np.empty(n, dtype=int)
    failures = [None] * n
    running = np.ones(n, dtype=bool)

    def end(rows, it, reason=None, detail=""):
        # detail may format the row's best scaled residual
        iterations[rows] = it
        running[rows] = False
        if reason is not None:
            for row in rows:
                failures[row] = NewtonFailureError(reason, detail.format(best[row]))

    # each accepted point's residual vector comes from the same product pass
    # as its scaled residual and feeds the next Newton step
    f, best = _residuals(lam, system)
    for it in range(max_iter):
        active = np.flatnonzero(running)
        finite = np.isfinite(lam[active]).all(axis=1)
        end(active[~finite], it, "nonfinite", "iterate left the finite domain")
        active = active[finite]
        if not active.size:
            break
        step = _newton_steps(_jacobians(lam[active], system), f[active])
        usable = np.isfinite(step).all(axis=1)
        done = best[active] <= tol
        # one polishing step sharpens a converged root well below tol
        polish = active[done & usable]
        if polish.size:
            cand = lam[polish] + step[done & usable]
            better = _residuals(cand, system)[1] <= best[polish]
            lam[polish[better]] = cand[better]
        end(active[done], it)
        end(active[~done & ~usable], it, "singular-jacobian")
        rows, step = active[~done & usable], step[~done & usable]
        for damp in _DAMPING:
            if not rows.size:
                break
            cand = lam[rows] + damp * step
            f_cand, r = _residuals(cand, system)
            accept = np.isfinite(r) & (r < best[rows])
            hit = rows[accept]
            lam[hit], f[hit], best[hit] = cand[accept], f_cand[accept], r[accept]
            rows, step = rows[~accept], step[~accept]
        end(rows, it, "stalled", f"residual {{:.3e}} after {it} iterations")
    left = np.flatnonzero(running)
    converged = best[left] <= tol
    end(left[converged], max_iter)
    end(left[~converged], max_iter, "max-iter", f"residual {{:.3e}} after {max_iter} iterations")
    return lam, iterations, failures


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
    """Initial rapidity sets for one of the strategies
    {free-momenta, two-string, strings, random}."""
    spin, length, m = system.spin, system.length, system.m
    if m == 0:
        return []
    singles = free_momenta_rapidities(spin, length)
    if strategy == "free-momenta":
        return [np.array(combo, dtype=complex) for combo in combinations(singles, m)]
    if strategy == "two-string":
        if m < 2:
            return []
        seeds = []
        for c in _string_centers(spin, length):
            # widths off the ideal i/2: the exact-width configuration is an
            # invariant manifold of the Newton map that drains into the poles
            for width in (0.44, 0.57):
                pair = [c + 1j * width, c - 1j * width]
                if m == 2:
                    seeds.append(np.array(pair, dtype=complex))
                else:
                    far = [z for z in singles if abs(z - c) > 0.3]
                    for rest in combinations(far, m - 2):
                        seeds.append(np.array(pair + list(rest), dtype=complex))
        return seeds
    if strategy == "strings":
        # string-hypothesis seeds: split m into strings with spacing ~i,
        # one center per string, centers drawn from the quantization grid
        centers = _string_centers(spin, length)
        seeds = []
        for part in _partitions(m):
            if all(p == 1 for p in part):
                continue  # identical to free-momenta
            # placements grow like centers^len(part); coarsen for many strings
            grid = centers if len(part) <= 2 else centers[::2]
            stack = [(0, [])]
            while stack:
                idx, chosen = stack.pop()
                if idx == len(part):
                    for stretch in (0.88, 1.14):
                        lam = []
                        for n, c in chosen:
                            lam += [c + 0.5j * stretch * (n - 1 - 2 * a) for a in range(n)]
                        seeds.append(np.array(lam, dtype=complex))
                    continue
                for c in grid:
                    stack.append((idx + 1, chosen + [(part[idx], c)]))
        return seeds
    if strategy == "random":
        if rng is None:
            rng = np.random.default_rng(0)
        return [
            rng.normal(scale=random_scale, size=m) + 1j * rng.normal(scale=random_scale, size=m)
            for _ in range(n_random)
        ]
    raise ValueError(f"unknown seeding strategy {strategy!r}")


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


class DeflationRegistry:
    """Unordered root-set dedup via elementary symmetric polynomials,
    identifying a set with its complex conjugate."""

    def __init__(self, tol: float = DEFLATION_TOL):
        self.tol = tol
        self._fingerprints = None  # one registered set per row

    @staticmethod
    def _fingerprint(lam) -> np.ndarray:
        return np.poly(np.atleast_1d(np.asarray(lam, dtype=complex)))[1:]

    def _seen(self, fp: np.ndarray) -> bool:
        refs = self._fingerprints
        if refs is None:
            return False
        # the set and its conjugate against every registered set at once
        cands = np.stack((fp, np.conj(fp)))[:, None, :]
        close = np.abs(cands - refs) <= self.tol * (1.0 + np.abs(refs))
        return bool(close.all(axis=2).any())

    def seen(self, lam) -> bool:
        return self._seen(self._fingerprint(lam))

    def add(self, lam) -> bool:
        """Register a root set; returns False if it was already present."""
        fp = self._fingerprint(lam)
        if self._seen(fp):
            return False
        refs = self._fingerprints
        self._fingerprints = fp[None] if refs is None else np.vstack((refs, fp))
        return True


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
    vec = np.zeros(len(basis), dtype=complex)
    for x in range(1, length):
        vec[basis.index_of(hilbert.occupation_of((x, x + 1), length))] += (-1) ** x
    vec[basis.index_of(hilbert.occupation_of((1, length), length))] += (-1) ** length
    lam = (0.5j, -0.5j)
    return BetheState(spin, length, None, lam, basis, vec, -2.0 + 0.0j,
                      float(np.linalg.norm(vec)))


def _certificate(state: BetheState, bethe_res: float, iterations: int,
                 hamiltonian: ChainHamiltonian, singular: bool = False) -> RootCertificate:
    from .verify import eigen_residual, highest_weight_residual

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


def _settle(system: BetheSystem, lam: np.ndarray, iterations: int,
            hamiltonian: ChainHamiltonian, registry: Optional[DeflationRegistry]):
    """Classification, deflation, state build and certificate of one Newton root."""
    reason = classify_roots(lam, system)
    if reason is not None:
        raise NewtonFailureError(reason, f"roots {np.round(lam, 6)}")
    if registry is not None and not registry.add(lam):
        raise NewtonFailureError("duplicate", "root set already deflated")
    try:
        state = build_bethe_state(system.spin, system.length, lam=lam)
    except ChainError as exc:
        raise NewtonFailureError("state-degenerate", str(exc)) from exc
    return _certificate(state, scaled_residual(lam, system), iterations, hamiltonian)


def solve_newton(system: BetheSystem, seed, opts: SolverOptions,
                 hamiltonian: ChainHamiltonian = None,
                 registry: DeflationRegistry = None) -> RootCertificate:
    """Run one seed through Newton, classification, deflation and state build."""
    if hamiltonian is None:
        hamiltonian = ChainHamiltonian(system.spin, system.length)
    lam, iterations = newton_solve(system, seed, tol=opts.tol_newton, max_iter=opts.max_iter)
    return _settle(system, lam, iterations, hamiltonian, registry)


def solve_sector(spin: Spin, length: int, m: int, opts: SolverOptions = None,
                 hamiltonian: ChainHamiltonian = None) -> list:
    """All distinct certified root sets the seed catalog reaches for one sector.

    Newton runs on the whole catalog at once (`newton_batch`); the roots are
    then settled one by one in catalog order, so the first seed to reach a
    root set registers it.  Root sets are returned sorted by `order_key`;
    each carries its Bethe, eigenvector and highest-weight residuals.  Sets
    failing the certification thresholds are dropped.
    """
    if opts is None:
        opts = SolverOptions()
    if hamiltonian is None:
        hamiltonian = ChainHamiltonian(spin, length)
    if m < 0:
        raise InputRangeError(f"sector m={m} is negative")
    if 2 * m > spin.two_s * length:
        # past the equator S^+ is injective on the sector: no highest-weight
        # vector exists, so no root set there can be certified
        return []
    system = BetheSystem(spin, length, m)
    if m == 0:
        vacuum = build_bethe_state(spin, length, k=())
        return [_certificate(vacuum, 0.0, 0, hamiltonian)]

    roots, iterations, failures = newton_batch(system, sector_seeds(system, opts),
                                               opts.tol_newton, opts.max_iter)
    registry = DeflationRegistry()
    certs = []
    for lam, its, failure in zip(roots, iterations, failures):
        if failure is not None:
            continue
        try:
            cert = _settle(system, lam, int(its), hamiltonian, registry)
        except NewtonFailureError:
            continue
        if cert.certified(opts):
            certs.append(cert)

    if spin.two_s == 1 and m == 2 and length % 2 == 0:
        state = singular_pair_state(spin, length)
        if registry.add(state.lam):
            bethe_res = scaled_residual(np.array(state.lam), system)
            cert = _certificate(state, bethe_res, 0, hamiltonian, singular=True)
            if cert.certified(opts):
                certs.append(cert)

    certs.sort(key=lambda c: order_key(c.energy, c.lam))
    return certs
