import itertools
import math
import pickle
import warnings

import numpy as np
import pytest

from oracles import (
    PolyRegistry,
    alternating_bound_state,
    classify_loop,
    fd_jacobian,
    naive_bethe_terms,
    newton_loop,
    random_seed_loop,
    scalar_jacobian,
    scalar_residual,
)
from test_verification import RECONCILE_COMPLETENESS
from xxxchain import bethe, hilbert, solver
from xxxchain.errors import DegenerateRootsError, InputRangeError, NewtonFailureError
from xxxchain.hamiltonian import ChainHamiltonian
from xxxchain.solver import (
    BetheSystem,
    DeflationRegistry,
    SolverOptions,
    bethe_residual,
    free_momenta_rapidities,
    jacobian,
    newton_batch,
    newton_solve,
    order_key,
    scaled_residual,
    sector_seeds,
    seed_catalog,
    solve_newton,
    solve_sector,
)
from xxxchain.su2 import Spin
from xxxchain.verify import (
    eigen_residual,
    highest_weight_residual,
    reconcile_spectrum,
    sector_eigh,
)


def test_one_magnon_exact_roots():
    for spin, length in ((Spin(1), 2), (Spin(1), 4), (Spin(2), 5), (Spin(3), 4)):
        system = BetheSystem(spin, length, 1)
        for n in range(1, length):
            lam = spin.s / math.tan(math.pi * n / length)
            assert scaled_residual([lam], system) < 1e-12


def test_one_magnon_L2_is_k_pi():
    # lambda = (1/2) cot(pi/2) = 0 corresponds to k = pi
    system = BetheSystem(Spin(1), 2, 1)
    assert scaled_residual([0.0], system) == 0.0
    assert abs(bethe.lambda_to_k(0.0, Spin(1)) - np.pi) < 1e-14


def test_residual_matches_k_form_up_to_prefactor():
    rng = np.random.default_rng(0)
    for spin, length, m in ((Spin(1), 4, 2), (Spin(2), 5, 3)):
        system = BetheSystem(spin, length, m)
        for _ in range(25):
            lam = rng.normal(size=m) + 1j * rng.normal(size=m)
            if min(np.min(np.abs(lam - 1j * spin.s)), np.min(np.abs(lam + 1j * spin.s))) < 0.1:
                continue
            if m > 1 and min(abs(lam[a] - lam[b]) for a in range(m) for b in range(a + 1, m)) < 0.1:
                continue
            u = bethe.u_from_lambda(lam, spin)
            cleared = bethe_residual(lam, system)
            for j in range(m):
                kform = u[j] ** length - np.prod(
                    [bethe.sigma_u(u[ell], u[j], spin) for ell in range(m) if ell != j]
                )
                prefactor = (lam[j] - 1j * spin.s) ** length * np.prod(
                    [lam[j] - lam[ell] - 1j for ell in range(m) if ell != j]
                )
                assert abs(cleared[j] - kform * prefactor) < 1e-10 * abs(prefactor) * max(1.0, abs(kform))


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(1)
    for spin, length, m in ((Spin(1), 4, 2), (Spin(2), 4, 3), (Spin(1), 6, 3)):
        system = BetheSystem(spin, length, m)
        lam = rng.normal(size=m) + 1j * rng.normal(size=m)
        analytic = jacobian(lam, system)
        numeric = fd_jacobian(lam, system, rel_step=1e-7)
        scale = np.max(np.abs(analytic)) + 1.0
        assert np.max(np.abs(analytic - numeric)) / scale < 1e-6


def test_residual_matches_naive_products():
    rng = np.random.default_rng(5)
    for spin, length in ((Spin(1), 5), (Spin(2), 4), (Spin(3), 3)):
        for m in range(1, 6):
            system = BetheSystem(spin, length, m)
            for _ in range(10):
                lam = rng.normal(size=m) + 1j * rng.normal(size=m)
                t1, t2 = naive_bethe_terms(lam, spin, length)
                scale = np.abs(t1) + np.abs(t2)
                assert np.all(np.abs(bethe_residual(lam, system) - (t1 - t2)) <= 1e-13 * scale)


def test_power_matches_scalar_power():
    # moduli from 1e-200 to 1e150 at random phases, and every pair of 0, -0,
    # +-inf and NaN as parts: up to n = 40 the powers underflow and overflow
    rng = np.random.default_rng(11)
    z = 10.0 ** rng.uniform(-200, 150, 50_000) * np.exp(2j * np.pi * rng.random(50_000))
    special = (0.0, -0.0, np.inf, -np.inf, np.nan)
    z = np.concatenate((z, [complex(a, b) for a in special for b in special]))
    assert solver._power(z, 1) is z
    with np.errstate(all="ignore"):
        for n in range(1, 41):
            got, want = solver._power(z, n), z**n
            finite = np.isfinite(want)
            assert np.isfinite(got[finite]).all()
            # the scalar loop rounds the two products of a part, a_r b_r - a_i b_i,
            # before it subtracts, and overflows where one of them does; a fused
            # multiply-add rounds once, so there the power can stay finite, at the
            # overflow edge only: a partial product's modulus is at most |z^n|
            edge = np.isfinite(got) & ~finite
            assert np.all(np.abs(got[edge]) >= np.finfo(float).max / 2)
            # relative to |z^n|, wherever it is above the subnormal range
            size = np.abs(want)
            normal = finite & (size >= np.finfo(float).tiny)
            assert np.all(np.abs(got - want)[normal] <= 2 * n * 2.0**-52 * size[normal])


def test_jacobian_on_exact_strings():
    # a factor lambda_j - lambda_l -+ i is exactly zero on these root sets
    two_string = np.array([0.3 + 0.25j, 0.3 - 0.75j])
    three_string = np.array([-0.4 + 1.25j, -0.4 + 0.25j, -0.4 - 0.75j])
    for lam in (two_string, three_string, np.append(two_string, 1.1)):
        assert lam[0] - lam[1] - 1j == 0
        for spin, length in ((Spin(1), 5), (Spin(2), 4)):
            system = BetheSystem(spin, length, len(lam))
            analytic = jacobian(lam, system)
            assert np.all(np.isfinite(analytic))
            numeric = fd_jacobian(lam, system, rel_step=1e-6)
            scale = np.max(np.abs(analytic)) + 1.0
            assert np.max(np.abs(analytic - numeric)) / scale < 1e-6


@pytest.mark.parametrize("string", [True, False])
def test_kernels_match_scalar_oracle_bit_for_bit(string):
    # with the string flag the heads are (lambda +- is)^(L-1) (lambda -+ i(s+1)); L = 2
    # takes no power below the pole factor, m = 1 no pair factor
    rng = np.random.default_rng(3)
    for two_s, length, m in ((1, 8, 1), (1, 8, 3), (2, 5, 2), (3, 6, 4), (4, 3, 5), (1, 2, 2),
                             (1, 13, 5)):
        system = BetheSystem(Spin(two_s), length, m, string=string)
        lam = rng.normal(size=(6, m)) + 1j * rng.normal(size=(6, m))
        f, scaled = solver._residuals(lam, system)
        jac = solver._jacobians(lam, system)
        for row in range(len(lam)):
            f_row, scaled_row = scalar_residual(lam[row], system)
            assert f[row].tobytes() == f_row.tobytes() and scaled[row] == scaled_row
            assert jac[row].tobytes() == scalar_jacobian(lam[row], system).tobytes()


def test_reduced_residual_is_the_full_residual_beside_the_string():
    # over the exact string the pair factors telescope: the cleared residual of a
    # further root j in the full root set is K_j F_j of the reduced one, where
    # K_j = (l_j + is)(l_j - is) prod_{|b| < s} (l_j - ib)
    rng = np.random.default_rng(4)
    for two_s, length, n in ((1, 8, 2), (2, 5, 2), (3, 4, 1), (4, 3, 3)):
        spin = Spin(two_s)
        string = [1j * (spin.s - a) for a in range(spin.dim)]
        for _ in range(5):
            lam = rng.normal(size=n) + 1j * rng.normal(size=n)
            reduced = bethe_residual(lam, BetheSystem(spin, length, n, string=True))
            full = bethe_residual(np.concatenate((string, lam)),
                                  BetheSystem(spin, length, spin.dim + n))[spin.dim:]
            factor = [(z + 1j * spin.s) * (z - 1j * spin.s) *
                      np.prod([z - 1j * (spin.s - a) for a in range(1, two_s)]) for z in lam]
            t1, t2 = naive_bethe_terms(np.concatenate((string, lam)), spin, length)
            scale = (np.abs(t1) + np.abs(t2))[spin.dim:]
            assert np.all(np.abs(full - np.array(factor) * reduced) <= 1e-13 * scale)


def test_reduced_jacobian_matches_finite_differences():
    rng = np.random.default_rng(6)
    for two_s, length, n in ((1, 8, 2), (2, 5, 3), (3, 4, 1), (1, 3, 2)):
        system = BetheSystem(Spin(two_s), length, n, string=True)
        lam = rng.normal(size=n) + 1j * rng.normal(size=n)
        analytic = jacobian(lam, system)
        numeric = fd_jacobian(lam, system, rel_step=1e-7)
        assert np.max(np.abs(analytic - numeric)) / (np.max(np.abs(analytic)) + 1.0) < 1e-6


def _reaches(system, seeds, targets):
    """Which of the root sets `targets` some converged row of newton_batch reaches."""
    roots, _, reasons, _ = newton_batch(system, seeds)
    converged = roots[np.equal(reasons, None)]
    return [any(np.allclose(np.sort_complex(row), np.sort_complex(target), rtol=0, atol=1e-5)
                for row in converged) for target in targets]


def test_reduced_newton_reaches_every_string_set_of_spin_half_l8_m4():
    # (1/2, 8, 4) holds three physical sets of n = 2 roots beside {+i/2, -i/2}; the
    # pair +-1.55613i, 0.056 from +-3i/2, is reached only from the imaginary axis
    spin = Spin(1)
    system = BetheSystem(spin, 8, 2, string=True)
    targets = ([-0.14247, 0.14247], [-0.56383, 0.56383], [-1.55613j, 1.55613j])
    catalog = sector_seeds(BetheSystem(spin, 6, 2), SolverOptions())
    axis = solver._axis_seeds(spin, 6, 2)
    assert _reaches(system, catalog, targets) == [True, True, False]
    assert _reaches(system, axis, targets)[2]
    sets = solver._string_sets(BetheSystem(spin, 8, 4), SolverOptions())
    assert len(sets) == 3 and all(part <= 1e-10 for _, _, part in sets)
    assert all(_reaches(system, np.array([roots for roots, _, _ in sets]), targets))


def test_newton_converges_immediately_on_exact_seed():
    system = BetheSystem(Spin(1), 4, 1)
    for n in (1, 2, 3):
        lam0 = 0.5 / math.tan(math.pi * n / 4)
        roots, iterations = newton_solve(system, [lam0])
        assert iterations <= 2
        assert scaled_residual(roots, system) < 1e-12


def test_newton_failure_modes():
    system = BetheSystem(Spin(1), 4, 2)
    with pytest.raises(ValueError):
        newton_solve(system, [0.1])
    opts = SolverOptions()
    ham = ChainHamiltonian(Spin(1), 4)
    # a seed near the poles flows into the singular classification
    with pytest.raises(NewtonFailureError) as err:
        solve_newton(system, np.array([0.003 + 0.5j, 0.003 - 0.5j]), opts, ham)
    assert err.value.reason in ("singular", "stalled", "max-iter")


# solve_newton over a whole catalog with one registry: the count of each
# outcome, and the catalog index and message of the first seed of each reason
SOLVE_NEWTON_OUTCOMES = {
    (1, 4, 2): ({"certificate": 1, "degenerate": 12, "duplicate": 5, "max-iter": 6,
                 "stalled": 181},
                {"degenerate": (0, "degenerate: roots [0.207107+0.j 0.207107+0.j]"),
                 "stalled": (3, "stalled: residual 7.437e-01 after 0 iterations"),
                 "max-iter": (4, "max-iter: residual 2.573e-01 after 80 iterations"),
                 "duplicate": (39, "duplicate: root set already deflated")}),
    (1, 6, 3): ({"certificate": 4, "degenerate": 8, "duplicate": 19, "max-iter": 36,
                 "stalled": 313, "state-degenerate": 2},
                {"stalled": (0, "stalled: residual 9.449e-01 after 0 iterations"),
                 "degenerate": (2, "degenerate: roots "
                                   "[ 0.372734+0.j  0.372734+0.j -0.472938+0.j]"),
                 "state-degenerate": (28, "state-degenerate: Bethe state has vanishing norm "
                                          "for this root set"),
                 "duplicate": (43, "duplicate: root set already deflated"),
                 "max-iter": (57, "max-iter: residual 5.045e-01 after 80 iterations")}),
    (2, 3, 2): ({"certificate": 3, "degenerate": 32, "duplicate": 44, "stalled": 120},
                {"degenerate": (0, "degenerate: roots [0.+0.j 0.+0.j]"),
                 "duplicate": (2, "duplicate: root set already deflated"),
                 "stalled": (9, "stalled: residual 8.257e-01 after 2 iterations")}),
}


@pytest.mark.parametrize("two_s, length, m", SOLVE_NEWTON_OUTCOMES)
def test_solve_newton_outcomes_are_pinned(two_s, length, m):
    system = BetheSystem(Spin(two_s), length, m)
    opts, ham, registry = SolverOptions(), ChainHamiltonian(system.spin, length), \
        DeflationRegistry()
    counts, first = {}, {}
    for index, seed in enumerate(sector_seeds(system, opts)):
        try:
            solve_newton(system, seed, opts, ham, registry)
            reason = "certificate"
        except NewtonFailureError as exc:
            reason = exc.reason
            first.setdefault(reason, (index, str(exc)))
            # only a failed state build carries a cause: the error it raised
            assert isinstance(exc.__cause__, DegenerateRootsError) == \
                (reason == "state-degenerate")
        counts[reason] = counts.get(reason, 0) + 1
    assert (counts, first) == SOLVE_NEWTON_OUTCOMES[two_s, length, m]


@pytest.mark.parametrize("two_s, length, seed, message", [
    (1, 6, [np.nan, 0.1], "nonfinite: iterate left the finite domain"),
    # the exact pair {+is, -is}: its scaled residual is 0/0, read as 0
    (1, 6, [0.5j, -0.5j], "singular: roots [0.+0.5j 0.-0.5j]"),
    # J ~ 1e-310 at the first step: LAPACK's step overflows
    (1, 6, [1e-310, -1e-310], "singular-jacobian"),
    # a seed beyond DESCENDANT_CUTOFF ends before Newton evaluates anything
    (2, 3, [1e60, 0.3], "descendant"),
])
def test_solve_newton_failure_messages(two_s, length, seed, message):
    system = BetheSystem(Spin(two_s), length, 2)
    with pytest.raises(NewtonFailureError) as err:
        solve_newton(system, np.array(seed, dtype=complex), SolverOptions())
    assert str(err.value) == message and err.value.__cause__ is None


def test_solve_sector_builds_no_newton_failure(monkeypatch):
    # a rejected or duplicate root set is data on the batch path; 44 of
    # this catalog's converged rows are duplicates
    def unexpected(*args):
        raise AssertionError(f"solve_sector built an error {args}")

    monkeypatch.setattr(solver, "NewtonFailureError", unexpected)
    assert len(solve_sector(Spin(2), 3, 2)) == 3


def test_newton_failure_message_is_formatted_when_read(monkeypatch):
    # newton_batch returns a failed row as data; its error, and so its
    # message, is made only for a caller that reads it
    def unexpected(*args):
        raise AssertionError(f"newton_batch built an error {args}")

    system = BetheSystem(Spin(2), 4, 2)
    with monkeypatch.context() as patch:
        patch.setattr(solver, "NewtonFailureError", unexpected)
        reasons = newton_batch(system, sector_seeds(system, SolverOptions()))[2]
    assert {None, "stalled"} <= set(reasons)
    err = solver._newton_failure("stalled", np.int64(4), np.float64(0.25))
    assert err.reason == "stalled"
    assert str(err) == "stalled: residual 2.500e-01 after 4 iterations"
    assert str(solver._newton_failure("max-iter", 80, 3e-7)) == \
        "max-iter: residual 3.000e-07 after 80 iterations"
    assert str(solver._newton_failure("nonfinite", 2, np.nan)) == \
        "nonfinite: iterate left the finite domain"
    assert str(solver._newton_failure("singular-jacobian", 0, 1.0)) == "singular-jacobian"
    assert str(NewtonFailureError("duplicate", "set {0} seen")) == "duplicate: set {0} seen"
    copy = pickle.loads(pickle.dumps(err))
    assert (copy.reason, str(copy)) == (err.reason, str(err))


def _messages(outcomes):
    """Per row None or the (reason, message) of its NewtonFailureError."""
    _, iterations, reasons, best = outcomes
    return [None if reason is None else (reason, str(solver._newton_failure(reason, its, r)))
            for reason, its, r in zip(reasons, iterations, best)]


def _same_outcomes(a, b):
    roots_a, its_a, reasons_a, best_a = a
    roots_b, its_b, reasons_b, best_b = b
    assert np.array_equal(roots_a, roots_b, equal_nan=True)
    assert np.array_equal(its_a, its_b)
    assert list(reasons_a) == list(reasons_b)
    assert np.array_equal(best_a, best_b, equal_nan=True)
    assert _messages(a) == _messages(b)


def test_newton_batch_matches_scalar_oracle():
    opts = SolverOptions()
    reasons = set()
    # spin 1/2, L=6, m=3 and spin 1, L=3, m=3 add rows that drift toward +-is
    # for all MAX_ITER iterations
    for two_s, length, m in [*CRITERION6_GRID, (1, 6, 3), (2, 3, 3)]:
        system = BetheSystem(Spin(two_s), length, m)
        seeds = sector_seeds(system, opts)
        batch = newton_batch(system, seeds, opts.tol_newton, solver.MAX_ITER)
        for seed, lam, its, failure, best in zip(seeds, batch[0], batch[1], _messages(batch),
                                                 batch[3]):
            try:
                expected, expected_its, expected_best = newton_loop(
                    system, seed, opts.tol_newton, solver.MAX_ITER)
            except NewtonFailureError as exc:
                # stalled and max-iter messages carry the iteration count
                assert failure == (exc.reason, str(exc)), (two_s, length, m, seed)
                assert np.array_equal(best, exc.best, equal_nan=True), (two_s, length, m, seed)
                reasons.add(exc.reason)
                continue
            assert failure is None, (two_s, length, m, seed)
            assert its == expected_its
            # the same points in the same order, polishing step included
            assert np.array_equal(lam, expected), (two_s, length, m, seed)
            assert best == expected_best, (two_s, length, m, seed)
            reasons.add(None)
        if (two_s, length, m) in ((1, 6, 3), (2, 3, 3)):
            assert (batch[1] == solver.MAX_ITER).any()
    assert {None, "stalled", "max-iter"} <= reasons


def test_singular_jacobian_row_leaves_the_batch_alone():
    # the Jacobian at {1/2, -1/2} for spin 1/2, L=6 is exactly singular, so
    # LAPACK rejects the whole stacked solve
    system = BetheSystem(Spin(1), 6, 2)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(jacobian([0.5, -0.5], system), np.ones(2))
    seeds = np.array([[0.6 + 0.1j, -0.3], [0.5, -0.5], [1.1, 0.2 - 0.4j],
                      [-0.9 + 0.3j, 0.4 + 0.3j], [0.87, 0.29]])
    batch = newton_batch(system, seeds)
    for row in range(len(seeds)):
        alone = newton_batch(system, seeds[row:row + 1])
        _same_outcomes(tuple(part[row:row + 1] for part in batch), alone)
    assert list(batch[2]) == [None, None, None, "stalled", "stalled"]


@pytest.mark.parametrize("singular", [(0,), (3,), (6,), (1, 4), tuple(range(7))])
def test_newton_steps_take_least_squares_on_the_singular_rows_alone(singular):
    # the rows where a one-row solve raises, and only they, take least squares;
    # every row's step has the bits of its one-row call
    system = BetheSystem(Spin(1), 6, 2)
    lam = np.random.default_rng(8).normal(size=(7, 2, 2)) @ np.array([1, 1j])
    lam[list(singular)] = [0.5, -0.5]
    jac, f = solver._jacobians(lam, system), solver._residuals(lam, system)[0]
    steps = solver._newton_steps(jac, f)
    for row in range(len(lam)):
        try:
            expected = np.linalg.solve(jac[row], -f[row])
        except np.linalg.LinAlgError:
            expected = np.linalg.lstsq(jac[row], -f[row], rcond=None)[0]
            singular = tuple(r for r in singular if r != row)
        assert steps[row].tobytes() == expected.tobytes(), row
    assert singular == ()


def test_nan_seed_ends_nonfinite_and_leaves_the_other_rows_alone():
    # the lockstep marks nonfinite seeds before it evaluates any residual, so
    # they raise no RuntimeWarning and keep a NaN best residual; _residuals
    # reads NaN on a NaN term, so no iterate moves to a nonfinite point
    system = BetheSystem(Spin(1), 6, 2)
    seeds = sector_seeds(system, SolverOptions())
    bad = (len(seeds) // 3, 2 * len(seeds) // 3)
    for row, seed in zip(bad, ([np.nan, 0.1], [np.inf, 0.1])):
        seeds = np.insert(seeds, row, seed, axis=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        batch = newton_batch(system, seeds)
    for row in bad:
        assert batch[1][row] == 0 and batch[2][row] == "nonfinite" and np.isnan(batch[3][row])
    for other in np.flatnonzero(~np.isin(np.arange(len(seeds)), bad)):
        alone = newton_batch(system, seeds[other:other + 1])
        _same_outcomes(tuple(part[other:other + 1] for part in batch), alone)
    assert {None, "stalled", "max-iter"} <= set(batch[2])


def test_far_seeds_end_as_descendants_before_any_residual():
    # |lambda|^L of such a seed overflows, so it ends at the seed gate, as
    # the nonfinite one does, and keeps a NaN best residual
    system = BetheSystem(Spin(1), 6, 2)
    seeds = np.array([[1e60, 0.3], [1e100, 0.3], [1e9, 0.3], [0.3, -0.3], [np.nan, 0.1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        batch = newton_batch(system, seeds)
    assert list(batch[2]) == ["descendant"] * 3 + [None, "nonfinite"]
    assert list(batch[1][[0, 1, 2, 4]]) == [0] * 4 and np.isnan(batch[3][[0, 1, 2, 4]]).all()
    _same_outcomes(tuple(part[3:4] for part in batch), newton_batch(system, seeds[3:4]))
    # at L = 40 the terms |t1| + |t2| of the seed 5e7 overflow while F stays finite: it
    # is no root, so it must not read as converged
    far = BetheSystem(Spin(1), 40, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        lam, iterations, reasons, best = newton_batch(far, [[5e7]])
    assert reasons[0] == "stalled" and iterations[0] == 0 and np.isnan(best[0])
    with pytest.raises(NewtonFailureError, match="stalled: residual nan after 0 iterations"):
        solve_newton(far, [5e7], SolverOptions(), ChainHamiltonian(Spin(1), 40, cap=2**40))


def test_nonfinite_newton_step_ends_its_row_alone(monkeypatch):
    # a NaN or infinite step makes every candidate of the row nonfinite, so its scaled
    # residuals read NaN, no damping level is taken, and the row ends on a singular
    # Jacobian where it started
    system = BetheSystem(Spin(1), 6, 2)
    seeds = sector_seeds(system, SolverOptions())
    bad = (3, 7)
    steps, calls = solver._newton_steps, []

    def poisoned(jac, f):
        out = steps(jac, f)
        if not calls:
            out[bad[0], 0], out[bad[1], 1] = np.nan, complex(0.0, np.inf)
        calls.append(len(jac))
        return out

    monkeypatch.setattr(solver, "_newton_steps", poisoned)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        batch = newton_batch(system, seeds)
    monkeypatch.undo()
    assert calls[0] == len(seeds)
    for row in bad:
        assert batch[1][row] == 0 and batch[2][row] == "singular-jacobian"
        assert np.array_equal(batch[0][row], seeds[row])
        assert batch[3][row] == scaled_residual(seeds[row], system)
    for other in np.flatnonzero(~np.isin(np.arange(len(seeds)), bad)):
        alone = newton_batch(system, seeds[other:other + 1])
        _same_outcomes(tuple(part[other:other + 1] for part in batch), alone)
    assert {None, "stalled", "max-iter"} <= set(batch[2])


@pytest.mark.parametrize("length", [40, 400])
def test_one_row_helpers_raise_no_overflow_warning(length):
    # the terms (5e7 +- i/2)^40 are finite but their scale |t1| + |t2| overflows;
    # at L = 400 the power itself does
    system = BetheSystem(Spin(1), length, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.isnan(scaled_residual([5e7], system))
        bethe_residual([5e7], system)
        assert jacobian([5e7], system).shape == (1, 1)


def test_newton_batch_split_into_blocks_equals_one_block(monkeypatch):
    system = BetheSystem(Spin(2), 4, 2)
    seeds = sector_seeds(system, SolverOptions())
    whole = newton_batch(system, seeds)
    blocks = []
    lockstep = solver._lockstep

    def counted(system, lam, *args):
        blocks.append(len(lam))
        lockstep(system, lam, *args)

    # three rows of the line search's pair factors over all damping levels, the
    # largest work array at m = 2
    levels = len(solver._DAMPING)
    monkeypatch.setattr(bethe, "BLOCK_ENTRIES", 3 * 2 * levels * system.m * (system.m - 1))
    monkeypatch.setattr(solver, "_lockstep", counted)
    before = seeds.tobytes()
    split = newton_batch(system, seeds)
    assert max(blocks) == 3 and sum(blocks) == len(seeds)
    _same_outcomes(whole, split)
    # the blocks move newton_batch's own copy of the seeds
    assert seeds.tobytes() == before and not np.shares_memory(split[0], seeds)


@pytest.mark.parametrize("two_s, length, m, strategies", [
    (1, 10, 4, ("free-momenta",)),
    (1, 10, 5, ("free-momenta",)),
    (2, 6, 6, solver.STRATEGIES),
])
def test_newton_batch_rows_do_not_depend_on_the_batch(monkeypatch, two_s, length, m, strategies):
    # the pair products are longest here: each row's bits must not depend on
    # its position in the catalog or on the rows beside it
    system = BetheSystem(Spin(two_s), length, m)
    seeds = sector_seeds(system, SolverOptions(strategies=strategies))
    whole = newton_batch(system, seeds)
    reverse = newton_batch(system, seeds[::-1])
    _same_outcomes(whole, tuple(part[::-1] for part in reverse))
    # blocks of five rows of the line search's pair factors over all damping levels
    levels = len(solver._DAMPING)
    monkeypatch.setattr(bethe, "BLOCK_ENTRIES", 5 * 2 * levels * m * (m - 1))
    _same_outcomes(whole, newton_batch(system, seeds))
    assert {None, "stalled"} <= set(whole[2])


def _first_damping(system, seed):
    """The damping level the line search takes in the first Newton step
    from seed, from the one-row kernels, or None if no level improves."""
    step = np.linalg.solve(jacobian(seed, system), -bethe_residual(seed, system))
    start = scaled_residual(seed, system)
    return next((damp for damp in solver._DAMPING
                 if scaled_residual(seed + damp * step, system) < start), None)


def test_line_search_block_matches_scalar_oracle():
    system = BetheSystem(Spin(2), 4, 2)
    # full step then convergence, full step then a stall, first step only at
    # damping 1/32, no improving level at all
    seeds = np.array([[0.19 - 0.21j, -0.52 - 1.22j], [1.8 - 0.16j, 1.14 + 0.39j],
                      [0.39 + 0.19j, -0.63 - 0.48j], [-1.73 + 0.42j, -1.5 + 0.06j]])
    assert [_first_damping(system, seed) for seed in seeds] == [1.0, 1.0, 1 / 32, None]
    batch = newton_batch(system, seeds)
    assert list(batch[2]) == [None, "stalled", None, "stalled"]
    for row, (seed, lam, its, failure) in enumerate(zip(seeds, batch[0], batch[1],
                                                        _messages(batch))):
        _same_outcomes(tuple(part[row:row + 1] for part in batch),
                       newton_batch(system, seeds[row:row + 1]))
        try:
            expected, expected_its, _ = newton_loop(system, seed)
        except NewtonFailureError as exc:
            assert failure == (exc.reason, str(exc))
            continue
        assert failure is None and its == expected_its
        assert np.max(np.abs(lam - expected)) <= 1e-9


def test_solver_emits_no_runtime_warnings():
    opts = SolverOptions(tol_eigen=np.inf, tol_hw=np.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for two_s, length, m in CRITERION6_GRID:
            solve_sector(Spin(two_s), length, m, opts)
        reconcile_spectrum(Spin(1), 6, 3)
        # the free-momenta roots of the widest spin-1/2, L=12 sectors
        for m in (4, 5):
            solve_sector(Spin(1), 12, m, SolverOptions(strategies=("free-momenta",)))


def test_classification():
    system = BetheSystem(Spin(1), 4, 2)
    rows = np.array([[1e9, 0.4], [0.4, 0.4 + 1e-8j], [0.5j + 1e-4, -0.5j], [0.29, -0.29]])
    assert list(solver._reject_reasons(rows, system.spin.s)) == [
        "descendant", "degenerate", "singular", None]


def test_reject_reasons_match_scalar_loop():
    system = BetheSystem(Spin(1), 4, 3)
    rows = np.array([[1e9, 0.4, 0.4], [0.4, 0.4 + 1e-8j, 0.9], [0.5j + 1e-4, -0.5j, 0.1],
                     [0.5j, 0.7, 0.7], [0.29, -0.29, 1.3]])
    reasons = solver._reject_reasons(rows, system.spin.s)
    expected = [classify_loop(row, system.spin.s) for row in rows]
    assert list(reasons) == expected == ["descendant", "degenerate", "singular", "degenerate",
                                         None]


def test_random_seeds_are_the_one_seed_draws():
    for m, n_random, scale in ((1, 5, 1.5), (3, 64, 0.75), (4, 0, 2.0)):
        rng_rows, rng_loop = np.random.default_rng(7), np.random.default_rng(7)
        rows = seed_catalog(BetheSystem(Spin(1), 8, m), "random", rng=rng_rows,
                            n_random=n_random, random_scale=scale)
        loop = random_seed_loop(rng_loop, n_random, m, scale)
        assert len(rows) == len(loop) == n_random
        assert all(a.shape == (m,) and a.tobytes() == b.tobytes() for a, b in zip(rows, loop))
        assert rng_rows.bit_generator.state == rng_loop.bit_generator.state


def test_seed_catalog_counts():
    system = BetheSystem(Spin(1), 4, 1)
    assert len(seed_catalog(system, "free-momenta")) == 3  # n = 1..L-1
    system = BetheSystem(Spin(1), 4, 2)
    assert len(seed_catalog(system, "free-momenta")) == 3  # C(3, 2)
    for m in (2, 3, 4):
        strings = seed_catalog(BetheSystem(Spin(1), 4, m), "strings")
        assert strings
        for seed in strings:  # every string is centred on the real axis
            assert np.max(np.abs(np.sort(seed.imag) - np.sort(-seed.imag))) < 1e-12
    rng = np.random.default_rng(0)
    assert len(seed_catalog(system, "random", rng=rng, n_random=17)) == 17
    with pytest.raises(InputRangeError):
        seed_catalog(system, "bogus")


def test_string_seeds_list_each_placement_once():
    # strings of one length take distinct centres, and two strings of one
    # parity on one centre (which would share a root) are left out
    for two_s, length, m in ((2, 5, 5), (3, 4, 6)):
        seeds = seed_catalog(BetheSystem(Spin(two_s), length, m), "strings")
        keys = [tuple(sorted((round(z.real, 9), round(z.imag, 9)) for z in seed))
                for seed in seeds]
        assert seeds and all(len(seed) == m for seed in seeds)
        assert len(set(keys)) == len(keys), (two_s, length, m)
        assert all(len(set(key)) == m for key in keys), (two_s, length, m)


def test_free_momenta_rapidities():
    vals = free_momenta_rapidities(Spin(2), 3)
    assert np.allclose(vals, [1 / math.tan(math.pi / 3), 1 / math.tan(2 * math.pi / 3)])


def test_deflation_registry():
    registry = DeflationRegistry()
    roots = np.array([0.3 + 0.4j, -0.2 - 0.1j])
    assert registry.add_rows(roots[None])[0]
    assert not registry.add_rows(roots[None])[0]                # exact duplicate
    assert not registry.add_rows(roots[None, ::-1])[0]          # permutation
    assert not registry.add_rows(np.conj(roots)[None])[0]       # conjugate set
    assert not registry.add_rows((roots + 1e-9)[None])[0]       # within tolerance
    assert registry.add_rows((roots + 0.1)[None])[0]            # genuinely new


def test_registry_rows_equal_sequential_adds():
    base = np.array([0.3 + 0.4j, -0.2 - 0.1j, 1.1 + 0.0j])
    earlier = np.array([0.7, -0.7, 0.05j])
    rows = np.array([base + 0.5, earlier[::-1], base, np.conj(base), base + 1e-9,
                     base[::-1], np.array([0.4, -0.4, 0.0]), base + 0.1, np.conj(base + 0.1)])
    fingerprints = solver._fingerprints(rows)
    for row, fp in zip(rows, fingerprints):
        expected = np.poly(row)[1:]
        assert np.abs(fp - expected).max() <= 1e-15 * np.abs(expected).max()
    registry, sequential, oracle = DeflationRegistry(), DeflationRegistry(), PolyRegistry()
    for reg in (registry, sequential):
        assert reg.add_rows(earlier[None])[0]
    assert oracle.add(earlier)
    new = registry.add_rows(rows)
    assert list(new) == [sequential.add_rows(row[None])[0] for row in rows] == \
        [oracle.add(row) for row in rows]
    assert list(new) == [True, False, True, False, False, False, True, True, False]


def test_registry_rows_over_several_calls_equal_one_call(monkeypatch):
    # each add_rows call compares its rows with the registered sets and with each
    # other in one _matches call
    calls, matches = [], solver._matches
    monkeypatch.setattr(solver, "_matches", lambda *args: calls.append(1) or matches(*args))
    base = np.array([0.3 + 0.4j, -0.2 - 0.1j, 1.1 + 0.0j])
    rows = np.array([base, base + 0.5, np.conj(base), base[::-1], np.conj(base + 0.5),
                     base + 1e-9, base + 0.1, np.conj(base + 0.1)[::-1], base - 0.2])
    whole = DeflationRegistry().add_rows(rows)
    assert list(whole) == [True, True, False, False, False, False, True, False, True]
    for cuts in ((1, 2, 3, 4, 5, 6, 7, 8), (2, 5), (0, 4, 4), (3, 7, 9)):
        registry, parts = DeflationRegistry(), np.split(rows, cuts)
        calls.clear()
        flags = np.concatenate([registry.add_rows(part) for part in parts])
        assert list(flags) == list(whole) and len(calls) == len(parts), cuts


def test_deflation_registry_batch_follows_catalog_order():
    registry = DeflationRegistry()
    # the second row is within tol of the first and of the third, which is not
    # within tol of the first: the first seen registers, a row it strikes does not
    rows = np.array([[0.0, 1.0], [0.0, 1.0 + 1.5e-6], [0.0, 1.0 + 3e-6]])
    sequential = DeflationRegistry()
    assert list(registry.add_rows(rows)) == \
        [sequential.add_rows(row[None])[0] for row in rows] == [True, False, True]


def test_solve_sector_known_L4_m2():
    certs = solve_sector(Spin(1), 4, 2)
    energies = sorted(c.energy.real for c in certs)
    assert np.allclose(energies, [-6.0, -2.0], atol=1e-9)
    singular = [c for c in certs if c.singular]
    assert len(singular) == 1
    assert singular[0].lam == (0.5j, -0.5j)
    for cert in certs:
        assert cert.bethe_residual <= 1e-10
        assert cert.eigen_residual <= 1e-8
        assert cert.hw_residual <= 1e-8


def test_solve_sector_energies_match_ed():
    for spin, length, m in ((Spin(1), 4, 2), (Spin(2), 4, 2)):
        ham = ChainHamiltonian(spin, length)
        certs = solve_sector(spin, length, m, hamiltonian=ham)
        assert certs
        spectrum = sector_eigh(spin, length, m, hamiltonian=ham)
        for cert in certs:
            assert np.min(np.abs(spectrum - cert.energy.real)) < 1e-7


def test_solve_sector_vacuum_and_overfilled():
    certs = solve_sector(Spin(1), 3, 0)
    assert len(certs) == 1 and certs[0].energy == 0
    with pytest.raises(InputRangeError):  # above 2sL = 3, as below 0
        solve_sector(Spin(1), 3, 4)


def test_solve_sector_stops_at_the_equator():
    # for s*L < m <= 2sL, S^+ from sector m to m-1 is injective (smallest
    # singular value > 0), so no highest-weight vector exists there
    for spin, length in ((Spin(1), 5), (Spin(2), 3), (Spin(3), 3)):
        top = spin.two_s * length
        for m in range(top // 2 + 1, top + 1):
            s_plus = hilbert.sector_s_plus(spin, length, m).toarray()
            assert np.linalg.svd(s_plus, compute_uv=False).min() > 0.1
            assert solve_sector(spin, length, m) == []


def test_solve_sector_rejects_an_unindexable_chain():
    # past 2^63 states a sector's full-space indices overflow int64
    ham = ChainHamiltonian(Spin(1), 63, cap=1 << 64)
    with pytest.raises(InputRangeError, match="overflows 64-bit state indices"):
        solve_sector(Spin(1), 63, 1, hamiltonian=ham)


def test_solver_options_validation():
    for bad in ({"tol_newton": math.nan}, {"tol_newton": math.inf}, {"tol_newton": 0.0},
                {"tol_eigen": math.nan}, {"tol_hw": 0.0},
                {"seed": -1}, {"seed": 1.5}, {"seed": "7"}, {"seed": None},
                {"strategies": ("two-string",)},
                {"strategies": ("free-momenta", "bogus")}):
        with pytest.raises(InputRangeError):
            SolverOptions(**bad)
    assert SolverOptions().strategies == solver.STRATEGIES
    SolverOptions(strategies=("random", "strings"))
    SolverOptions(seed=np.int64(7))
    # the random catalog's size and scale and the matching tolerance are constants
    for constant in ({"n_random": 5}, {"tol_match": -1e-7}):
        with pytest.raises(TypeError):
            SolverOptions(**constant)
    SolverOptions(tol_eigen=math.inf, tol_hw=math.inf)  # switches those filters off
    with pytest.raises(InputRangeError):
        solve_sector(Spin(1), 4, -1)


# criterion-6 grid at the default seed: sorted energies of the certified
# root sets per (spin, L, m), recorded before the vectorised Newton kernel; the
# exact-string states at -6 (1/2, 6, 3) and -3 (1, 4, 3), (1, 5, 3) added since
CRITERION6_GRID = {
    (1, 4, 1): [-4.0, -2.0, -2.0],
    (1, 4, 2): [-6.0, -2.0],
    (1, 4, 3): [],
    (1, 5, 1): [-3.6180339887, -3.6180339887, -1.3819660113, -1.3819660113],
    (1, 5, 2): [-6.2360679775, -6.2360679775, -4.0, -1.7639320225, -1.7639320225],
    (1, 5, 3): [],
    (1, 6, 1): [-4.0, -3.0, -3.0, -1.0, -1.0],
    (1, 6, 2): [-7.2360679775, -5.5615528128, -5.5615528128, -5.0, -5.0, -2.7639320225,
                -2.0, -1.4384471872, -1.4384471872],
    (1, 6, 3): [-8.6055512755, -6.0, -4.0, -4.0, -1.3944487245],
    (2, 4, 1): [-2.0, -1.0, -1.0],
    (2, 4, 2): [-5.4142135624, -4.0, -4.0, -2.5857864376, -2.0, -2.0],
    (2, 4, 3): [-7.0, -4.6180339887, -4.6180339887, -3.0, -2.3819660113, -2.3819660113],
    (2, 5, 1): [-1.8090169944, -1.8090169944, -0.6909830056, -0.6909830056],
    (2, 5, 2): [-5.3027756377, -4.5281586141, -4.5281586141, -2.898892369, -2.898892369,
                -2.7602651382, -2.7602651382, -1.6972243623, -1.3126838787, -1.3126838787],
    (2, 5, 3): [-6.4854157477, -6.4854157477, -6.3379733047, -6.3379733047, -4.6092284551,
                -4.6092284551, -4.0, -4.0, -3.0, -2.7399852367, -2.7399852367, -2.6130244642,
                -2.6130244642, -1.7143727915, -1.7143727915],
}


def test_criterion6_grid_is_pinned():
    opts = SolverOptions(tol_eigen=np.inf, tol_hw=np.inf)
    hams = {}
    for (two_s, length, m), expected in CRITERION6_GRID.items():
        ham = hams.setdefault((two_s, length), ChainHamiltonian(Spin(two_s), length))
        certs = solve_sector(Spin(two_s), length, m, opts, hamiltonian=ham)
        energies = sorted(c.energy.real for c in certs)
        assert len(energies) == len(expected), (two_s, length, m)
        assert np.allclose(energies, expected, rtol=0.0, atol=1e-9), (two_s, length, m)


# free-momenta certificates of solve_sector(1/2, L=10, m): count and sorted
# energies, recorded before Bethe vectors were assembled from arrays
FREE_MOMENTA_L10 = {
    4: [-13.184414693477, -12.086558748625, -12.086558748625, -11.492329833465,
        -11.492329833465, -10.782472200701, -10.782472200701, -10.560980200815,
        -10.560980200815, -9.877630641032, -9.057826964008, -9.057826964008,
        -8.92170271321, -8.92170271321, -7.904307515428],
    5: [-14.030892708984],
}


def test_free_momenta_l10_is_pinned():
    opts = SolverOptions(strategies=("free-momenta",))
    ham = ChainHamiltonian(Spin(1), 10)
    for m, expected in FREE_MOMENTA_L10.items():
        certs = solve_sector(Spin(1), 10, m, opts, hamiltonian=ham)
        energies = sorted(c.energy.real for c in certs)
        assert len(energies) == len(expected), m
        assert np.allclose(energies, expected, rtol=0.0, atol=1e-9), m


def _sector_dimension(spin, length, m):
    """Number of occupation tuples (m_1, ..., m_L), 0 <= m_j <= 2s, summing to m."""
    return sum(sum(occ) == m for occ in itertools.product(range(spin.dim), repeat=length))


def _highest_weights(spin, length, m):
    """N_hw(m): the number of highest-weight states in sector m (none past the equator)."""
    return max(0, _sector_dimension(spin, length, m) - _sector_dimension(spin, length, m - 1))


def _verified(cert):
    return cert.eigen_residual <= 1e-8 and cert.hw_residual <= 1e-8


def _settled_seed_by_seed(spin, length, m, opts, ham):
    """Certified root sets from solve_newton, seed by seed with one registry: the
    catalog of every strategy but random, then the random catalog only if the
    verified sets, solve_sector's singular ones included, are still short of
    N_hw(m); each catalog in order of convergence (Newton iterations, then
    catalog index) up to the iteration group that brings them to N_hw(m); sorted
    as solve_sector sorts them.  (A singular set that solve_sector certifies only
    after its regular run would count too early here; no sector tested has one.)"""
    system, registry, certs = BetheSystem(spin, length, m), DeflationRegistry(), []
    need = _highest_weights(spin, length, m)
    verified = sum(_verified(c) for c in solve_sector(spin, length, m, opts, ham) if c.singular)
    for stage in ([s for s in opts.strategies if s != "random"],
                  [s for s in opts.strategies if s == "random"]):
        if verified >= need:
            break
        seeds = sector_seeds(system, SolverOptions(seed=opts.seed, strategies=tuple(stage)))
        order = []
        for index, seed in enumerate(seeds):
            try:
                order.append((newton_solve(system, seed, opts.tol_newton)[1], index))
            except NewtonFailureError:
                continue
        for _, group in itertools.groupby(sorted(order), key=lambda pair: pair[0]):
            for _, index in group:
                try:
                    cert = solve_newton(system, seeds[index], opts, ham, registry)
                except NewtonFailureError:
                    continue
                verified += _verified(cert)
                if cert.certified(opts):
                    certs.append(cert)
            if verified >= need:
                break
    return sorted(certs, key=lambda c: order_key(c.energy, c.lam))


def _settles_as_solve_newton_seed_by_seed(spin, length, m, opts):
    ham = ChainHamiltonian(spin, length)
    # the exact-string sets are no roots of the regular equations
    batch = [c for c in solve_sector(spin, length, m, opts, ham) if not c.singular]
    single = _settled_seed_by_seed(spin, length, m, opts, ham)

    def bits(certs):
        return [(np.array(c.lam).tobytes(), c.bethe_residual, c.eigen_residual,
                 c.hw_residual, c.iterations) for c in certs]

    assert bits(batch) == bits(single)


@pytest.mark.parametrize("spin, length, m, strategies", [
    *((Spin(two_s), length, m, solver.STRATEGIES) for two_s, length, m in CRITERION6_GRID),
    (Spin(1), 12, 4, ("free-momenta",)),
])
def test_solve_sector_settles_as_solve_newton_seed_by_seed(spin, length, m, strategies):
    _settles_as_solve_newton_seed_by_seed(spin, length, m, SolverOptions(strategies=strategies))


def test_solve_sector_settles_seed_by_seed_with_random_last():
    # at seed 1 a random seed reaches the (1/2, 5, 2) set {-0.436885, 0.045029} in 5
    # Newton iterations, the other catalogs in 6: in one catalog it would register
    # the set, but random runs only after the others, so theirs does
    _settles_as_solve_newton_seed_by_seed(Spin(1), 5, 2, SolverOptions(seed=1))


def test_no_sector_certifies_more_than_its_highest_weights():
    # distinct root sets give orthogonal highest-weight eigenvectors, verified or not
    sectors = {*CRITERION6_GRID, *((two_s, length, m) for two_s, length in RECONCILE_COMPLETENESS
                                   for m in range(1, two_s * length // 2 + 1))}
    hams = {}
    for opts in (SolverOptions(), SolverOptions(tol_eigen=np.inf, tol_hw=np.inf)):
        for two_s, length, m in sorted(sectors):
            spin = Spin(two_s)
            ham = hams.setdefault((two_s, length), ChainHamiltonian(spin, length))
            certs = solve_sector(spin, length, m, opts, ham)
            assert len(certs) <= _highest_weights(spin, length, m), (two_s, length, m)


def test_complete_sector_stops_newton(monkeypatch):
    # spin 1/2, L=4, m=2 holds N_hw = 2 states, the singular pair among them;
    # Newton stops once the other is certified instead of running 80 iterations
    calls = []
    steps = solver._newton_steps

    def counted(jac, f):
        calls.append(len(jac))
        return steps(jac, f)

    monkeypatch.setattr(solver, "_newton_steps", counted)
    certs = solve_sector(Spin(1), 4, 2, SolverOptions(tol_eigen=np.inf, tol_hw=np.inf))
    assert len(calls) <= 10
    assert np.allclose(sorted(c.energy.real for c in certs), CRITERION6_GRID[1, 4, 2],
                       rtol=0.0, atol=1e-9)
    # spin 1, L=3, m=3 holds N_hw = 1 state, the bare string {i, 0, -i}: Newton never starts
    calls.clear()
    certs = solve_sector(Spin(2), 3, 3)
    assert calls == [] and [(c.singular, c.energy) for c in certs] == [(True, -3.0)]


def test_random_catalog_runs_only_where_the_others_leave_a_sector_short(monkeypatch):
    # only draws for the sector's own system count: the exact string's reduced
    # search takes the catalog of (spin, L - 2, n), random included
    drawn = []
    catalog = solver.seed_catalog

    def spy(system, strategy, *args, **kwargs):
        if strategy == "random":
            drawn.append(system)
        return catalog(system, strategy, *args, **kwargs)

    monkeypatch.setattr(solver, "seed_catalog", spy)
    for opts in (SolverOptions(), SolverOptions(tol_eigen=np.inf, tol_hw=np.inf)):
        for two_s, length, m in CRITERION6_GRID:
            drawn.clear()
            solve_sector(Spin(two_s), length, m, opts)
            assert BetheSystem(Spin(two_s), length, m) not in drawn, (two_s, length, m)
    # the other catalogs leave (1, 6, 3) and (3/2, 4, 4) short: random runs, and at
    # seed 0 it adds one set to each; certified counts per seed 0, 1, 2
    for (two_s, length, m), counts in {(2, 6, 3): (26, 26, 26), (3, 4, 4): (8, 9, 7)}.items():
        spin, need = Spin(two_s), _highest_weights(Spin(two_s), length, m)
        for seed, count in enumerate(counts):
            drawn.clear()
            certs = solve_sector(spin, length, m, SolverOptions(seed=seed))
            assert BetheSystem(spin, length, m) in drawn and len(certs) == count < need
        others = SolverOptions(strategies=("free-momenta", "strings"))
        assert len(solve_sector(spin, length, m, others)) == counts[0] - 1


def test_unverified_root_set_does_not_count(monkeypatch):
    # spin 3/2, L=3, m=2 reaches 2 of its N_hw = 3 states, and the double root
    # Q = z^2, whose state misses the 1e-8 bounds; with the state filters off
    # solve_sector returns it, but it does not count, so Newton runs to the end
    spin, length, m = Spin(3), 3, 2
    batch, stops = solver.newton_batch, []

    def spy(system, seeds, tol, max_iter=solver.MAX_ITER, settle=None):
        def watched(*rows):
            stops.append(settle(*rows))
            return stops[-1]

        out = batch(system, seeds, tol, max_iter, settle=watched)
        _same_outcomes(out, batch(system, seeds, tol, max_iter))
        return out

    monkeypatch.setattr(solver, "newton_batch", spy)
    certs = solve_sector(spin, length, m, SolverOptions(tol_eigen=np.inf, tol_hw=np.inf))
    assert stops and not any(stops)
    assert len(certs) == _highest_weights(spin, length, m) == 3
    assert [_verified(c) for c in certs].count(False) == 1


def test_solve_sector_deflates_each_converged_row_once_on_arrival(monkeypatch):
    # _deflate takes exactly the rows each settle call receives, in that call; only
    # the sector's own system counts, not the exact string's reduced search
    batch, deflate = solver.newton_batch, solver._deflate
    settled, deflated = [], []

    def spy_batch(system, seeds, tol, max_iter=solver.MAX_ITER, settle=None):
        def recorded(roots, *rest):
            settled.append(roots.copy())
            return settle(roots, *rest)

        return batch(system, seeds, tol, max_iter, settle=settle and recorded)

    def spy_deflate(system, roots, registry):
        if not system.string:
            deflated.append(roots.copy())
        return deflate(system, roots, registry)

    monkeypatch.setattr(solver, "newton_batch", spy_batch)
    monkeypatch.setattr(solver, "_deflate", spy_deflate)
    # (1/2, 6, 3) stops early, (3/2, 3, 2) and (1, 6, 3) run both stages and end short;
    # the bare string completes (1, 3, 3), which runs no Newton
    runs = {(1, 6, 3): True, (3, 3, 2): True, (2, 6, 3): True, (2, 3, 3): False}
    for (two_s, length, m), newton in runs.items():
        del settled[:], deflated[:]
        solve_sector(Spin(two_s), length, m, SolverOptions(seed=0))
        assert bool(settled) == newton and all(len(roots) for roots in deflated)
        assert [r.tobytes() for r in deflated] == [r.tobytes() for r in settled]


# at max_iter = 5, eight rows reach the tolerance in the last iteration and
# end unpolished, handed over after the loop
@pytest.mark.parametrize("max_iter", [solver.MAX_ITER, 5])
def test_newton_batch_hands_each_converged_row_to_settle_once(max_iter):
    system = BetheSystem(Spin(2), 4, 2)
    seeds = sector_seeds(system, SolverOptions())
    whole = newton_batch(system, seeds, max_iter=max_iter)
    taken = []

    def settle(roots, iterations, best):
        taken.extend(zip(roots.tolist(), iterations.tolist(), best.tolist()))
        return False

    _same_outcomes(whole, newton_batch(system, seeds, max_iter=max_iter, settle=settle))
    converged = np.flatnonzero(np.equal(whole[2], None))
    assert (max_iter == 5) == (whole[1][converged] == max_iter).any()
    # in order of convergence, ties in catalog order
    order = converged[np.argsort(whole[1][converged], kind="stable")]
    assert taken == [(whole[0][k].tolist(), whole[1][k], whole[3][k]) for k in order]
    # a settle that stops at once sees the first iteration's rows only
    first = []
    newton_batch(system, seeds, max_iter=max_iter,
                 settle=lambda roots, *rest: first.append(len(roots)) or True)
    assert first == [np.count_nonzero(whole[1][converged] == whole[1][order[0]])]


def test_rows_a_stop_leaves_unfinished_read_stopped(monkeypatch):
    # a stop at the first settle leaves rows of the first block unfinished and the
    # later blocks unrun; only the rows settle took read None
    system = BetheSystem(Spin(2), 4, 2)
    seeds = sector_seeds(system, SolverOptions())
    monkeypatch.setattr(bethe, "BLOCK_ENTRIES", 50 * 2 * len(solver._DAMPING) * 2)
    whole = newton_batch(system, seeds)
    taken = []
    roots, iterations, reasons, best = newton_batch(
        system, seeds, settle=lambda rows, *rest: taken.append(len(rows)) or True)
    assert np.count_nonzero(np.equal(reasons, None)) == sum(taken) > 0
    stopped = np.equal(reasons, "stopped")
    assert stopped[50:].all() and stopped[:50].any()
    assert np.array_equal(roots[stopped], seeds[stopped])
    assert (iterations[stopped] == solver.MAX_ITER).all() and np.isnan(best[stopped]).all()
    # every row that ended holds the outcome it has in a run with no stop
    ended = ~stopped
    assert list(reasons[ended]) == list(whole[2][ended])
    assert np.array_equal(roots[ended], whole[0][ended])


def test_solve_sector_builds_its_states_in_one_kernel_call(monkeypatch):
    calls = []
    kernel = bethe._plane_wave_sum

    def spy(coords, u, spin):
        calls.append(u.shape)
        return kernel(coords, u, spin)

    monkeypatch.setattr(bethe, "_plane_wave_sum", spy)
    certs = [c for c in solve_sector(Spin(1), 6, 3) if not c.singular]
    assert len(calls) == 1 and calls[0][0] >= len(certs) > 1


def test_certified_roots_permutation_invariance():
    spin, length, m = Spin(2), 4, 2
    certs = solve_sector(spin, length, m)
    cert = next(c for c in certs if not c.singular and abs(c.lam[0] - c.lam[1]) > 0.2)
    state_a = bethe.build_bethe_state(spin, length, lam=cert.lam)
    state_b = bethe.build_bethe_state(spin, length, lam=cert.lam[::-1])
    overlap = abs(np.vdot(state_a.vector, state_b.vector)) / (state_a.norm * state_b.norm)
    assert abs(overlap - 1.0) < 1e-10


def test_certified_roots_conjugation_invariance():
    spin, length, m = Spin(1), 6, 2
    certs = [c for c in solve_sector(spin, length, m) if not c.singular]
    system = BetheSystem(spin, length, m)
    for cert in certs:
        conj = tuple(z.conjugate() for z in cert.lam)
        assert scaled_residual(np.array(conj), system) < 1e-9
        state = bethe.build_bethe_state(spin, length, lam=conj)
        assert eigen_residual(state) < 1e-8
        assert highest_weight_residual(state) < 1e-8


def test_singular_pair_state_even_lengths():
    # the singular pair state: the s = 1/2, n = 0 string {+i/2, -i/2} at m = 2, even L
    for length in range(4, 13, 2):
        certs = solve_sector(Spin(1), length, 2, SolverOptions(strategies=("free-momenta",)))
        cert, = (c for c in certs if c.singular)
        assert cert.lam == (0.5j, -0.5j) and cert.energy == -2.0 and cert.iterations == 0
        assert cert.bethe_residual == 0.0
        assert cert.eigen_residual < 1e-13 and cert.hw_residual < 1e-13
        expected = alternating_bound_state(cert.state.basis)
        expected /= np.linalg.norm(expected)
        phase = np.vdot(expected, cert.state.vector)
        assert abs(abs(phase) - 1) < 1e-12
        assert np.max(np.abs(cert.state.vector - phase * expected)) < 1e-12


@pytest.mark.parametrize("two_s, lengths", [(1, range(4, 12)), (2, range(3, 7)),
                                             (3, range(3, 6)), (4, (3,))])
def test_bare_string_is_certified_exactly_where_it_is_physical(two_s, lengths):
    # at m = 2s + 1 the string alone is physical where [(-1)^(2s)]^L = 1; its
    # energy -2 H_{2s} is then a level of the sector, which at (1, 6, 3) and
    # (3/2, 4, 4) it shares with regular sets
    spin = Spin(two_s)
    string = tuple(1j * (spin.s - a) for a in range(spin.dim))
    energy = -2 * sum(1 / k for k in range(1, two_s + 1))
    for length in lengths:
        certs = solve_sector(spin, length, spin.dim)
        bare = [c for c in certs if c.singular and len(c.lam) == spin.dim]
        assert len(bare) == (length % 2 == 0 or two_s % 2 == 0), length
        for cert in bare:
            assert cert.lam == string and abs(cert.energy - energy) < 1e-15
            assert np.min(np.abs(sector_eigh(spin, length, spin.dim) - energy)) < 1e-9


def test_string_set_waits_for_the_regular_sets_of_its_level(monkeypatch):
    # at (3/2, 4, 4) the level -11/3 holds three highest-weight states: two regular
    # sets and the bare string, which leaves more than one direction before the
    # regular run and one after it
    tries = []
    certify = solver._string_certificates

    def spy(system, sets, certs, *args):
        before = len(certs)
        waiting = certify(system, sets, certs, *args)
        tries.append((len(sets), len(waiting), len(certs) - before))
        return waiting

    monkeypatch.setattr(solver, "_string_certificates", spy)
    certs = solve_sector(Spin(3), 4, 4)
    level = [c for c in certs if abs(c.energy.real + 11 / 3) < 1e-9]
    # (sets tried, sets left waiting, certificates added)
    assert tries == [(1, 1, 0), (1, 0, 1)]
    assert [c.singular for c in level].count(True) == 1 and len(level) == 3
    vectors = np.column_stack([c.state.vector / c.state.norm for c in level])
    assert np.allclose(vectors.conj().T @ vectors, np.eye(3), rtol=0, atol=1e-12)


def test_free_momenta_alone_runs_no_reduced_newton(monkeypatch):
    # the reduced search belongs to the strings strategy; (1/2, 12, 4) has n = 2
    systems = []
    batch = solver.newton_batch

    def spy(system, *args, **kwargs):
        systems.append(system)
        return batch(system, *args, **kwargs)

    monkeypatch.setattr(solver, "newton_batch", spy)
    certs = solve_sector(Spin(1), 12, 4, SolverOptions(strategies=("free-momenta",)))
    assert systems == [BetheSystem(Spin(1), 12, 4)]
    assert certs and not any(c.singular for c in certs)


def test_string_sets_above_the_dense_threshold_stay_uncertified(monkeypatch):
    # (1/2, 6, 3) has 20 states; at a threshold of 10 the string step is skipped
    from xxxchain import su2

    dense = []
    toarray = hilbert.SectorBlock.toarray
    monkeypatch.setattr(hilbert.SectorBlock, "toarray",
                        lambda block: dense.append(block.shape) or toarray(block))
    monkeypatch.setattr(su2, "DENSE_THRESHOLD", 10)
    certs = solve_sector(Spin(1), 6, 3)
    assert dense == [] and not any(c.singular for c in certs)
    assert len(certs) == len(CRITERION6_GRID[1, 6, 3]) - 1


def test_repeated_rapidity_solutions_are_excluded():
    # for spin 3/2, L=3, m=2 the cleared system has the exact repeated root
    # {0, 0} (its regularized energy -8/3 sits in the ED spectrum), but the
    # plane-wave ansatz needs pairwise-distinct rapidities, so the solver
    # must classify it as degenerate rather than certify it
    spin, length, m = Spin(3), 3, 2
    system = BetheSystem(spin, length, m)
    repeated = np.array([0.0, 0.0], dtype=complex)
    assert np.max(np.abs(bethe_residual(repeated, system))) < 1e-12
    assert solver._reject_reasons(repeated[None], spin.s)[0] == "degenerate"
    spectrum = sector_eigh(spin, length, m)
    assert np.min(np.abs(spectrum - (-8.0 / 3.0))) < 1e-9
    energies = [c.energy.real for c in solve_sector(spin, length, m)]
    assert all(abs(e + 8.0 / 3.0) > 1e-6 for e in energies)


def test_solver_determinism():
    a = solve_sector(Spin(2), 4, 2, SolverOptions(seed=123))
    b = solve_sector(Spin(2), 4, 2, SolverOptions(seed=123))
    assert [c.lam for c in a] == [c.lam for c in b]
    assert [c.energy for c in a] == [c.energy for c in b]


def test_certificate_json_fields():
    cert = solve_sector(Spin(1), 4, 1)[0]
    payload = cert.to_json()
    assert set(payload) == {"lambda", "bethe_residual", "eigen_residual",
                            "hw_residual", "energy", "iterations", "singular"}
    assert len(payload["lambda"]) == 1
