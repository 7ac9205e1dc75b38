import dataclasses

import numpy as np
import pytest

import oracles
from oracles import spectrum_with_multiplicities
from xxxchain import bethe, hilbert, solver, suite
from xxxchain.errors import PoleError
from xxxchain.hamiltonian import ChainHamiltonian
from xxxchain.solver import solve_sector
from xxxchain.su2 import Spin, s_minus
from xxxchain.verify import (
    aba_phi1,
    eigen_residual,
    exact_diagonalize,
    highest_weight_residual,
    overlap,
    reconcile_spectrum,
    sector_eigh,
)


def test_ed_spin_half_L2():
    report = exact_diagonalize(Spin(1), 2)
    flat = sorted(v for vals in report.ed.values() for v in vals)
    assert np.allclose(flat, [-4.0, 0.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(report.ed[0], [0.0])


def test_ed_spin1_L2_multiplets():
    report = exact_diagonalize(Spin(2), 2)
    flat = [v for vals in report.ed.values() for v in vals]
    assert len(flat) == 9
    groups = spectrum_with_multiplicities(flat)
    assert sorted(count for _, count in groups) == [1, 3, 5]


def test_ed_hermitian_dense():
    for spin, length in ((Spin(1), 4), (Spin(2), 3)):
        dense = ChainHamiltonian(spin, length).dense()
        assert np.max(np.abs(dense - dense.conj().T)) < 1e-13


def test_eigen_residual_vacuum_zero():
    state = bethe.build_bethe_state(Spin(1), 4, k=())
    assert eigen_residual(state) == 0.0


def test_eigen_residual_certified_and_sensitivity():
    for spin, length in ((Spin(1), 4), (Spin(2), 4)):
        certs = [c for c in solve_sector(spin, length, 2) if not c.singular]
        assert certs
        for cert in certs:
            assert cert.eigen_residual < 1e-8
            perturbed = np.array(cert.lam)
            perturbed[0] += 0.01
            state = bethe.build_bethe_state(spin, length, lam=perturbed)
            assert eigen_residual(state) > 1e-4


def test_highest_weight_residual_one_magnon():
    for spin, length in ((Spin(1), 5), (Spin(2), 4)):
        for n in range(1, length):
            state = bethe.build_bethe_state(spin, length, k=[2 * np.pi * n / length])
            assert highest_weight_residual(state) < 1e-10


def test_highest_weight_negative_control():
    rng = np.random.default_rng(12)
    hits = 0
    total = 40
    for _ in range(total):
        k = rng.uniform(0.2, 2 * np.pi - 0.2, size=2)
        state = bethe.build_bethe_state(Spin(1), 6, k=k)
        if highest_weight_residual(state) > 1e-3:
            hits += 1
    assert hits >= 0.9 * total


def test_descendants_share_the_eigenvalue():
    spin, length = Spin(1), 4
    ham = ChainHamiltonian(spin, length)
    for cert in solve_sector(spin, length, 1, hamiltonian=ham):
        state = cert.state
        vec = state.vector
        for step in range(1, spin.two_s * length - 2 * state.m + 1):
            vec = hilbert.sector_s_minus(spin, length, state.m + step - 1) @ vec
            hv = ham.sector_matrix(state.m + step) @ vec
            resid = np.linalg.norm(hv - cert.energy * vec) / np.linalg.norm(vec)
            assert resid < 1e-9


def test_multiplet_nilpotency():
    spin, length = Spin(1), 4
    for cert in solve_sector(spin, length, 1):
        state = cert.state
        dim_multiplet = spin.two_s * length - 2 * state.m + 1
        vec = state.vector
        for step in range(dim_multiplet - 1):
            vec = hilbert.sector_s_minus(spin, length, state.m + step) @ vec
        assert np.linalg.norm(vec) > 1e-9  # bottom of the multiplet still there
        below = hilbert.sector_s_minus(spin, length, state.m + dim_multiplet - 1) @ vec
        assert np.linalg.norm(below) / np.linalg.norm(vec) < 1e-9


def test_reconcile_spin_half_L4_complete():
    report = reconcile_spectrum(Spin(1), 4, 2)
    assert report.total_levels == 16
    assert report.matched_levels == 16
    assert report.matched_fraction == 1.0
    assert report.unmatched == []
    singular = [rec for rec in report.bethe if rec.singular]
    assert len(singular) == 1 and abs(singular[0].energy + 2.0) < 1e-12


# matched / total ED levels of reconcile_spectrum over all sectors, as
# recorded in the completeness table before the string seeds were deduplicated,
# raised by the exact-string states: -6 at (1/2, 6, 3), -3 at (1, 3, 3) and
# (1, 4, 3), and -5 at (1, 4, 4)
RECONCILE_COMPLETENESS = {(1, 6): (64, 64), (2, 3): (27, 27), (2, 4): (81, 81),
                          (3, 3): (58, 64)}


def test_reconcile_completeness_is_pinned():
    for (two_s, length), expected in RECONCILE_COMPLETENESS.items():
        report = reconcile_spectrum(Spin(two_s), length, two_s * length)
        assert (report.matched_levels, report.total_levels) == expected, (two_s, length)


def test_reconcile_spin1_L3_reports_deficit():
    # the deficit is empty: the exact three-string singlet at E = -3 (m = 3) is certified
    report = reconcile_spectrum(Spin(2), 3, 3)
    assert (report.matched_levels, report.total_levels) == (27, 27)
    assert report.unmatched == []


def test_reconcile_spin3half_L3_reports_the_double_root_multiplet():
    # Q = z^2 at m = 2 (E = -8/3) is a repeated root, which no Bethe state of distinct
    # roots reaches: its multiplet, m = 2 to 7, is the whole deficit
    report = reconcile_spectrum(Spin(3), 3, 9)
    assert (report.matched_levels, report.total_levels) == (58, 64)
    assert [item["m"] for item in report.unmatched] == list(range(2, 8))
    for item in report.unmatched:
        assert set(item) == {"m", "energy"} and abs(item["energy"] + 8 / 3) < 1e-9


def test_reconcile_order_ignores_last_bit_energy_noise(monkeypatch):
    # (1/2, L=6) has three multiplets at E = -4: one from m = 1, two from m = 3
    spin, length = Spin(1), 6
    clean = reconcile_spectrum(spin, length, 3)
    assert sum(abs(rec.energy.real + 4.0) < 1e-9 for rec in clean.bethe) == 3
    solve = solver.solve_sector

    def noisy(*args, **kwargs):
        certs = solve(*args, **kwargs)
        for i, cert in enumerate(certs):
            # alternate signs, so each pair of neighbours swaps under exact sorting
            cert.energy += 1e-13 if i % 2 == 0 else -1e-13
        return certs

    monkeypatch.setattr(solver, "solve_sector", noisy)
    perturbed = reconcile_spectrum(spin, length, 3)
    assert [(rec.m, rec.lam) for rec in perturbed.bethe] == \
        [(rec.m, rec.lam) for rec in clean.bethe]
    assert perturbed.matched_levels == clean.matched_levels


@pytest.mark.parametrize("fault", ["repeated", "shifted"])
def test_reconcile_itemizes_a_multiplet_it_cannot_match(monkeypatch, fault):
    # one regular certificate of (1/2, 4, 2), a one-level multiplet, is returned twice
    # or 1e-3 off its level: the extra or shifted multiplet lists sector 2 as missing
    spin, length = Spin(1), 4
    clean = reconcile_spectrum(spin, length, 2)
    solve = solver.solve_sector

    def faulty(spin, length, m, *args, **kwargs):
        certs = solve(spin, length, m, *args, **kwargs)
        if m == 2:
            cert = next(c for c in certs if not c.singular)
            if fault == "repeated":
                certs.append(dataclasses.replace(cert))
            else:
                cert.energy += 1e-3
        return certs

    monkeypatch.setattr(solver, "solve_sector", faulty)
    report = reconcile_spectrum(spin, length, 2)
    short = [item for item in report.matches if item["missing"]]
    assert len(short) == 1 and short[0]["m"] == 2 and short[0]["multiplicity"] == 1
    assert short[0]["missing"] == [{"m": 2, "energy": short[0]["energy"]}]
    dropped = 1 if fault == "shifted" else 0  # a repeat adds the level it misses
    assert report.matched_levels == clean.matched_levels - dropped
    assert report.matched_levels == sum(item["multiplicity"] for item in report.matches) - 1
    assert report.matched_levels + len(report.unmatched) == report.total_levels == 16
    assert len(report.unmatched) == dropped


def test_reconcile_json_schema_shape():
    report = reconcile_spectrum(Spin(1), 4, 2)
    payload = report.to_json()
    assert set(payload) >= {"two_s", "L", "ed", "bethe", "matches", "unmatched", "matched_fraction"}
    assert all(set(rec) >= {"m", "energy", "multiplicity", "lambda"} for rec in payload["bethe"])


def test_aba_phi1_closed_form():
    for spin, length in ((Spin(1), 5), (Spin(2), 4), (Spin(3), 3)):
        lam = 0.63 - 0.21j
        phi = aba_phi1(spin, length, lam)
        u = bethe.u_from_lambda(lam, spin)
        basis = hilbert.sector_basis(spin, length, 1)
        direct = np.zeros(len(basis), dtype=complex)
        amp = 1j / (lam + 1j * spin.s)
        for x in range(1, length + 1):
            direct[oracles.basis_position(basis, np.eye(length, dtype=int)[x - 1])] = (
                amp * u**x * np.sqrt(spin.two_s)
            )
        assert np.max(np.abs(phi - direct)) < 1e-12 * np.max(np.abs(direct))


def test_aba_phi1_spin_half_L2_at_zero():
    phi = aba_phi1(Spin(1), 2, 0.0)
    basis = hilbert.sector_basis(Spin(1), 2, 1)
    ratio = (phi[oracles.basis_position(basis, (1, 0))]
             / phi[oracles.basis_position(basis, (0, 1))])
    assert abs(ratio + 1.0) < 1e-13  # proportional to |1> - |2>


def test_aba_phi1_pole():
    with pytest.raises(PoleError):
        aba_phi1(Spin(2), 4, 1j)


def test_aba_overlap_with_psi1():
    rng = np.random.default_rng(13)
    for spin, length in ((Spin(1), 5), (Spin(2), 4)):
        for _ in range(10):
            lam = complex(rng.normal(), rng.normal())
            if min(abs(lam - 1j * spin.s), abs(lam + 1j * spin.s)) < 0.1:
                continue
            phi = aba_phi1(spin, length, lam)
            psi = bethe.build_bethe_state(spin, length, lam=[lam])
            assert abs(overlap(phi, psi.vector) - 1.0) < 1e-10


def test_sector_eigh_cap():
    from xxxchain.errors import ResourceCapError

    # 12,870 states: raises before the block is built
    with pytest.raises(ResourceCapError):
        sector_eigh(Spin(1), 16, 8)


def test_sigma_rapidity_form_check_is_scale_relative():
    # near the pole lambda - mu = -i the target reaches ~100, where an
    # absolute 1e-12 bound failed at seeds 40, 74, 111 and 190
    for seed in (0, 40, 74, 111, 190):
        name, passed, detail = suite.sigma_rapidity_form(seed=seed)
        assert passed, (seed, detail)


SAMPLED_CHECKS = (
    (suite.sigma_consistency, oracles.sigma_consistency_loop),
    (suite.sigma_rapidity_form, oracles.sigma_rapidity_form_loop),
    (suite.energy_forms, oracles.energy_forms_loop),
    (suite.exchange_relation, oracles.exchange_relation_loop),
    (suite.coinciding_constraint, oracles.coinciding_constraint_loop),
)
# NumPy rounds complex products differently on arrays and on scalars, so the
# worst values of sigma-unitarity-braid and amplitude-exchange-relation agree
# with their loops only to the last bits; these two must agree exactly
EXACT_DETAIL = {"sigma-rapidity-form", "energy-form-equality"}


@pytest.mark.parametrize("check, loop", SAMPLED_CHECKS)
def test_sampled_checks_equal_scalar_loops(check, loop, monkeypatch):
    made, default_rng = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: made.append(default_rng(seed)) or made[-1])
    # seed 179 has the closest sigma-unitarity-braid worst value, 5e-13 to 6e-13;
    # 1409 and 695 failed sigma-unitarity-braid and energy-form-equality on
    # rounding alone under absolute bounds
    for seed in (0, 40, 74, 111, 179, 190, 695, 1409):
        name, passed, detail = check(seed=seed)
        loop_name, loop_passed, loop_detail = loop(seed=seed)
        assert passed and (name, passed) == (loop_name, loop_passed), (seed, detail, loop_detail)
        if name in EXACT_DETAIL:
            assert detail == loop_detail, seed
        # both drew the same samples
        assert made[-2].bit_generator.state == made[-1].bit_generator.state, seed


def test_coinciding_constraint_worst_equals_scalar_loop():
    # the batched kernel sums subsets, the loop permutations: on the same
    # samples the worst values agree to rounding
    for seed in (0, 40, 74, 111, 179, 190):
        worst, loop_worst = (float(check(seed)[2].split()[2]) for check in (
            suite.coinciding_constraint, oracles.coinciding_constraint_loop))
        assert abs(worst - loop_worst) <= 1e-13, seed


class _LatticeRng:
    """A generator whose normal draws are rounded to multiples of 1/2, so the
    samples often land on the poles that the checks must reject."""

    def __init__(self, seed):
        self._rng = np.random.Generator(np.random.PCG64(seed))

    @property
    def bit_generator(self):
        return self._rng.bit_generator

    def normal(self, size=None):
        return np.round(2.0 * self._rng.normal(size=size)) / 2.0


@pytest.mark.parametrize("check, loop", SAMPLED_CHECKS[:3])
def test_sampled_checks_reject_the_rows_scalar_loops_reject(check, loop, monkeypatch):
    made = []
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: made.append(_LatticeRng(seed)) or made[-1])
    for seed in (0, 1, 2):
        name, passed, detail = check(seed=seed)
        loop_name, loop_passed, loop_detail = loop(seed=seed)
        assert (name, passed) == (loop_name, loop_passed), (seed, detail, loop_detail)
        if name in EXACT_DETAIL:
            assert detail == loop_detail, seed
        # both drew the same number of rows
        assert made[-2].bit_generator.state == made[-1].bit_generator.state, seed


def _perturb_first_row(kernel, scale=1.0, shift=0.0):
    def perturbed(*args):
        out = np.array(kernel(*args))
        out[0] = out[0] * scale + shift
        return out
    return perturbed


def test_sampled_checks_fail_on_one_broken_row(monkeypatch):
    checks = (suite.sigma_consistency, suite.sigma_rapidity_form, suite.energy_forms)
    assert all(check()[1] for check in checks)
    # sigma(u, v) sigma(v, u) = 1 + 2e-9 on one row
    monkeypatch.setattr(bethe, "sigma_u", _perturb_first_row(bethe.sigma_u, scale=1 + 1e-9))
    assert not suite.sigma_consistency()[1]
    assert not suite.sigma_rapidity_form()[1]
    monkeypatch.undo()
    monkeypatch.setattr(bethe, "energy_k", _perturb_first_row(bethe.energy_k, shift=1e-9))
    assert not suite.energy_forms()[1]
    monkeypatch.undo()
    # a(x + e_i + e_{i+1}) of the first sample of each kernel call off by a relative 1e-9
    assert suite.coinciding_constraint()[1]
    plane_wave_sum = bethe._plane_wave_sum

    def perturbed(coords, u, spin):
        vec, amp_sum = plane_wave_sum(coords, u, spin)
        vec[0, 0] *= 1 + 1e-9
        return vec, amp_sum

    monkeypatch.setattr(bethe, "_plane_wave_sum", perturbed)
    assert not suite.coinciding_constraint()[1]


class _SectorLeakingHamiltonian(ChainHamiltonian):
    """A chain whose full-space apply couples sectors m = 1 and m = 2 weakly."""

    def apply(self, vec):
        out = super().apply(vec)
        # spin 1/2: index 1 lowers the last site (m = 1), index 3 the last two (m = 2)
        out[3] += 1e-8 * vec[1]
        out[1] += 1e-8 * vec[3]
        return out


def test_chain_checks_catch_coupling_between_sectors(monkeypatch):
    clean = {name: ok for name, ok, _ in suite.chain_checks_at(Spin(1), 6, seed=0)}
    assert all(clean.values())
    monkeypatch.setattr(suite, "ChainHamiltonian", _SectorLeakingHamiltonian)
    leaky = {name: ok for name, ok, _ in suite.chain_checks_at(Spin(1), 6, seed=0)}
    assert leaky.keys() == clean.keys()
    assert not leaky["sector-apply-matches-full[s=1/2,L=6]"]
    assert leaky["vacuum-annihilated[s=1/2,L=6]"]


def test_coinciding_constraint_fails_on_nan(monkeypatch):
    assert suite.coinciding_constraint()[1]
    plane_wave_sum = bethe._plane_wave_sum

    def nan_elsewhere(coords, u, spin):
        # NaN where a sample's momenta meet another sample's four rows: none of them is read
        vec, amp_sum = plane_wave_sum(coords, u, spin)
        own = np.arange(len(coords)) // 4 == np.arange(len(u))[:, None]
        return np.where(own, vec, np.nan), amp_sum

    monkeypatch.setattr(bethe, "_plane_wave_sum", nan_elsewhere)
    assert suite.coinciding_constraint()[1]

    def nan_sum(coords, u, spin):
        return np.full((len(u), len(coords)), np.nan, dtype=complex), np.full(len(u), np.nan)

    monkeypatch.setattr(bethe, "_plane_wave_sum", nan_sum)
    name, passed, detail = suite.coinciding_constraint()
    assert not passed and "nan" in detail


def test_chain_su2_commutators_fail_on_nan(monkeypatch):
    monkeypatch.setattr(ChainHamiltonian, "apply", lambda self, vec: np.full(vec.shape, np.nan))
    checks = {name: ok for name, ok, _ in suite.chain_checks_at(Spin(1), 4, seed=0)}
    assert not checks["chain-su2-commutators[s=1/2,L=4]"]
    assert not checks["sector-apply-matches-full[s=1/2,L=4]"]
