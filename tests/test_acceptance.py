"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import amplitude_AP, amplitude_by_recursion, plane_wave_sum
from xxxchain import bethe
from xxxchain.hamiltonian import ChainHamiltonian, check_beta_recursions, local_h
from xxxchain.solver import SolverOptions, solve_sector
from xxxchain.su2 import Spin, s_minus, s_plus, s_z
from xxxchain.verify import (
    aba_phi1,
    eigen_residual,
    exact_diagonalize,
    highest_weight_residual,
    overlap,
    reconcile_spectrum,
    sector_eigh,
)

ACCEPTANCE_SPINS = (Spin(1), Spin(2), Spin(3), Spin(4))


@contextmanager
def criterion(number, label):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} [{label}]: FAIL ({time.monotonic() - start:.2f}s)")
        raise
    print(f"ACCEPTANCE {number:2d} [{label}]: PASS ({time.monotonic() - start:.2f}s)")


def test_criterion_1_symmetry_suite():
    with criterion(1, "symmetry suite"):
        start = time.monotonic()
        for spin in ACCEPTANCE_SPINS:
            h = local_h(spin)
            eye = np.eye(spin.dim)
            for op in (s_z(spin), s_plus(spin), s_minus(spin)):
                total = np.kron(op, eye) + np.kron(eye, op)
                assert np.max(np.abs(total @ h - h @ total)) < 1e-12
            assert check_beta_recursions(spin) < 1e-13
        assert time.monotonic() - start < 5.0


def test_criterion_2_pseudo_vacuum():
    with criterion(2, "pseudo-vacuum"):
        start = time.monotonic()
        for spin, length in ((Spin(1), 6), (Spin(2), 4), (Spin(3), 3), (Spin(4), 2)):
            ham = ChainHamiltonian(spin, length)
            vac = np.zeros(ham.dim)
            vac[0] = 1.0
            assert np.max(np.abs(ham.apply(vac))) < 1e-13
        assert time.monotonic() - start < 5.0


def test_criterion_3_spin_half_regression():
    with criterion(3, "spin-1/2 regression"):
        perm = np.zeros((4, 4))
        perm[0, 0] = perm[3, 3] = perm[1, 2] = perm[2, 1] = 1.0
        assert np.array_equal(local_h(Spin(1)), perm - np.eye(4))
        report = exact_diagonalize(Spin(1), 2)
        flat = np.sort([v for vals in report.ed.values() for v in vals])
        assert np.allclose(flat, [-4.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_criterion_4_sigma_suite():
    with criterion(4, "sigma suite"):
        start = time.monotonic()
        rng = np.random.default_rng(42)
        for spin in ACCEPTANCE_SPINS:
            ts = spin.two_s
            count = 0
            while count < 1000:
                u, v, w = rng.normal(size=3) + 1j * rng.normal(size=3)
                denom_uv = u * v + (ts - 1) * v - (ts + 1) * u + 1
                denom_vu = u * v + (ts - 1) * u - (ts + 1) * v + 1
                denom_uw = u * w + (ts - 1) * w - (ts + 1) * u + 1
                denom_vw = v * w + (ts - 1) * w - (ts + 1) * v + 1
                if min(abs(denom_uv), abs(denom_vu), abs(denom_uw), abs(denom_vw)) < 1e-2:
                    continue
                count += 1
                suv = bethe.sigma_u(u, v, spin)
                svu = bethe.sigma_u(v, u, spin)
                suw = bethe.sigma_u(u, w, spin)
                svw = bethe.sigma_u(v, w, spin)
                assert abs(suv * svu - 1.0) < 1e-12
                assert abs(suv * suw * svw - svw * suw * suv) < 1e-12
            # rapidity form, spin independent
            count = 0
            while count < 200:
                lam, mu = rng.normal(size=2) + 1j * rng.normal(size=2)
                if abs(lam - mu + 1j) < 1e-2 or abs(lam - mu - 1j) < 1e-2:
                    continue
                if min(abs(lam - 1j * spin.s), abs(lam + 1j * spin.s),
                       abs(mu - 1j * spin.s), abs(mu + 1j * spin.s)) < 1e-2:
                    continue
                count += 1
                val = bethe.sigma_u(bethe.u_from_lambda(lam, spin),
                                    bethe.u_from_lambda(mu, spin), spin)
                assert abs(val - (lam - mu - 1j) / (lam - mu + 1j)) < 1e-12
        assert time.monotonic() - start < 2.0


def test_criterion_5_amplitude_consistency():
    with criterion(5, "amplitude consistency"):
        rng = np.random.default_rng(11)
        for spin in ACCEPTANCE_SPINS:
            for m in (2, 3, 4):
                for _ in range(100):
                    k = rng.normal(size=m) + 0.3j * rng.normal(size=m)
                    perms = list(itertools.permutations(range(m)))
                    # closed form against the exchange recursion, two reduced words
                    for perm in (perms[rng.integers(len(perms))], tuple(reversed(range(m)))):
                        direct = amplitude_AP(perm, k, spin)
                        for reverse_scan in (False, True):
                            rec = amplitude_by_recursion(perm, k, spin, reverse_scan=reverse_scan)
                            assert abs(direct - rec) < 1e-12 * max(1.0, abs(direct))
                    # coinciding-coordinate constraint at one random adjacent pair
                    x = sorted(int(v) for v in rng.integers(1, 6, size=m))
                    i = int(rng.integers(m - 1))
                    x[i + 1] = x[i]
                    ts = spin.two_s

                    def shifted(*steps, xx=tuple(x)):
                        out = list(xx)
                        for slot, step in steps:
                            out[slot] += step
                        return plane_wave_sum(out, k, spin)

                    val = (shifted((i, 1), (i + 1, 1)) + (ts - 1) * shifted((i, 1))
                           - (ts + 1) * shifted((i + 1, 1)) + shifted())
                    scale = max(abs(shifted()), abs(shifted((i, 1), (i + 1, 1))), 1.0)
                    assert abs(val) < 1e-11 * scale


def test_criterion_6_eigenvector_certification():
    with criterion(6, "eigenvector certification"):
        start = time.monotonic()
        grid = [(Spin(1), 4), (Spin(1), 5), (Spin(1), 6), (Spin(2), 4), (Spin(2), 5)]
        # infinite state thresholds: nothing Newton converges to is filtered,
        # so the 1e-8 / 1e-7 assertions below cannot pass vacuously
        opts = SolverOptions(tol_eigen=np.inf, tol_hw=np.inf)
        total = 0
        for spin, length in grid:
            ham = ChainHamiltonian(spin, length)
            for m in (1, 2, 3):
                certs = solve_sector(spin, length, m, opts, hamiltonian=ham)
                if m == 1:
                    assert len(certs) == length - 1  # exact one-magnon count
                spectrum = sector_eigh(spin, length, m, hamiltonian=ham)
                for cert in certs:
                    total += 1
                    assert cert.bethe_residual <= 1e-10
                    assert cert.eigen_residual < 1e-8
                    assert cert.hw_residual < 1e-8
                    assert np.min(np.abs(np.asarray(spectrum) - cert.energy.real)) < 1e-7
        assert total >= 40  # the grid certifies a substantial family
        assert time.monotonic() - start < 120.0


def test_criterion_7_energy_form_equality():
    with criterion(7, "energy-form equality"):
        rng = np.random.default_rng(7)
        for spin in ACCEPTANCE_SPINS:
            count = 0
            while count < 1000:
                m = int(rng.integers(1, 5))
                lam = rng.normal(size=m) + 1j * rng.normal(size=m)
                if min(np.min(np.abs(lam - 1j * spin.s)), np.min(np.abs(lam + 1j * spin.s))) < 1e-2:
                    continue
                count += 1
                k = bethe.lambda_to_k(lam, spin)
                gap = abs(bethe.energy_lambda(lam, spin) - bethe.energy_k(k, spin))
                assert gap < 1e-12 * max(1.0, abs(bethe.energy_k(k, spin)))


def test_criterion_8_spectrum_reconciliation():
    with criterion(8, "spectrum reconciliation"):
        start = time.monotonic()
        report = reconcile_spectrum(Spin(1), 4, 2)
        assert report.total_levels == 16
        assert report.matched_levels == 16
        assert report.unmatched == []

        report = reconcile_spectrum(Spin(2), 3, 3)
        assert report.total_levels == 27
        # the matched fraction is reported and every level is accounted for
        assert report.matched_levels + len(report.unmatched) == 27
        assert 0.0 <= report.matched_fraction <= 1.0
        # target 100%: everything reachable by regular root sets must match,
        # any deficit is itemized with its sector and energy
        assert report.matched_levels >= 26
        for item in report.unmatched:
            assert set(item) == {"m", "energy"}
        if report.unmatched:
            assert report.unmatched[0]["m"] == 3
            assert abs(report.unmatched[0]["energy"] + 3.0) < 1e-9
        assert time.monotonic() - start < 60.0


def test_criterion_9_aba_cross_check():
    with criterion(9, "monodromy cross-check"):
        rng = np.random.default_rng(9)
        for spin, length in ((Spin(1), 5), (Spin(2), 4)):
            count = 0
            while count < 20:
                lam = complex(rng.normal(), rng.normal())
                if min(abs(lam - 1j * spin.s), abs(lam + 1j * spin.s)) < 0.1:
                    continue
                count += 1
                phi = aba_phi1(spin, length, lam)
                psi = bethe.build_bethe_state(spin, length, lam=[lam])
                assert abs(overlap(phi, psi.vector) - 1.0) < 1e-10


def test_criterion_10_negative_controls():
    with criterion(10, "negative controls"):
        for spin, length in ((Spin(1), 4), (Spin(2), 4)):
            ham = ChainHamiltonian(spin, length)
            for m in (1, 2):
                for cert in solve_sector(spin, length, m, hamiltonian=ham):
                    if cert.singular:
                        continue
                    perturbed = np.array(cert.lam)
                    perturbed[0] += 0.01
                    state = bethe.build_bethe_state(spin, length, lam=perturbed)
                    assert eigen_residual(state, ham) > 1e-4
        rng = np.random.default_rng(10)
        hits = 0
        for _ in range(100):
            k = rng.uniform(0.2, 2 * np.pi - 0.2, size=2)
            state = bethe.build_bethe_state(Spin(1), 6, k=k)
            if highest_weight_residual(state) > 1e-3:
                hits += 1
        assert hits >= 95
