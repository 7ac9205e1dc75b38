"""Self-contained invariant suite behind the `verify` command.

Each check returns (name, passed, detail) with the measured worst violation,
so a failure names the broken invariant directly.  Every check takes a `seed`
for its random samples; deterministic checks ignore it.
"""

from __future__ import annotations

import itertools

import numpy as np
import numpy.random  # noqa: F401  (NumPy imports it lazily, on first use)

from . import bethe, hilbert
from .hamiltonian import ChainHamiltonian, beta, build_beta_table, check_beta_recursions, local_h
from .su2 import (
    Spin,
    e_minus,
    g_matrix,
    global_generator,
    s_minus,
    s_plus,
    s_z,
)
from .verify import reconcile_spectrum

LOCAL_SPINS = (Spin(1), Spin(2), Spin(3), Spin(4))
# the pseudo-vacuum grid of acceptance criterion 2
CHAIN_GRID = ((Spin(1), 6), (Spin(2), 4), (Spin(3), 3), (Spin(4), 2))


def _check(name, worst, tol):
    return (name, bool(worst < tol), f"max violation {float(worst):.3e} (tol {tol:.0e})")


def su2_local_relations(seed=0):
    worst = 0.0
    for spin in LOCAL_SPINS + (Spin(5),):
        sm, sp, sz = s_minus(spin), s_plus(spin), s_z(spin)
        worst = np.maximum(worst, np.max(np.abs(sp @ sm - sm @ sp - 2 * sz)))
        worst = np.maximum(worst, np.max(np.abs(sz @ sp - sp @ sz - sp)))
        worst = np.maximum(worst, np.max(np.abs(sz @ sm - sm @ sz + sm)))
    return _check("su2-local-commutators", worst, 1e-13)


def su2_casimir(seed=0):
    worst = 0.0
    for spin in LOCAL_SPINS:
        sm, sp, sz = s_minus(spin), s_plus(spin), s_z(spin)
        c2 = sz @ sz + 0.5 * (sp @ sm + sm @ sp)
        worst = np.maximum(worst, np.max(np.abs(c2 - spin.s * (spin.s + 1) * np.eye(spin.dim))))
    return _check("su2-casimir", worst, 1e-13)


def su2_e_minus(seed=0):
    worst = 0.0
    for spin in LOCAL_SPINS:
        g = g_matrix(spin)
        worst = np.maximum(worst, np.max(np.abs(e_minus(spin) - g @ s_minus(spin) @ np.linalg.inv(g))))
        power = np.linalg.matrix_power(e_minus(spin), spin.two_s + 1)
        worst = np.maximum(worst, np.max(np.abs(power)))
    return _check("su2-e-minus", worst, 1e-13)


def beta_symmetry(seed=0):
    worst = 0.0
    for spin in LOCAL_SPINS:
        table = build_beta_table(spin)
        for (m1, m2, n), v in table.items():
            worst = np.maximum(worst, abs(table[(m2, m1, -n)] - v))
    return _check("beta-symmetry", worst, 1e-15)


def beta_recursions(seed=0):
    worst = np.max([check_beta_recursions(spin) for spin in LOCAL_SPINS + (Spin(5),)])
    return _check("beta-recursions", worst, 1e-13)


def local_h_symmetric(seed=0):
    worst = 0.0
    for spin in LOCAL_SPINS + (Spin(5),):
        h = local_h(spin)
        worst = np.maximum(worst, np.max(np.abs(h - h.T)))
    return _check("local-h-symmetric", worst, 1e-13)


def local_h_commutators(seed=0):
    worst = 0.0
    for spin in LOCAL_SPINS + (Spin(5),):
        h = local_h(spin)
        eye = np.eye(spin.dim)
        for op in (s_z(spin), s_plus(spin), s_minus(spin)):
            total = np.kron(op, eye) + np.kron(eye, op)
            worst = np.maximum(worst, np.max(np.abs(total @ h - h @ total)))
    return _check("local-h-commutators", worst, 1e-12)


def _complex_normal(rng, samples, width, imag=1.0):
    """`samples` rows of `width` entries re + i*imag*im, (re, im) drawn as one
    rng.normal(size=(samples, 2, width)) array."""
    draws = rng.normal(size=(samples, 2, width))
    return draws[:, 0] + 1j * imag * draws[:, 1]


def _off_poles(rows, poles):
    """Row mask: every entry of the row at least 1e-2 from every pole."""
    return np.all(np.abs(rows[..., None] - np.asarray(poles)) >= 1e-2, axis=(1, 2))


def sigma_consistency(seed=0):
    rng = np.random.default_rng(seed)
    worst = []
    for spin in LOCAL_SPINS:
        u, v, w = _complex_normal(rng, 300, 3).T
        pairs = ((u, v), (v, u), (u, w), (v, w))
        regular = np.all([np.abs(bethe._sigma_terms(a, b, spin)[1]) >= bethe.SIGMA_DENOM_TOL
                          for a, b in pairs], axis=0)
        suv, svu, suw, svw = (bethe.sigma_u(a[regular], b[regular], spin) for a, b in pairs)
        # the braid products reach ~1e4 near a pole: bounded relative to their scale
        braid = suv * suw * svw
        worst += [np.abs(suv * svu - 1.0),
                  np.abs(braid - svw * suw * suv) / np.maximum(1.0, np.abs(braid))]
    return _check("sigma-unitarity-braid", np.max(np.concatenate(worst), initial=0.0), 1e-12)


def sigma_rapidity_form(seed=0):
    rng = np.random.default_rng(seed)
    pairs = _complex_normal(rng, 200, 2)
    pairs = pairs[_off_poles(pairs[:, :1] - pairs[:, 1:], (-1j, 1j))]
    lam, mu = pairs.T
    target = bethe.sigma_lambda(lam, mu)
    worst = []
    for spin in LOCAL_SPINS:
        keep = _off_poles(pairs, (1j * spin.s, -1j * spin.s))
        val = bethe.sigma_u(bethe.u_from_lambda(lam[keep], spin),
                            bethe.u_from_lambda(mu[keep], spin), spin)
        # |target| grows to ~100 near the pole lambda - mu = -i, so the
        # error is bounded relative to its scale
        worst.append(np.abs(val - target[keep]) / np.maximum(1.0, np.abs(target[keep])))
    return _check("sigma-rapidity-form", np.max(np.concatenate(worst), initial=0.0), 1e-12)


def energy_forms(seed=0):
    rng = np.random.default_rng(seed)
    worst = []
    for spin in LOCAL_SPINS:
        lam = _complex_normal(rng, 200, 3)
        lam = lam[_off_poles(lam, (1j * spin.s, -1j * spin.s))]
        energy = bethe.energy_lambda(lam, spin)
        # |E| reaches ~100 near a pole: the error is bounded relative to it
        worst.append(np.abs(energy - bethe.energy_k(bethe.lambda_to_k(lam, spin), spin))
                     / np.maximum(1.0, np.abs(energy)))
    return _check("energy-form-equality", np.max(np.concatenate(worst), initial=0.0), 1e-12)


def dispersion(seed=0):
    worst = 0.0
    for spin in LOCAL_SPINS + (Spin(5),):
        coeffs = (beta(spin, 1, 0, 0), beta(spin, 0, 1, 0),
                  beta(spin, 1, 0, -1), beta(spin, 0, 1, 1))
        for k in np.linspace(-np.pi, np.pi, 37):
            val = coeffs[0] + coeffs[1] + coeffs[2] * np.exp(1j * k) + coeffs[3] * np.exp(-1j * k)
            target = -(2 - np.exp(1j * k) - np.exp(-1j * k)) / spin.two_s
            worst = np.maximum(worst, abs(val - target))
    return _check("single-magnon-dispersion", worst, 1e-13)


def exchange_relation(seed=0):
    rng = np.random.default_rng(seed)
    worst, rows = [], np.arange(14)[:, None]  # 14 samples per (spin, m)
    for spin, m in itertools.product(LOCAL_SPINS, (2, 3, 4)):
        u = np.exp(1j * _complex_normal(rng, len(rows), m, 0.3))
        perm = rng.permuted(np.tile(np.arange(m), (len(rows), 1)), axis=1)
        j = rng.integers(m - 1, size=len(rows))
        pair = np.stack([j, j + 1], axis=1)
        swapped = perm.copy()
        swapped[rows, pair] = perm[rows, pair[:, ::-1]]
        factor, (first, second) = bethe._pair_factors(u, spin), np.triu_indices(m, 1)
        lhs, amp = (np.prod(factor[rows, p[:, first], p[:, second]], axis=1)
                    for p in (swapped, perm))
        rhs = bethe.sigma_u(*u[rows, perm[rows, pair]].T, spin) * amp
        worst.append(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-30))
    return _check("amplitude-exchange-relation", np.max(np.concatenate(worst)), 1e-12)


def coinciding_constraint(seed=0):
    # (S_i S_{i+1} + (2s-1) S_i - (2s+1) S_{i+1} + 1) a = 0 at x_i = x_{i+1}
    rng = np.random.default_rng(seed)
    worst, rows = [], np.arange(10)[:, None]  # 10 samples per (spin, m)
    for spin, m in itertools.product(LOCAL_SPINS, (2, 3, 4)):
        u = np.exp(1j * _complex_normal(rng, len(rows), m, 0.3))
        i = rng.integers(m - 1, size=rows.shape)
        x = np.sort(rng.integers(1, 7, size=(len(rows), m)), axis=1)
        x[rows, i + 1] = x[rows, i]
        # rows x + e_i + e_{i+1}, x + e_i, x + e_{i+1}, x of sample r at 4r..4r+3 of one table
        coords = np.repeat(x[:, None], 4, axis=1)
        coords[rows, [0, 1], i] += 1
        coords[rows, [0, 2], i + 1] += 1
        a, amp_sum = bethe._plane_wave_sum(coords.reshape(-1, m), u, spin)
        a = a[rows, 4 * rows + np.arange(4)]  # sample r's momenta at its own four rows
        coef = np.array([1, spin.two_s - 1, -spin.two_s - 1, 1])
        # a plane-wave term of a(x) is at most sum_P |A_P| max_p |u_p|^(x_1+...+x_m):
        # the error is bounded relative to the summed terms, which can cancel
        terms = amp_sum[:, None] * np.abs(u).max(axis=1, keepdims=True) ** coords.sum(axis=2)
        worst.append(abs(a @ coef) / np.maximum(terms @ abs(coef), 1.0))
    return _check("coinciding-coordinate-constraint", np.max(np.concatenate(worst)), 1e-11)


def product_identity(seed=0):
    worst = 0.0
    for spin in (Spin(2), Spin(3)):
        for m in (2, 3):
            for z1 in (0.3 + 0.7j, -1.2 + 0.4j, 2.0 - 0.9j):
                zs = [complex(z1)]
                for _ in range(m - 1):
                    z = zs[-1]
                    zs.append((1 + (spin.two_s - 1) * z) / ((spin.two_s + 1) - z))
                chi = []
                for jp in range(1, m + 1):
                    c = (-1.0) ** (m + jp)
                    for kk in range(1, m - jp + 1):
                        c *= spin.two_s / kk - 1
                    for ll in range(1, jp):
                        c *= spin.two_s / ll + 1
                    chi.append(c)
                lhs = np.prod(zs)
                rhs = 1 - m + sum(c * z for c, z in zip(chi, zs))
                worst = np.maximum(worst, abs(lhs - rhs))
    return _check("shift-eigenvalue-product-identity", worst, 1e-11)


def pipeline_reconcile(seed=0):
    report = reconcile_spectrum(Spin(1), 4, 2)
    worst = 1.0 - report.matched_fraction
    for rec in report.bethe:
        worst = np.maximum(worst, abs(rec.energy.imag))
    return _check("pipeline-reconcile-16-levels", worst, 1e-9)


ALL_CHECKS = (
    su2_local_relations,
    su2_casimir,
    su2_e_minus,
    beta_symmetry,
    beta_recursions,
    local_h_symmetric,
    local_h_commutators,
    sigma_consistency,
    sigma_rapidity_form,
    energy_forms,
    dispersion,
    exchange_relation,
    coinciding_constraint,
    product_identity,
    pipeline_reconcile,
)


def chain_checks_at(spin: Spin, length: int, seed: int = 0) -> list:
    """Vacuum, su(2) and sector checks for one chain (spin, L)."""
    rng = np.random.default_rng(seed)
    tag = f"[s={spin},L={length}]"
    ham = ChainHamiltonian(spin, length)
    vac = np.zeros(ham.dim)
    vac[0] = 1.0
    results = [_check(f"vacuum-annihilated{tag}", np.max(np.abs(ham.apply(vac))), 1e-13)]

    vec = rng.normal(size=ham.dim) + 1j * rng.normal(size=ham.dim)
    norm = np.linalg.norm(vec)
    gens = sz, sp, sm = [global_generator(spin, length, alpha) for alpha in ("z", "+", "-")]
    gen_vecs = sz_vec, sp_vec, sm_vec = [gen.apply(vec) for gen in gens]
    lhs = sp.apply(sm_vec) - sm.apply(sp_vec)
    results.append(_check(f"su2-global-commutators{tag}",
                          np.max(np.abs(lhs - 2 * sz_vec)) / norm, 1e-12))
    h_vec = ham.apply(vec)
    worst = 0.0
    for gen, gen_vec in zip(gens, gen_vecs):
        comm = gen.apply(h_vec) - ham.apply(gen_vec)
        worst = np.maximum(worst, np.max(np.abs(comm)) / norm)
    results.append(_check(f"chain-su2-commutators{tag}", worst, 1e-12))

    # one vector with a random component in every sector, hit once on the
    # full space: each slice must equal its sector block's action, which
    # also catches any coupling between sectors
    bases = [hilbert.sector_basis(spin, length, m) for m in range(spin.two_s * length + 1)]
    subs = [rng.normal(size=len(b)) + 1j * rng.normal(size=len(b)) for b in bases]
    full = ham.apply(sum(map(hilbert.embed_sector_vector, bases, subs)))
    worst = np.max([np.max(np.abs(ham.sector_matrix(basis.m) @ sub - full[basis.full_indices]))
                    for basis, sub in zip(bases, subs)])
    results.append(_check(f"sector-apply-matches-full{tag}", worst, 1e-12))
    return results


def run_all(seed: int = 0, chain=None) -> list:
    """Run every invariant check, then the chain-level checks over
    CHAIN_GRID and, if `chain` = (spin, length) is not in it, that chain."""
    results = []
    for fn in ALL_CHECKS:
        try:
            results.append(fn(seed=seed))
        except Exception as exc:  # a crash is a failure, not an abort
            results.append((fn.__name__, False, f"raised {type(exc).__name__}: {exc}"))
    chains = list(CHAIN_GRID)
    if chain is not None and tuple(chain) not in chains:
        chains.append(tuple(chain))
    for spin, length in chains:
        try:
            results.extend(chain_checks_at(spin, length, seed=seed))
        except Exception as exc:
            results.append((f"chain-checks[s={spin},L={length}]", False,
                            f"raised {type(exc).__name__}: {exc}"))
    return results
