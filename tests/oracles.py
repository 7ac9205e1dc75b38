"""Independent oracles used across the test suite.

Everything here is deliberately written against different primitives than the
package code paths it checks: dense Kronecker products instead of axis-moved
tensor contractions, axis-moved contractions instead of per-entry strided
site updates, scalar loops instead of the sector blocks' array build and
product, the exchange recursion instead of the closed amplitude
product, a scalar permutation loop instead of the subset-sum plane-wave kernel,
centered finite differences instead of the analytic Jacobian, scalar loops
over one-entry arrays instead of the batched kernels of the reduced
equations, a closed form instead of the shifted solves of the string
pair's state, one Newton run
per seed instead of the lockstep batch, one scalar kernel call per sample
instead of the suite's batched sampled checks, scalar loops and np.poly
instead of the solver's array classification, seed draws and deflation, and
a scalar triple loop instead of the array beta-recursion check.
"""

import itertools
import math

import numpy as np

from xxxchain import bethe, solver
from xxxchain.errors import NewtonFailureError
from xxxchain.solver import BetheSystem, bethe_residual, jacobian
from xxxchain.hamiltonian import build_beta_table
from xxxchain.su2 import Spin, s_minus, s_plus
from xxxchain.suite import LOCAL_SPINS, _check


def reduced_word(perm, reverse_scan=False):
    """Adjacent-transposition word w with Id*T_{w0}*T_{w1}*... = perm.

    Bubble sorting the one-line notation to the identity gives a reduced word
    of the inverse path; reversing it gives one for perm.  Scanning direction
    selects between two generally different reduced words.
    """
    seq = list(perm)
    swaps = []
    changed = True
    while changed:
        changed = False
        positions = range(len(seq) - 1)
        if reverse_scan:
            positions = reversed(list(positions))
        for j in positions:
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                swaps.append(j)
                changed = True
    return list(reversed(swaps))


def amplitude_AP(perm, k, spin: Spin) -> complex:
    """Closed-form plane-wave amplitude A_P for the permutation `perm` (0-based),
    from the package's pair factors."""
    u = np.exp(1j * np.asarray(k, dtype=complex))
    if sorted(perm) != list(range(len(u))):
        raise ValueError(f"{perm} is not a permutation of 0..{len(u) - 1}")
    bethe._check_momenta(u)
    perm = np.asarray(perm, dtype=np.intp)
    first, second = np.triu_indices(len(u), 1)
    return complex(np.prod(bethe._pair_factors(u, spin)[perm[first], perm[second]]))


def amplitude_by_recursion(perm, k, spin: Spin, reverse_scan=False):
    """A_P from A_Id via A_{P T_j} = sigma(u_{Pj}, u_{P(j+1)}) A_P."""
    u = np.exp(1j * np.asarray(k, dtype=complex))
    m = len(u)
    current = tuple(range(m))
    amp = amplitude_AP(current, k, spin)
    for j in reduced_word(perm, reverse_scan=reverse_scan):
        amp *= bethe.sigma_u(u[current[j]], u[current[j + 1]], spin)
        swapped = list(current)
        swapped[j], swapped[j + 1] = swapped[j + 1], swapped[j]
        current = tuple(swapped)
    assert current == tuple(perm)
    return amp


def permutation_amplitudes(k, spin: Spin):
    """(P, A_P) for every permutation P, with A_P multiplied up one scalar
    pair factor at a time."""
    u = np.exp(1j * np.asarray(k, dtype=complex))
    amplitudes = []
    for perm in itertools.permutations(range(len(u))):
        amp = 1.0 + 0.0j
        for j in range(len(perm)):
            for l in range(j + 1, len(perm)):
                a, b = u[perm[j]], u[perm[l]]
                amp *= 1.0 - (a - 1.0) * (b - 1.0) / (spin.two_s * (a - b))
        amplitudes.append((perm, amp))
    return amplitudes


def plane_wave_sums(xs, k, spin: Spin):
    """a(x) as the raw m!-term sum at each coordinate tuple x in `xs`, defined
    for arbitrary (even unordered) x."""
    u = np.exp(1j * np.asarray(k, dtype=complex))
    amplitudes = permutation_amplitudes(k, spin)
    out = []
    for x in xs:
        total = 0.0 + 0.0j
        for perm, amp in amplitudes:
            term = amp
            for t, xt in enumerate(x):
                term *= u[perm[t]] ** xt
            total += term
        out.append(total)
    return np.array(out)


def plane_wave_sum(x, k, spin: Spin):
    return plane_wave_sums([x], k, spin)[0]


def naive_bethe_terms(lam, spin: Spin, length: int):
    """The two terms t1, t2 of the cleared residual F = t1 - t2, one scalar
    product at a time."""
    t1, t2 = [], []
    for j, lj in enumerate(lam):
        a = (lj + 1j * spin.s) ** length
        b = (lj - 1j * spin.s) ** length
        for ell, ll in enumerate(lam):
            if ell != j:
                a *= lj - ll - 1j
                b *= lj - ll + 1j
        t1.append(a)
        t2.append(b)
    return np.array(t1), np.array(t2)


def _entry(z):
    """One complex number as a one-entry array: NumPy multiplies arrays with
    FMA, so only array products give the kernels' bits."""
    return np.array([z], dtype=complex)


def _scalar_power(z, n):
    """z**n (n >= 1) by binary powering, one product at a time."""
    out = z if n & 1 else None
    while n := n >> 1:
        z = np.multiply(z, z)
        if n & 1:
            out = z if out is None else np.multiply(out, z)
    return out


def _heads(lam_j, system: BetheSystem):
    """Per sign +, -: the factor of the terms t1, t2 that depends on lambda_j alone,
    (lambda_j +- is)^L, or with `system.string` (lambda_j +- is)^(L-1) (lambda_j -+ i(s+1)),
    as the residual takes it and as the Jacobian does (from the power one lower),
    and its derivative."""
    s, length = system.spin.s, system.length
    out = []
    for shift in (1j, -1j):
        pole = lam_j + s * _entry(shift)
        if not system.string:
            lower = _scalar_power(pole, length - 1)
            out.append((_scalar_power(pole, length), np.multiply(lower, pole), length * lower))
            continue
        extra = lam_j - (s + 1) * _entry(shift)
        lower = _scalar_power(pole, length - 2) if length > 2 else _entry(1.0)
        top = np.multiply(lower, pole)
        out.append((np.multiply(_scalar_power(pole, length - 1), extra), np.multiply(top, extra),
                    np.multiply((length - 1) * lower, extra) + top))
    return out


def _pair_terms(lam, j, shift):
    """The pair factors lambda_j - lambda_l - shift, l != j in ascending order."""
    return [_entry(lam[j]) - _entry(lam[l]) - _entry(shift) for l in range(len(lam)) if l != j]


def _left_product(factors):
    out = factors[0]
    for factor in factors[1:]:
        out = np.multiply(out, factor)
    return out


def scalar_residual(lam, system: BetheSystem):
    """F(lambda) and the scaled residual max_j |F_j| / (|t1_j| + |t2_j|), one root
    and one sign at a time, the products in the kernels' order."""
    lam = np.asarray(lam, dtype=complex)
    f, scaled = [], 0.0
    for j in range(len(lam)):
        terms = []
        for (head, _, _), shift in zip(_heads(_entry(lam[j]), system), (1j, -1j)):
            pairs = _pair_terms(lam, j, shift)
            terms.append(np.multiply(head, _left_product(pairs)) if pairs else head)
        f.append((terms[0] - terms[1])[0])
        scale = np.abs(terms[0]) + np.abs(terms[1])
        scaled = max(scaled, float((np.abs(terms[0] - terms[1]) / scale)[0]) if scale[0] else 0.0)
    return np.array(f), scaled


def scalar_jacobian(lam, system: BetheSystem):
    """dF_j/dlambda_r one entry at a time: the product of every pair factor but the
    one of lambda_r is the head times the factors before it, left to right, times
    those after it, right to left."""
    lam = np.asarray(lam, dtype=complex)
    m = len(lam)
    out = np.zeros((m, m), dtype=complex)
    for j in range(m):
        heads = _heads(_entry(lam[j]), system)
        if m == 1:
            out[0, 0] = (heads[0][2] - heads[1][2])[0]
            continue
        sides = [_pair_terms(lam, j, shift) for shift in (1j, -1j)]
        rest = []
        for c in range(m - 1):
            partial = []
            for (_, head, _), pairs in zip(heads, sides):
                value = head if c == 0 else np.multiply(head, _left_product(pairs[:c]))
                if c < m - 2:
                    value = np.multiply(value, _left_product(pairs[:c:-1]))
                partial.append(value)
            rest.append(partial[1] - partial[0])
            out[j, c + (c >= j)] = rest[-1][0]
        diag = np.multiply(heads[0][2], _left_product(sides[0])) - \
            np.multiply(heads[1][2], _left_product(sides[1]))
        total = rest[0]
        for value in rest[1:]:
            total = total + value
        out[j, j] = (diag - total)[0]
    return out


def alternating_bound_state(basis):
    """sum_x (-1)^x |x, x+1> on the spin-1/2, m = 2 sector basis, the pair
    (L, L+1) being (1, L): the state of the exact string pair {+i/2, -i/2}."""
    length = basis.length
    out = np.zeros(len(basis), dtype=complex)
    for x in range(1, length + 1):
        occ = np.zeros(length, dtype=int)
        occ[[x - 1, x % length]] = 1
        out[basis_position(basis, occ)] += (-1) ** x
    return out


def fd_jacobian(lam, system: BetheSystem, rel_step=1e-7):
    lam = np.asarray(lam, dtype=complex)
    m = len(lam)
    out = np.zeros((m, m), dtype=complex)
    for a in range(m):
        h = rel_step * (1.0 + abs(lam[a]))
        dl = np.zeros(m, dtype=complex)
        dl[a] = h
        out[:, a] = (bethe_residual(lam + dl, system) - bethe_residual(lam - dl, system)) / (2 * h)
    return out


def _residual(lam, system):
    """bethe_residual and scaled_residual at lam, from one kernel call."""
    f, scaled = solver._residuals(solver._row(lam), system)
    return f[0], float(scaled[0])


def _newton_step(lam, f, system):
    """Newton direction -J^{-1} F at lam, given F = bethe_residual(lam)."""
    jac = jacobian(lam, system)
    try:
        step = np.linalg.solve(jac, -f)
    except np.linalg.LinAlgError:
        step, *_ = np.linalg.lstsq(jac, -f, rcond=None)
    if not np.isfinite(step).all():
        return None
    return step


def newton_loop(system: BetheSystem, seed, tol: float = 1e-10, max_iter: int = 80):
    """The scalar damped Newton loop that `solver.newton_batch` replaced, one
    seed at a time; returns (roots, iterations, best scaled residual) or raises
    NewtonFailureError, whose `best` holds the best scaled residual reached."""
    lam = np.atleast_1d(np.asarray(seed, dtype=complex)).copy()
    if lam.size != system.m:
        raise ValueError(f"seed has {lam.size} components, system needs {system.m}")

    def failure(reason, detail=""):
        exc = NewtonFailureError(reason, detail)
        exc.best = best
        return exc

    # each accepted point's residual vector comes from the same product pass
    # as its scaled residual and feeds the next Newton step
    f, best = _residual(lam, system)
    for it in range(max_iter):
        if not np.isfinite(lam).all():
            raise failure("nonfinite", "iterate left the finite domain")
        step = _newton_step(lam, f, system)
        if best <= tol:
            # one polishing step sharpens the root well below tol
            if step is not None:
                polished = _residual(lam + step, system)[1]
                if polished <= best:
                    lam, best = lam + step, polished
            return lam, it, best
        if step is None:
            raise failure("singular-jacobian")
        accepted = False
        for damp in (1.0, 0.5, 0.25, 0.125, 1 / 16, 1 / 32, 1 / 64, 1 / 128):
            cand = lam + damp * step
            f_cand, r = _residual(cand, system)
            if math.isfinite(r) and r < best:
                lam, f, best = cand, f_cand, r
                accepted = True
                break
        if not accepted:
            raise failure("stalled", f"residual {best:.3e} after {it} iterations")
    if best <= tol:
        return lam, max_iter, best
    raise failure("max-iter", f"residual {best:.3e} after {max_iter} iterations")


def random_seed_loop(rng, n_random: int, m: int, scale: float) -> list:
    """The random strategy's seeds, drawn one seed at a time."""
    return [rng.normal(scale=scale, size=m) + 1j * rng.normal(scale=scale, size=m)
            for _ in range(n_random)]


def classify_loop(lam, s: float):
    """Reject reason of one root set from scalar tests, in priority order."""
    lam = np.asarray(lam, dtype=complex)
    if max(abs(z) for z in lam) > solver.DESCENDANT_CUTOFF:
        return "descendant"
    for a, b in itertools.combinations(range(len(lam)), 2):
        if abs(lam[a] - lam[b]) < solver.DEGENERACY_TOL:
            return "degenerate"
    if min(min(abs(z - 1j * s), abs(z + 1j * s)) for z in lam) < solver.SINGULAR_PROXIMITY_TOL:
        return "singular"
    return None


class PolyRegistry:
    """Root-set deflation with one np.poly fingerprint per set, each new set
    compared with every registered one."""

    def __init__(self, tol: float = solver.DEFLATION_TOL):
        self.tol = tol
        self.fingerprints = []

    def add(self, lam) -> bool:
        fp = np.poly(np.asarray(lam, dtype=complex))[1:]
        for ref in self.fingerprints:
            bound = self.tol * (1.0 + np.abs(ref))
            if any(np.all(np.abs(cand - ref) <= bound) for cand in (fp, np.conj(fp))):
                return False
        self.fingerprints.append(fp)
        return True


def beta_recursions_loop(spin: Spin, table=None) -> float:
    """check_beta_recursions as a scalar triple loop over (m1, m2, n), with
    lookups in `table` (the spin's beta table by default) and ladder elements
    outside their range read as zero."""
    two_s = spin.two_s
    table = build_beta_table(spin) if table is None else table

    def b(m1, m2, n):
        return table.get((m1, m2, n), 0.0)

    def ladder(local, row, col):
        return local[row][col] if 0 <= min(row, col) and max(row, col) <= two_s else 0.0

    lower, upper = s_minus(spin).tolist(), s_plus(spin).tolist()
    worst = 0.0
    for m1 in range(two_s + 1):
        for m2 in range(two_s + 1):
            for n in range(-two_s - 1, two_s + 2):
                lhs = ladder(lower, m1 + 1, m1) * b(m1 + 1, m2, n)
                rhs = (
                    ladder(lower, m2 - n, m2 - n - 1) * b(m1, m2, n + 1)
                    - ladder(lower, m2 + 1, m2) * b(m1, m2 + 1, n + 1)
                    + ladder(lower, m1 + n + 1, m1 + n) * b(m1, m2, n)
                )
                worst = np.maximum(worst, abs(lhs - rhs))

                lhs = ladder(upper, m1 - 1, m1) * b(m1 - 1, m2, n)
                rhs = (
                    ladder(upper, m2 - n, m2 - n + 1) * b(m1, m2, n - 1)
                    - ladder(upper, m2 - 1, m2) * b(m1, m2 - 1, n - 1)
                    + ladder(upper, m1 + n - 1, m1 + n) * b(m1, m2, n)
                )
                worst = np.maximum(worst, abs(lhs - rhs))
    return worst


def full_index(occ, dim: int) -> int:
    """First-site-major index of an occupation tuple in the full space, one
    digit at a time."""
    idx = 0
    for digit in occ:
        idx = idx * dim + digit
    return idx


def basis_position(basis, occ) -> int:
    """Position of an occupation tuple in a sector basis: a binary search for
    its full index, checked against the stored occupations."""
    pos = int(np.searchsorted(basis.full_indices, full_index(occ, basis.spin.dim)))
    assert basis.occupations[pos].tolist() == list(occ)
    return pos


def kron_site_operator(op, length, site, dim):
    return np.kron(np.kron(np.eye(dim**site), op), np.eye(dim ** (length - site - 1)))


def moveaxis_site_apply(vec, op, length, site, dim):
    """A single-site operator applied by moving the site's tensor axis to the
    front and one matrix product over it, the tensor-contraction form that
    `su2.apply_site_matrix`'s per-entry strided updates replaced."""
    batch = vec.shape[1:]
    t = np.moveaxis(vec.reshape((dim,) * length + batch), site, 0)
    out = (op @ t.reshape(dim, -1)).reshape(t.shape)
    return np.moveaxis(out, 0, site).reshape(vec.shape)


def coo_dense(vals, rows, cols, shape):
    """Dense matrix of an entry list, repeated positions added one at a time
    in list order."""
    out = np.zeros(shape)
    for v, r, c in zip(vals, rows, cols):
        out[r, c] += v
    return out


def entry_matvec_loop(block, vec):
    """block @ vec as a scalar loop over the stored entries: each entry's term
    added to its row, one at a time, in stored order."""
    out = np.zeros(block.shape[0], dtype=np.result_type(block.data, vec))
    for value, row, col in zip(block.data, block.rows, block.indices):
        out[row] += value * vec[col]
    return out


def kron_chain_hamiltonian(spin: Spin, length: int) -> np.ndarray:
    """Dense periodic chain of `local_h`, from `kron_bond_sum`."""
    from xxxchain.hamiltonian import local_h

    return kron_bond_sum(local_h(spin), length, spin.dim)


def kron_bond_sum(h, length, d):
    """Dense sum of the two-site operator h over the periodic bonds
    (j, j+1), assembled from Kronecker products and an explicit
    digit-decoded wrap bond."""
    dim = d**length
    out = np.zeros((dim, dim))
    for j in range(length - 1):
        out += np.kron(np.kron(np.eye(d**j), h), np.eye(d ** (length - j - 2)))
    # wrap bond (L, 1): first tensor slot of h sits on the last site
    h4 = h.reshape(d, d, d, d)
    mid = d ** (length - 2)
    for a1 in range(d):
        for a2 in range(d):
            for b1 in range(d):
                for b2 in range(d):
                    v = h4[a1, a2, b1, b2]
                    if v == 0.0:
                        continue
                    for middle in range(mid):
                        row = a2 * dim // d + middle * d + a1
                        col = b2 * dim // d + middle * d + b1
                        out[row, col] += v
    return out


def spectrum_with_multiplicities(values, tol=1e-8):
    groups = []
    for v in sorted(values):
        if groups and abs(groups[-1][0] - v) < tol:
            groups[-1][1] += 1
        else:
            groups.append([v, 1])
    return [(v, c) for v, c in groups]


# The sampled invariant checks of `xxxchain verify` as scalar loops, one
# kernel call per sample.


def sigma_consistency_loop(seed=0, samples=300):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for spin in LOCAL_SPINS:
        for _ in range(samples):
            u, v, w = rng.normal(size=3) + 1j * rng.normal(size=3)
            try:
                suv, svu = bethe.sigma_u(u, v, spin), bethe.sigma_u(v, u, spin)
                suw, svw = bethe.sigma_u(u, w, spin), bethe.sigma_u(v, w, spin)
            except bethe.SingularScatteringError:
                continue
            worst = max(worst, abs(suv * svu - 1.0))
            braid = suv * suw * svw
            worst = max(worst, abs(braid - svw * suw * suv) / max(1.0, abs(braid)))
    return _check("sigma-unitarity-braid", worst, 1e-12)


def sigma_rapidity_form_loop(seed=0, samples=200):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        lam, mu = rng.normal(size=2) + 1j * rng.normal(size=2)
        if abs(lam - mu + 1j) < 1e-2 or abs(lam - mu - 1j) < 1e-2:
            continue
        target = (lam - mu - 1j) / (lam - mu + 1j)
        for spin in LOCAL_SPINS:
            if min(abs(lam - 1j * spin.s), abs(lam + 1j * spin.s),
                   abs(mu - 1j * spin.s), abs(mu + 1j * spin.s)) < 1e-2:
                continue
            val = bethe.sigma_u(bethe.u_from_lambda(lam, spin),
                                bethe.u_from_lambda(mu, spin), spin)
            worst = max(worst, abs(val - target) / max(1.0, abs(target)))
    return _check("sigma-rapidity-form", worst, 1e-12)


def energy_forms_loop(seed=0, samples=200):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for spin in LOCAL_SPINS:
        for _ in range(samples):
            lam = rng.normal(size=3) + 1j * rng.normal(size=3)
            if min(np.min(np.abs(lam - 1j * spin.s)), np.min(np.abs(lam + 1j * spin.s))) < 1e-2:
                continue
            k = bethe.lambda_to_k(lam, spin)
            energy = bethe.energy_lambda(lam, spin)
            worst = max(worst, abs(energy - bethe.energy_k(k, spin)) / max(1.0, abs(energy)))
    return _check("energy-form-equality", worst, 1e-12)


def _momenta(rng, samples, m):
    """`samples` rows of m momenta k = N + 0.3i N, drawn as the suite draws them."""
    draws = rng.normal(size=(samples, 2, m))
    return draws[:, 0] + 0.3j * draws[:, 1]


def coinciding_constraint_loop(seed=0, samples=10):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for spin in LOCAL_SPINS:
        ts = spin.two_s
        for m in (2, 3, 4):
            ks = _momenta(rng, samples, m)
            slots = rng.integers(m - 1, size=samples).tolist()
            xs = np.sort(rng.integers(1, 7, size=(samples, m)), axis=1).tolist()
            for k, i, x in zip(ks, slots, xs):
                x[i + 1] = x[i]
                # rows x + e_i + e_{i+1}, x + e_i, x + e_{i+1}, x
                rows = [list(x) for _ in range(4)]
                for row, steps in zip(rows, ((1, 1), (1, 0), (0, 1), (0, 0))):
                    row[i] += steps[0]
                    row[i + 1] += steps[1]
                a = plane_wave_sums(rows, k, spin)
                val = a[0] + (ts - 1) * a[1] - (ts + 1) * a[2] + a[3]
                # sum_P |A_P| max_p |u_p|^(x_1+...+x_m) bounds each plane-wave term of a(x)
                amp_sum = sum(abs(amp) for _, amp in permutation_amplitudes(k, spin))
                u_max = max(abs(np.exp(1j * k)))
                terms = sum(abs(c) * amp_sum * u_max ** sum(row)
                            for c, row in zip((1, ts - 1, ts + 1, 1), rows))
                worst = max(worst, abs(val) / max(terms, 1.0))
    return _check("coinciding-coordinate-constraint", worst, 1e-11)


def exchange_relation_loop(seed=0, samples=14):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for spin in LOCAL_SPINS:
        for m in (2, 3, 4):
            ks = _momenta(rng, samples, m)
            perms = rng.permuted(np.tile(np.arange(m), (samples, 1)), axis=1).tolist()
            for k, perm, j in zip(ks, perms, rng.integers(m - 1, size=samples).tolist()):
                u = np.exp(1j * k)
                swapped = list(perm)
                swapped[j], swapped[j + 1] = swapped[j + 1], swapped[j]
                lhs = amplitude_AP(swapped, k, spin)
                rhs = bethe.sigma_u(u[perm[j]], u[perm[j + 1]], spin) * amplitude_AP(perm, k, spin)
                worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-30))
    return _check("amplitude-exchange-relation", worst, 1e-12)
