import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (amplitude_AP, amplitude_by_recursion, basis_position, permutation_amplitudes,
                     plane_wave_sum, plane_wave_sums, reduced_word)
from xxxchain import bethe, hilbert
from xxxchain.errors import (
    ChainError,
    DegenerateRootsError,
    InputRangeError,
    PoleError,
    SingularScatteringError,
)
from xxxchain.hamiltonian import ChainHamiltonian
from xxxchain.su2 import Spin

SPINS = [Spin(1), Spin(2), Spin(3), Spin(4)]

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False)
complex_numbers = st.builds(complex, finite, finite)


def test_k_lambda_roundtrip_example():
    lam = 0.7 + 0.3j
    spin = Spin(2)
    k = bethe.lambda_to_k(lam, spin)
    assert abs(bethe.k_to_lambda(k, spin) - lam) < 1e-12


def test_real_rapidity_gives_unimodular_u():
    for lam in (-2.1, -0.3, 0.8, 4.0):
        u = bethe.u_from_lambda(lam, Spin(1))
        assert abs(abs(u) - 1.0) < 1e-14


def test_large_rapidity_limits_to_zero_momentum():
    u = bethe.u_from_lambda(1e10, Spin(2))
    assert abs(u - 1.0) < 1e-9
    with pytest.raises(PoleError):
        bethe.lambda_from_u(u, Spin(2))


def test_pole_guards():
    with pytest.raises(PoleError):
        bethe.u_from_lambda(0.5j, Spin(1))
    with pytest.raises(PoleError):
        bethe.lambda_to_k(-0.5j, Spin(1))  # u = 0 has no finite momentum
    with pytest.raises(PoleError):
        bethe.k_to_lambda(1e-12, Spin(1))


@settings(max_examples=80, deadline=None)
@given(lam=complex_numbers, two_s=st.integers(min_value=1, max_value=4))
def test_k_lambda_roundtrip_property(lam, two_s):
    spin = Spin(two_s)
    assume(min(abs(lam - 1j * spin.s), abs(lam + 1j * spin.s)) > 0.05)
    k = bethe.lambda_to_k(lam, spin)
    assert abs(bethe.k_to_lambda(k, spin) - lam) < 1e-10 * (1 + abs(lam))


def test_sigma_at_equal_arguments():
    for spin in SPINS:
        for u in (0.3 + 0.2j, -1.4 + 2.0j, 2.5 - 0.7j):
            assert abs(bethe.sigma_u(u, u, spin) + 1.0) < 1e-13


@settings(max_examples=150, deadline=None)
@given(u=complex_numbers, v=complex_numbers, two_s=st.integers(min_value=1, max_value=4))
def test_sigma_unitarity(u, v, two_s):
    spin = Spin(two_s)
    ts = spin.two_s
    assume(abs(u * v + (ts - 1) * v - (ts + 1) * u + 1) > 1e-2)
    assume(abs(u * v + (ts - 1) * u - (ts + 1) * v + 1) > 1e-2)
    assert abs(bethe.sigma_u(u, v, spin) * bethe.sigma_u(v, u, spin) - 1.0) < 1e-12


def test_sigma_braid_relation():
    rng = np.random.default_rng(2)
    for spin in SPINS:
        for _ in range(200):
            u, v, w = rng.normal(size=3) + 1j * rng.normal(size=3)
            try:
                s12 = bethe.sigma_u(u, v, spin)
                s13 = bethe.sigma_u(u, w, spin)
                s23 = bethe.sigma_u(v, w, spin)
            except SingularScatteringError:
                continue
            assert abs(s12 * s13 * s23 - s23 * s13 * s12) < 1e-12


def test_sigma_rapidity_form_spin_independent():
    rng = np.random.default_rng(3)
    for _ in range(100):
        lam, mu = rng.normal(size=2) + 1j * rng.normal(size=2)
        if abs(lam - mu + 1j) < 1e-2 or abs(lam - mu - 1j) < 1e-2:
            continue
        target = (lam - mu - 1j) / (lam - mu + 1j)
        for spin in SPINS:
            if min(abs(lam - 1j * spin.s), abs(lam + 1j * spin.s),
                   abs(mu - 1j * spin.s), abs(mu + 1j * spin.s)) < 1e-2:
                continue
            u = bethe.u_from_lambda(lam, spin)
            v = bethe.u_from_lambda(mu, spin)
            assert abs(bethe.sigma_u(u, v, spin) - target) < 1e-12
            assert abs(bethe.sigma_lambda(lam, mu) - target) < 1e-14


def test_sigma_singular_pair_error():
    with pytest.raises(SingularScatteringError):
        bethe.sigma_u(1.0 + 0j, 1.0 + 0j, Spin(1))  # denominator (u-1)^2 = 0


def test_amplitude_identity_is_empty_product():
    assert amplitude_AP((0,), [0.4 + 0.1j], Spin(2)) == 1.0 + 0.0j


def test_amplitude_exchange_m2():
    rng = np.random.default_rng(4)
    for spin in SPINS:
        k = rng.normal(size=2) + 0.4j * rng.normal(size=2)
        u = np.exp(1j * k)
        a_id = amplitude_AP((0, 1), k, spin)
        a_t = amplitude_AP((1, 0), k, spin)
        assert abs(a_t - bethe.sigma_u(u[0], u[1], spin) * a_id) < 1e-12 * abs(a_id)


def test_amplitude_recursion_oracle_longest_element():
    rng = np.random.default_rng(5)
    for spin in (Spin(1), Spin(2), Spin(3)):
        k = rng.normal(size=3) + 0.3j * rng.normal(size=3)
        w0 = (2, 1, 0)
        direct = amplitude_AP(w0, k, spin)
        for reverse_scan in (False, True):
            rec = amplitude_by_recursion(w0, k, spin, reverse_scan=reverse_scan)
            assert abs(direct - rec) < 1e-12 * max(1.0, abs(direct))
    # the two reduced words of the longest element really differ
    assert reduced_word((2, 1, 0)) != reduced_word((2, 1, 0), reverse_scan=True)


def test_amplitude_recursion_oracle_all_perms_m4():
    rng = np.random.default_rng(6)
    spin = Spin(2)
    k = rng.normal(size=4) + 0.2j * rng.normal(size=4)
    for perm in itertools.permutations(range(4)):
        direct = amplitude_AP(perm, k, spin)
        rec = amplitude_by_recursion(perm, k, spin)
        assert abs(direct - rec) < 1e-12 * max(1.0, abs(direct))


def test_amplitude_guards():
    with pytest.raises(DegenerateRootsError):
        amplitude_AP((0, 1), [0.3, 0.3], Spin(1))
    with pytest.raises(PoleError):
        amplitude_AP((0, 1), [0.0, 0.4], Spin(1))
    with pytest.raises(ValueError):
        amplitude_AP((0, 0), [0.3, 0.4], Spin(1))


def test_amplitude_a_single_magnon():
    k = 0.37 - 0.12j
    for x in range(1, 6):
        assert abs(bethe.amplitude_a((x,), [k], Spin(2)) - np.exp(1j * k * x)) < 1e-13


def test_amplitude_a_k_relabeling_invariance():
    rng = np.random.default_rng(7)
    k = rng.normal(size=3) + 0.3j * rng.normal(size=3)
    x = (1, 3, 4)
    spin = Spin(3)
    reference = bethe.amplitude_a(x, k, spin)
    for order in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
        val = bethe.amplitude_a(x, [k[i] for i in order], spin)
        assert abs(val - reference) < 1e-12 * max(1.0, abs(reference))


def test_amplitude_a_requires_sorted_coordinates():
    with pytest.raises(ValueError):
        bethe.amplitude_a((3, 1), [0.2, 0.4], Spin(1))


def test_amplitude_a_beyond_the_chain_matches_oracle():
    # the kernel sizes its power table from the coordinates, so x <= 0 and
    # x > L need u^x with negative and large exponents
    rng = np.random.default_rng(13)
    for spin in SPINS:
        for m in (1, 2, 3, 4):
            k = rng.normal(size=m) + 0.3j * rng.normal(size=m)
            for x in ([-4] * m, sorted(rng.integers(-6, 1, size=m)),
                      sorted(rng.integers(7, 15, size=m)), sorted(rng.integers(-5, 15, size=m))):
                x = tuple(int(v) for v in x)
                expected = plane_wave_sum(x, k, spin)
                val = bethe.amplitude_a(x, k, spin)
                assert abs(val - expected) < 1e-12 * max(1.0, abs(expected)), (spin, x)


def test_coinciding_coordinate_constraint():
    # (S_i S_{i+1} + (2s-1) S_i - (2s+1) S_{i+1} + 1) a = 0 at x_i = x_{i+1}
    rng = np.random.default_rng(8)
    for spin in SPINS:
        for m in (2, 3, 4):
            k = rng.normal(size=m) + 0.3j * rng.normal(size=m)
            x = sorted(int(v) for v in rng.integers(1, 6, size=m))
            for i in range(m - 1):
                xi = list(x)
                xi[i + 1] = xi[i]
                ts = spin.two_s

                def shifted(*steps):
                    out = list(xi)
                    for slot, step in steps:
                        out[slot] += step
                    return plane_wave_sum(out, k, spin)

                val = (shifted((i, 1), (i + 1, 1))
                       + (ts - 1) * shifted((i, 1))
                       - (ts + 1) * shifted((i + 1, 1))
                       + shifted())
                scale = max(abs(shifted()), abs(shifted((i, 1), (i + 1, 1))), 1.0)
                assert abs(val) < 1e-11 * scale


def test_product_identity_chained_constraint():
    for spin in (Spin(2), Spin(3)):
        for m in (2, 3):
            for z1 in (0.3 + 0.7j, -1.1 + 0.2j, 1.7 - 0.6j):
                zs = [complex(z1)]
                for _ in range(m - 1):
                    z = zs[-1]
                    zs.append((1 + (spin.two_s - 1) * z) / ((spin.two_s + 1) - z))
                chi = []
                for jp in range(1, m + 1):
                    c = (-1.0) ** (m + jp)
                    for kk in range(1, m - jp + 1):
                        c *= spin.two_s / kk - 1.0
                    for ll in range(1, jp):
                        c *= spin.two_s / ll + 1.0
                    chi.append(c)
                lhs = np.prod(zs)
                rhs = 1 - m + sum(c * z for c, z in zip(chi, zs))
                assert abs(lhs - rhs) < 1e-11


def test_build_state_m1_spin_half_L2():
    state = bethe.build_bethe_state(Spin(1), 2, k=[np.pi])
    vec = state.vector / state.vector[np.argmax(np.abs(state.vector))]
    basis = state.basis
    assert abs(vec[basis_position(basis, (1, 0))] + vec[basis_position(basis, (0, 1))]) < 1e-12
    ham = ChainHamiltonian(Spin(1), 2)
    hv = ham.sector_matrix(1) @ state.vector
    assert np.max(np.abs(hv + 4.0 * state.vector)) < 1e-12
    assert abs(state.energy + 4.0) < 1e-12


def test_build_state_matches_coordinate_sum():
    spin, length = Spin(2), 4
    k = [0.9 - 0.1j]
    state = bethe.build_bethe_state(spin, length, k=k)
    basis = state.basis
    direct = np.zeros(len(basis), dtype=complex)
    for x in range(1, length + 1):
        # |x> carries the normalization sqrt(C(2s, 1))
        direct[basis_position(basis, np.eye(length, dtype=int)[x - 1])] = (
            np.exp(1j * k[0] * x) * math.sqrt(spin.two_s))
    assert np.max(np.abs(state.vector - direct)) < 1e-12


def _coordinate_amplitudes(state, k, rows):
    """a(x) * prod_j sqrt(C(2s, m_j)) at the given basis rows, from the scalar
    oracle rather than amplitude_a, which shares the kernel under test."""
    two_s = state.spin.two_s
    occs = state.basis.occupations[rows].tolist()
    alpha = [math.prod(math.sqrt(math.comb(two_s, mj)) for mj in occ) for occ in occs]
    xs = [tuple(site + 1 for site, mj in enumerate(occ) for _ in range(mj)) for occ in occs]
    return plane_wave_sums(xs, k, state.spin) * np.array(alpha)


def test_build_state_equals_coordinate_amplitudes():
    rng = np.random.default_rng(11)
    for spin, length in ((Spin(1), 6), (Spin(2), 4), (Spin(3), 3)):
        for m in range(1, 6):
            k = rng.normal(size=m) + 0.3j * rng.normal(size=m)
            state = bethe.build_bethe_state(spin, length, k=k)
            rows = range(len(state.basis))
            expected = _coordinate_amplitudes(state, k, rows)
            assert np.max(np.abs(state.vector - expected)) < 1e-12 * np.max(np.abs(expected))


def test_build_state_blocks_rows(monkeypatch):
    spin, length, m = Spin(1), 14, 7
    rng = np.random.default_rng(12)
    k = rng.normal(size=m) + 0.3j * rng.normal(size=m)
    # a block holds BLOCK_ENTRIES // terms rows: all 3,432 rows, then 1,000 (four blocks)
    terms = sum(members.size for members, _ in bethe.subsets_of(m))
    monkeypatch.setattr(bethe, "BLOCK_ENTRIES", 3432 * terms)
    whole = bethe.build_bethe_state(spin, length, k=k)
    monkeypatch.setattr(bethe, "BLOCK_ENTRIES", 1000 * terms)
    state = bethe.build_bethe_state(spin, length, k=k)
    scale = np.max(np.abs(whole.vector))
    assert np.max(np.abs(state.vector - whole.vector)) <= 1e-14 * scale
    rows = rng.choice(len(state.basis), size=25, replace=False)
    expected = _coordinate_amplitudes(state, k, rows)
    assert np.max(np.abs(state.vector[rows] - expected)) < 1e-12 * scale


def test_plane_wave_sum_blocks_batches(monkeypatch):
    spin, m = Spin(2), 4
    rng = np.random.default_rng(5)
    u = np.exp(1j * (rng.normal(size=(3, m)) + 0.3j * rng.normal(size=(3, m))))
    coords = rng.integers(-3, 9, size=(3, 40, m))
    vec, amp_sum = bethe._plane_wave_sum(coords, u, spin)
    terms = sum(members.size for members, _ in bethe.subsets_of(m))
    # two momentum sets a block, then 15 rows a block, some across two sets
    for limit in (2 * 40, 15):
        monkeypatch.setattr(bethe, "BLOCK_ENTRIES", limit * terms)
        blocked, blocked_sum = bethe._plane_wave_sum(coords, u, spin)
        assert np.max(np.abs(blocked - vec)) <= 1e-14 * np.max(np.abs(vec))
        assert np.array_equal(blocked_sum, amp_sum)


def test_plane_wave_sum_matches_permutation_oracle():
    # unordered rows, with coordinates <= 0 and beyond a chain of length 8
    rng = np.random.default_rng(21)
    for m in range(8):
        spin = SPINS[m % len(SPINS)]
        k = rng.normal(size=m) + 0.3j * rng.normal(size=m)
        coords = rng.integers(-5, 14, size=(6, m))
        vec, amp_sum = bethe._plane_wave_sum(coords, np.exp(1j * k), spin)
        expected = plane_wave_sums(coords.tolist(), k, spin)
        assert np.max(np.abs(vec - expected)) <= 1e-12 * np.max(np.abs(expected)), m
        expected_sum = sum(abs(amp) for _, amp in permutation_amplitudes(k, spin))
        assert abs(amp_sum - expected_sum) <= 1e-12 * expected_sum, m


def test_plane_wave_sum_prefix_runs_are_order_blind(monkeypatch):
    spin, length, m = Spin(2), 6, 4
    rng = np.random.default_rng(13)
    k = rng.normal(size=(2, m)) + 0.3j * rng.normal(size=(2, m))
    basis = hilbert.sector_basis(spin, length, m)
    sites = np.tile(np.arange(1, length + 1), len(basis))
    table = np.repeat(sites, basis.occupations.ravel()).reshape(len(basis), m)
    terms = sum(members.size for members, _ in bethe.subsets_of(m))
    # 8 rows a block: the first edge cuts the run of rows with x_1 = 1 in two
    assert np.count_nonzero(table[:, 0] == 1) > 8
    monkeypatch.setattr(bethe, "BLOCK_ENTRIES", 8 * terms)
    vec, amp_sum = bethe._plane_wave_sum(table, np.exp(1j * k), spin)
    order = rng.permutation(len(table))
    repeated = np.sort(rng.choice(len(table), size=2 * len(table)))
    # the last variant ends on the row it starts with: the two batch entries meet
    # on rows that agree in every coordinate
    for rows in (order, repeated, repeated[::-1], np.r_[order, order[0]]):
        again, again_sum = bethe._plane_wave_sum(table[rows], np.exp(1j * k), spin)
        assert again.tobytes() == vec[:, rows].tobytes()
        assert again_sum.tobytes() == amp_sum.tobytes()
    for b in range(2):
        expected = plane_wave_sums(table.tolist(), k[b], spin)
        assert np.max(np.abs(vec[b] - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_build_bethe_states_equals_one_row_builds():
    spin, length = Spin(1), 6
    rng = np.random.default_rng(14)
    rows = [rng.normal(size=3) + 0.3j * rng.normal(size=3) for _ in range(3)] + [
        [0.3, 0.3, 0.9],  # coinciding momenta
        bethe.k_to_lambda(0.3 + 2e-9 * np.arange(3), spin),  # vanishing norm
        [0.5j + 1e-11, 0.2, 0.7],  # at the pole +is
        [-0.5j + 1e-12, 0.2, 0.7],  # at the pole -is
        [0.2, np.nan, 0.3],
        [1e12, 0.2, 0.4],  # descendant direction
        0.5j + 1e-9 * np.arange(1, 4),  # 2(L+1) sum|Im k| past LOG_MAX
        # amplitudes whose squares overflow
        bethe.k_to_lambda(0.3 + 1e-11 * np.arange(3) - 16.8j, spin),
        [0.1, 0.6, -1.2 + 0.4j]]
    batch = bethe.build_bethe_states(spin, length, np.array(rows, dtype=complex))
    kinds = set()
    for lam, built in zip(rows, batch):
        try:
            alone = bethe.build_bethe_state(spin, length, lam=lam)
        except ChainError as exc:
            assert type(built) is type(exc) and str(built) == str(exc), lam
            kinds.add(str(exc).split(" ")[0])
            continue
        # each state owns its vector, so a dropped sibling frees its own
        assert built.vector.base is None
        assert built.vector.tobytes() == alone.vector.tobytes()
        assert (built.energy, built.norm, built.k, built.lam) == \
            (alone.energy, alone.norm, alone.k, alone.lam)
    assert kinds == {"coinciding", "Bethe", "rapidity", "lambda", "momentum", "2(L+1)", "||a||"}
    assert sum(isinstance(state, bethe.BetheState) for state in batch) == 4


@pytest.mark.parametrize("m", [0, 1, 3, 5])
def test_plane_wave_sum_batch_equals_one_row_calls(m):
    spin = Spin(3)
    rng = np.random.default_rng(m)
    u = np.exp(1j * (rng.normal(size=(2, 3, m)) + 0.3j * rng.normal(size=(2, 3, m))))
    coords = rng.integers(-4, 10, size=(2, 3, 5, m))
    vec, amp_sum = bethe._plane_wave_sum(coords, u, spin)
    assert vec.shape == (2, 3, 5) and amp_sum.shape == (2, 3)
    for b in np.ndindex(2, 3):
        for r in range(5):
            one, one_sum = bethe._plane_wave_sum(coords[b][r:r + 1], u[b], spin)
            assert abs(vec[b][r] - one[0]) <= 1e-14 * abs(one[0]), (b, r)
            assert abs(amp_sum[b] - one_sum) <= 1e-14 * one_sum, b


def test_cached_subset_tables_are_read_only():
    assert bethe.subsets_of(4) is bethe.subsets_of(4)
    for table in bethe.subsets_of(4):
        for arr in table:
            with pytest.raises(ValueError):
                arr[...] = 0


def test_build_state_sz_eigenvalue():
    from xxxchain.su2 import global_generator

    spin, length = Spin(2), 3
    rng = np.random.default_rng(9)
    k = rng.normal(size=2) + 0.2j * rng.normal(size=2)
    state = bethe.build_bethe_state(spin, length, k=k)
    full = hilbert.embed_sector_vector(state.basis, state.vector)
    sz = global_generator(spin, length, "z")
    target = (length * spin.s - 2) * full
    assert np.max(np.abs(sz.apply(full) - target)) < 1e-10 * np.linalg.norm(full)


def test_build_state_m0_is_vacuum():
    for two_s in (1, 2, 3, 4):
        spin = Spin(two_s)
        for given in ({"k": ()}, {"lam": ()}):
            state = bethe.build_bethe_state(spin, 4, **given)
            assert state.m == 0 and state.k == () and state.lam == ()
            assert state.vector.dtype == complex
            assert state.vector.tobytes() == np.ones(1, dtype=complex).tobytes()
            assert state.energy == 0.0 + 0.0j and state.norm == 1.0
            assert state.to_json() == {"two_s": two_s, "L": 4, "m": 0, "k": [], "lambda": [],
                                       "energy": [0.0, 0.0], "norm": 1.0}


def test_build_state_rejects_pole_rapidities():
    with pytest.raises(PoleError):
        bethe.build_bethe_state(Spin(1), 4, lam=[0.5j, -0.5j])


def test_build_state_rejects_nonfinite_input():
    for bad in (np.nan, np.inf, complex(0.3, np.inf), complex(np.nan, 0.0)):
        with pytest.raises(InputRangeError, match="finite"):
            bethe.build_bethe_state(Spin(1), 4, lam=[0.2, bad])
        with pytest.raises(InputRangeError, match="finite"):
            bethe.build_bethe_state(Spin(1), 4, k=[bad, 0.4])


def test_build_state_rejects_m_beyond_capacity():
    with pytest.raises(InputRangeError):
        bethe.build_bethe_state(Spin(1), 2, k=[0.3, 0.9, 1.2])
    with pytest.raises(ValueError):
        bethe.build_bethe_state(Spin(1), 2)


def test_energy_examples():
    assert bethe.energy_k((), Spin(1)) == 0.0
    for k in (0.3, 1.2, np.pi / 2):
        assert abs(bethe.energy_k([k], Spin(1)) + 2 * (1 - np.cos(k))) < 1e-13
    with pytest.raises(PoleError):
        bethe.energy_lambda([1j], Spin(2))


def test_energy_kernels_reduce_over_the_last_axis():
    rng = np.random.default_rng(5)
    for spin in SPINS:
        lam = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        k = bethe.lambda_to_k(lam, spin)
        for kernel, arg in ((bethe.energy_k, k), (bethe.energy_lambda, lam)):
            stacked = kernel(arg, spin)
            rows = [kernel(row, spin) for row in arg]
            assert stacked.shape == (6,) and all(type(e) is complex for e in rows)
            assert np.array_equal(stacked, rows)
    with pytest.raises(PoleError):  # a pole in any one row
        bethe.energy_lambda([[0.3, 0.1], [0.2, 2j]], Spin(4))


def test_pair_factors_stack_equals_rows():
    rng = np.random.default_rng(6)
    u = np.exp(1j * (rng.normal(size=(5, 4)) + 0.3j * rng.normal(size=(5, 4))))
    for spin in SPINS:
        stacked = bethe._pair_factors(u, spin)
        assert np.array_equal(stacked, [bethe._pair_factors(row, spin) for row in u])


@settings(max_examples=100, deadline=None)
@given(
    lams=st.lists(complex_numbers, min_size=1, max_size=4),
    two_s=st.integers(min_value=1, max_value=4),
)
def test_energy_forms_agree(lams, two_s):
    spin = Spin(two_s)
    lam = np.array(lams)
    assume(min(np.min(np.abs(lam - 1j * spin.s)), np.min(np.abs(lam + 1j * spin.s))) > 0.05)
    k = bethe.lambda_to_k(lam, spin)
    assert abs(bethe.energy_lambda(lam, spin) - bethe.energy_k(k, spin)) < 1e-12 * (1 + abs(bethe.energy_k(k, spin)))


def test_state_json_shape():
    state = bethe.build_bethe_state(Spin(1), 4, k=[2 * np.pi / 4])
    payload = state.to_json(residual=1e-15)
    assert payload["two_s"] == 1 and payload["L"] == 4 and payload["m"] == 1
    assert len(payload["k"]) == 1 and len(payload["lambda"]) == 1
    assert set(payload) == {"two_s", "L", "m", "k", "lambda", "energy", "norm", "residual"}
