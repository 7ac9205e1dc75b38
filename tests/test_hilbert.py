import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import kron_chain_hamiltonian, kron_site_operator
from xxxchain import hilbert
from xxxchain.errors import InputRangeError
from xxxchain.hamiltonian import ChainHamiltonian
from xxxchain.su2 import Spin, s_minus, s_plus

ORACLE_CHAINS = ((Spin(1), 6), (Spin(2), 4), (Spin(3), 3))


def poly_coefficient(two_s, length, m):
    # coefficient of t^m in (1 + t + ... + t^{2s})^L
    coeffs = np.zeros(two_s * length + 1)
    coeffs[0] = 1.0
    site = np.ones(two_s + 1)
    for _ in range(length):
        coeffs = np.convolve(coeffs, site)[: two_s * length + 1]
    return int(round(coeffs[m]))


def test_sector_examples():
    basis = hilbert.sector_basis(Spin(1), 2, 1)
    assert set(basis.states) == {(1, 0), (0, 1)}
    basis = hilbert.sector_basis(Spin(2), 2, 2)
    assert set(basis.states) == {(2, 0), (1, 1), (0, 2)}
    assert len(hilbert.sector_basis(Spin(2), 3, 2)) == 6


def test_sector_order_lexicographic():
    for spin, length, m in ((Spin(1), 4, 2), (Spin(2), 3, 3)):
        states = hilbert.sector_basis(spin, length, m).states
        assert list(states) == sorted(states)
        assert len(set(states)) == len(states)


def test_sector_dimensions_match_generating_function():
    for spin, length in ((Spin(1), 5), (Spin(2), 4), (Spin(3), 3)):
        total = 0
        for m in range(spin.two_s * length + 1):
            dim = len(hilbert.sector_basis(spin, length, m))
            assert dim == poly_coefficient(spin.two_s, length, m)
            total += dim
        assert total == spin.dim**length


def test_sector_bounds():
    with pytest.raises(ValueError):
        hilbert.sector_basis(Spin(1), 3, 4)
    with pytest.raises(ValueError):
        hilbert.sector_basis(Spin(1), 3, -1)


def test_index_of_roundtrip():
    basis = hilbert.sector_basis(Spin(2), 4, 3)
    for i, occ in enumerate(basis.states):
        assert basis.index_of(occ) == i


def test_index_of_rejects_off_sector_occupations():
    spin, length, m = Spin(1), 4, 2
    basis = hilbert.sector_basis(spin, length, m)
    # digits one outside 0..2s on either side, including tuples whose index
    # would alias an in-sector state
    for occ in itertools.product(range(-1, spin.two_s + 2), repeat=length):
        if occ in basis.states:
            continue
        with pytest.raises(KeyError):
            basis.index_of(occ)
    with pytest.raises(KeyError):
        basis.index_of((1, 1, 0))
    with pytest.raises(KeyError):
        basis.indices_of([(1, 1, 0, 0), (0, 0, 1, 2)])


def test_indices_of_matches_index_of():
    basis = hilbert.sector_basis(Spin(3), 4, 5)
    rows = basis.occupations[::-3]
    assert list(basis.indices_of(rows)) == [basis.index_of(tuple(r)) for r in rows]


def test_full_indices_ascending_and_first_site_major():
    for spin, length in ORACLE_CHAINS:
        seen = []
        for m in range(spin.two_s * length + 1):
            basis = hilbert.sector_basis(spin, length, m)
            assert np.all(np.diff(basis.full_indices) > 0)
            assert list(basis.full_indices) == [hilbert.full_index(occ, spin.dim)
                                                for occ in basis.states]
            seen.extend(basis.full_indices)
        assert sorted(seen) == list(range(spin.dim**length))


def test_full_index_int64_boundary():
    # 2^62 and 3^39 fit in int64, 2^63 and 3^40 do not
    basis = hilbert.sector_basis(Spin(1), 62, 1)
    assert basis.full_indices[-1] == 2**61
    assert basis.index_of((1,) + (0,) * 61) == len(basis) - 1
    hilbert.sector_basis(Spin(2), 39, 1)
    with pytest.raises(InputRangeError):
        hilbert.sector_basis(Spin(1), 63, 1)
    with pytest.raises(InputRangeError):
        hilbert.sector_basis(Spin(2), 40, 0)


def test_full_index_first_site_major():
    assert hilbert.full_index((1, 0, 0), 3) == 9
    assert hilbert.full_index((0, 0, 2), 3) == 2


def test_coords_to_vector_single():
    vec = hilbert.coords_to_vector(Spin(1), 3, (2,))
    basis = hilbert.sector_basis(Spin(1), 3, 1)
    assert vec[basis.index_of((0, 1, 0))] == pytest.approx(1.0)
    assert np.count_nonzero(vec) == 1


def test_coords_to_vector_double_occupancy():
    vec = hilbert.coords_to_vector(Spin(2), 4, (2, 2))
    basis = hilbert.sector_basis(Spin(2), 4, 2)
    assert vec[basis.index_of((0, 2, 0, 0))] == pytest.approx(1.0)  # alpha_2 = sqrt(C(2,2))
    vec = hilbert.coords_to_vector(Spin(2), 2, (1,))
    basis = hilbert.sector_basis(Spin(2), 2, 1)
    assert vec[basis.index_of((1, 0))] == pytest.approx(np.sqrt(2))  # alpha_1 = sqrt(C(2,1))


def test_coords_to_vector_vanishes_beyond_2s():
    vec = hilbert.coords_to_vector(Spin(1), 3, (2, 2))
    assert np.count_nonzero(vec) == 0
    assert vec.shape == (len(hilbert.sector_basis(Spin(1), 3, 2)),)


def test_coords_validation():
    with pytest.raises(ValueError):
        hilbert.coords_to_vector(Spin(1), 4, (3, 2))
    with pytest.raises(ValueError):
        hilbert.coords_to_vector(Spin(1), 4, (0, 1))


def test_coords_injective():
    spin, length = Spin(2), 4
    seen = set()
    basis = hilbert.sector_basis(spin, length, 2)
    for occ in basis.states:
        coords = hilbert.coordinates_of(occ)
        vec = hilbert.coords_to_vector(spin, length, coords)
        (positions,) = np.nonzero(vec)
        assert len(positions) == 1
        position = int(positions[0])
        assert position not in seen
        seen.add(position)
    assert len(seen) == len(basis)


def test_sector_apply_matches_full_space():
    rng = np.random.default_rng(5)
    spin, length, m = Spin(1), 4, 2
    ham = ChainHamiltonian(spin, length)
    basis = hilbert.sector_basis(spin, length, m)
    vec = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    inside = hilbert.apply_chain_h_in_sector(ham, basis, vec)
    full = ham.apply(hilbert.embed_sector_vector(basis, vec))
    back = np.array([full[hilbert.full_index(occ, spin.dim)] for occ in basis.states])
    assert np.max(np.abs(inside - back)) < 1e-13
    # no leakage outside the sector
    assert abs(np.linalg.norm(full) ** 2 - np.linalg.norm(back) ** 2) < 1e-14 * np.linalg.norm(full) ** 2


def test_sector_apply_m0():
    spin, length = Spin(2), 3
    ham = ChainHamiltonian(spin, length)
    basis = hilbert.sector_basis(spin, length, 0)
    out = hilbert.apply_chain_h_in_sector(ham, basis, np.ones(1))
    assert np.max(np.abs(out)) == 0.0


def test_sector_apply_linearity():
    rng = np.random.default_rng(6)
    spin, length, m = Spin(2), 3, 2
    ham = ChainHamiltonian(spin, length)
    basis = hilbert.sector_basis(spin, length, m)
    v = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    w = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    a, b = 0.3 - 1.1j, -2.2 + 0.7j
    lhs = hilbert.apply_chain_h_in_sector(ham, basis, a * v + b * w)
    rhs = a * hilbert.apply_chain_h_in_sector(ham, basis, v) + b * hilbert.apply_chain_h_in_sector(ham, basis, w)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_sector_apply_dimension_mismatch():
    ham = ChainHamiltonian(Spin(1), 4)
    basis = hilbert.sector_basis(Spin(1), 4, 2)
    with pytest.raises(ValueError):
        hilbert.apply_chain_h_in_sector(ham, basis, np.ones(3))
    other = hilbert.sector_basis(Spin(1), 5, 2)
    with pytest.raises(ValueError):
        hilbert.apply_chain_h_in_sector(ham, other, np.ones(len(other)))


def test_sector_ladder_blocks_are_adjoint():
    for spin, length, m in ((Spin(1), 4, 1), (Spin(2), 3, 2)):
        down = hilbert.sector_s_minus(spin, length, m).toarray()
        up = hilbert.sector_s_plus(spin, length, m + 1).toarray()
        assert np.max(np.abs(down - up.T)) < 1e-14


def _restricted(full: np.ndarray, rows, cols) -> np.ndarray:
    return full[np.ix_(rows.full_indices, cols.full_indices)]


def test_sector_blocks_match_kronecker_oracles():
    for spin, length in ORACLE_CHAINS:
        ham = ChainHamiltonian(spin, length)
        dense = kron_chain_hamiltonian(spin, length)
        lowering = sum(kron_site_operator(s_minus(spin), length, j, spin.dim)
                       for j in range(length))
        raising = sum(kron_site_operator(s_plus(spin), length, j, spin.dim)
                      for j in range(length))
        top = spin.two_s * length
        for m in range(top + 1):
            basis = hilbert.sector_basis(spin, length, m)
            block = ham.sector_matrix(m).toarray()
            assert np.max(np.abs(block - _restricted(dense, basis, basis))) < 1e-13
            if m < top:
                below = hilbert.sector_basis(spin, length, m + 1)
                down = hilbert.sector_s_minus(spin, length, m).toarray()
                assert np.max(np.abs(down - _restricted(lowering, below, basis))) < 1e-14
            if m > 0:
                above = hilbert.sector_basis(spin, length, m - 1)
                up = hilbert.sector_s_plus(spin, length, m).toarray()
                assert np.max(np.abs(up - _restricted(raising, above, basis))) < 1e-14


def test_cached_blocks_are_read_only():
    spin, length = Spin(2), 3
    up = hilbert.sector_s_plus(spin, length, 2)
    assert up is hilbert.sector_s_plus(spin, length, 2)
    block = ChainHamiltonian(spin, length).sector_matrix(2)
    basis = hilbert.sector_basis(spin, length, 2)
    for arr in (up.data, up.indices, up.indptr, block.data, basis.occupations,
                basis.full_indices):
        with pytest.raises(ValueError):
            arr[0] = 0
    vec = np.ones(len(basis))
    assert np.allclose(up @ vec, up.toarray() @ vec)


def test_sector_json():
    payload = hilbert.sector_basis(Spin(1), 3, 1).to_json()
    assert payload == {
        "two_s": 1,
        "L": 3,
        "m": 1,
        "dim": 3,
        "states": [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
    }


@settings(max_examples=30, deadline=None)
@given(
    two_s=st.integers(min_value=1, max_value=3),
    length=st.integers(min_value=2, max_value=5),
    data=st.data(),
)
def test_sector_key_lookup_property(two_s, length, data):
    spin = Spin(two_s)
    m = data.draw(st.integers(min_value=0, max_value=two_s * length))
    basis = hilbert.sector_basis(spin, length, m)
    if len(basis) == 0:
        return
    i = data.draw(st.integers(min_value=0, max_value=len(basis) - 1))
    occ = basis.states[i]
    assert sum(occ) == m
    assert basis.index_of(occ) == i
