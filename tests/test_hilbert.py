
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (basis_position, coo_dense, csr_matvec_loop, full_index, kron_bond_sum,
                     kron_chain_hamiltonian, kron_site_operator)
from xxxchain import hilbert
from xxxchain.errors import InputRangeError
from xxxchain.hamiltonian import ChainHamiltonian
from xxxchain.su2 import Spin, s_minus, s_plus

# at L = 2 both bonds land on the same positions, so block entries repeat
ORACLE_CHAINS = ((Spin(1), 6), (Spin(2), 4), (Spin(3), 3), (Spin(3), 2), (Spin(4), 2))


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
    assert set(map(tuple, basis.occupations.tolist())) == {(1, 0), (0, 1)}
    basis = hilbert.sector_basis(Spin(2), 2, 2)
    assert set(map(tuple, basis.occupations.tolist())) == {(2, 0), (1, 1), (0, 2)}
    assert len(hilbert.sector_basis(Spin(2), 3, 2)) == 6


def test_sector_order_lexicographic():
    for spin, length, m in ((Spin(1), 4, 2), (Spin(2), 3, 3)):
        states = list(map(tuple, hilbert.sector_basis(spin, length, m).occupations.tolist()))
        assert states == sorted(states)
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


def test_full_indices_ascending_and_first_site_major():
    for spin, length in ORACLE_CHAINS:
        seen = []
        for m in range(spin.two_s * length + 1):
            basis = hilbert.sector_basis(spin, length, m)
            assert np.all(np.diff(basis.full_indices) > 0)
            assert list(basis.full_indices) == [full_index(occ, spin.dim)
                                                for occ in basis.occupations.tolist()]
            seen.extend(basis.full_indices)
        assert sorted(seen) == list(range(spin.dim**length))


def test_full_index_int64_boundary():
    # 2^62 and 3^39 fit in int64, 2^63 and 3^40 do not
    basis = hilbert.sector_basis(Spin(1), 62, 1)
    assert basis.full_indices[-1] == 2**61
    assert basis_position(basis, (1,) + (0,) * 61) == len(basis) - 1
    hilbert.sector_basis(Spin(2), 39, 1)
    with pytest.raises(InputRangeError):
        hilbert.sector_basis(Spin(1), 63, 1)
    with pytest.raises(InputRangeError):
        hilbert.sector_basis(Spin(2), 40, 0)


def test_full_index_first_site_major():
    assert full_index((1, 0, 0), 3) == 9
    assert full_index((0, 0, 2), 3) == 2


def test_sector_apply_matches_full_space():
    rng = np.random.default_rng(5)
    spin, length, m = Spin(1), 4, 2
    ham = ChainHamiltonian(spin, length)
    basis = hilbert.sector_basis(spin, length, m)
    vec = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    inside = ham.sector_matrix(m) @ vec
    full = ham.apply(hilbert.embed_sector_vector(basis, vec))
    back = np.array([full[full_index(occ, spin.dim)] for occ in basis.occupations.tolist()])
    assert np.max(np.abs(inside - back)) < 1e-13
    # no leakage outside the sector
    assert abs(np.linalg.norm(full) ** 2 - np.linalg.norm(back) ** 2) < 1e-14 * np.linalg.norm(full) ** 2


def test_sector_apply_m0():
    spin, length = Spin(2), 3
    ham = ChainHamiltonian(spin, length)
    out = ham.sector_matrix(0) @ np.ones(1)
    assert np.max(np.abs(out)) == 0.0


def test_sector_apply_linearity():
    rng = np.random.default_rng(6)
    spin, length, m = Spin(2), 3, 2
    ham = ChainHamiltonian(spin, length)
    basis = hilbert.sector_basis(spin, length, m)
    v = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    w = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    a, b = 0.3 - 1.1j, -2.2 + 0.7j
    h = ham.sector_matrix(m)
    lhs = h @ (a * v + b * w)
    rhs = a * (h @ v) + b * (h @ w)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


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


def test_sector_block_sums_repeated_positions_in_order():
    rng = np.random.default_rng(8)
    rows = rng.integers(0, 6, size=60)
    rows = rows[rows != 3]  # rows 3 and 6 stay empty
    cols = rng.integers(0, 5, size=len(rows))
    vals = rng.normal(size=len(rows))
    block = hilbert.SectorBlock(vals, rows, cols, (7, 5))
    assert block.nnz == len(set(zip(rows.tolist(), cols.tolist())))
    assert np.array_equal(block.toarray(), coo_dense(vals, rows, cols, (7, 5)))
    assert block.indptr[3] == block.indptr[4] and block.indptr[6] == block.indptr[7] == block.nnz
    for row in range(7):
        assert list(block.indices[block.indptr[row]:block.indptr[row + 1]]) == \
            sorted(set(cols[rows == row].tolist()))
    real = rng.normal(size=5)
    for vec in (real, real + 1j * rng.normal(size=5)):
        out = block @ vec
        assert out.dtype == vec.dtype and out[3] == out[6] == 0.0
        assert np.array_equal(out, csr_matvec_loop(block, vec))
    with pytest.raises(ValueError):
        block @ np.ones(7)


def test_sector_blocks_match_dense_and_loop_oracles():
    # L=2 puts both bonds on the same pairs, so its off-diagonal positions
    # repeat; m=0 and the top sector are all empty rows
    rng = np.random.default_rng(9)
    for spin, length in ((Spin(1), 2), (Spin(4), 2), (Spin(1), 5), (Spin(2), 4)):
        ham = ChainHamiltonian(spin, length)
        dense = kron_chain_hamiltonian(spin, length)
        for m in range(spin.two_s * length + 1):
            basis = hilbert.sector_basis(spin, length, m)
            block = ham.sector_matrix(m)
            expected = _restricted(dense, basis, basis)
            arr = block.toarray()
            assert block.shape == expected.shape
            assert np.max(np.abs(arr - expected)) < 1e-13
            assert np.array_equal(arr, arr.T)
            assert block.nnz == np.count_nonzero(expected)
            real = rng.normal(size=len(basis))
            for vec in (real, real + 1j * rng.normal(size=len(basis))):
                out = block @ vec
                assert np.array_equal(out, csr_matvec_loop(block, vec))
                assert np.max(np.abs(out - expected @ vec)) < 1e-12 * (1 + np.abs(vec).sum())
    vacuum = ChainHamiltonian(Spin(1), 6).sector_matrix(0)
    assert vacuum.nnz == 0 and np.array_equal(vacuum @ np.ones(1), np.zeros(1))


def test_local_sum_blocks_match_kronecker_oracles():
    # H is swap-symmetric on each bond, so its blocks cannot tell (j, k) from
    # (k, j); a random lowering-conserving bond operator without that symmetry
    # fixes the orientation of every bond, the wrap bond (L-1, 0) included
    rng = np.random.default_rng(15)
    for spin, length in ((Spin(1), 4), (Spin(2), 3), (Spin(3), 2)):
        d, top = spin.dim, spin.two_s * length
        lowering = np.add.outer(np.arange(d), np.arange(d)).ravel()
        bond = np.where(lowering[:, None] == lowering, rng.normal(size=(d * d, d * d)), 0.0)
        swap = np.arange(d * d).reshape(d, d).T.ravel()
        assert np.max(np.abs(bond - bond[np.ix_(swap, swap)])) > 0.1
        site = np.diag(rng.normal(size=d))
        bonds = [(j, (j + 1) % length) for j in range(length)]
        sites = [(j,) for j in range(length)]

        def site_sum(op):
            return sum(kron_site_operator(op, length, j, d) for j in range(length))

        for op, terms, step, dense in ((bond, bonds, 0, kron_bond_sum(bond, length, d)),
                                       (site, sites, 0, site_sum(site)),
                                       (s_minus(spin), sites, 1, site_sum(s_minus(spin)))):
            for m in range(top + 1 - step):
                block = hilbert.local_sum_block(spin, length, m, op, terms, step)
                expected = _restricted(dense, hilbert.sector_basis(spin, length, m + step),
                                       hilbert.sector_basis(spin, length, m))
                assert block.shape == expected.shape
                assert block.nnz == np.count_nonzero(expected)
                assert np.max(np.abs(block.toarray() - expected), initial=0.0) < 1e-13


def test_column_table_is_cached_and_read_only():
    spin, length = Spin(2), 4
    ham = ChainHamiltonian(spin, length)
    sites = [(j,) for j in range(length)]
    cases = [(ham.local, ham.bonds(), 0), (s_minus(spin), sites, 1), (s_plus(spin), sites, -1)]
    sectors = [range(max(0, -step), spin.two_s * length + 1 - max(0, step)) for *_, step in cases]
    uncached = []
    for (op, terms, step), ms in zip(cases, sectors):
        for m in ms:
            hilbert._column_table.cache_clear()
            uncached.append(hilbert.local_sum_block(spin, length, m, op, terms, step))
    # one table per operator, shared by every block of it, each block built
    # here from a copy of the operator
    hilbert._column_table.cache_clear()
    cached = [hilbert.local_sum_block(spin, length, m, op.copy(), terms, step)
              for (op, terms, step), ms in zip(cases, sectors) for m in ms]
    assert hilbert._column_table.cache_info().misses == len(cases)
    for a, b in zip(uncached, cached, strict=True):
        assert a.shape == b.shape
        for name in ("data", "rows", "indices", "indptr"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
    for op, terms, _ in cases:
        for arr in hilbert._column_table(spin.dim, len(terms[0]), op.tobytes()):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0


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
    occ = basis.occupations[i].tolist()
    assert sum(occ) == m
    assert basis_position(basis, occ) == i
