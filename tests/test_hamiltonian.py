import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import beta_recursions_loop
from xxxchain import cli, hamiltonian
from xxxchain.errors import InputRangeError, ResourceCapError, WindowError
from xxxchain.hamiltonian import (
    ChainHamiltonian,
    beta,
    beta_window,
    build_beta_table,
    check_beta_recursions,
    local_h,
)
from xxxchain.su2 import Spin, global_generator, s_minus, s_plus, s_z

SPINS = [Spin(1), Spin(2), Spin(3), Spin(4), Spin(5)]


def test_beta_window_error():
    with pytest.raises(WindowError):
        beta(Spin(1), 0, 0, 1)
    with pytest.raises(WindowError):
        beta(Spin(2), 1, 1, 2)
    with pytest.raises(WindowError):
        beta(Spin(1), 2, 0, 0)


def test_beta_examples():
    for spin in SPINS:
        assert beta(spin, 0, 1, 1) == pytest.approx(1.0 / spin.two_s, rel=1e-15)
        assert beta(spin, 1, 0, 0) == pytest.approx(-1.0 / spin.two_s, rel=1e-15)
    assert beta(Spin(2), 0, 2, 2) == pytest.approx(-0.5, rel=1e-15)
    assert beta(Spin(2), 1, 1, 0) == pytest.approx(-1.0, rel=1e-15)
    assert beta(Spin(1), 0, 0, 0) == 0.0


def test_beta_symmetry_exact():
    for spin in SPINS:
        table = build_beta_table(spin)
        for (m1, m2, n), value in table.items():
            assert beta(spin, m2, m1, -n) == value


def test_beta_table_size_spin_half():
    table = build_beta_table(Spin(1))
    assert len(table) == 6
    # cached and shared, so read-only
    with pytest.raises(TypeError):
        table[(0, 0, 0)] = 1.0


def test_local_h_spin_half_exact():
    perm = np.zeros((4, 4))
    perm[0, 0] = perm[3, 3] = perm[1, 2] = perm[2, 1] = 1.0
    assert np.array_equal(local_h(Spin(1)), perm - np.eye(4))


def test_local_h_annihilates_top_pair():
    for spin in SPINS:
        h = local_h(spin)
        top = np.zeros(spin.dim**2)
        top[0] = 1.0
        assert np.max(np.abs(h @ top)) == 0.0
        assert np.max(np.abs(top @ h)) == 0.0


def test_local_h_symmetric():
    for spin in SPINS:
        h = local_h(spin)
        assert np.max(np.abs(h - h.T)) < 1e-13


def test_local_h_commutes_with_pair_su2():
    for spin in SPINS:
        h = local_h(spin)
        eye = np.eye(spin.dim)
        for op in (s_z(spin), s_plus(spin), s_minus(spin)):
            total = np.kron(op, eye) + np.kron(eye, op)
            assert np.max(np.abs(total @ h - h @ total)) < 1e-12


def test_local_h_spin1_total_spin_blocks():
    # two spin-1 sites decompose into J = 2, 1, 0; h must be a scalar on each
    spin = Spin(2)
    h = local_h(spin)
    eye = np.eye(spin.dim)
    j_ops = [np.kron(op, eye) + np.kron(eye, op)
             for op in (s_z(spin), s_plus(spin), s_minus(spin))]
    jsq = j_ops[0] @ j_ops[0] + 0.5 * (j_ops[1] @ j_ops[2] + j_ops[2] @ j_ops[1])
    vals, vecs = np.linalg.eigh(jsq)
    constants = {}
    for j_target in (2, 1, 0):
        cols = np.abs(vals - j_target * (j_target + 1)) < 1e-8
        assert np.count_nonzero(cols) == 2 * j_target + 1
        block = vecs[:, cols].T @ h @ vecs[:, cols]
        c = block[0, 0]
        assert np.max(np.abs(block - c * np.eye(block.shape[0]))) < 1e-12
        constants[j_target] = c
    assert len({round(c, 9) for c in constants.values()}) == 3


def test_check_beta_recursions():
    for spin in (Spin(1), Spin(2), Spin(4)):
        assert check_beta_recursions(spin) < 1e-13


def test_check_beta_recursions_equals_scalar_loop(monkeypatch):
    # the same products and sums in the same order: the worst values agree
    # exactly, on the true tables and with each entry in turn made wrong
    for spin in SPINS:
        assert check_beta_recursions(spin) == beta_recursions_loop(spin)
    for spin in SPINS[:3]:
        table = dict(build_beta_table(spin))
        for key, value in table.items():
            wrong = {**table, key: value + 1e-3}
            monkeypatch.setattr(hamiltonian, "build_beta_table", lambda spin: wrong)
            assert check_beta_recursions(spin) == beta_recursions_loop(spin, wrong) > 1e-4


def test_chain_spectrum_spin_half_L2():
    ham = ChainHamiltonian(Spin(1), 2)
    vals = np.linalg.eigvalsh(ham.dense())
    assert np.allclose(vals, [-4.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_chain_annihilates_vacuum():
    for spin, length in ((Spin(1), 6), (Spin(2), 4), (Spin(3), 3), (Spin(4), 2)):
        ham = ChainHamiltonian(spin, length)
        vac = np.zeros(ham.dim)
        vac[0] = 1.0
        assert np.max(np.abs(ham.apply(vac))) < 1e-13


def test_chain_commutes_with_global_generators():
    rng = np.random.default_rng(3)
    for spin, length in ((Spin(1), 4), (Spin(2), 3)):
        ham = ChainHamiltonian(spin, length)
        vec = rng.normal(size=ham.dim) + 1j * rng.normal(size=ham.dim)
        for alpha in ("z", "+", "-"):
            gen = global_generator(spin, length, alpha)
            comm = gen.apply(ham.apply(vec)) - ham.apply(gen.apply(vec))
            assert np.max(np.abs(comm)) / np.linalg.norm(vec) < 1e-12


def test_chain_dense_matches_kron_oracle():
    from oracles import kron_chain_hamiltonian

    for spin, length in ((Spin(1), 4), (Spin(2), 3), (Spin(3), 2)):
        ham = ChainHamiltonian(spin, length)
        assert np.max(np.abs(ham.dense() - kron_chain_hamiltonian(spin, length))) < 1e-13


def test_chain_cap():
    with pytest.raises(ResourceCapError):
        ChainHamiltonian(Spin(1), 12, cap=1024)
    with pytest.raises(ResourceCapError):
        ChainHamiltonian(Spin(1), 20).dense()
    with pytest.raises(InputRangeError):
        ChainHamiltonian(Spin(1), 1)


def test_beta_table_refuses_local_dimension_above_dense_threshold(monkeypatch):
    # local_h is dense, (2s+1)^2 square: the table it is built from is refused
    # under the rule of ChainHamiltonian.dense and sector_eigh
    monkeypatch.setattr(hamiltonian, "DENSE_THRESHOLD", 16)
    uncached = build_beta_table.__wrapped__
    assert len(uncached(Spin(3))) == len(build_beta_table(Spin(3)))
    with pytest.raises(ResourceCapError, match="local dimension 25 exceeds dense threshold 16"):
        uncached(Spin(4))


def test_sector_matrix_real_symmetric():
    for spin, length, m in ((Spin(1), 4, 2), (Spin(2), 3, 3)):
        block = ChainHamiltonian(spin, length).sector_matrix(m).toarray()
        assert np.max(np.abs(block - block.T)) < 1e-13
        assert block.dtype.kind == "f"


def test_single_magnon_dispersion():
    for spin in SPINS:
        c = (beta(spin, 1, 0, 0), beta(spin, 0, 1, 0),
             beta(spin, 1, 0, -1), beta(spin, 0, 1, 1))
        for k in np.linspace(-np.pi, np.pi, 29):
            val = c[0] + c[1] + c[2] * np.exp(1j * k) + c[3] * np.exp(-1j * k)
            target = -(2 - np.exp(1j * k) - np.exp(-1j * k)) / spin.two_s
            assert abs(val - target) < 1e-13


@settings(max_examples=60, deadline=None)
@given(two_s=st.integers(min_value=1, max_value=6), data=st.data())
def test_beta_symmetry_property(two_s, data):
    spin = Spin(two_s)
    m1 = data.draw(st.integers(min_value=0, max_value=two_s))
    m2 = data.draw(st.integers(min_value=0, max_value=two_s))
    lo, hi = beta_window(spin, m1, m2)
    n = data.draw(st.integers(min_value=lo, max_value=hi))
    assert beta(spin, m2, m1, -n) == beta(spin, m1, m2, n)


def test_beta_json_sorted():
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["beta", "--spin", "1"]) == 0
    payload = json.loads(out.getvalue())
    keys = [(e["m1"], e["m2"], e["n"]) for e in payload["entries"]]
    assert keys == sorted(keys)
    assert payload["two_s"] == 2
