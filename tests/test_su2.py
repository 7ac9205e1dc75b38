import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xxxchain.errors import InputRangeError, ResourceCapError
from xxxchain.su2 import (
    Spin,
    e_minus,
    g_matrix,
    global_generator,
    s_minus,
    s_plus,
    s_z,
)

SPINS = [Spin(1), Spin(2), Spin(3), Spin(4), Spin(5)]


def test_spin_parse():
    assert Spin.parse("1/2").two_s == 1
    assert Spin.parse("1").two_s == 2
    assert Spin.parse("3/2").two_s == 3
    assert Spin.parse("2").dim == 5
    with pytest.raises(ValueError):
        Spin.parse("2/3")
    with pytest.raises(ValueError):
        Spin.parse("0")
    with pytest.raises(ValueError):
        Spin(0)


def test_spin_str():
    assert str(Spin(1)) == "1/2"
    assert str(Spin(2)) == "1"
    assert str(Spin(3)) == "3/2"


def test_s_minus_spin_half():
    expected = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert np.array_equal(s_minus(Spin(1)), expected)


def test_s_minus_spin_one():
    m = s_minus(Spin(2))
    assert m[1, 0] == pytest.approx(np.sqrt(2), abs=1e-15)
    assert m[2, 1] == pytest.approx(np.sqrt(2), abs=1e-15)
    assert np.count_nonzero(m) == 2


def test_s_plus_is_transpose():
    for spin in SPINS:
        assert np.array_equal(s_plus(spin), s_minus(spin).T)


def test_s_z_diagonal_and_traceless():
    assert np.allclose(s_z(Spin(1)), np.diag([0.5, -0.5]))
    assert np.allclose(s_z(Spin(2)), np.diag([1.0, 0.0, -1.0]))
    for spin in SPINS:
        assert abs(np.trace(s_z(spin))) < 1e-14


def test_ladder_commutators():
    for spin in SPINS:
        sm, sp, sz = s_minus(spin), s_plus(spin), s_z(spin)
        assert np.max(np.abs(sp @ sm - sm @ sp - 2 * sz)) < 1e-13
        assert np.max(np.abs(sz @ sp - sp @ sz - sp)) < 1e-13
        assert np.max(np.abs(sz @ sm - sm @ sz + sm)) < 1e-13


def test_casimir():
    for spin in (Spin(1), Spin(2), Spin(3)):
        sm, sp, sz = s_minus(spin), s_plus(spin), s_z(spin)
        c2 = sz @ sz + 0.5 * (sp @ sm + sm @ sp)
        target = spin.s * (spin.s + 1) * np.eye(spin.dim)
        assert np.max(np.abs(c2 - target)) < 1e-13


def test_g_matrix_values():
    assert np.array_equal(g_matrix(Spin(1)), np.eye(2))
    assert np.allclose(g_matrix(Spin(2)), np.diag([2.0, 2.0, 1.0]))
    for spin in SPINS:
        g = g_matrix(spin)
        assert np.allclose(g @ np.linalg.inv(g), np.eye(spin.dim))


def test_e_minus_spin_half_equals_s_minus():
    assert np.array_equal(e_minus(Spin(1)), s_minus(Spin(1)))


def test_e_minus_conjugation():
    for spin in SPINS[:4]:
        g = g_matrix(spin)
        target = g @ s_minus(spin) @ np.linalg.inv(g)
        assert np.max(np.abs(e_minus(spin) - target)) < 1e-14
    g = g_matrix(Spin(5))
    target = g @ s_minus(Spin(5)) @ np.linalg.inv(g)
    assert np.max(np.abs(e_minus(Spin(5)) - target)) < 1e-13


def test_e_minus_nilpotency_order():
    # nilpotency order is 2s+1: the 2s-th power still acts nontrivially
    for spin in (Spin(1), Spin(2), Spin(3)):
        em = e_minus(spin)
        assert np.max(np.abs(np.linalg.matrix_power(em, spin.two_s + 1))) < 1e-13
        assert np.max(np.abs(np.linalg.matrix_power(em, spin.two_s))) > 1e-3


def test_global_on_vacuum():
    for spin, length in ((Spin(1), 4), (Spin(2), 3), (Spin(3), 2)):
        dim = spin.dim**length
        vac = np.zeros(dim)
        vac[0] = 1.0
        sz_op = global_generator(spin, length, "z")
        assert np.allclose(sz_op.apply(vac), length * spin.s * vac, atol=1e-14)
        sp_op = global_generator(spin, length, "+")
        assert np.max(np.abs(sp_op.apply(vac))) == 0.0


def test_global_commutator_on_random_vectors():
    rng = np.random.default_rng(11)
    for spin, length in ((Spin(1), 4), (Spin(2), 3), (Spin(3), 2)):
        sp_op = global_generator(spin, length, "+")
        sm_op = global_generator(spin, length, "-")
        sz_op = global_generator(spin, length, "z")
        vec = rng.normal(size=sp_op.dim) + 1j * rng.normal(size=sp_op.dim)
        lhs = sp_op.apply(sm_op.apply(vec)) - sm_op.apply(sp_op.apply(vec))
        assert np.max(np.abs(lhs - 2 * sz_op.apply(vec))) / np.linalg.norm(vec) < 1e-12


def test_global_dense_matches_apply():
    from oracles import kron_site_operator

    for spin, length in ((Spin(1), 3), (Spin(2), 2)):
        for alpha, local in (("z", s_z(spin)), ("+", s_plus(spin)), ("-", s_minus(spin))):
            op = global_generator(spin, length, alpha)
            dense = op.dense()
            oracle = sum(
                kron_site_operator(local, length, site, spin.dim) for site in range(length)
            )
            assert np.allclose(dense, oracle, atol=1e-14)
            vec = np.arange(op.dim, dtype=float)
            assert np.allclose(op.apply(vec), dense @ vec, atol=1e-12)


def test_global_generator_cap():
    with pytest.raises(ResourceCapError):
        global_generator(Spin(1), 4, "z", cap=8)
    with pytest.raises(InputRangeError):
        global_generator(Spin(1), 1, "z")
    with pytest.raises(ValueError):
        global_generator(Spin(1), 3, "x")


@settings(max_examples=40, deadline=None)
@given(two_s=st.integers(min_value=1, max_value=8))
def test_ladder_matrix_elements(two_s):
    spin = Spin(two_s)
    sm = s_minus(spin)
    s = spin.s
    for m in range(spin.dim - 1):
        n = s - m
        assert sm[m + 1, m] == pytest.approx(np.sqrt((s + n) * (s - n + 1)), rel=1e-15)
