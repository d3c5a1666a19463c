import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxdisc import linalg
from boxdisc.linalg import (
    Subspace,
    herm_eig,
    permute_qubits,
    range_basis,
)


def random_state(rng, n):
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return v / np.linalg.norm(v)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a + a.conj().T


seeds = st.integers(0, 2**32 - 1)


class TestPermuteQubits:
    def test_swap_two_wires(self):
        v = np.zeros(4, dtype=complex)
        v[0b01] = 1.0  # |01>
        out = permute_qubits(v, (1, 0))
        expected = np.zeros(4, dtype=complex)
        expected[0b10] = 1.0
        assert np.allclose(out, expected)

    def test_identity_perm(self):
        rng = np.random.default_rng(0)
        v = random_state(rng, 3)
        assert np.allclose(permute_qubits(v, (0, 1, 2)), v)

    def test_convention_new_position_gets_old_wire(self):
        # perm=(2, 0, 1): output wire 0 carries input wire 2.
        v = np.kron(np.kron([1, 0], [0, 1]), [0, 1])  # |011>
        out = permute_qubits(np.asarray(v, dtype=complex), (2, 0, 1))
        expected = np.zeros(8, dtype=complex)
        expected[0b101] = 1.0  # wire order becomes (old2, old0, old1) = 1,0,1
        assert np.allclose(out, expected)

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            permute_qubits(np.zeros(4), (0, 0))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            permute_qubits(np.zeros(5), (0, 1))

    @pytest.mark.parametrize("dtype", [float, int, np.int8])
    def test_keeps_real_and_integer_dtypes(self, dtype):
        m = np.arange(64).reshape(8, 8).astype(dtype)
        out = permute_qubits(m, (2, 0, 1))
        assert out.dtype == m.dtype
        assert np.array_equal(out, permute_qubits(m.astype(complex), (2, 0, 1)).real)

    def test_passes_fraction_objects_through(self):
        from fractions import Fraction

        v = np.array([Fraction(i, 7) for i in range(8)], dtype=object)
        out = permute_qubits(v, (1, 2, 0))
        assert out.dtype == object and all(type(x) is Fraction for x in out)
        assert list(out) == [v[int(f"{b:03b}"[2] + f"{b:03b}"[:2], 2)] for b in range(8)]

    @given(seeds, st.permutations(list(range(3))))
    def test_complex_output_is_a_pure_reorder(self, seed, perm):
        # Complex input comes back as the same entries in the new order: the
        # bits of every entry are unchanged.
        rng = np.random.default_rng(seed)
        m = random_hermitian(rng, 8)
        out = permute_qubits(m, perm)
        assert out.dtype == complex
        idx = permute_qubits(np.arange(64).reshape(8, 8), perm)
        assert np.array_equal(out.view(np.uint64), m.reshape(-1)[idx].view(np.uint64))

    @given(seeds, st.permutations(list(range(3))))
    def test_vector_roundtrip_is_isometry(self, seed, perm):
        rng = np.random.default_rng(seed)
        v = random_state(rng, 3)
        out = permute_qubits(v, perm)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-12
        back = permute_qubits(out, np.argsort(perm))
        assert np.max(np.abs(back - v)) <= 1e-12

    @given(seeds, st.permutations(list(range(3))))
    def test_operator_permutation_matches_basis_conjugation(self, seed, perm):
        rng = np.random.default_rng(seed)
        m = random_hermitian(rng, 8)
        p = np.zeros((8, 8), dtype=complex)
        for i in range(8):
            e = np.zeros(8, dtype=complex)
            e[i] = 1.0
            p[:, i] = permute_qubits(e, perm)
        assert np.max(np.abs(permute_qubits(m, perm) - p @ m @ p.conj().T)) <= 1e-12


class TestHermEig:
    @given(seeds, st.integers(2, 16))
    @settings(max_examples=60)
    def test_reconstruction_and_order(self, seed, dim):
        rng = np.random.default_rng(seed)
        m = random_hermitian(rng, dim)
        vals, vecs = herm_eig(m)
        assert np.all(np.diff(vals) <= 1e-12)
        rebuilt = (vecs * vals) @ vecs.conj().T
        assert np.max(np.abs(rebuilt - m)) <= 1e-9
        gram = vecs.conj().T @ vecs
        assert np.max(np.abs(gram - np.eye(dim))) <= 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            herm_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_known_eigenvalues(self):
        vals, _ = herm_eig(np.diag([1.0, -2.0, 0.5]))
        assert np.allclose(vals, [1.0, 0.5, -2.0])


class TestRangeBasis:
    def test_pure_projector_has_rank_one(self):
        rng = np.random.default_rng(1)
        v = random_state(rng, 2)
        sub = range_basis(np.outer(v, v.conj()))
        assert sub.dim == 1
        assert abs(abs(np.vdot(sub.basis[:, 0], v)) - 1.0) <= 1e-10

    def test_zero_matrix_has_empty_range(self):
        sub = range_basis(np.zeros((4, 4)))
        assert sub.dim == 0 and sub.ambient_dim == 4

    def test_full_rank_mixed_state(self):
        sub = range_basis(np.eye(4) / 4)
        assert sub.dim == 4

    def test_noise_below_cutoff_ignored(self):
        rho = np.diag([1.0, 1e-14, 0.0, 0.0])
        assert range_basis(rho).dim == 1

    @given(seeds)
    def test_projector_captures_full_trace(self, seed):
        rng = np.random.default_rng(seed)
        v1 = random_state(rng, 3)
        v2 = random_state(rng, 3)
        rho = 0.7 * np.outer(v1, v1.conj()) + 0.3 * np.outer(v2, v2.conj())
        sub = range_basis(rho)
        p = sub.basis @ sub.basis.conj().T
        assert abs(np.trace(p @ rho @ p) - np.trace(rho)) <= rho.shape[0] * linalg.RANK_TOL
        gram = sub.basis.conj().T @ sub.basis
        assert np.max(np.abs(gram - np.eye(sub.dim))) <= 1e-10


class TestSubspace:
    def test_rejects_non_orthonormal_basis(self):
        with pytest.raises(ValueError):
            Subspace(np.array([[1.0], [1.0]]))

    def test_rejects_nan_basis(self):
        with pytest.raises(ValueError, match="not orthonormal"):
            Subspace(np.array([[np.nan], [0.0]]))

    def test_rejects_one_dimensional_basis(self):
        with pytest.raises(ValueError):
            Subspace(np.ones(2))

    def test_basis_is_the_only_field(self):
        assert [f.name for f in dataclasses.fields(Subspace)] == ["basis"]
        assert Subspace(np.zeros((4, 0))).ambient_dim == 4

    def test_projector_is_idempotent(self):
        sub = Subspace(np.eye(4)[:, :2])
        p = sub.basis @ sub.basis.conj().T
        assert np.max(np.abs(p @ p - p)) <= 1e-12
