import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxdisc import haar, linalg, states


class TestKetAndDensity:
    def test_ket_basis_index(self):
        v = states.ket("010")
        assert v[0b010] == 1.0 and np.linalg.norm(v) == 1.0

    def test_ket_rejects_garbage(self):
        with pytest.raises(ValueError):
            states.ket("01x")
        with pytest.raises(ValueError):
            states.ket("")

    def test_density_is_rank_one_projector(self):
        rho = states.density(states.bell("phi+"))
        assert np.max(np.abs(rho @ rho - rho)) <= 1e-12
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)


class TestBell:
    def test_orthonormal_family(self):
        kinds = ("psi-", "psi+", "phi-", "phi+")
        gram = np.array(
            [[np.vdot(states.bell(a), states.bell(b)) for b in kinds] for a in kinds]
        )
        assert np.max(np.abs(gram - np.eye(4))) <= 1e-12

    def test_singlet_is_antisymmetric(self):
        s = states.bell("psi-")
        assert np.max(np.abs(linalg.permute_qubits(s, (1, 0)) + s)) <= 1e-12

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            states.bell("psi")


class TestBellCombination:
    def test_pure_singlet(self):
        assert np.allclose(states.bell_combination(1, 0, 0, 0), states.bell("psi-"))

    def test_mixture_of_two(self):
        a = 1 / np.sqrt(2)
        out = states.bell_combination(a, a, 0, 0)
        expected = (states.bell("psi-") + states.bell("psi+")) / np.sqrt(2)
        assert np.max(np.abs(out - expected)) <= 1e-12

    def test_norm_violation_rejected(self):
        with pytest.raises(ValueError):
            states.bell_combination(1.0, 0.1, 0, 0)

    @given(st.floats(0.0, 1.0))
    def test_weights_on_sphere_accepted(self, w):
        out = states.bell_combination(np.sqrt(w), np.sqrt(1 - w), 0, 0)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-9


class TestPairProjectors:
    def test_two_wire_traces(self):
        p_sym, p_anti = states.sym_antisym_projectors((0, 1), 2)
        assert np.trace(p_sym) == pytest.approx(3.0, abs=1e-12)
        assert np.trace(p_anti) == pytest.approx(1.0, abs=1e-12)

    def test_three_wire_embedded_traces(self):
        p_sym, p_anti = states.sym_antisym_projectors((0, 2), 3)
        assert np.trace(p_anti) == pytest.approx(2.0, abs=1e-12)
        assert np.trace(p_sym) == pytest.approx(6.0, abs=1e-12)

    def test_complementary_orthogonal_projectors(self):
        p_sym, p_anti = states.sym_antisym_projectors((1, 2), 3)
        assert np.max(np.abs(p_sym + p_anti - np.eye(8))) <= 1e-12
        assert np.max(np.abs(p_anti @ p_anti - p_anti)) <= 1e-12
        assert np.max(np.abs(p_sym @ p_anti)) <= 1e-12

    def test_anti_projects_onto_embedded_singlet(self):
        _, p_anti = states.sym_antisym_projectors((0, 2), 3)
        vec = linalg.permute_qubits(np.kron(states.bell("psi-"), states.ket("0")), (0, 2, 1))
        assert np.max(np.abs(p_anti @ vec - vec)) <= 1e-12

    def test_same_wire_rejected(self):
        with pytest.raises(ValueError):
            states.sym_antisym_projectors((1, 1), 3)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_singlet_sector_invariant_under_same_box(self, seed):
        ((_, gates),) = haar.draw_boxes(1, seed, "U")
        u = gates["U"][0]
        _, p_anti = states.sym_antisym_projectors((0, 1), 2)
        w = np.kron(u, u)
        assert np.max(np.abs(w @ p_anti @ w.conj().T - p_anti)) <= 1e-9


class TestEmbedOperator:
    def test_matches_direct_kron_on_leading_wires(self):
        op = states.density(states.bell("phi-"))
        out = states.embed_operator(op, (0, 1), 3)
        assert np.max(np.abs(out - np.kron(op, np.eye(2)))) <= 1e-12

    def test_wire_order_matters(self):
        op = np.kron(states.density(states.ket("0")), states.density(states.ket("1")))
        out = states.embed_operator(op, (1, 0), 2)
        expected = np.kron(states.density(states.ket("1")), states.density(states.ket("0")))
        assert np.max(np.abs(out - expected)) <= 1e-12

    def test_rejects_duplicate_wires(self):
        with pytest.raises(ValueError):
            states.embed_operator(np.eye(4), (0, 0), 3)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            states.embed_operator(np.eye(2), (0, 1), 3)


class TestFourQubitTestState:
    def test_explicit_amplitudes(self):
        psi = states.four_qubit_test_state()
        expected = np.zeros(16, dtype=complex)
        expected[int("0010", 2)] = 0.5
        expected[int("1000", 2)] = -0.5
        expected[int("0011", 2)] = 0.5
        expected[int("0101", 2)] = -0.5
        assert np.max(np.abs(psi - expected)) <= 1e-12

    def test_norm_factor_is_one(self):
        assert states.four_qubit_norm_factor() == pytest.approx(1.0, abs=1e-12)


class TestApproxDoubleSinglet:
    def test_normalized(self):
        psi = states.approx_double_singlet_3q()
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12

    def test_three_quarter_fidelity_with_both_pair_singlets(self):
        psi = states.approx_double_singlet_3q()
        rho = states.density(psi)
        singlet = states.bell("psi-")
        for pair in ((0, 2), (1, 2)):
            red = linalg.partial_trace(rho, pair)
            fid = float(np.real(np.vdot(singlet, red @ singlet)))
            assert fid == pytest.approx(0.75, abs=1e-12)


class TestDoubleSinglet:
    def test_product_of_singlets(self):
        psi = states.double_singlet(((0, 1), (2, 3)), 4)
        expected = np.kron(states.bell("psi-"), states.bell("psi-"))
        assert np.max(np.abs(psi - expected)) <= 1e-12

    def test_regrouping_coefficients_one_half(self):
        # Singlets on the crossed pairs (0,2), (1,3) re-expand across the
        # adjacent pairs (0,1), (2,3) with amplitude 1/2 on each matched
        # Bell-state product.
        psi = states.double_singlet(((0, 2), (1, 3)), 4)
        signs = {"psi-": 0.5, "psi+": -0.5, "phi-": -0.5, "phi+": 0.5}
        total = np.zeros_like(psi)
        for kind, coeff in signs.items():
            component = np.kron(states.bell(kind), states.bell(kind))
            assert np.vdot(component, psi) == pytest.approx(coeff, abs=1e-12)
            total += coeff * component
        assert np.max(np.abs(total - psi)) <= 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_invariant_under_common_box(self, seed):
        ((_, gates),) = haar.draw_boxes(1, seed, "U")
        u = gates["U"][0]
        psi = states.double_singlet(((0, 2), (1, 3)), 4)
        w = np.kron(np.kron(u, u), np.kron(u, u))
        assert np.max(np.abs(w @ psi - psi)) <= 1e-9

    def test_rejects_overlapping_pairs(self):
        with pytest.raises(ValueError):
            states.double_singlet(((0, 1), (1, 2)), 4)

    def test_spare_wires_get_zero_ket(self):
        psi = states.double_singlet(((0, 1), (2, 3)), 5)
        rho = states.density(psi)
        red = linalg.partial_trace(rho, (4,))
        assert np.max(np.abs(red - states.density(states.ket("0")))) <= 1e-12
