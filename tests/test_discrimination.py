import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boxdisc import discrimination, haar, linalg, scenarios, states
from boxdisc.discrimination import (
    Povm,
    _principal_vectors,
    helstrom,
    outcome_probs,
    scored_figure,
    unambiguous_eval,
    unambiguous_subspace_povm,
    validate_povm,
    with_fail,
)
from boxdisc.linalg import Subspace
from boxdisc.scenarios import singlet_weight_scan

seeds = st.integers(0, 2**32 - 1)


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def projective_pair():
    p_sym, p_anti = states.sym_antisym_projectors((0, 1), 2)
    return Povm({"identify-2": p_sym, "fail": p_anti})


def test_depends_only_on_linalg():
    assert not hasattr(discrimination, "haar") and not hasattr(discrimination, "states")


class TestPovmValidation:
    def test_projective_pair_is_valid(self):
        report = validate_povm(projective_pair())
        assert report.valid
        assert report.completeness <= 1e-10
        assert all(v >= -1e-10 for v in report.min_eigenvalue.values())

    def test_incomplete_set_flagged(self):
        report = validate_povm(Povm({"only": np.eye(2) * 0.5}))
        assert not report.valid and report.completeness == pytest.approx(0.5)

    def test_negative_element_flagged(self):
        report = validate_povm(
            Povm({"neg": np.diag([1.5, 1.0]), "rest": np.diag([-0.5, 0.0])})
        )
        assert not report.valid
        assert report.min_eigenvalue["rest"] == pytest.approx(-0.5)

    def test_non_hermitian_flagged(self):
        e = np.array([[0.5, 0.1], [0.0, 0.5]])
        report = validate_povm(Povm({"a": e, "b": np.eye(2) - e}))
        assert not report.valid and report.hermiticity["a"] == pytest.approx(0.1)

    def test_mixed_dims_rejected(self):
        with pytest.raises(ValueError):
            Povm({"a": np.eye(2), "b": np.eye(4)})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Povm({})


class TestPovmFreeze:
    def test_nested_list_elements(self):
        povm = Povm({"identify-1": [[1, 0], [0, 0]], "fail": [[0, 0], [0, 1]]})
        assert povm.dim == 2
        assert validate_povm(povm).valid
        assert outcome_probs(povm, np.eye(2) / 2) == {"identify-1": 0.5, "fail": 0.5}

    def test_with_fail_takes_nested_lists(self):
        povm = with_fail({"identify-1": [[0.5, 0], [0, 0]]})
        assert validate_povm(povm).valid
        assert np.array_equal(povm.elements["fail"], np.diag([0.5, 1.0]))

    def test_editing_the_source_dict_changes_nothing(self):
        source = {"guess-1": np.diag([1.0, 0.0]), "guess-2": np.diag([0.0, 1.0])}
        povm = Povm(source)
        source["bogus"] = np.eye(2)
        assert povm.labels == ("guess-1", "guess-2")
        assert povm.decision == ("min_error", {"guess-1": 0, "guess-2": 1})

    def test_editing_a_source_array_changes_nothing(self):
        e = np.diag([1.0, 0.0])
        povm = Povm({"guess-1": e, "guess-2": np.eye(2) - e})
        rho = np.diag([0.25, 0.75])
        before = outcome_probs(povm, rho)
        e[0, 0] = 0.5
        assert outcome_probs(povm, rho) == before
        assert validate_povm(povm).valid

    def test_elements_are_read_only_views_of_the_stack(self):
        povm = projective_pair()
        assert povm.stack.shape == (2, 4, 4) and povm.stack.dtype == complex
        for e, item in zip(povm.elements.values(), povm.stack):
            assert np.shares_memory(e, povm.stack) and np.array_equal(e, item)
        with pytest.raises(ValueError):
            povm.elements["fail"][0, 0] = 0
        with pytest.raises(ValueError):
            povm.stack[0, 0, 0] = 0
        with pytest.raises(TypeError):
            povm.elements["extra"] = np.eye(4)

    def test_tables_are_computed_once(self):
        povm = projective_pair()
        assert povm.decision is povm.decision
        assert povm.scored is povm.scored

    def test_replaced_povm_has_its_own_tables(self):
        povm = projective_pair()
        assert povm.scored == ((), ("identify-2",))
        p_sym, p_anti = states.sym_antisym_projectors((0, 1), 2)
        variant = dataclasses.replace(povm, elements={"guess-1": p_anti, "guess-2": p_sym})
        assert variant.decision == ("min_error", {"guess-1": 0, "guess-2": 1})
        assert variant.scored == (("guess-2",), ("guess-1",))
        assert povm.decision == ("unambiguous", {"identify-2": 1})
        assert not np.shares_memory(variant.stack, povm.stack)

    def test_bad_label_raises_on_every_access(self):
        povm = Povm({"only": np.eye(2)})
        for _ in range(2):
            with pytest.raises(ValueError, match="unknown POVM labels"):
                povm.decision


@pytest.mark.parametrize(
    "make",
    (
        projective_pair,
        lambda: Subspace(np.eye(4)[:, :2]),
        lambda: haar.average_pattern(states.bell("psi-"), "UV"),
        lambda: helstrom(np.diag([1.0, 0.0]), np.eye(2) / 2),
    ),
    ids=("Povm", "Subspace", "AverageResult", "MinErrorResult"),
)
def test_equality_is_identity(make):
    # Field-wise == on an array field has no truth value, and an array or
    # mapping field has no hash.
    a, b = make(), make()
    assert a == a and a != b
    assert len({a, b, a}) == 2


#: Exact rules whose averages the stacked outcome_probs is pinned on.
_EXACT_RULES = (("design", 24), ("quadrature", haar.MIN_NODES), ("quadrature", 24))


class TestStackedOutcomeProbs:
    """outcome_probs' one stacked product has the bits of Tr(E rho) per element."""

    @pytest.mark.parametrize("method, nodes", _EXACT_RULES)
    @pytest.mark.parametrize("sid", scenarios.SCENARIO_IDS)
    def test_bits_match_per_element_trace(self, sid, method, nodes):
        scenario = scenarios.build_scenario(sid)
        for pattern in (scenario.pattern1, scenario.pattern2):
            rho = haar.average_pattern(scenario.state, pattern, method, nodes=nodes).rho
            want = {
                label: float(np.real(np.trace(np.array(e) @ rho))).hex()
                for label, e in scenario.povm.elements.items()
            }
            got = {label: p.hex() for label, p in outcome_probs(scenario.povm, rho).items()}
            assert got == want, (sid, str(pattern))


class TestOutcomeProbs:
    def test_sums_to_one(self):
        probs = outcome_probs(projective_pair(), np.eye(4) / 4)
        assert probs["identify-2"] == pytest.approx(0.75, abs=1e-12)
        assert probs["fail"] == pytest.approx(0.25, abs=1e-12)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            outcome_probs(projective_pair(), np.eye(2) / 2)

    def test_unnormalized_state_rejected(self):
        with pytest.raises(ValueError):
            outcome_probs(projective_pair(), np.eye(4))

    def test_nan_state_rejected(self):
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 0] = np.nan
        with pytest.raises(ValueError, match="sum to nan"):
            outcome_probs(projective_pair(), rho)


class TestHelstrom:
    def test_identical_states_give_coin_flip(self):
        rho = np.eye(2) / 2
        assert helstrom(rho, rho).p_error == pytest.approx(0.5, abs=1e-12)

    def test_orthogonal_pure_states_are_free(self):
        r1 = states.density(states.ket("0"))
        r2 = states.density(states.ket("1"))
        assert helstrom(r1, r2).p_error <= 1e-12

    def test_singlet_vs_maximally_mixed(self):
        _, p_anti = states.sym_antisym_projectors((0, 1), 2)
        res = helstrom(p_anti, np.eye(4) / 4)
        assert res.p_error == pytest.approx(1 / 8, abs=1e-12)

    def test_eigenvalues_descending(self):
        rng = np.random.default_rng(2)
        res = helstrom(random_density(rng, 4), random_density(rng, 4))
        assert np.all(np.diff(res.eigenvalues) <= 1e-12)

    def test_kernel_assigned_to_first_state(self):
        rho = np.eye(2) / 2
        # Identical states: the whole spectrum is kernel, and every outcome
        # guesses the first state, which errs with its prior 1/2.
        res = helstrom(rho, rho)
        probs1 = outcome_probs(res.optimal_projectors, rho)
        assert probs1["guess-1"] == pytest.approx(1.0, abs=1e-12)
        assert res.p_error == pytest.approx(0.5, abs=1e-12)

    @given(seeds)
    @settings(max_examples=60)
    def test_error_bounds_and_projector_consistency(self, seed):
        rng = np.random.default_rng(seed)
        r1 = random_density(rng, 4)
        r2 = random_density(rng, 4)
        res = helstrom(r1, r2)
        assert -1e-12 <= res.p_error <= 0.5 + 1e-12
        probs1 = outcome_probs(res.optimal_projectors, r1)
        probs2 = outcome_probs(res.optimal_projectors, r2)
        achieved = 0.5 * probs1["guess-2"] + 0.5 * probs2["guess-1"]
        assert abs(achieved - res.p_error) <= 1e-10

    @given(seeds)
    @settings(max_examples=40)
    def test_swap_symmetric_for_equal_priors(self, seed):
        rng = np.random.default_rng(seed)
        r1 = random_density(rng, 4)
        r2 = random_density(rng, 4)
        assert abs(helstrom(r1, r2).p_error - helstrom(r2, r1).p_error) <= 1e-12

    @given(seeds)
    def test_eigenvalues_give_trace_norm(self, seed):
        # singlet_weight_scan reads the trace norm of rho1 - rho2 as twice
        # the absolute eigenvalue sum of helstrom's halved difference.
        rng = np.random.default_rng(seed)
        r1 = random_density(rng, 4)
        r2 = random_density(rng, 4)
        trace_norm = float(np.sum(np.abs(np.linalg.eigvalsh(r1 - r2))))
        lam = helstrom(r1, r2).eigenvalues
        assert 2.0 * float(np.sum(np.abs(lam))) == pytest.approx(trace_norm, abs=1e-10)


class TestSingletWeightScan:
    def test_matches_closed_form_on_grid(self):
        rows = singlet_weight_scan([i / 10 for i in range(11)])
        for row in rows:
            assert abs(row.trace_norm - row.closed_form) <= 1e-10

    def test_error_lowest_for_pure_singlet(self):
        rows = singlet_weight_scan([0.0, 0.25, 0.5, 1.0])
        assert rows[0].p_error == pytest.approx(3 / 8, abs=1e-12)
        assert rows[1].p_error == pytest.approx(0.5, abs=1e-12)  # states coincide
        assert rows[-1].p_error == pytest.approx(1 / 8, abs=1e-12)
        assert rows[-1].p_error == min(r.p_error for r in rows)

    def test_rejects_weight_outside_unit_interval(self):
        with pytest.raises(ValueError):
            singlet_weight_scan([1.5])


class TestUnambiguousEval:
    def test_one_reference_numbers(self):
        _, p_anti = states.sym_antisym_projectors((0, 1), 2)
        res = unambiguous_eval(projective_pair(), [p_anti, np.eye(4) / 4])
        assert res.p_success == pytest.approx(3 / 8, abs=1e-12)
        assert res.per_state_success[0] == 0.0
        assert res.per_state_success[1] == pytest.approx(3 / 4, abs=1e-12)
        assert res.cross_talk <= 1e-12
        assert res.failure_prob == pytest.approx(5 / 8, abs=1e-12)
        assert res.p_success + res.failure_prob == pytest.approx(1.0, abs=1e-10)

    def test_unknown_labels_rejected(self):
        povm = Povm({"a": np.eye(2) * 0.5, "b": np.eye(2) * 0.25, "fail": np.eye(2) * 0.25})
        with pytest.raises(ValueError, match="unknown POVM labels"):
            unambiguous_eval(povm, [np.eye(2) / 2] * 2)

    def test_min_error_povm_rejected(self):
        _, p_anti = states.sym_antisym_projectors((0, 1), 2)
        guesses = helstrom(p_anti, np.eye(4) / 4).optimal_projectors
        with pytest.raises(ValueError, match="not unambiguous"):
            unambiguous_eval(guesses, [p_anti, np.eye(4) / 4])

    def test_success_is_the_scored_figure(self):
        _, p_anti = states.sym_antisym_projectors((0, 1), 2)
        rhos = [p_anti, np.eye(4) / 4]
        povm = projective_pair()
        res = unambiguous_eval(povm, rhos)
        probs = [outcome_probs(povm, rho) for rho in rhos]
        assert scored_figure(probs, povm.scored) == (res.per_state_success, res.p_success)

    def test_state_count_must_match_the_labels(self):
        # identify-2 names the second hypothesis, so one state leaves it
        # dangling and a third state could never be identified.
        mix = np.eye(4) / 4
        for rhos in ([mix], [mix] * 3):
            with pytest.raises(ValueError, match="two hypotheses"):
                unambiguous_eval(projective_pair(), rhos)


def one_dim_subspace(vec):
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return Subspace(v[:, None])


class TestJordanBases:
    """Principal vector pairs of two subspaces, from _principal_vectors."""

    def test_orthogonal_lines(self):
        s1 = one_dim_subspace([1, 0])
        s2 = one_dim_subspace([0, 1])
        _, _, (c,) = _principal_vectors(s1, s2)
        assert c == pytest.approx(0.0, abs=1e-12)

    def test_identical_lines(self):
        s = one_dim_subspace([1, 1])
        _, _, (c,) = _principal_vectors(s, s)
        assert c == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(0.05, np.pi / 2 - 0.05))
    def test_plane_angle_recovered(self, angle):
        s1 = one_dim_subspace([1, 0])
        s2 = one_dim_subspace([np.cos(angle), np.sin(angle)])
        _, _, (c,) = _principal_vectors(s1, s2)
        assert c == pytest.approx(np.cos(angle), abs=1e-12)

    def test_cosines_descending_and_vectors_paired(self):
        rng = np.random.default_rng(8)
        a = np.linalg.qr(rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3)))[0]
        b = np.linalg.qr(rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3)))[0]
        u, v, cosines = _principal_vectors(Subspace(a), Subspace(b))
        assert all(x >= y - 1e-12 for x, y in zip(cosines, cosines[1:]))
        for i, c in enumerate(cosines):
            assert abs(abs(np.vdot(u[:, i], v[:, i])) - c) <= 1e-10
            for j in range(len(cosines)):
                if i != j:
                    assert abs(np.vdot(u[:, i], v[:, j])) <= 1e-10

    def test_ambient_mismatch_rejected(self):
        with pytest.raises(ValueError):
            _principal_vectors(one_dim_subspace([1, 0]), one_dim_subspace([1, 0, 0, 0]))

    def test_branch_triples_share_exactly_one_direction(self):
        # Three-dimensional pieces of the two four-wire supports: each triple
        # holds one branch vector, one bare product state and one triplet
        # product. Exactly one principal pair is shared (cosine 1).
        e0, e1 = states.ket("0"), states.ket("1")

        def first_branch(core, flag):
            vec = np.kron(core, np.kron(e0, flag))
            return linalg.permute_qubits(vec, (0, 2, 1, 3))

        def second_branch(core, flag):
            vec = np.kron(core, np.kron(e0, flag))
            return linalg.permute_qubits(vec, (2, 0, 1, 3))

        u_cols = np.column_stack(
            [
                (2 / np.sqrt(5)) * first_branch(states.bell("psi-"), e0 + 0.5 * e1),
                states.ket("0101"),
                first_branch(states.bell("psi+"), e1),
            ]
        )
        v_cols = np.column_stack(
            [
                (2 / np.sqrt(5)) * second_branch(states.bell("psi-"), e1 + 0.5 * e0),
                states.ket("1000"),
                second_branch(states.bell("psi+"), e0),
            ]
        )
        _, _, cosines = _principal_vectors(Subspace(u_cols), Subspace(v_cols))
        assert sum(1 for c in cosines if c >= 1 - 1e-9) == 1
        assert all(c < 1 - 1e-6 for c in cosines[1:])


class TestUnambiguousSubspacePovm:
    def test_orthogonal_lines_identified_with_certainty(self):
        povm = unambiguous_subspace_povm(
            one_dim_subspace([1, 0]), one_dim_subspace([0, 1])
        )
        assert validate_povm(povm).valid
        assert np.trace(povm.elements["identify-1"]) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(povm.elements["fail"])) <= 1e-12

    @given(st.floats(0.1, 1.4))
    @settings(max_examples=30)
    def test_pair_weight_matches_closed_form(self, angle):
        c = np.cos(angle)
        povm = unambiguous_subspace_povm(
            one_dim_subspace([1, 0]), one_dim_subspace([np.cos(angle), np.sin(angle)])
        )
        # Each identification element is w times a rank-one projector.
        w = float(np.real(np.trace(povm.elements["identify-1"])))
        assert w == pytest.approx(1.0 / (1.0 + c), abs=1e-9)
        assert validate_povm(povm).valid

    def test_pair_weight_rejects_nan(self):
        # A NaN vector leaves a NaN block eigenvalue, which must not pass
        # the positivity-boundary check.
        u = np.array([1.0, 0.0], dtype=complex)
        with np.errstate(invalid="ignore"), pytest.raises(RuntimeError, match="not 0"):
            discrimination._pair_weight(u, np.array([np.nan, 1.0]), u, u, 0.5)

    @pytest.mark.parametrize("angle", [1e-4, 1e-3, 1e-2])
    def test_near_parallel_lines_take_closed_form_weight(self, angle):
        povm = unambiguous_subspace_povm(
            one_dim_subspace([1, 0]), one_dim_subspace([np.cos(angle), np.sin(angle)])
        )
        w = float(np.real(np.trace(povm.elements["identify-1"])))
        assert w == pytest.approx(1.0 / (1.0 + np.cos(angle)), abs=1e-15)
        assert validate_povm(povm).valid

    @given(st.floats(0.1, 1.4))
    @settings(max_examples=30)
    def test_annihilates_opposing_line(self, angle):
        s1 = one_dim_subspace([1, 0])
        s2 = one_dim_subspace([np.cos(angle), np.sin(angle)])
        povm = unambiguous_subspace_povm(s1, s2)
        assert np.max(np.abs(povm.elements["identify-1"] @ s2.basis)) <= 1e-9
        assert np.max(np.abs(povm.elements["identify-2"] @ s1.basis)) <= 1e-9

    def test_shared_direction_dropped(self):
        s = one_dim_subspace([1, 1])
        with pytest.warns(UserWarning):
            povm = unambiguous_subspace_povm(s, s)
        assert np.max(np.abs(povm.elements["identify-1"])) == 0.0
        assert np.max(np.abs(povm.elements["identify-2"])) == 0.0

    def test_contained_support_warns_but_builds(self):
        inner = one_dim_subspace([1, 0, 0])
        outer = Subspace(np.eye(3)[:, :2])
        with pytest.warns(UserWarning, match="never be identified"):
            povm = unambiguous_subspace_povm(inner, outer)
        assert validate_povm(povm).valid
        assert np.max(np.abs(povm.elements["identify-1"])) == 0.0
        # The outer support still has a direction orthogonal to the inner one.
        assert np.trace(povm.elements["identify-2"]) == pytest.approx(1.0, abs=1e-9)

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_random_subspaces_yield_valid_unambiguous_povm(self, seed):
        rng = np.random.default_rng(seed)
        a = np.linalg.qr(rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3)))[0]
        b = np.linalg.qr(rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2)))[0]
        s1, s2 = Subspace(a), Subspace(b)
        _, _, cosines = _principal_vectors(s1, s2)
        assume(all(c < 1 - 1e-6 for c in cosines))
        povm = unambiguous_subspace_povm(s1, s2)
        assert validate_povm(povm).valid
        assert np.max(np.abs(povm.elements["identify-1"] @ s2.basis)) <= 1e-9
        assert np.max(np.abs(povm.elements["identify-2"] @ s1.basis)) <= 1e-9
