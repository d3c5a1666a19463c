import dataclasses

import numpy as np
import pytest

from boxdisc import cli, haar, linalg, scenarios, states
from boxdisc.discrimination import Povm, helstrom, validate_povm
from boxdisc.scenarios import (
    SCENARIO_IDS,
    Scenario,
    _mc_figure,
    auxiliary_value,
    build_scenario,
    equivalence_witness_order_refs,
    random_pairwise_baseline,
    reference_value,
    run_scenario,
    symmetric_variant_success,
    two_ref_singlet_with_ancilla,
)

EXPECTED_IDS = (
    "one-ref-minerror",
    "one-ref-unambiguous",
    "order-two-u-refs",
    "order-uv-refs",
    "pair-same-minerror",
    "pair-same-unambiguous",
    "two-ref-4q-pairwise",
    "two-ref-4q-subspace",
    "two-ref-minerror-3q",
    "two-ref-singlet",
    "two-ref-symmetric",
)

_BOTH = {"identify-1": 0, "identify-2": 1}
_GUESSES = {"guess-1": 0, "guess-2": 1}
_SECOND = {"identify-2": 1}

#: Mode and mapping that each scenario's POVM labels must give.
EXPECTED_DECISIONS = {
    "one-ref-minerror": ("min_error", _GUESSES),
    "one-ref-unambiguous": ("unambiguous", _SECOND),
    "order-two-u-refs": ("unambiguous", _BOTH),
    "order-uv-refs": ("unambiguous", _SECOND),
    "pair-same-minerror": ("min_error", _GUESSES),
    "pair-same-unambiguous": ("unambiguous", _BOTH),
    "two-ref-4q-pairwise": ("unambiguous", _BOTH),
    "two-ref-4q-subspace": ("unambiguous", _BOTH),
    "two-ref-minerror-3q": ("min_error", _GUESSES),
    "two-ref-singlet": ("unambiguous", _SECOND),
    "two-ref-symmetric": ("unambiguous", _BOTH),
}


class TestCatalog:
    def test_all_ids_present_and_sorted(self):
        assert SCENARIO_IDS == EXPECTED_IDS
        assert list(SCENARIO_IDS) == sorted(SCENARIO_IDS)

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            build_scenario("no-such-scenario")

    @pytest.mark.parametrize("sid", EXPECTED_IDS)
    def test_stored_povm_is_valid(self, sid):
        scenario = build_scenario(sid)
        assert scenario.povm_report == validate_povm(scenario.povm)
        assert scenario.povm_report.valid

    def test_batched_povm_reports_match_per_element_reference(self):
        for sid in EXPECTED_IDS:
            povm = build_scenario(sid).povm
            report = validate_povm(povm)
            herm, min_eig, completeness = _per_element_margins(povm)
            assert report.hermiticity == herm, sid
            assert report.min_eigenvalue == min_eig, sid
            assert report.completeness == completeness, sid

    @pytest.mark.parametrize("sid", EXPECTED_IDS)
    def test_built_once_per_process(self, sid):
        assert build_scenario(sid) is build_scenario(sid)

    @pytest.mark.parametrize("sid", EXPECTED_IDS)
    def test_built_scenario_is_read_only(self, sid):
        scenario = build_scenario(sid)
        for array in (scenario.state, *scenario.povm.elements.values()):
            with pytest.raises(ValueError):
                array[0] = 0.0
        for mapping in (scenario.povm.elements, scenario.mapping, scenario.metadata):
            with pytest.raises(TypeError):
                mapping["extra"] = 0

    @pytest.mark.parametrize("sid", EXPECTED_IDS)
    def test_reference_table_agrees_with_scenario(self, sid):
        scenario = build_scenario(sid)
        assert scenario.paper_value == reference_value(sid)
        assert scenario.citation


class TestDerivedFields:
    @pytest.mark.parametrize("sid", EXPECTED_IDS)
    def test_mode_and_mapping_follow_from_povm_labels(self, sid):
        scenario = build_scenario(sid)
        mode, mapping = EXPECTED_DECISIONS[sid]
        assert scenario.mode == mode
        assert dict(scenario.mapping) == mapping
        assert scenario.priors == (0.5, 0.5)

    def test_replaced_povm_brings_its_own_mode(self):
        # A Helstrom measurement on the unambiguous task turns it into a
        # minimum-error run; its error 1/8 does not match the 3/8 reference.
        scenario = build_scenario("one-ref-unambiguous")
        r1 = haar.average_pattern(scenario.state, scenario.pattern1).rho
        r2 = haar.average_pattern(scenario.state, scenario.pattern2).rho
        probe = dataclasses.replace(scenario, povm=helstrom(r1, r2).optimal_projectors)
        assert probe.mode == "min_error"
        assert dict(probe.mapping) == _GUESSES
        res = run_scenario(probe)
        assert res.mode == "min_error" and res.cross_talk is None
        assert res.analytic == pytest.approx(1 / 8, abs=1e-12)
        assert res.passed is False

    @pytest.mark.parametrize(
        "labels", (("identify-1", "guess-2"), ("a", "fail"), ("guess-1", "guess-2", "fail"))
    )
    def test_unknown_or_mixed_labels_rejected(self, labels):
        scenario = build_scenario("one-ref-minerror")
        share = np.eye(4, dtype=complex) / len(labels)
        with pytest.raises(ValueError):
            dataclasses.replace(scenario, povm=Povm({l: share for l in labels}))

    def test_derived_fields_are_not_init_arguments(self):
        scenario = build_scenario("one-ref-minerror")
        given = {f.name: getattr(scenario, f.name) for f in dataclasses.fields(Scenario) if f.init}
        assert sorted(given) == [
            "id", "metadata", "pattern1", "pattern2", "povm", "state", "witness"
        ]
        assert Scenario(**given).mode == "min_error"
        for name in ("mode", "mapping", "paper_value", "citation", "priors"):
            with pytest.raises(TypeError):
                Scenario(**given, **{name: getattr(scenario, name)})

    def test_string_patterns_are_converted(self):
        scenario = build_scenario("one-ref-minerror")
        variant = dataclasses.replace(scenario, pattern1="UU", pattern2="UV")
        assert variant.pattern1 == haar.as_pattern("UU")
        assert variant.pattern2 == haar.as_pattern("UV")

    def test_equality_is_identity(self):
        scenario = build_scenario("one-ref-minerror")
        assert scenario == scenario
        assert (scenario == dataclasses.replace(scenario)) is False
        assert len({build_scenario(sid) for sid in SCENARIO_IDS}) == 11


class TestAnalyticRuns:
    @pytest.mark.parametrize("sid", EXPECTED_IDS)
    def test_design_engine_reproduces_target(self, sid):
        res = run_scenario(build_scenario(sid), method="design")
        assert res.passed, f"{sid}: {res.analytic} vs {res.paper_value}"
        assert abs(res.analytic - res.paper_value) <= 1e-9
        assert res.mc_estimate is None and res.mc_stderr is None

    @pytest.mark.parametrize("sid", EXPECTED_IDS)
    def test_unambiguous_runs_have_no_cross_talk(self, sid):
        scenario = build_scenario(sid)
        if scenario.mode != "unambiguous":
            pytest.skip("min-error scenario")
        res = run_scenario(scenario)
        assert res.cross_talk is not None and res.cross_talk <= 1e-9

    def test_cross_talk_fails_the_verdict(self):
        # Both hypotheses use different boxes, so the identification outcome
        # fires on the wrong one as often as on the right one, while the
        # success probability still equals the reference 3/8.
        scenario = dataclasses.replace(
            build_scenario("one-ref-unambiguous"), pattern1=haar.as_pattern("UV")
        )
        res = run_scenario(scenario)
        assert abs(res.analytic - res.paper_value) <= 1e-9
        assert res.cross_talk == pytest.approx(0.75, abs=1e-12)
        assert res.passed is False

    def test_invalid_povm_fails_the_verdict(self):
        # Move 0.1|k><k| from identify-1 to fail, with k in the joint kernel
        # of both averaged states: the POVM stays complete and every outcome
        # probability, so the 3/8 success and the zero cross-talk, stays put,
        # but identify-1 is no longer positive.
        scenario = build_scenario("two-ref-4q-pairwise")
        rho1 = haar.average_pattern(scenario.state, scenario.pattern1).rho
        rho2 = haar.average_pattern(scenario.state, scenario.pattern2).rho
        lam, vecs = np.linalg.eigh(rho1 + rho2)
        kernel = vecs[:, lam < 1e-10]
        assert kernel.shape[1] == 2
        e1 = scenario.povm.elements["identify-1"]
        weights, coords = np.linalg.eigh(kernel.conj().T @ e1 @ kernel)
        k = kernel @ coords[:, 0]
        assert weights[0] < 0.5
        shift = 0.1 * np.outer(k, k.conj())
        elements = dict(scenario.povm.elements)
        elements["identify-1"] = elements["identify-1"] - shift
        elements["fail"] = elements["fail"] + shift
        probe = dataclasses.replace(scenario, povm=Povm(elements))
        assert probe.povm_report.completeness <= 1e-10
        assert probe.povm_report.min_eigenvalue["identify-1"] < -0.06
        res = run_scenario(probe)
        assert abs(res.analytic - res.paper_value) <= 1e-9
        assert res.cross_talk <= 1e-9
        assert res.passed is False

    def test_suboptimal_min_error_povm_fails_the_verdict(self):
        # With the guesses swapped the measurement errs 7/8 of the time,
        # while the Helstrom bound of the averaged states is still 1/8.
        scenario = build_scenario("one-ref-minerror")
        elements = scenario.povm.elements
        swapped = dataclasses.replace(
            scenario,
            povm=Povm({"guess-1": elements["guess-2"], "guess-2": elements["guess-1"]}),
        )
        res = run_scenario(swapped)
        assert abs(res.analytic - res.paper_value) <= 1e-9
        assert res.metadata["povm_error"] == pytest.approx(7 / 8, abs=1e-12)
        assert res.passed is False

    def test_execute_covers_catalog(self):
        records, all_passed = cli.execute(SCENARIO_IDS)
        assert tuple(rec["scenario"] for rec in records) == EXPECTED_IDS
        assert all_passed is True and all(rec["pass"] for rec in records)

    def test_one_ref_failure_probability(self):
        res = run_scenario(build_scenario("one-ref-unambiguous"))
        assert res.metadata["failure_prob"] == pytest.approx(
            auxiliary_value("one-ref-failure-prob"), abs=1e-9
        )

    def test_pass_tolerance_override_can_fail_a_run(self, monkeypatch):
        monkeypatch.setattr(scenarios, "PASS_TOL", 0.0)
        res = run_scenario(build_scenario("one-ref-unambiguous"))
        assert res.passed is False

    def test_monte_carlo_method_requires_samples(self):
        with pytest.raises(ValueError):
            run_scenario(build_scenario("one-ref-unambiguous"), method="monte_carlo")


class TestOrderUvStructure:
    def test_state_one_is_never_identified(self):
        scenario = build_scenario("order-uv-refs")
        assert 0 not in scenario.mapping.values()
        res = run_scenario(scenario)
        assert res.metadata["per_state_success"][0] == 0.0
        assert res.metadata["per_state_success"][1] == pytest.approx(2 / 3, abs=1e-10)

    def test_first_hypothesis_is_double_singlet_projector(self):
        scenario = build_scenario("order-uv-refs")
        from boxdisc.haar import average_pattern

        rho1 = average_pattern(scenario.state, scenario.pattern1, "design").rho
        target = states.density(states.double_singlet(((0, 2), (1, 3)), 4))
        assert np.max(np.abs(rho1 - target)) <= 1e-10


class TestPermutationWitness:
    def test_two_u_orders_reduce_to_pair_scenario(self):
        report = equivalence_witness_order_refs()
        assert report.passed
        assert report.max_deviation <= 1e-10
        assert len(report.deviations) == 2

    def test_witness_metadata_on_scenario(self):
        scenario = build_scenario("order-two-u-refs")
        assert scenario.witness is not None
        assert scenario.witness.target_id == "pair-same-unambiguous"
        assert scenario.witness.permutation == (2, 3, 0, 1)
        assert scenario.witness.relabel == {"U": "V", "V": "U"}


class TestVariants:
    def test_symmetric_input_variant(self):
        res = symmetric_variant_success()
        assert res.p_success == pytest.approx(
            auxiliary_value("one-ref-symmetric-variant"), abs=1e-9
        )
        assert res.cross_talk <= 1e-12

    def test_ancilla_state_does_not_change_two_ref_value(self):
        for bit in ("0", "1"):
            res = two_ref_singlet_with_ancilla(states.ket(bit))
            assert res.analytic == pytest.approx(3 / 8, abs=1e-9)

    def test_superposed_ancilla(self):
        anc = (states.ket("0") + 1j * states.ket("1")) / np.sqrt(2)
        res = two_ref_singlet_with_ancilla(anc)
        assert res.analytic == pytest.approx(3 / 8, abs=1e-9)

    def test_random_ancilla_variant_is_built_uncached(self, monkeypatch):
        ran = []
        run = scenarios.run_scenario

        def capturing_run(scenario, *args, **kwargs):
            ran.append(scenario)
            return run(scenario, *args, **kwargs)

        monkeypatch.setattr(scenarios, "run_scenario", capturing_run)
        rng = np.random.default_rng(11)
        anc = rng.normal(size=2) + 1j * rng.normal(size=2)
        res = two_ref_singlet_with_ancilla(anc / np.linalg.norm(anc))
        (variant,) = ran
        assert res.passed and variant.povm_report.valid
        assert variant is not build_scenario("two-ref-singlet")
        assert not variant.state.flags.writeable

    def test_writing_into_loaded_fixture_changes_no_later_scenario(self):
        values = scenarios.load_reference_values()["scenario_values"]
        values["two-ref-singlet"]["value"] = 0.5
        res = two_ref_singlet_with_ancilla(states.ket("0"))
        assert res.paper_value == 0.375 and res.passed

    def test_random_guess_baseline_below_pairwise(self):
        baseline = random_pairwise_baseline()
        assert baseline == pytest.approx(
            auxiliary_value("random-pairwise-baseline"), abs=1e-12
        )
        pairwise = run_scenario(build_scenario("two-ref-4q-pairwise")).analytic
        assert baseline < pairwise - 1e-3


class TestMonteCarlo:
    def test_estimates_are_deterministic_and_close(self):
        scenario = build_scenario("one-ref-unambiguous")
        r1 = run_scenario(scenario, method="design", mc_samples=20_000, seed=11)
        r2 = run_scenario(scenario, method="design", mc_samples=20_000, seed=11)
        assert r1.mc_estimate == r2.mc_estimate
        assert r1.mc_stderr == r2.mc_stderr
        assert abs(r1.mc_estimate - r1.analytic) <= 4 * r1.mc_stderr
        assert r1.passed

    def test_zero_sigma_fails_the_cross_check(self, monkeypatch):
        scenario = build_scenario("one-ref-minerror")
        assert run_scenario(scenario, mc_samples=2_000, seed=3).passed
        monkeypatch.setattr(scenarios, "MC_SIGMA", 0.0)
        res = run_scenario(scenario, mc_samples=2_000, seed=3)
        assert abs(res.analytic - res.paper_value) <= 1e-9
        assert res.mc_estimate != res.analytic and res.passed is False

    def test_seed_changes_the_stream(self):
        scenario = build_scenario("one-ref-minerror")
        r1 = run_scenario(scenario, mc_samples=5_000, seed=1)
        r2 = run_scenario(scenario, mc_samples=5_000, seed=2)
        assert r1.mc_estimate != r2.mc_estimate

    @pytest.mark.parametrize("sid", ("two-ref-singlet", "order-uv-refs"))
    def test_four_wire_sampling_matches_analytics(self, sid):
        res = run_scenario(build_scenario(sid), mc_samples=20_000, seed=7)
        assert abs(res.mc_estimate - res.analytic) <= 4 * res.mc_stderr

    @pytest.mark.parametrize(
        "sid", ("one-ref-minerror", "one-ref-unambiguous", "two-ref-4q-pairwise")
    )
    def test_figure_matches_explicit_kron_per_element(self, sid):
        scenario = build_scenario(sid)
        mean, stderr = _mc_figure(scenario, 37, 5)
        ref_mean, ref_stderr = _mc_figure_reference(scenario, 37, 5)
        assert abs(mean - ref_mean) <= 1e-12 and abs(stderr - ref_stderr) <= 1e-12

    @pytest.mark.parametrize("samples", (7, 5000))
    def test_constant_figure_has_no_spread(self, samples):
        scenario = build_scenario("one-ref-minerror")
        for text, bound in (("II", 0.0), ("UU", 1e-14)):
            pattern = haar.as_pattern(text)
            fixed = dataclasses.replace(scenario, pattern1=pattern, pattern2=pattern)
            assert _mc_figure(fixed, samples, 3)[1] <= bound


def _mc_figure_reference(scenario, samples, seed):
    """Mean and standard error of the Monte Carlo figure, one sample at a time.

    Builds each sample's circuit with np.kron over the same draw_boxes stream
    and scores every POVM element on its own.
    """
    patterns = (scenario.pattern1, scenario.pattern2)
    labels = patterns[0].labels + patterns[1].labels
    values = []
    for m, gates in haar.draw_boxes(samples, seed, labels):
        for s in range(m):
            value = 0.0
            for i, pattern in enumerate(patterns):
                w = np.ones((1, 1))
                for label in pattern.labels:
                    w = np.kron(w, np.eye(2) if label == "I" else gates[label][s])
                out = w @ scenario.state
                for label, target in scenario.mapping.items():
                    right = int(target) == i
                    if right == (scenario.mode == "unambiguous"):
                        e = scenario.povm.elements[label]
                        value += scenario.priors[i] * np.real(
                            np.einsum("i,ij,j->", out.conj(), e, out)
                        )
            values.append(value)
    values = np.array(values)
    return values.mean(), values.std() / np.sqrt(samples)


class TestSubspaceVersusPairwise:
    def test_subspace_strategy_matches_its_frozen_value(self):
        res = run_scenario(build_scenario("two-ref-4q-subspace"))
        assert res.analytic == pytest.approx(3 / 8, abs=1e-9)
        assert res.metadata["published_estimate"] == pytest.approx(0.43)

    @pytest.mark.xfail(
        strict=True,
        reason="the published estimate near 0.43 is not reproducible; the"
        " optimal unambiguous value for these supports equals the pairwise 3/8",
    )
    def test_subspace_strictly_exceeds_pairwise(self):
        s = run_scenario(build_scenario("two-ref-4q-subspace")).analytic
        p = run_scenario(build_scenario("two-ref-4q-pairwise")).analytic
        assert s > p + 1e-12


def _per_element_margins(povm):
    """Hermiticity, lowest eigenvalue and completeness, one element at a time."""
    herm, min_eig = {}, {}
    total = np.zeros((povm.dim, povm.dim), dtype=complex)
    for label, e in povm.elements.items():
        e = np.asarray(e, dtype=complex)
        herm[label] = linalg.hermiticity_error(e)
        min_eig[label] = float(np.min(np.linalg.eigvalsh((e + e.conj().T) / 2)))
        total += e
    return herm, min_eig, float(np.max(np.abs(total - np.eye(povm.dim))))
