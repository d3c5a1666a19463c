import dataclasses
import tracemalloc

import numpy as np
import pytest

from boxdisc import cli, discrimination, haar, linalg, scenarios, states
from boxdisc.discrimination import Povm, helstrom, validate_povm
from boxdisc.scenarios import (
    SCENARIO_IDS,
    Scenario,
    _mc_figures,
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

_BOTH = {"identify-1": 0, "identify-2": 1}, (("identify-1",), ("identify-2",))
_GUESSES = {"guess-1": 0, "guess-2": 1}, (("guess-2",), ("guess-1",))
_SECOND = {"identify-2": 1}, ((), ("identify-2",))

#: Mode, mapping and scored labels that each scenario's POVM labels must give.
EXPECTED_DECISIONS = {
    "one-ref-minerror": ("min_error", *_GUESSES),
    "one-ref-unambiguous": ("unambiguous", *_SECOND),
    "order-two-u-refs": ("unambiguous", *_BOTH),
    "order-uv-refs": ("unambiguous", *_SECOND),
    "pair-same-minerror": ("min_error", *_GUESSES),
    "pair-same-unambiguous": ("unambiguous", *_BOTH),
    "two-ref-4q-pairwise": ("unambiguous", *_BOTH),
    "two-ref-4q-subspace": ("unambiguous", *_BOTH),
    "two-ref-minerror-3q": ("min_error", *_GUESSES),
    "two-ref-singlet": ("unambiguous", *_SECOND),
    "two-ref-symmetric": ("unambiguous", *_BOTH),
}


def _three_wire_block_eigenvalues() -> list:
    """Magnitudes of the nonzero eigenvalues of both 3x3 blocks of (rho1 - rho2)/2."""
    scenario = build_scenario("two-ref-minerror-3q")
    r1 = haar.average_pattern(scenario.state, scenario.pattern1).rho
    r2 = haar.average_pattern(scenario.state, scenario.pattern2).rho
    diff = 0.5 * (r1 - r2)
    magnitudes = []
    for idx in ((2, 4, 1), (5, 3, 6)):
        ev = np.linalg.eigvalsh(diff[np.ix_(idx, idx)])
        magnitudes += [-ev[0], ev[-1]]
    return magnitudes


def _subspace_jordan_cosines() -> list:
    """Principal cosines of the supports of the two averaged subspace states."""
    scenario = build_scenario("two-ref-4q-subspace")
    r1 = haar.average_pattern(scenario.state, scenario.pattern1).rho
    r2 = haar.average_pattern(scenario.state, scenario.pattern2).rho
    _, _, cosines = discrimination._principal_vectors(
        linalg.range_basis(r1), linalg.range_basis(r2)
    )
    return [float(c) for c in cosines]


def _subspace_pair_weight() -> np.ndarray:
    """The eigenvalue of multiplicity two of the shipped identify-1 element."""
    e1 = build_scenario("two-ref-4q-subspace").povm.elements["identify-1"]
    lam = np.linalg.eigvalsh(e1)
    _, inverse, counts = np.unique(
        np.round(lam, 9) + 0.0, return_inverse=True, return_counts=True
    )
    (pair,) = np.flatnonzero(counts == 2)
    return lam[inverse == pair]


#: Auxiliary fixture entry -> the quantity it claims, computed afresh.
AUXILIARY_CLAIMS = {
    "one-ref-failure-prob": lambda: run_scenario(
        build_scenario("one-ref-unambiguous")
    ).metadata["failure_prob"],
    "one-ref-symmetric-variant": lambda: symmetric_variant_success().analytic,
    "random-pairwise-baseline": lambda: random_pairwise_baseline().analytic,
    "order-uv-identify-rate": lambda: run_scenario(
        build_scenario("order-uv-refs")
    ).metadata["per_state_success"][1],
    "three-wire-block-eigenvalue": _three_wire_block_eigenvalues,
    "subspace-jordan-cosines": _subspace_jordan_cosines,
    "subspace-pair-weight": _subspace_pair_weight,
    "clifford-order": lambda: len(haar.clifford_group()),
}


class TestCatalog:
    def test_all_ids_present_and_sorted(self):
        assert SCENARIO_IDS == EXPECTED_IDS
        assert list(SCENARIO_IDS) == sorted(SCENARIO_IDS)

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            build_scenario("no-such-scenario")

    def test_fixture_tables_share_no_key(self):
        # A variant's id looks its reference up in both tables at once.
        fixture = scenarios.load_reference_values()
        assert not set(fixture["scenario_values"]) & set(fixture["auxiliary"])

    def test_every_auxiliary_entry_is_bound(self):
        # A reference value nobody reads is a claim nobody checks. The
        # published estimate is read by the strict expected failures.
        auxiliary = scenarios.load_reference_values()["auxiliary"]
        assert set(auxiliary) - set(AUXILIARY_CLAIMS) == {"subspace-published-estimate"}
        for name, claim in AUXILIARY_CLAIMS.items():
            np.testing.assert_allclose(
                claim(), auxiliary[name]["value"], rtol=0, atol=1e-12, err_msg=name
            )

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
        with pytest.raises(TypeError):
            scenario.povm.elements["extra"] = 0

    @pytest.mark.parametrize("sid", EXPECTED_IDS)
    def test_reference_table_agrees_with_scenario(self, sid):
        scenario = build_scenario(sid)
        assert scenario.paper_value == reference_value(sid)
        assert scenario.citation


class TestDerivedFields:
    @pytest.mark.parametrize("sid", EXPECTED_IDS)
    def test_mode_and_mapping_follow_from_povm_labels(self, sid):
        scenario = build_scenario(sid)
        mode, mapping, scored = EXPECTED_DECISIONS[sid]
        assert scenario.mode == mode
        assert scenario.povm.decision == (mode, mapping)
        assert scenario.povm.scored == scored

    def test_replaced_povm_brings_its_own_mode(self):
        # A Helstrom measurement on the unambiguous task turns it into a
        # minimum-error run; its error 1/8 does not match the 3/8 reference.
        scenario = build_scenario("one-ref-unambiguous")
        r1 = haar.average_pattern(scenario.state, scenario.pattern1).rho
        r2 = haar.average_pattern(scenario.state, scenario.pattern2).rho
        probe = dataclasses.replace(scenario, povm=helstrom(r1, r2).optimal_projectors)
        assert probe.mode == "min_error"
        assert probe.povm.decision == ("min_error", _GUESSES[0])
        res = run_scenario(probe)
        assert res.scenario.mode == "min_error" and res.cross_talk is None
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
        assert sorted(given) == ["id", "pattern1", "pattern2", "povm", "state"]
        assert Scenario(**given).mode == "min_error"
        for name in ("mode", "paper_value", "citation"):
            with pytest.raises(TypeError):
                Scenario(**given, **{name: getattr(scenario, name)})
        assert not hasattr(scenario, "priors") and not hasattr(scenario, "mapping")

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

    @pytest.mark.parametrize(
        "change",
        (
            {"state": states.ket("000")},
            {"pattern1": "U"},
            {"pattern1": "UUV", "pattern2": "UVV"},
            {"povm": Povm({"guess-1": np.eye(8) / 2, "guess-2": np.eye(8) / 2})},
        ),
        ids=("state", "pattern1", "both-patterns", "povm"),
    )
    def test_mixed_register_sizes_rejected_at_construction(self, change):
        # The Monte Carlo kernel pushes the state through both patterns and
        # scores it on the POVM, so all four must share one register.
        with pytest.raises(ValueError, match="mixes register sizes"):
            dataclasses.replace(build_scenario("one-ref-unambiguous"), **change)

    def test_fixture_parsed_once_per_construction(self, monkeypatch):
        calls = []
        load = scenarios.load_reference_values

        def counted():
            calls.append(1)
            return load()

        monkeypatch.setattr(scenarios, "load_reference_values", counted)
        variant = dataclasses.replace(build_scenario("one-ref-unambiguous"))
        assert len(calls) == 1
        assert variant.paper_value == reference_value("one-ref-unambiguous")
        assert variant.citation == scenarios.reference_citation("one-ref-unambiguous")


class TestResultCensus:
    @pytest.mark.parametrize("sid", EXPECTED_IDS)
    def test_result_points_at_its_scenario(self, sid):
        scenario = build_scenario(sid)
        assert run_scenario(scenario).scenario is scenario
        assert [f.name for f in dataclasses.fields(scenarios.ScenarioResult)] == [
            "scenario", "analytic", "mc_estimate", "mc_stderr", "cross_talk", "passed", "metadata",
        ]
        (record,), _ = cli.execute([sid])
        assert record["scenario"] == scenario.id
        assert record["mode"] == scenario.mode
        assert record["paper_value"] == scenario.paper_value
        assert record["citation"] == scenario.citation


class TestAnalyticRuns:
    @pytest.mark.parametrize("sid", EXPECTED_IDS)
    def test_design_engine_reproduces_target(self, sid):
        res = run_scenario(build_scenario(sid), method="design")
        assert res.passed, f"{sid}: {res.analytic} vs {res.scenario.paper_value}"
        assert abs(res.analytic - res.scenario.paper_value) <= 1e-9
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
        assert abs(res.analytic - res.scenario.paper_value) <= 1e-9
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
        assert abs(res.analytic - res.scenario.paper_value) <= 1e-9
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
        assert abs(res.analytic - res.scenario.paper_value) <= 1e-9
        assert res.metadata["povm_error"] == pytest.approx(7 / 8, abs=1e-12)
        assert res.passed is False

    def test_execute_covers_catalog(self):
        records, all_passed = cli.execute(SCENARIO_IDS)
        assert tuple(rec["scenario"] for rec in records) == EXPECTED_IDS
        assert all_passed is True and all(rec["pass"] for rec in records)

    def test_one_ref_failure_probability(self):
        res = run_scenario(build_scenario("one-ref-unambiguous"))
        assert res.metadata["failure_prob"] == pytest.approx(
            reference_value("one-ref-failure-prob"), abs=1e-9
        )

    def test_pass_tolerance_override_can_fail_a_run(self, monkeypatch):
        monkeypatch.setattr(scenarios, "PASS_TOL", 0.0)
        res = run_scenario(build_scenario("one-ref-unambiguous"))
        assert res.passed is False

    def test_cross_talk_tolerance_override_can_fail_a_run(self, monkeypatch):
        # The verdict reads the one binding in scenarios; the cross-talk here
        # is rounding noise of about 2e-16, not zero.
        monkeypatch.setattr(scenarios, "CROSS_TALK_TOL", 0.0)
        res = run_scenario(build_scenario("one-ref-unambiguous"))
        assert 0.0 < res.cross_talk <= 1e-12
        assert res.passed is False
        assert not hasattr(discrimination, "CROSS_TALK_TOL")

    def test_monte_carlo_method_requires_samples(self):
        # Monte Carlo is a cross-check under an exact engine, not an engine.
        for samples in (0, 100):
            with pytest.raises(ValueError, match="unknown method"):
                run_scenario(
                    build_scenario("one-ref-unambiguous"), method="monte_carlo", mc_samples=samples
                )


def _hex_figures(result) -> dict:
    """analytic, cross_talk and every metadata value of a result, as float.hex."""

    def hexed(value):
        if isinstance(value, list):
            return [float(v).hex() for v in value]
        return None if value is None else float(value).hex()

    figures = {"analytic": result.analytic, "cross_talk": result.cross_talk}
    return {key: hexed(value) for key, value in {**figures, **result.metadata}.items()}


#: Exact engines with the node count each runs at below.
_EXACT_ENGINES = (("design", 24), ("quadrature", 7))


class TestAveragesPerBatch:
    @pytest.mark.parametrize("mc_samples", (0, 200))
    @pytest.mark.parametrize("method, nodes", _EXACT_ENGINES)
    def test_one_average_per_state_and_pattern(self, monkeypatch, method, nodes, mc_samples):
        # The 11 shipped scenarios name 22 hypotheses on 16 distinct
        # (state, pattern) pairs: each unambiguous/minimum-error pair of
        # scenarios shares its state and both patterns. Two builders average
        # too, so the batch is built before counting starts.
        batch = [build_scenario(sid) for sid in SCENARIO_IDS]
        calls = []
        average_pattern = haar.average_pattern

        def counted(psi, pattern, *args, **kwargs):
            calls.append(str(pattern))
            return average_pattern(psi, pattern, *args, **kwargs)

        monkeypatch.setattr(haar, "average_pattern", counted)
        scenarios.run_scenarios(batch, method, mc_samples, 5, nodes=nodes)
        assert len(calls) == 16, calls

    @pytest.mark.parametrize("method, nodes", _EXACT_ENGINES)
    def test_batch_figures_equal_solo_figures(self, method, nodes):
        batch = [build_scenario(sid) for sid in SCENARIO_IDS]
        together = scenarios.run_scenarios(batch, method, nodes=nodes)
        for scenario, result in zip(batch, together):
            alone = run_scenario(scenario, method, nodes=nodes)
            assert _hex_figures(alone) == _hex_figures(result), scenario.id

    def test_library_rejects_nodes_above_the_ceiling(self):
        with pytest.raises(ValueError, match=f"to {haar.MAX_NODES} nodes per angle, got 65"):
            run_scenario(build_scenario("one-ref-unambiguous"), "quadrature", nodes=65)


class TestOrderUvStructure:
    def test_state_one_is_never_identified(self):
        scenario = build_scenario("order-uv-refs")
        assert 0 not in scenario.povm.decision[1].values()
        res = run_scenario(scenario)
        assert res.metadata["per_state_success"][0] == 0.0
        assert res.metadata["per_state_success"][1] == pytest.approx(2 / 3, abs=1e-10)

    def test_first_hypothesis_is_double_singlet_projector(self):
        scenario = build_scenario("order-uv-refs")
        from boxdisc.haar import average_pattern

        rho1 = average_pattern(scenario.state, scenario.pattern1, "design").rho
        target = states.density(states.double_singlet())
        assert np.max(np.abs(rho1 - target)) <= 1e-10


class TestPermutationWitness:
    def test_two_u_orders_reduce_to_pair_scenario(self):
        report = equivalence_witness_order_refs()
        assert report.passed
        assert report.max_deviation <= 1e-10
        assert len(report.deviations) == 2

    def test_witness_builds_source_then_target(self, monkeypatch):
        built = []
        build = scenarios.build_scenario

        def recording_build(sid):
            built.append(sid)
            return build(sid)

        monkeypatch.setattr(scenarios, "build_scenario", recording_build)
        report = equivalence_witness_order_refs()
        assert built == ["order-two-u-refs", "pair-same-unambiguous"]
        assert report.passed


def _permuted(scenario, perm):
    """The scenario with its wires relabelled: wire k of the result is wire perm[k]."""
    labels = {
        name: tuple(pattern.labels[w] for w in perm)
        for name, pattern in (("pattern1", scenario.pattern1), ("pattern2", scenario.pattern2))
    }
    elements = {l: linalg.permute_qubits(e, perm) for l, e in scenario.povm.elements.items()}
    return dataclasses.replace(
        scenario,
        state=linalg.permute_qubits(scenario.state, perm),
        povm=Povm(elements),
        **labels,
    )


class TestWirePermutation:
    # Relabelling the wires of the state, both patterns and every POVM
    # element changes no figure: it checks that permute_qubits, the exact
    # twirl's axis order and apply_boxes' per-wire reshape put every wire
    # in the same place. Monte Carlo agrees this tightly because each
    # sample still sees the same (U, V) pair.
    @pytest.mark.parametrize(
        "method, nodes, mc_samples",
        (("design", haar.MIN_NODES, 0), ("quadrature", 7, 0), ("design", haar.MIN_NODES, 3000)),
        ids=("design", "quadrature-7", "monte-carlo-3000"),
    )
    def test_figures_and_verdicts_unchanged(self, method, nodes, mc_samples):
        batch = [build_scenario(sid) for sid in SCENARIO_IDS]
        base = scenarios.run_scenarios(batch, method, mc_samples, 5, nodes=nodes)
        rng = np.random.default_rng(16)
        for _ in range(3):
            perms = [tuple(rng.permutation(len(sc.pattern1))) for sc in batch]
            moved = [_permuted(sc, perm) for sc, perm in zip(batch, perms)]
            results = scenarios.run_scenarios(moved, method, mc_samples, 5, nodes=nodes)
            for before, after, perm in zip(base, results, perms):
                where = (before.scenario.id, perm)
                assert after.passed == before.passed, where
                for name in ("analytic", "mc_estimate", "mc_stderr", "cross_talk"):
                    x, y = getattr(before, name), getattr(after, name)
                    assert (x is None) == (y is None), (where, name)
                    assert x is None or abs(x - y) <= 1e-14, (where, name, x, y)


class TestVariants:
    def test_symmetric_input_variant(self):
        res = symmetric_variant_success()
        assert res.analytic == pytest.approx(
            reference_value("one-ref-symmetric-variant"), abs=1e-9
        )
        assert res.cross_talk <= 1e-12 and res.passed
        expected = scenarios.reference_citation("one-ref-symmetric-variant")
        assert res.scenario.citation == expected

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
        two_ref_singlet_with_ancilla(states.ket("0"))
        variant, default = ran
        cached = build_scenario("two-ref-singlet")
        assert res.passed and variant.povm_report.valid
        assert variant is not cached and default is not cached
        assert not variant.state.flags.writeable
        assert np.array_equal(default.state, cached.state)

    def test_writing_into_loaded_fixture_changes_no_later_scenario(self):
        values = scenarios.load_reference_values()["scenario_values"]
        values["two-ref-singlet"]["value"] = 0.5
        res = two_ref_singlet_with_ancilla(states.ket("0"))
        assert res.scenario.paper_value == 0.375 and res.passed

    def test_random_guess_baseline_below_pairwise(self):
        baseline = random_pairwise_baseline()
        assert baseline.analytic == pytest.approx(
            reference_value("random-pairwise-baseline"), abs=1e-12
        )
        assert baseline.passed
        pairwise = run_scenario(build_scenario("two-ref-4q-pairwise")).analytic
        assert baseline.analytic < pairwise - 1e-3


class TestGateScales:
    """Each gate fails a fault of a fixed physical size, not one sized by its constant.

    Both variants of one-ref-unambiguous move a share of one projector from
    one POVM element to the other, so each stays a valid POVM.
    """

    @staticmethod
    def _run_variant(identify, fail):
        variant = dataclasses.replace(
            build_scenario("one-ref-unambiguous"), povm=Povm({"identify-2": identify, "fail": fail})
        )
        assert variant.povm_report.valid
        return run_scenario(variant)

    def test_cross_talk_of_4e_9_fails(self):
        p_sym, p_anti = states.sym_antisym_projectors((0, 1), 2)
        res = self._run_variant(p_sym + 4e-9 * p_anti, (1 - 4e-9) * p_anti)
        assert not res.passed
        assert res.cross_talk == pytest.approx(4e-9, rel=1e-3)
        assert abs(res.analytic - 0.375) == pytest.approx(5e-10, rel=1e-3)

    def test_figure_short_by_3_75e_9_fails(self):
        p_sym, p_anti = states.sym_antisym_projectors((0, 1), 2)
        res = self._run_variant((1 - 1e-8) * p_sym, p_anti + 1e-8 * p_sym)
        assert not res.passed
        assert res.analytic == pytest.approx(0.375 - 3.75e-9, abs=1e-12)
        assert res.cross_talk <= 1e-12


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
        assert abs(res.analytic - res.scenario.paper_value) <= 1e-9
        assert res.mc_estimate != res.analytic and res.passed is False

    def test_error_bar_matches_exact_spread(self):
        # one-ref-unambiguous scores (1 - c)/2 per sample, c = |tr(U^H V)|^2/4,
        # whose exact standard deviation under Haar boxes is 1/8.
        samples = 20_000
        res = run_scenario(build_scenario("one-ref-unambiguous"), mc_samples=samples, seed=7)
        assert abs(res.mc_stderr * np.sqrt(samples) / 0.125 - 1) <= 0.05

    def test_known_false_alarm_fails_nine_ids_at_one_z(self):
        # Nine of the eleven per-sample figures are affine in one box
        # invariant, c = |tr(U^H V)|^2/4, so a draw whose mean c strays fails
        # all nine at one |z|. This pass seed is the 242nd that the
        # benchmark's verify-montecarlo workload draws from seed 16.
        records, _ = cli.execute(SCENARIO_IDS, "monte_carlo", 5000, 11007362434702588829)
        failed = {rec["scenario"] for rec in records if not rec["pass"]}
        assert failed == set(SCENARIO_IDS) - {"order-uv-refs", "two-ref-symmetric"}
        z = [
            abs(rec["mc_estimate"] - rec["analytic"]) / rec["mc_stderr"]
            for rec in records
            if rec["scenario"] in failed
        ]
        assert max(z) - min(z) <= 1e-9 and min(z) > scenarios.MC_SIGMA

    @pytest.mark.parametrize("samples", (1, -5))
    def test_rejects_samples_without_error_bar(self, samples):
        # A negative count would skip the cross-check silently, and one
        # sample would fail it with a standard error of 0.
        with pytest.raises(ValueError, match="one sample has no error bar"):
            scenarios.run_scenarios([build_scenario("one-ref-minerror")], mc_samples=samples)

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
        ((mean, stderr),) = _mc_figures((scenario,), 37, 5)
        ref_mean, ref_stderr = _mc_figure_reference(scenario, 37, 5)
        assert abs(mean - ref_mean) <= 1e-12 and abs(stderr - ref_stderr) <= 1e-12

    @pytest.mark.parametrize("samples", (7, 5000))
    def test_constant_figure_has_no_spread(self, samples):
        scenario = build_scenario("one-ref-minerror")
        for text, bound in (("II", 0.0), ("UU", 1e-14)):
            pattern = haar.as_pattern(text)
            fixed = dataclasses.replace(scenario, pattern1=pattern, pattern2=pattern)
            assert _mc_figures((fixed,), samples, 3)[0][1] <= bound

    @pytest.mark.parametrize("samples", (2, 5000, haar._CHUNK))
    def test_batch_figures_equal_solo_figures(self, samples):
        base = build_scenario("one-ref-minerror")
        batch = [build_scenario(sid) for sid in SCENARIO_IDS] + [
            dataclasses.replace(base, pattern2="UI"),
            dataclasses.replace(base, pattern1="VV", pattern2="VI"),
        ]
        together = _mc_figures(batch, samples, 13)
        assert together == [_mc_figures((s,), samples, 13)[0] for s in batch]

    def test_one_draw_per_batch(self, monkeypatch):
        # Every scenario reads the one stream that draws both boxes, also a
        # variant that draws only U or only V.
        calls = []
        draw = haar.draw_boxes

        def counted(samples, seed, labels):
            calls.append(tuple(labels))
            return draw(samples, seed, labels)

        monkeypatch.setattr(haar, "draw_boxes", counted)
        base = build_scenario("one-ref-minerror")
        batch = [build_scenario(sid) for sid in SCENARIO_IDS] + [
            dataclasses.replace(base, pattern1="UU", pattern2="UI"),
            dataclasses.replace(base, pattern1="VV", pattern2="VI"),
        ]
        _mc_figures(batch, 5000, 7)
        assert calls == [("U", "V")]

    @pytest.mark.parametrize(
        "ids, per_chunk",
        ((SCENARIO_IDS, 14), (("pair-same-unambiguous",), 2)),
        ids=("all", "pair-same-unambiguous"),
    )
    def test_one_simulation_per_state_and_pattern(self, monkeypatch, ids, per_chunk):
        # The 11 shipped scenarios score 19 hypotheses on 14 distinct
        # (state, pattern) pairs; each pair is simulated once per chunk.
        calls = []
        apply_boxes = haar.apply_boxes

        def counted(*args):
            calls.append(args[1])
            return apply_boxes(*args)

        monkeypatch.setattr(haar, "apply_boxes", counted)
        batch = [build_scenario(sid) for sid in ids]
        for samples, chunks in ((5000, 2), (haar._CHUNK, 1)):
            calls.clear()
            _mc_figures(batch, samples, 7)
            assert len(calls) == chunks * per_chunk, sorted(map(str, calls))

    def test_memory_does_not_grow_with_samples(self):
        batch = [build_scenario(sid) for sid in SCENARIO_IDS]

        def peak(samples):
            tracemalloc.start()
            try:
                _mc_figures(batch, samples, 4)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(haar._CHUNK)
        assert peak(3 * haar._CHUNK) <= 1.1 * peak(haar._CHUNK)


def _mc_figure_reference(scenario, samples, seed):
    """Mean and standard error of the Monte Carlo figure, one sample at a time.

    Builds each sample's circuit with np.kron over the same draw_boxes stream
    and scores every POVM element on its own.
    """
    patterns = (scenario.pattern1, scenario.pattern2)
    labels = patterns[0].labels + patterns[1].labels
    mode, mapping = scenario.povm.decision
    values = []
    for m, gates in haar.draw_boxes(samples, seed, labels):
        for s in range(m):
            value = 0.0
            for i, pattern in enumerate(patterns):
                w = np.ones((1, 1))
                for label in pattern.labels:
                    w = np.kron(w, np.eye(2) if label == "I" else gates[label][s])
                out = w @ scenario.state
                for label, target in mapping.items():
                    right = target == i
                    if right == (mode == "unambiguous"):
                        e = scenario.povm.elements[label]
                        value += 0.5 * np.real(np.einsum("i,ij,j->", out.conj(), e, out))
            values.append(value)
    values = np.array(values)
    return values.mean(), values.std() / np.sqrt(samples)


class TestSubspaceVersusPairwise:
    def test_subspace_strategy_matches_its_frozen_value(self):
        res = run_scenario(build_scenario("two-ref-4q-subspace"))
        assert res.analytic == pytest.approx(3 / 8, abs=1e-9)
        assert reference_value("subspace-published-estimate") == pytest.approx(0.43)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
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
