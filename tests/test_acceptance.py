"""Acceptance checks, one test per numbered criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion. Criterion 5 appears twice: the construction checks, which pass,
and the published success estimate, which is kept as a strict expected
failure because the exact optimum for those supports sits at the pairwise
value (see the frozen fixture).
"""

import time

import numpy as np
import pytest

from boxdisc import cli, haar, linalg, states
from boxdisc.discrimination import (
    helstrom,
    outcome_probs,
    unambiguous_subspace_povm,
    validate_povm,
)
from boxdisc.scenarios import (
    SCENARIO_IDS,
    build_scenario,
    equivalence_witness_order_refs,
    reference_value,
    run_scenario,
    singlet_weight_scan,
    symmetric_variant_success,
)

MC_SAMPLES = 100_000
MC_SEED = 99


def test_criterion_01_one_reference_unambiguous():
    start = time.perf_counter()
    res = run_scenario(build_scenario("one-ref-unambiguous"))
    variant = symmetric_variant_success()
    elapsed = time.perf_counter() - start
    assert abs(res.analytic - 3 / 8) <= 1e-9
    assert abs(res.metadata["failure_prob"] - 5 / 8) <= 1e-9
    assert abs(variant.analytic - 1 / 8) <= 1e-9 and variant.passed
    assert elapsed < 1.0


def test_criterion_02_one_reference_min_error():
    _, p_anti = states.sym_antisym_projectors((0, 1), 2)
    assert abs(helstrom(p_anti, np.eye(4) / 4).p_error - 1 / 8) <= 1e-12
    rows = singlet_weight_scan([i / 10 for i in range(11)])
    assert len(rows) == 11
    for row in rows:
        assert abs(row.trace_norm - row.closed_form) <= 1e-10


def test_criterion_03_two_reference_three_strategies():
    singlet = run_scenario(build_scenario("two-ref-singlet"))
    assert abs(singlet.analytic - 3 / 8) <= 1e-9

    symmetric = build_scenario("two-ref-symmetric")
    report = validate_povm(symmetric.povm)
    assert report.valid  # complete and PSD
    res = run_scenario(symmetric)
    assert abs(res.analytic - 1 / 6) <= 1e-9

    minerr = build_scenario("two-ref-minerror-3q")
    res = run_scenario(minerr)
    assert abs(res.analytic - 0.5 * (1 - 1 / np.sqrt(3))) <= 1e-12

    r1 = haar.average_pattern(minerr.state, minerr.pattern1).rho
    r2 = haar.average_pattern(minerr.state, minerr.pattern2).rho
    diff = 0.5 * (r1 - r2)
    lam = reference_value("three-wire-block-eigenvalue")  # 1/(4*sqrt(3))
    for idx in ((2, 4, 1), (5, 3, 6)):
        ev = np.linalg.eigvalsh(diff[np.ix_(idx, idx)])
        assert abs(ev[0] + lam) <= 1e-12
        assert abs(ev[-1] - lam) <= 1e-12


def test_criterion_04_pairwise_four_qubit_povm():
    res = run_scenario(build_scenario("two-ref-4q-pairwise"))
    s1, s2 = res.metadata["per_state_success"]
    assert abs(s1 - 3 / 8) <= 1e-10
    assert abs(s2 - 3 / 8) <= 1e-10
    assert res.cross_talk <= 1e-10


def test_criterion_05_subspace_povm_construction():
    scenario = build_scenario("two-ref-4q-subspace")
    assert validate_povm(scenario.povm).valid

    r1 = haar.average_pattern(scenario.state, scenario.pattern1).rho
    r2 = haar.average_pattern(scenario.state, scenario.pattern2).rho
    s1 = linalg.range_basis(r1)
    s2 = linalg.range_basis(r2)
    povm = unambiguous_subspace_povm(s1, s2)
    assert np.max(np.abs(povm.elements["identify-1"] @ s2.basis)) <= 1e-9
    assert np.max(np.abs(povm.elements["identify-2"] @ s1.basis)) <= 1e-9

    # Frozen derived value for the per-state success of this construction.
    res = run_scenario(scenario)
    assert abs(res.analytic - res.scenario.paper_value) <= 1e-9
    assert abs(res.scenario.paper_value - 3 / 8) <= 1e-12


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="published estimate near 0.43 exceeds the optimum attainable for"
    " these supports, which equals the pairwise value 3/8",
)
def test_criterion_05_published_success_estimate():
    tol = 0.005  # how closely the published rounding would have to match
    res = run_scenario(build_scenario("two-ref-4q-subspace"))
    estimate = reference_value("subspace-published-estimate")
    assert abs(res.analytic - estimate) <= tol
    assert res.analytic > 3 / 8 + 1e-12


def test_criterion_06_same_or_different_pair():
    unamb = run_scenario(build_scenario("pair-same-unambiguous"))
    assert abs(unamb.analytic - 3 / 4) <= 1e-10

    minerr = run_scenario(build_scenario("pair-same-minerror"))
    assert abs(minerr.analytic - 1 / 8) <= 1e-10
    # The stored two-outcome POVM achieves the bound, not just the formula.
    assert abs(minerr.metadata["povm_error"] - 1 / 8) <= 1e-10


def test_criterion_07_order_task_equivalence_witness():
    report = equivalence_witness_order_refs()
    assert report.passed
    assert report.max_deviation <= 1e-10


def test_criterion_08_order_uv_task():
    scenario = build_scenario("order-uv-refs")
    res = run_scenario(scenario)
    assert abs(res.metadata["per_state_success"][1] - 2 / 3) <= 1e-10
    assert abs(res.analytic - 1 / 3) <= 1e-10

    rho1 = haar.average_pattern(scenario.state, scenario.pattern1).rho
    projector = states.density(states.double_singlet())
    assert np.max(np.abs(rho1 - projector)) <= 1e-10


def test_criterion_09_twirl_identity_suite_all_engines():
    start = time.perf_counter()
    checks = haar.twirl_identity_suite(
        ("design", "quadrature", "monte_carlo"), samples=MC_SAMPLES
    )
    elapsed = time.perf_counter() - start
    assert len(checks) == 18  # six identities, three engines
    for check in checks:
        assert check.passed, f"{check.identity} under {check.method}"
        if check.method == "design":
            assert check.deviation <= 1e-12
        elif check.method == "quadrature":
            assert check.deviation <= 1e-12
    assert elapsed < 60.0


def test_criterion_10_engine_concordance_and_determinism(capsys):
    for sid in SCENARIO_IDS:
        scenario = build_scenario(sid)
        design = run_scenario(
            scenario, method="design", mc_samples=MC_SAMPLES, seed=MC_SEED
        )
        quad = run_scenario(scenario, method="quadrature")
        assert abs(design.analytic - quad.analytic) <= 1e-8, sid
        assert abs(design.mc_estimate - design.analytic) <= 4 * design.mc_stderr, sid
        assert design.passed and quad.passed, sid

    argv = [
        "--all",
        "--method",
        "monte_carlo",
        "--samples",
        str(MC_SAMPLES),
        "--seed",
        str(MC_SEED),
        "--format",
        "csv",
    ]
    code1 = cli.main(list(argv))
    first = capsys.readouterr().out
    code2 = cli.main(list(argv))
    second = capsys.readouterr().out
    assert code1 == 0 and code2 == 0
    assert first == second
