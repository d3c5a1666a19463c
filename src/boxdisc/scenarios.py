"""The eleven benchmark discrimination scenarios and their runners.

Each scenario fixes a test state, the two box patterns it must tell apart
and a measurement with decision labels. The labels (identify-k, guess-k,
fail; their table lives next to Povm in discrimination) fix the decision
mode and the outcomes each hypothesis scores, and the id fixes the reference
success (or error) probability the implementation has to reproduce. These
five choices are all a Scenario is built from; the rest is derived.
Scenario construction is pure, so build_scenario builds each scenario once
per process and hands out the same frozen object afterwards: its state is a
read-only copy, its Povm froze its own elements and tables when it was
built, and its POVM is validated once, at construction.
Running a scenario averages the state under both hypotheses with the chosen
engine, scores the measurement, and optionally cross-checks the figure with
a per-sample Monte Carlo simulation of the actual experiment.

run_scenarios is the only scorer; run_scenario runs a batch of one. A batch
averages each distinct (state, pattern) once, and it shares its Monte Carlo
draw: each chunk of samples draws both boxes once and is scored for every
scenario of the batch. The auxiliary figures (another input, another
ancilla, the coin-flip pairwise baseline) are dataclasses.replace variants
of a shipped scenario; a variant whose id names an auxiliary fixture entry
is checked against that entry.
singlet_weight_scan sweeps the one-reference test state against noise.

Wire mnemonics used below: the first wires hold the reference boxes handed
to the tester, the later ones the boxes under test. Both hypotheses of every
scenario carry prior 1/2.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field, replace
from importlib import resources

import numpy as np

from . import haar, linalg, states
from .discrimination import (
    Povm,
    PovmReport,
    helstrom,
    outcome_probs,
    scored_figure,
    unambiguous_eval,
    unambiguous_subspace_povm,
    validate_povm,
    with_fail,
)
from .haar import BoxPattern, as_pattern

PASS_TOL = 1e-9
MC_SIGMA = 4.0
CROSS_TALK_TOL = 1e-9

#: Tolerance of the entrywise check in equivalence_witness_order_refs.
WITNESS_TOL = 1e-10


@functools.cache
def _reference_text() -> str:
    return resources.files("boxdisc").joinpath("reference_values.json").read_text()


def load_reference_values() -> dict:
    """Versioned reference-value fixture shipped with the package.

    Each call parses a fresh copy, so a caller that writes into it cannot
    change the reference values of scenarios built later.
    """
    return json.loads(_reference_text())


def _fixture_entry(name: str) -> dict:
    """Fixture entry of a scenario id or of an auxiliary name.

    The two tables share no key, so a variant whose id names an auxiliary
    entry is checked against that figure.
    """
    fixture = load_reference_values()
    return {**fixture["scenario_values"], **fixture["auxiliary"]}[name]


def reference_value(name: str) -> float:
    return float(_fixture_entry(name)["value"])


def reference_citation(name: str) -> str:
    return str(_fixture_entry(name)["citation"])


def _read_only(a) -> np.ndarray:
    """Read-only copy, so freezing never touches the caller's array."""
    a = np.array(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Scenario:
    """Frozen description of one discrimination task.

    The five init fields are what a task chooses: its id, the input state,
    the two box patterns and the measurement. The rest is derived at
    construction. paper_value and citation are the fixture entry for id, a
    scenario id or an auxiliary name; mode follows from the POVM labels
    (see Povm.decision), and so do the outcomes each hypothesis scores (see
    Povm.scored). Construction raises ValueError unless the state, both
    patterns and the POVM fit one n-wire register, and it freezes the
    scenario: patterns become BoxPatterns and the state a read-only array
    copy, and povm_report keeps validate_povm's report. The Povm is already
    frozen (see Povm), so it is kept as given. dataclasses.replace goes
    through the same steps, so a variant carries the mode and report of its
    own POVM. Equality is identity, like the per-process cache of
    build_scenario.
    """

    id: str
    state: np.ndarray
    pattern1: BoxPattern
    pattern2: BoxPattern
    povm: Povm
    mode: str = field(init=False)  # "unambiguous" or "min_error"
    paper_value: float = field(init=False)
    citation: str = field(init=False)
    povm_report: PovmReport = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "state", _read_only(self.state))
        object.__setattr__(self, "pattern1", as_pattern(self.pattern1))
        object.__setattr__(self, "pattern2", as_pattern(self.pattern2))
        n = len(self.pattern1)
        if (self.state.shape, len(self.pattern2), self.povm.dim) != ((2**n,), n, 2**n):
            raise ValueError(
                f"scenario {self.id!r} mixes register sizes: state shape {self.state.shape}, "
                f"patterns {self.pattern1} and {self.pattern2}, POVM dim {self.povm.dim}"
            )
        object.__setattr__(self, "mode", self.povm.decision[0])
        entry = _fixture_entry(self.id)
        object.__setattr__(self, "paper_value", float(entry["value"]))
        object.__setattr__(self, "citation", str(entry["citation"]))
        object.__setattr__(self, "povm_report", validate_povm(self.povm))


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one scenario run: the scenario and what the run computed.

    scenario is the Scenario that ran, so its id, mode, paper_value,
    citation and povm_report are read through it. analytic comes from
    deterministic averaging with the engine the run named;
    mc_estimate/mc_stderr are None unless a Monte Carlo cross-check ran;
    cross_talk is None in minimum-error mode (no forbidden outcomes there).
    passed is the verdict of run_scenarios; see there for its gates.
    """

    scenario: Scenario
    analytic: float
    mc_estimate: float | None
    mc_stderr: float | None
    cross_talk: float | None
    passed: bool
    metadata: dict


def _singlet_with_ancilla(b_state) -> np.ndarray:
    """Three-wire input: singlet on wires (0, 2), ancilla wire 1.

    The shipped scenario uses |0>; any normalized single-qubit state works
    and must not change the outcome, which tests exercise with random inputs.
    """
    anc = np.asarray(b_state, dtype=complex)
    if anc.shape != (2,):
        raise ValueError("ancilla must be a single-qubit state")
    states.assert_normalized(anc)
    psi = np.kron(states.bell("psi-"), anc)  # order (0, 2, 1)
    return linalg.permute_qubits(psi, (0, 2, 1))


def _mixed_order_overlap_vector() -> np.ndarray:
    """Unit vector spanning supp(rho1) inside the doubly symmetric sector.

    Written on pair order ((1, 2), (0, 3)): triplet-triplet combination
    psi+ psi+ - |00>|11> - |11>|00>, then reordered to wires (0, 1, 2, 3)
    and normalized (raw norm sqrt 3).
    """
    raw = (
        np.kron(states.bell("psi+"), states.bell("psi+"))
        - np.kron(states.ket("00"), states.ket("11"))
        - np.kron(states.ket("11"), states.ket("00"))
    )
    vec = linalg.permute_qubits(raw, (2, 0, 1, 3))
    return vec / np.linalg.norm(vec)


def _build_one_ref(mode: str) -> Scenario:
    p_sym, p_anti = states.sym_antisym_projectors((0, 1), 2)
    if mode == "unambiguous":
        # Same box keeps the singlet antisymmetric, so only the symmetric
        # outcome is conclusive: it rules the same-box hypothesis out.
        sid, povm = "one-ref-unambiguous", Povm({"identify-2": p_sym, "fail": p_anti})
    else:
        sid, povm = "one-ref-minerror", Povm({"guess-1": p_anti, "guess-2": p_sym})
    return Scenario(
        id=sid, state=states.bell("psi-"), pattern1="UU", pattern2="UV", povm=povm
    )


def _build_two_ref_singlet() -> Scenario:
    p_sym, p_anti = states.sym_antisym_projectors((0, 2), 3)
    return Scenario(
        id="two-ref-singlet",
        state=_singlet_with_ancilla(states.ket("0")),
        pattern1="UVU",
        pattern2="UVV",
        povm=Povm({"identify-2": p_sym, "fail": p_anti}),
    )


def _build_two_ref_symmetric() -> Scenario:
    _, anti_02 = states.sym_antisym_projectors((0, 2), 3)
    _, anti_12 = states.sym_antisym_projectors((1, 2), 3)
    # The input is symmetric under swapping the tested wire with either
    # reference, so an antisymmetric component across a pair can only come
    # from the box that acted differently there. Weight 2/3 saturates
    # positivity of the failure element.
    return Scenario(
        id="two-ref-symmetric",
        state=states.ket("000"),
        pattern1="UVU",
        pattern2="UVV",
        povm=with_fail({"identify-1": 2.0 / 3.0 * anti_12, "identify-2": 2.0 / 3.0 * anti_02}),
    )


def _build_two_ref_minerror_3q() -> Scenario:
    psi = states.approx_double_singlet_3q()
    rho1 = haar.average_pattern(psi, "UVU").rho
    rho2 = haar.average_pattern(psi, "UVV").rho
    povm = helstrom(rho1, rho2).optimal_projectors
    return Scenario(id="two-ref-minerror-3q", state=psi, pattern1="UVU", pattern2="UVV", povm=povm)


def _build_4q_pairwise() -> Scenario:
    sym_02, _ = states.sym_antisym_projectors((0, 2), 4)
    sym_12, _ = states.sym_antisym_projectors((1, 2), 4)
    flag = {bit: states.embed_operator(states.density(states.ket(bit)), (3,), 4) for bit in "01"}
    # The flag wire ties each branch to the pair that can still hold a
    # singlet, so a symmetric outcome on that pair is conclusive.
    return Scenario(
        id="two-ref-4q-pairwise",
        state=states.four_qubit_test_state(),
        pattern1="UVUI",
        pattern2="UVVI",
        povm=with_fail({"identify-1": sym_12 @ flag["1"], "identify-2": sym_02 @ flag["0"]}),
    )


def _build_4q_subspace() -> Scenario:
    psi = states.four_qubit_test_state()
    rho1 = haar.average_pattern(psi, "UVUI").rho
    rho2 = haar.average_pattern(psi, "UVVI").rho
    # The reference value is the derived exact optimum 3/8. The published
    # estimate overshoots it and is kept apart, as the auxiliary entry
    # subspace-published-estimate.
    return Scenario(
        id="two-ref-4q-subspace",
        state=psi,
        pattern1="UVUI",
        pattern2="UVVI",
        povm=unambiguous_subspace_povm(linalg.range_basis(rho1), linalg.range_basis(rho2)),
    )


def _build_pair_same(mode: str) -> Scenario:
    sym_02, anti_02 = states.sym_antisym_projectors((0, 2), 4)
    sym_13, anti_13 = states.sym_antisym_projectors((1, 3), 4)
    if mode == "unambiguous":
        sid = "pair-same-unambiguous"
        povm = with_fail({"identify-1": sym_02 @ anti_13, "identify-2": anti_02 @ sym_13})
    else:
        sid, povm = "pair-same-minerror", Povm({"guess-1": sym_02, "guess-2": anti_02})
    return Scenario(
        id=sid, state=states.double_singlet(), pattern1="UVVV", pattern2="UVUU", povm=povm
    )


def _build_order_two_u() -> Scenario:
    sym_02, anti_02 = states.sym_antisym_projectors((0, 2), 4)
    sym_13, anti_13 = states.sym_antisym_projectors((1, 3), 4)
    # Moving the tested wires to the front maps this task onto the
    # same-or-different test; see equivalence_witness_order_refs.
    return Scenario(
        id="order-two-u-refs",
        state=states.double_singlet(),
        pattern1="UUUV",
        pattern2="UUVU",
        povm=with_fail({"identify-1": anti_02 @ sym_13, "identify-2": sym_02 @ anti_13}),
    )


def _build_order_uv() -> Scenario:
    sym_12, anti_12 = states.sym_antisym_projectors((1, 2), 4)
    sym_03, anti_03 = states.sym_antisym_projectors((0, 3), 4)
    qhat = _mixed_order_overlap_vector()
    # The aligned hypothesis reproduces the input exactly, and that support
    # sits inside the crossed hypothesis's support: only the crossed one can
    # ever be identified. Its identification element is the crossed doubly
    # symmetric sector minus the one direction shared with the input, plus
    # the two mixed sectors.
    e2 = (
        sym_12 @ sym_03
        - np.outer(qhat, qhat.conj())
        + sym_12 @ anti_03
        + anti_12 @ sym_03
    )
    return Scenario(
        id="order-uv-refs",
        state=states.double_singlet(),
        pattern1="UVUV",
        pattern2="UVVU",
        povm=with_fail({"identify-2": e2}),
    )


_BUILDERS = {
    "one-ref-unambiguous": lambda: _build_one_ref("unambiguous"),
    "one-ref-minerror": lambda: _build_one_ref("min_error"),
    "two-ref-singlet": _build_two_ref_singlet,
    "two-ref-symmetric": _build_two_ref_symmetric,
    "two-ref-minerror-3q": _build_two_ref_minerror_3q,
    "two-ref-4q-pairwise": _build_4q_pairwise,
    "two-ref-4q-subspace": _build_4q_subspace,
    "pair-same-unambiguous": lambda: _build_pair_same("unambiguous"),
    "pair-same-minerror": lambda: _build_pair_same("min_error"),
    "order-two-u-refs": _build_order_two_u,
    "order-uv-refs": _build_order_uv,
}

SCENARIO_IDS = tuple(sorted(_BUILDERS))


@functools.cache
def build_scenario(scenario_id: str) -> Scenario:
    """One of the named scenarios, built on the first call and shared after."""
    try:
        builder = _BUILDERS[scenario_id]
    except KeyError:
        raise ValueError(
            f"unknown scenario {scenario_id!r}; known ids: {', '.join(SCENARIO_IDS)}"
        ) from None
    return builder()


def _hypothesis_key(state: np.ndarray, pattern: BoxPattern) -> tuple:
    """Key of one hypothesis: hypotheses with equal keys average alike.

    run_scenarios averages, and _mc_figures simulates, each key of a batch
    once.
    """
    return state.tobytes(), str(pattern)


def _mc_figures(batch, samples: int, seed) -> list:
    """Per-sample Monte Carlo estimates of each scenario's analytic figure.

    Draws one (box U, box V) pair per sample, runs the actual circuit for
    both hypotheses with the same boxes and scores the measurement on the
    resulting pure states: the equal-prior success probability in
    unambiguous mode, the equal-prior wrong-guess probability otherwise (see
    Povm.scored). Each hypothesis's scored elements are summed into one
    operator, so a sample costs one quadratic form per scored hypothesis,
    and a hypothesis nothing scores is not simulated.

    Each chunk draws both boxes once, U's block first in the stream, and is
    scored for every scenario of the batch before the next chunk is drawn.
    Within a chunk, each distinct (state, pattern) of the batch is simulated
    once (14 for the 19 scored hypotheses of the shipped scenarios) into a
    (d, m) array o with the samples last, and every hypothesis that uses it
    is scored there: y = E o is one matrix product, and the per-sample value
    Re(o^H E o) = sum_k (Re o_k Re y_k + Im o_k Im y_k) is one column sum
    over the real and imaginary parts, with no conjugate. Every scenario reads
    the same stream, so its figure is the same in any batch as on its own.
    A scenario without box V reads the U block as if it drew U alone, while
    one without box U reads the V block that follows it. Per scenario, the
    chunks add up the values and their moments about its first sample's
    value, so a constant figure has stderr 0. samples is at least 2, as
    run_scenarios checks. Returns one (mean, stderr) per scenario, in batch
    order.
    """
    plan = {}
    for i, scenario in enumerate(batch):
        patterns = (scenario.pattern1, scenario.pattern2)
        for pattern, scored in zip(patterns, scenario.povm.scored):
            if scored:
                op = 0.5 * sum(scenario.povm.elements[l] for l in scored)
                key = _hypothesis_key(scenario.state, pattern)
                plan.setdefault(key, (scenario.state, pattern, []))[2].append((i, op))
    total, dev, dev_sq = np.zeros((3, len(batch)))
    shift = None
    for m, gates in haar.draw_boxes(samples, seed, "UV"):
        values = np.zeros((len(batch), m))
        for psi, pattern, consumers in plan.values():
            out = haar.apply_boxes(psi, pattern, gates, m)
            # A scenario scores at most two hypotheses, and 0 + a + b has
            # the same bits as 0 + b + a, so the order in which its keys
            # come up does not change its values.
            for i, op in consumers:
                terms = np.einsum("ij,ij->j", (op @ out).view(float), out.view(float))
                values[i] += terms[0::2] + terms[1::2]
        if shift is None:
            shift = values[:, :1].copy()
        total += values.sum(axis=1)
        values -= shift
        dev += values.sum(axis=1)
        dev_sq += np.square(values, out=values).sum(axis=1)
    return [
        (t / samples, float(np.sqrt(max(s / samples - (d / samples) ** 2, 0.0) / samples)))
        for t, d, s in zip(total.tolist(), dev.tolist(), dev_sq.tolist())
    ]


def run_scenarios(
    batch,
    method: str = "design",
    mc_samples: int = 0,
    seed: int = 0,
    *,
    nodes: int = haar.MIN_NODES,
) -> list:
    """Average, score, and compare each scenario against its reference value.

    method selects the deterministic engine for the analytic figure,
    "design" or "quadrature". mc_samples 0 skips the sampled cross-check,
    and mc_samples >= 2 adds it under either engine (one sample has no
    error bar), one _mc_figures call for the whole batch, so the batch
    shares one draw per chunk. Both hypotheses carry prior 1/2. The
    mode picks the figure and its own gate: cross_talk at most
    CROSS_TALK_TOL in unambiguous mode, the POVM's error equal to the
    Helstrom bound within PASS_TOL in minimum-error mode. passed is one
    conjunction: a valid POVM (settled when the scenario was built), the
    analytic figure within PASS_TOL of the reference, the mode's gate and,
    when sampled, the Monte Carlo estimate within MC_SIGMA standard errors
    of the analytic figure. The gates read PASS_TOL, CROSS_TALK_TOL and
    MC_SIGMA at call time. Each distinct (state, pattern) of the batch is
    averaged once and scored for every scenario that uses it: 16 averages
    for the 22 hypotheses of the shipped scenarios, whose unambiguous and
    minimum-error variants share their state and both patterns. A figure
    is the same in any batch as on its own. Returns one ScenarioResult per
    scenario, in batch order.
    """
    if method not in ("design", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    if mc_samples < 0 or mc_samples == 1:
        raise ValueError(
            f"mc_samples must be 0 or at least 2, got {mc_samples}: one sample has no error bar"
        )
    batch = tuple(batch)
    if mc_samples > 0:
        figures = _mc_figures(batch, mc_samples, seed)
    else:
        figures = [(None, None)] * len(batch)
    averages = {}
    for scenario in batch:
        for pattern in (scenario.pattern1, scenario.pattern2):
            key = _hypothesis_key(scenario.state, pattern)
            if key not in averages:
                average = haar.average_pattern(scenario.state, pattern, method, nodes=nodes)
                averages[key] = average.rho
    results = []
    for scenario, (mc_estimate, mc_stderr) in zip(batch, figures):
        rhos = [
            averages[_hypothesis_key(scenario.state, pattern)]
            for pattern in (scenario.pattern1, scenario.pattern2)
        ]
        if scenario.mode == "unambiguous":
            ev = unambiguous_eval(scenario.povm, rhos)
            analytic = ev.p_success
            cross_talk = ev.cross_talk
            metadata = {
                "failure_prob": ev.failure_prob,
                "per_state_success": list(ev.per_state_success),
            }
            mode_gate = cross_talk <= CROSS_TALK_TOL
        else:
            analytic = helstrom(*rhos).p_error
            cross_talk = None
            probs = [outcome_probs(scenario.povm, rho) for rho in rhos]
            _, povm_error = scored_figure(probs, scenario.povm.scored)
            metadata = {"povm_error": povm_error}
            mode_gate = abs(povm_error - analytic) <= PASS_TOL
        passed = (
            scenario.povm_report.valid
            and abs(analytic - scenario.paper_value) <= PASS_TOL
            and mode_gate
            and (mc_estimate is None or abs(mc_estimate - analytic) <= MC_SIGMA * mc_stderr)
        )
        results.append(
            ScenarioResult(
                scenario=scenario,
                analytic=float(analytic),
                mc_estimate=mc_estimate,
                mc_stderr=mc_stderr,
                cross_talk=cross_talk,
                passed=bool(passed),
                metadata=metadata,
            )
        )
    return results


def run_scenario(
    scenario: Scenario,
    method: str = "design",
    mc_samples: int = 0,
    seed: int = 0,
    *,
    nodes: int = haar.MIN_NODES,
) -> ScenarioResult:
    """run_scenarios on a batch of one scenario; see there."""
    return run_scenarios((scenario,), method, mc_samples, seed, nodes=nodes)[0]


@dataclass(frozen=True)
class WitnessReport:
    """Entrywise check that the order task reduces to the same/different task."""

    deviations: tuple
    max_deviation: float
    tolerance: float
    passed: bool


def equivalence_witness_order_refs() -> WitnessReport:
    """Verify that order-two-u-refs reduces to pair-same-unambiguous.

    Moving the tested wires to the front of the register (the permutation
    (2, 3, 0, 1)) maps hypothesis one of the order task onto the aligned
    same/different hypothesis, and after additionally swapping the box names
    it maps hypothesis two onto the other one. The check compares the
    averaged states entrywise.
    """
    perm = (2, 3, 0, 1)
    source = build_scenario("order-two-u-refs")
    target = build_scenario("pair-same-unambiguous")
    s1 = haar.average_pattern(source.state, source.pattern1).rho
    s2 = haar.average_pattern(source.state, source.pattern2).rho
    t1 = haar.average_pattern(target.state, target.pattern1).rho
    t2 = haar.average_pattern(target.state, target.pattern2).rho
    # Hypothesis one reorders to the target's hypothesis two without touching
    # labels; hypothesis two needs the box swap, which leaves any box average
    # unchanged, so it lands on the target's hypothesis one.
    dev1 = float(np.max(np.abs(linalg.permute_qubits(s1, perm) - t2)))
    dev2 = float(np.max(np.abs(linalg.permute_qubits(s2, perm) - t1)))
    worst = max(dev1, dev2)
    return WitnessReport(
        deviations=(dev1, dev2),
        max_deviation=worst,
        tolerance=WITNESS_TOL,
        passed=worst <= WITNESS_TOL,
    )


def symmetric_variant_success() -> ScenarioResult:
    """One-reference test fed the symmetric pair |00> instead of the singlet.

    A same-box pair now stays in the symmetric sector, so the conclusive
    outcome is the antisymmetric one; it fires on a quarter of the
    different-box average, cutting the success probability to 1/8.
    """
    p_sym, p_anti = states.sym_antisym_projectors((0, 1), 2)
    variant = replace(
        build_scenario("one-ref-unambiguous"),
        id="one-ref-symmetric-variant",
        state=states.ket("00"),
        povm=Povm({"identify-2": p_anti, "fail": p_sym}),
    )
    return run_scenario(variant)


def two_ref_singlet_with_ancilla(b_state) -> ScenarioResult:
    """Run the two-reference singlet test with a custom ancilla state.

    The variant is built afresh on every call and never enters the cache.
    """
    base = build_scenario("two-ref-singlet")
    return run_scenario(replace(base, state=_singlet_with_ancilla(b_state)))


def random_pairwise_baseline() -> ScenarioResult:
    """Success of flipping a coin between the two pairwise singlet tests.

    On the symmetric three-wire input each pairwise test succeeds with
    probability 1/4 against the hypothesis it can rule out and is chosen half
    the time, so the strategy the joint measurement has to beat scores 1/8.
    The coin flip is the two-reference symmetric POVM at weight 1/2.
    """
    _, anti_02 = states.sym_antisym_projectors((0, 2), 3)
    _, anti_12 = states.sym_antisym_projectors((1, 2), 3)
    variant = replace(
        build_scenario("two-ref-symmetric"),
        id="random-pairwise-baseline",
        povm=with_fail({"identify-1": 0.5 * anti_12, "identify-2": 0.5 * anti_02}),
    )
    return run_scenario(variant)


@dataclass(frozen=True)
class WeightScanRow:
    """One grid point of singlet_weight_scan."""

    singlet_weight: float
    trace_norm: float
    closed_form: float
    p_error: float


def singlet_weight_scan(grid) -> list:
    """Sweep the singlet fraction of a two-wire test state against noise.

    For each weight w in the grid, builds sqrt(w)|psi-> + sqrt(1-w)|psi+>,
    averages it under the same box on both wires (exact engine), and compares
    the trace norm of the difference from the maximally mixed state against
    the closed form 2|1/4 - w|. Also reports the minimum error probability,
    which is smallest at w = 1: the singlet is the best choice of test state
    in this family.
    """
    rows = []
    eye4 = np.eye(4, dtype=complex) / 4.0
    for w in grid:
        w = float(w)
        if not 0.0 <= w <= 1.0:
            raise ValueError(f"singlet weight {w} outside [0, 1]")
        psi = np.sqrt(w) * states.bell("psi-") + np.sqrt(1.0 - w) * states.bell("psi+")
        rho1 = haar.average_pattern(psi, "UU").rho
        # helstrom diagonalizes (rho1 - eye4) / 2: half the trace norm.
        h = helstrom(rho1, eye4)
        trace_norm = 2.0 * float(np.sum(np.abs(h.eigenvalues)))
        rows.append(WeightScanRow(w, trace_norm, 2.0 * abs(0.25 - w), h.p_error))
    return rows
