"""The four boxdisc benchmark workloads and the checks on their outputs.

Each workload drives the package from the outside, through
``boxdisc.cli.main`` or the public ``haar`` functions. ``run_pass`` runs one
pass and times only the calls into the program; ``check`` then turns the
pass's output into one (label, failure reasons) pair per operation. An
operation is one scenario verdict, or one twirl check.

Nothing here imports numpy or boxdisc at module level: the set-up probe
times those imports, and the thread pins must be in the environment before
numpy loads.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
import types
from pathlib import Path
from statistics import NormalDist

#: BLAS and OpenMP pools pinned to one thread, so the numbers measure the
#: program rather than the scheduler. Set before numpy is imported.
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Scenario subset used by the quick smoke mode. order-uv-refs keeps the
#: known ``--nodes 8`` failure visible there too.
QUICK_SCENARIOS = ("one-ref-unambiguous", "order-uv-refs")

#: Per-check false-alarm rate of the benchmark's own Monte Carlo miss bound
#: in twirl-montecarlo, after the Bonferroni split over compared entries.
MC_MISS_ALPHA = 1e-6

#: Absolute slack for entries whose sampled variance is zero up to rounding.
MC_MISS_SLACK = 1e-12

#: Failure reasons that the program itself reports (a FAIL verdict and the
#: deviation behind it). Any other reason is a silent failure: the program
#: crashed, printed something malformed, changed its bytes between passes,
#: or claimed a pass the benchmark's own check rejects.
FLAGGED_REASONS = frozenset({"verdict", "ref_dev"})

WORKLOADS = {
    "verify-design": {
        "kind": "cli",
        "method": "design",
        "setup_runs": 5,
        "why": (
            "Each pass runs `--all --method design --format json` (about 27 ms): "
            "small dense algebra in the 24-term Clifford sums, scenario "
            "construction including the subspace-POVM bisection, and Helstrom. "
            "The quadrature and Monte Carlo kernels do no work here, so it is "
            "the bypass workload for both engines and the one where changes "
            "to discrimination and scenarios show."
        ),
    },
    "verify-quadrature": {
        "kind": "cli",
        "method": "quadrature",
        "nodes": (8, 16, 24),
        "setup_runs": 3,
        "why": (
            "Each pass runs `--all --method quadrature` at --nodes 8, 16 and 24, "
            "almost all of it in haar.average_pattern on the quadrature engine. "
            "The node count sets the working set, from 512 grid points to "
            "13,824 (a 3-copy Kronecker stack of about 14 MB at 24 nodes, past "
            "the L2 cache). --nodes 8 is the smallest value the CLI accepts and "
            "FAILs order-uv-refs at the seed commit; the benchmark shows it."
        ),
    },
    "verify-montecarlo": {
        "kind": "cli",
        "method": "monte_carlo",
        "samples": 5000,
        "setup_runs": 5,
        "why": (
            "Each pass runs `--all --method monte_carlo --samples N --seed s` "
            "with a fresh s per pass. The per-sample circuit simulation reached "
            "through scenarios.run_scenario takes nearly all of the pass; the "
            "analytic side reuses the design engine. This is where a faster "
            "Monte Carlo kernel shows for CLI users."
        ),
    },
    "twirl-montecarlo": {
        "kind": "twirl",
        "samples": 128,
        "suite_samples": 2000,
        "setup_runs": 5,
        "why": (
            "Each pass averages every scenario's test state under both of its "
            "patterns with haar.average_pattern(..., 'monte_carlo') and checks "
            "each against the design average, then runs "
            "haar.twirl_identity_suite(('monte_carlo',)). It exercises the "
            "full-register operator sampler, O(m d^4), which no CLI path "
            "reaches, on operators rather than kets."
        ),
    },
}

QUICK_OVERRIDES = {
    "verify-design": {"scenarios": QUICK_SCENARIOS},
    "verify-quadrature": {"scenarios": QUICK_SCENARIOS, "nodes": (8,)},
    "verify-montecarlo": {"scenarios": QUICK_SCENARIOS, "samples": 200},
    "twirl-montecarlo": {"scenarios": QUICK_SCENARIOS, "samples": 16, "suite_samples": 200},
}


class PackageMissing(Exception):
    """The checkout holds no boxdisc sources to benchmark."""


def src_dir(root: Path) -> Path:
    src = root / "src"
    if not (src / "boxdisc" / "__init__.py").is_file():
        raise PackageMissing(f"no boxdisc package under {src}")
    return src


def load_package(root: Path) -> types.SimpleNamespace:
    """Import boxdisc from the checkout's ``src`` and return its modules.

    Refuses an installed copy found elsewhere on the path, so the benchmark
    always measures the sources it was run next to.
    """
    src = src_dir(root)
    sys.path.insert(0, str(src))
    import boxdisc
    from boxdisc import cli, discrimination, haar, linalg, scenarios, states

    if Path(boxdisc.__file__).resolve().parent != (src / "boxdisc").resolve():
        raise PackageMissing(f"imported boxdisc from {boxdisc.__file__}, not {src}")
    return types.SimpleNamespace(
        boxdisc=boxdisc,
        cli=cli,
        discrimination=discrimination,
        haar=haar,
        linalg=linalg,
        scenarios=scenarios,
        states=states,
    )


def params(name: str, quick: bool = False) -> dict:
    """Workload settings, with the smoke-mode overrides applied if asked."""
    p = dict(WORKLOADS[name])
    if quick:
        p.update(QUICK_OVERRIDES[name])
    return p


def make(name: str, pkg, quick: bool = False):
    p = params(name, quick)
    if p["kind"] == "cli":
        return VerifyCli(pkg, p)
    return TwirlMonteCarlo(pkg, p)


def is_silent(reasons) -> bool:
    """True for a failure the program did not report itself."""
    return bool(reasons) and ("verdict" not in reasons or not set(reasons) <= FLAGGED_REASONS)


def mc_gate_false_alarm(sigma: float, components: int = 1) -> float:
    """Union bound on the false-alarm rate of a two-sided sigma gate.

    ``components`` is the number of real Gaussian components the gate's max
    runs over; 1 for a scalar figure.
    """
    return min(1.0, components * 2.0 * (1.0 - NormalDist().cdf(sigma)))


class VerifyCli:
    """``boxdisc --all`` (or a scenario subset) under one engine, in process."""

    def __init__(self, pkg, p: dict):
        self.pkg = pkg
        self.p = p
        self.ids = list(p.get("scenarios") or pkg.scenarios.SCENARIO_IDS)
        # The design and quadrature engines are deterministic, so their
        # output must repeat byte for byte; Monte Carlo output varies with
        # the per-pass seed.
        self.stable_bytes = p["method"] != "monte_carlo"
        self.uses_seed = p["method"] == "monte_carlo"

    def argvs(self, seed: int) -> list:
        select = ["--all"] if "scenarios" not in self.p else [
            arg for sid in self.ids for arg in ("--scenario", sid)
        ]
        base = select + ["--method", self.p["method"], "--format", "json"]
        if self.p["method"] == "quadrature":
            return [base + ["--nodes", str(n)] for n in self.p["nodes"]]
        if self.p["method"] == "monte_carlo":
            return [base + ["--samples", str(self.p["samples"]), "--seed", str(seed)]]
        return [base]

    def run_pass(self, seed: int):
        """Run one pass; returns (seconds inside cli.main, list of calls)."""
        seconds = 0.0
        calls = []
        for argv in self.argvs(seed):
            out, err = io.StringIO(), io.StringIO()
            error = None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = self.pkg.cli.main(argv)
            except Exception:  # counted as failed operations, never retried
                rc, error = None, traceback.format_exc()
            seconds += time.perf_counter() - t0
            calls.append({"argv": argv, "rc": rc, "stdout": out.getvalue(), "error": error})
        return seconds, calls

    @staticmethod
    def reference(calls):
        """What later passes are compared against: each call's stdout."""
        return [c["stdout"] for c in calls]

    def check(self, calls, reference=None) -> list:
        ops = []
        for i, call in enumerate(calls):
            ref = reference[i] if (reference is not None and self.stable_bytes) else None
            ops.extend(self._check_call(call, ref))
        return ops

    def _check_call(self, call, ref_stdout):
        argv = call["argv"]
        label = f"nodes={argv[argv.index('--nodes') + 1]} " if "--nodes" in argv else ""
        if call["error"] is not None:
            return [(label + sid, ("raised",)) for sid in self.ids]
        try:
            records = json.loads(call["stdout"])
            by_id = {rec["scenario"]: rec for rec in records}
        except (ValueError, TypeError, KeyError):
            return [(label + sid, ("json",)) for sid in self.ids]
        complete = sorted(by_id) == sorted(self.ids) and len(records) == len(self.ids)
        expected_rc = 0 if complete and all(rec.get("pass") is True for rec in records) else 1
        lines = call["stdout"].splitlines()
        line_of = dict(zip((rec["scenario"] for rec in records), lines[1:]))
        ref_line_of = None
        if ref_stdout is not None and ref_stdout != call["stdout"]:
            try:
                ref_ids = [rec["scenario"] for rec in json.loads(ref_stdout)]
                ref_line_of = dict(zip(ref_ids, ref_stdout.splitlines()[1:]))
            except (ValueError, TypeError, KeyError):
                ref_line_of = {}
        tol = self.pkg.scenarios.PASS_TOL
        ops = []
        for sid in self.ids:
            rec = by_id.get(sid)
            if rec is None:
                ops.append((label + sid, ("missing",)))
                continue
            reasons = []
            if call["rc"] != expected_rc:
                reasons.append("exit_code")
            if rec.get("pass") is not True:
                reasons.append("verdict")
            try:
                if abs(float(rec["analytic"]) - float(rec["paper_value"])) > tol:
                    reasons.append("ref_dev")
            except (KeyError, TypeError, ValueError):
                reasons.append("json")
            if self.p["method"] == "monte_carlo" and rec.get("mc_estimate") is None:
                reasons.append("mc_missing")
            if ref_line_of is not None and ref_line_of.get(sid) != line_of.get(sid):
                reasons.append("bytes")
            ops.append((label + sid, tuple(reasons)))
        return ops

    def false_alarm(self) -> dict:
        """Expected false alarms per pass of the program's Monte Carlo gate."""
        if self.p["method"] != "monte_carlo":
            return {"expected_per_pass": 0.0, "note": "no Monte Carlo gate on this engine"}
        sigma = self.pkg.scenarios.MC_SIGMA
        per_op = mc_gate_false_alarm(sigma)
        return {
            "expected_per_pass": per_op * len(self.ids),
            "per_op": per_op,
            "note": f"two-sided {sigma:g}-sigma gate on one scalar per scenario, Gaussian limit",
        }


class TwirlMonteCarlo:
    """Monte Carlo averages of every scenario's test state, checked against design."""

    def __init__(self, pkg, p: dict):
        self.pkg = pkg
        self.p = p
        self.ids = list(p.get("scenarios") or pkg.scenarios.SCENARIO_IDS)
        self.cases = None
        self.uses_seed = True

    def _prepare(self):
        """Build the inputs and their design averages; part of the first pass."""
        haar, scenarios = self.pkg.haar, self.pkg.scenarios
        cases = []
        for sid in self.ids:
            sc = scenarios.build_scenario(sid)
            for pattern in (sc.pattern1, sc.pattern2):
                ref = haar.average_pattern(sc.state, pattern, "design").rho
                cases.append((f"{sid} {pattern}", sc.state, pattern, ref))
        self.cases = cases

    def run_pass(self, seed: int):
        haar = self.pkg.haar
        t0 = time.perf_counter()
        if self.cases is None:
            self._prepare()
        averages = []
        for _, state, pattern, _ in self.cases:
            try:
                averages.append(haar.average_pattern(
                    state, pattern, "monte_carlo", samples=self.p["samples"], seed=seed
                ))
            except Exception:  # counted as a failed operation, never retried
                averages.append(traceback.format_exc())
        try:
            suite = haar.twirl_identity_suite(
                ("monte_carlo",), samples=self.p["suite_samples"], seed=seed
            )
        except Exception:  # counted as a failed operation, never retried
            suite = traceback.format_exc()
        return time.perf_counter() - t0, (averages, suite)

    @staticmethod
    def reference(_output):
        return None

    @staticmethod
    def miss_sigma(entries: int) -> float:
        """Bound in standard errors for one average over ``entries`` complex entries.

        stderr_bound is the largest entrywise standard error, which bounds
        the error of every real and imaginary part; the per-check false-alarm
        rate MC_MISS_ALPHA is split over those 2 * entries components.
        """
        return NormalDist().inv_cdf(1.0 - MC_MISS_ALPHA / (2.0 * 2 * entries))

    def check(self, output, reference=None) -> list:
        import numpy as np

        averages, suite = output
        ops = []
        for (label, _, _, ref), avg in zip(self.cases, averages):
            if isinstance(avg, str):
                ops.append((label, ("raised",)))
                continue
            reasons = []
            if avg.method != "monte_carlo" or avg.samples != self.p["samples"]:
                reasons.append("samples")
            diff = np.asarray(avg.rho) - ref
            dev = max(float(np.max(np.abs(diff.real))), float(np.max(np.abs(diff.imag))))
            if dev > self.miss_sigma(ref.size) * avg.stderr_bound + MC_MISS_SLACK:
                reasons.append("mc_miss")
            ops.append((label, tuple(reasons)))
        if isinstance(suite, str):
            ops.append(("identity suite", ("raised",)))
        else:
            for c in suite:
                ops.append((f"identity {c.identity}", () if c.passed else ("verdict",)))
        return ops

    def false_alarm(self) -> dict:
        """Expected false alarms per pass: the program's 4-sigma identity gate, and ours."""
        # The identity suite compares the max over d*d complex entries with
        # 4 times the largest entrywise standard error; d is 2 for its three
        # one-wire identities and 4 for its three two-wire ones.
        per_identity = [mc_gate_false_alarm(4.0, 2 * d * d) for d in (2, 2, 2, 4, 4, 4)]
        return {
            "expected_per_pass": sum(per_identity) + MC_MISS_ALPHA * 2 * len(self.ids),
            "per_identity_upper_bound": per_identity,
            "per_average_check": MC_MISS_ALPHA,
            "note": (
                "identity checks: union bound of the program's 4-sigma gate over "
                "real components; average checks: the benchmark's own Bonferroni bound"
            ),
        }
