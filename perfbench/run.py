"""boxdisc benchmark: one workload, one run, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-design --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --quick

Load shape: a closed loop in one process; a pass starts only after the
previous one finished. BLAS and OpenMP pools are pinned to one thread before
numpy loads. Per-pass seeds come from ``np.random.SeedSequence(seed)``.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json:
set-up time (median over fresh interpreters, each timed from just before
``import boxdisc`` to the end of the first pass), the median and tail of
warm pass times, the share of operations that passed every check, and peak
resident memory. Times are scaled to a reference machine speed measured
alongside the program (see speed.py). ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics from the traced ones, plus the tracing
overhead. ``--quick`` is the harness's own smoke test: every workload on a
two-scenario subset, one pass each way, all metrics printed.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
``failed`` counts every operation that failed any check, including FAIL
verdicts the program reports itself; ``correct`` is false only when a check
finds a failure the program did not report. The full record (environment,
seeds, pass times, failures) goes to .perfbench_out/.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import workloads

os.environ.update(workloads.THREAD_PINS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
PROBE_TIMEOUT_S = 150
MIN_SPEED_SAMPLES = 5


class ProbeFailed(Exception):
    """A set-up probe exited abnormally or printed no result."""


class Tally:
    """Operation outcomes, counted as they arrive.

    Keeping counts rather than every outcome keeps the harness's own heap
    small, so garbage collection inside timed passes stays the program's.
    """

    def __init__(self):
        self.attempted = 0
        self.silent = 0
        self.failures = Counter()

    def add(self, ops):
        for label, reasons in ops:
            self.attempted += 1
            if reasons:
                self.failures[f"{label} [{' '.join(reasons)}]"] += 1
                self.silent += workloads.is_silent(reasons)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


class PassSeeds:
    """Per-pass seeds spawned from the workload seed, recorded as drawn."""

    def __init__(self, seed: int):
        import numpy as np

        self._np = np
        self._seq = np.random.SeedSequence(seed)
        self.used = []

    def next(self) -> int:
        child = self._seq.spawn(1)[0]
        value = int(child.generate_state(1, self._np.uint64)[0])
        self.used.append(value)
        return value


def probe(name: str, seed: int, reference) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "cold.py")],
        input=json.dumps({"workload": name, "seed": seed, "reference": reference}),
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ProbeFailed(f"set-up probe exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail(times) -> tuple:
    """Highest nearest-rank percentile with at least ten passes beyond it.

    With ten passes or fewer no such percentile exists; the maximum is
    returned and the percentile reads 100.
    """
    xs = sorted(times)
    n = len(xs)
    if n > 10:
        rank = n - 10
        return xs[rank - 1], 100.0 * rank / n
    return xs[-1], 100.0


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "boxdisc").glob("*")):
        if path.suffix in (".py", ".json"):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    """Commit of the checkout if it is a git work tree, read without running git."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = git / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_version = "unknown"
    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_pins": {k: os.environ.get(k) for k in workloads.THREAD_PINS},
        "machine": platform.machine(),
    }


def layer_metrics(tracer, traced_ids, untraced_s, traced_s, names) -> tuple:
    """Per-pass layer numbers from the traced passes, for the metric names given.

    A name ``<span>.<busy_s|self_s|calls>`` reads that span's aggregate; the
    others are derived below. Returns the values and the spans with the most
    self time.
    """
    stats = tracer.aggregate(traced_ids)
    cold = tracer.aggregate([0])

    def get(span, field="busy_s", source=stats):
        return source[span][field] if span in source else 0.0

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    mc_samples = get("scenarios.run_scenario", "value")
    twirl_samples = get("haar.twirl_operator.monte_carlo", "value")
    derived = {
        "scenarios.mc.samples": mc_samples,
        "scenarios.mc.samples_per_s": rate(mc_samples, get("scenarios.run_scenario", "self_s")),
        "scenarios.ref_dev.max": get("cli.execute", "value_max"),
        "haar.average_pattern.quadrature.terms": get("haar.average_pattern.quadrature", "value"),
        "haar.mc.samples_per_s": rate(twirl_samples, get("haar.twirl_operator.monte_carlo")),
        "haar.clifford_group.cold_s": get("haar.clifford_group", source=cold),
        "trace.overhead_s": statistics.median(traced_s) - statistics.median(untraced_s),
    }
    values = {}
    for name in names:
        if name in derived:
            values[name] = derived[name]
        else:
            span, _, field = name.rpartition(".")
            if field not in ("busy_s", "self_s", "calls"):
                raise KeyError(f"no rule for per-layer metric {name!r}")
            values[name] = get(span, field)
    top = sorted(stats.items(), key=lambda kv: -kv[1]["self_s"])[:6]
    return values, {name: round(s["self_s"], 6) for name, s in top}


def measure(name: str, seed: int, seconds: float, layer_names=(), quick: bool = False, pkg=None):
    """One run of one workload; returns (metric values, record, tracer).

    The run is traced when per-layer metric names are given.
    """
    trace = bool(layer_names)
    p = workloads.params(name, quick)
    seeds = PassSeeds(seed)
    first_seed = seeds.next()
    ops = Tally()
    setup_raw, setup = [], []
    reference = None
    if not (trace or quick):
        for _ in range(p["setup_runs"]):
            res = probe(name, first_seed, reference)
            setup_raw.append(res["setup_s"])
            setup.append(res["setup_s"] * res["speed_factor"])
            ops.add(res["ops"])
            if reference is None:
                reference = res["reference"]
    probes = len(setup)
    if pkg is None:
        pkg = workloads.load_package(ROOT)
    wl = workloads.make(name, pkg, quick)
    tracer = tracing.Tracer(pkg) if trace else None
    clock = speed.SpeedProbe()

    # The run's first in-process pass fills caches and is not timed as warm;
    # traced, it gives the cold cost of lazily built state.
    if tracer:
        tracer.install(0)
    t0 = time.perf_counter()
    _, output = wl.run_pass(first_seed)
    if quick:
        setup_raw.append(time.perf_counter() - t0)
    if tracer:
        tracer.uninstall()
    ops.add(wl.check(output, reference))
    if reference is None:
        reference = wl.reference(output)

    untraced, traced_s, traced_ids = [], [], []  # untraced: (seconds, start, end)
    k = 0
    start = time.perf_counter()
    t_end = start + seconds

    # Untraced runs interleave the speed kernel with the program (see
    # speed.py); traced runs leave it out, so that their untraced passes are
    # the plain program the tracing overhead is measured against.
    interleaved = None if trace else speed.Interleaved(clock, pkg.haar, "average_pattern", start)
    while time.perf_counter() < t_end or not untraced or (trace and not traced_s):
        k += 1
        traced = trace and k % 2 == 0
        pass_seed = seeds.next()
        if traced:
            tracer.install(k)
            pass_s, output = wl.run_pass(pass_seed)
            tracer.uninstall()
            traced_s.append(pass_s)
            traced_ids.append(k)
        elif interleaved:
            t_pass = time.perf_counter()
            with interleaved:
                pass_s, output = wl.run_pass(pass_seed)
            untraced.append((pass_s - interleaved.excluded, t_pass, time.perf_counter()))
            clock.keep_duty(time.perf_counter() - start)
        else:
            t_pass = time.perf_counter()
            pass_s, output = wl.run_pass(pass_seed)
            untraced.append((pass_s, t_pass, time.perf_counter()))
        ops.add(wl.check(output, reference))
    while len(clock.samples) < MIN_SPEED_SAMPLES:
        clock.sample()
    factor = clock.factor()
    if quick:
        setup = [x * factor for x in setup_raw]
    untraced_s = [x for x, _, _ in untraced]
    scaled_s = [x * clock.factor(t0, t1) for x, t0, t1 in untraced]

    attempted, failed = ops.attempted, ops.failed
    tail_s, tail_pct = tail(scaled_s)
    values = {
        "pass_s.p50": statistics.median(scaled_s),
        "pass_s.tail": tail_s,
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if setup:
        values["setup_s"] = statistics.median(setup)
    raw = {
        "pass_s.p50": statistics.median(untraced_s),
        "pass_s.tail": tail(untraced_s)[0],
        "setup_s": statistics.median(setup_raw) if setup_raw else None,
        "speed_kernel_mean_s": speed.REFERENCE_S / factor,
    }
    top = None
    if trace:
        layers, top = layer_metrics(tracer, traced_ids, untraced_s, traced_s, layer_names)
        values.update(layers)
    alarms = wl.false_alarm()
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "quick": quick,
        "why": p["why"],
        "params": {key: v for key, v in p.items() if key not in ("why", "kind")},
        "load": "closed loop, one client, one process; next pass starts when the last ends",
        "environment": environment(),
        "seed_scheme": (
            "np.random.SeedSequence(seed).spawn(1) per pass; the first seed serves "
            "every set-up probe and the warm-up pass"
        ),
        "pass_seeds": seeds.used if wl.uses_seed else [],
        "setup_s_samples": setup,
        "setup_s_raw_samples": setup_raw,
        "speed": {
            "reference_s": speed.REFERENCE_S,
            "duty": speed.DUTY,
            "samples": len(clock.samples),
            "factor": factor,
            "note": (
                "each pass is scaled by the kernel samples around it, each set-up by "
                "those of its probe; factor is the run-wide one; raw holds unscaled times"
            ),
        },
        "raw": raw,
        "untraced_pass_s": untraced_s,
        "untraced_pass_scaled_s": scaled_s,
        "untraced_pass_windows": [[t0, t1] for _, t0, t1 in untraced],
        "speed_samples": clock.samples,
        "traced_pass_s": traced_s,
        "tail": {"percentile": tail_pct, "passes": len(untraced_s)},
        "ops": {
            "attempted": attempted,
            "failed": failed,
            "silent": ops.silent,
            "fail_frac": failed / attempted,
            "failures": dict(ops.failures),
        },
        "mc_false_alarm": {
            **alarms,
            "expected_in_run": alarms["expected_per_pass"] * (k + 1 + probes),
        },
        "top_self_s": top,
    }
    return values, record, tracer


def summary_lines(record, metrics, values) -> list:
    ops = record["ops"]
    lines = [
        f"{record['workload']} seed={record['seed']} untraced passes={len(record['untraced_pass_s'])}"
        f" traced passes={len(record['traced_pass_s'])}"
    ]
    notes = {
        "setup_s": f"median of {len(record['setup_s_samples'])} set-up(s)",
        "pass_s.tail": (
            f"p{record['tail']['percentile']:.1f} of {record['tail']['passes']} passes"
            + (" (maximum: too few passes for ten beyond)" if record["tail"]["percentile"] == 100.0 else "")
        ),
        "ok_frac": (
            f"fail_frac {ops['failed']}/{ops['attempted']} = {ops['fail_frac']:.4g}; "
            f"expected MC false alarms in run {record['mc_false_alarm']['expected_in_run']:.2g}"
        ),
    }
    for m in metrics:
        lines.append(
            f"  {m['name']:<44} {values[m['name']]:>14.6g} {m['unit']:<6} {notes.get(m['name'], '')}"
        )
    if record["top_self_s"]:
        lines.append("  top self time per traced pass: " + ", ".join(
            f"{k} {v:.4g}s" for k, v in record["top_self_s"].items()))
    for failure, count in sorted(ops["failures"].items()):
        lines.append(f"  failed {count} x {failure}")
    return lines


def quick_mode(spec: dict) -> int:
    t0 = time.perf_counter()
    pkg = workloads.load_package(ROOT)
    import_s = time.perf_counter() - t0
    print(f"quick smoke run; import boxdisc {import_s:.3f} s; set-up is the in-process first pass")
    metrics = spec["end_to_end"] + spec["per_layer"]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        values, record, _ = measure(
            name, 0, 0.0, [m["name"] for m in spec["per_layer"]], quick=True, pkg=pkg
        )
        for line in summary_lines(record, metrics, values):
            print(line)
        result["correct"] &= record["ops"]["silent"] == 0
        result["attempted"] += record["ops"]["attempted"]
        result["failed"] += record["ops"]["failed"]
        for m in metrics:
            result["metrics"][f"{name}/{m['name']}"] = {"value": values[m["name"]], "unit": m["unit"]}
    print(f"quick smoke run took {time.perf_counter() - t0:.3f} s")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="smoke-test every workload in about a second")
    args = parser.parse_args(argv)
    if not args.quick and args.workload is None:
        parser.error("--workload is required unless --quick is given")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        workloads.src_dir(ROOT)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (workloads.PackageMissing, OSError, ValueError) as exc:
        print(f"perfbench: cannot run here: {exc}", file=sys.stderr)
        return 2
    if args.quick:
        return quick_mode(spec)

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    layer_names = [m["name"] for m in metrics] if args.trace else ()
    values, record, tracer = measure(args.workload, args.seed, args.seconds, layer_names)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record["metrics"] = {m["name"]: values[m["name"]] for m in metrics}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer:
        tracer.write(OUT_DIR / f"{stem}-spans.jsonl")
    for line in summary_lines(record, metrics, values):
        print(line)
    print(json.dumps({
        "correct": record["ops"]["silent"] == 0,
        "attempted": record["ops"]["attempted"],
        "failed": record["ops"]["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
