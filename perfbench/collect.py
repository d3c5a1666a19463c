"""Run the benchmark over many seeds and summarise each end-to-end metric.

    python3 perfbench/collect.py --seeds 1-10 --sets 2 --trace-seed 1 \
        --out perfbench/trajectory/BENCH_seed.json

Each run is a fresh ``run.py`` process, one after another. For every
workload and metric this prints, per set of seeds, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, i.e. the distance
between the quartiles as a share of the median, next to the metric's bound
from BENCHMARK.json. With two sets it also prints how far the second
median moved from the first, in the worse direction, as a share of the
first. ``--trace-seed`` adds one traced run per workload for the per-layer
numbers.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "passes": len(record["untraced_pass_s"]),
        "traced_passes": len(record["traced_pass_s"]),
        "tail_percentile": record["tail"]["percentile"],
        "fail_frac": record["ops"]["fail_frac"],
        "failures": record["ops"]["failures"],
        "mc_false_alarm": record["mc_false_alarm"],
        "speed_factor": record["speed"]["factor"],
        "raw": record["raw"],
        "environment": record["environment"],
        **({"top_self_s": record["top_self_s"]} if trace else {}),
    }


def summarise(runs: list, metrics: list) -> dict:
    out = {}
    for m in metrics:
        values = [r["metrics"][m["name"]] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[m["name"]] = {
            "unit": m["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"),
            "bound": m["bound"],
            "values": values,
        }
    return out


def worse_share(first: float, second: float, better: str) -> float:
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10", help="first set of seeds, e.g. 1-10")
    parser.add_argument("--sets", type=int, default=1, help="sets of seeds; later sets follow on")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    chosen = args.workloads.split(",")
    first = parse_seeds(args.seeds)
    metrics = spec["end_to_end"]
    report = {"run_seconds": args.seconds, "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "sets": [], "traced": {}}
    for s in range(args.sets):
        seeds = [x + s * len(first) for x in first]
        workloads_out = {}
        for w in chosen:
            runs = []
            for seed in seeds:
                run = run_once(w, seed, args.seconds, 0)
                runs.append(run)
                print(f"set {s + 1} {w} seed {seed}: correct={run['correct']} failed={run['failed']}/"
                      f"{run['attempted']} " + " ".join(f"{k}={v:.6g}" for k, v in run["metrics"].items()),
                      flush=True)
            workloads_out[w] = {"runs": runs, "summary": summarise(runs, metrics)}
        report["sets"].append({"seeds": seeds, "workloads": workloads_out})
    if args.trace_seed is not None:
        for w in chosen:
            run = run_once(w, args.trace_seed, args.seconds, 1)
            report["traced"][w] = run
            print(f"traced {w}: top self time {run['top_self_s']}", flush=True)
    runs = [r for st in report["sets"] for w in st["workloads"].values() for r in w["runs"]]
    runs += list(report["traced"].values())
    report["environment"] = runs[0]["environment"]
    for r in runs:
        del r["environment"]

    print(f"\n{'workload':<18} {'metric':<12} {'unit':<6} {'set':>3} {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'spread':>7} {'bound':>6}")
    for w in chosen:
        for m in metrics:
            for i, st in enumerate(report["sets"]):
                r = st["workloads"][w]["summary"][m["name"]]
                flag = "" if m["name"] == "setup_s" or r["spread"] < r["bound"] / 3 else "  WIDE"
                print(f"{w:<18} {m['name']:<12} {m['unit']:<6} {i + 1:>3} {r['median']:>11.6g} "
                      f"{r['q1']:>11.6g} {r['q3']:>11.6g} {r['spread']:>7.4f} {r['bound']:>6}{flag}")
    if len(report["sets"]) > 1:
        agreement = {}
        for w in chosen:
            for m in metrics:
                a = report["sets"][0]["workloads"][w]["summary"][m["name"]]["median"]
                b = report["sets"][1]["workloads"][w]["summary"][m["name"]]["median"]
                share = worse_share(a, b, m["better"])
                agreement[f"{w} {m['name']}"] = {"worse_by": share, "bound": m["bound"],
                                                 "within": share <= m["bound"]}
        report["agreement"] = agreement
        print("\nsecond set against first (worse-by share of first median):")
        for key, a in agreement.items():
            print(f"  {key:<32} {a['worse_by']:>8.4f}  bound {a['bound']}  {'ok' if a['within'] else 'OUT'}")
    out = Path(args.out) if args.out else OUT_DIR / f"collect-{int(time.time())}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
