"""Set-up probe: one fresh interpreter, timed from just before ``import boxdisc``
to the end of the workload's first pass.

The speed kernel (see speed.py) is interleaved with the pass and its time
taken out, so the set-up time can be scaled to the reference speed. run.py
starts the probe with a JSON spec on stdin ({"workload", "seed",
"reference"}) and reads one JSON line back. The pass is checked here,
against the run's reference output when one is given.
"""

import json
import os
import sys
import time
from pathlib import Path

import speed
import workloads

os.environ.update(workloads.THREAD_PINS)

#: Fewest speed-kernel samples behind a probe's scale factor.
MIN_SAMPLES = 5


def main() -> int:
    spec = json.load(sys.stdin)
    root = Path(__file__).resolve().parent.parent
    t0 = time.perf_counter()
    pkg = workloads.load_package(root)
    wl = workloads.make(spec["workload"], pkg)
    t_kernel = time.perf_counter()
    clock = speed.SpeedProbe()
    built = time.perf_counter() - t_kernel
    with speed.Interleaved(clock, pkg.haar, "average_pattern", t0) as interleaved:
        pass_s, output = wl.run_pass(spec["seed"])
    setup_s = time.perf_counter() - t0 - built - interleaved.excluded
    while len(clock.samples) < MIN_SAMPLES:
        clock.sample()
    print(json.dumps({
        "setup_s": setup_s,
        "speed_factor": clock.factor(),
        "ops": wl.check(output, spec["reference"]),
        "reference": wl.reference(output),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
