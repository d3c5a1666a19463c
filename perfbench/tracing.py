"""In-memory span tracer that wraps the package's public functions.

Spans are recorded from the benchmark's side only: the program carries no
instrumentation. Each wrapper is installed at the binding its caller looks
up at call time (``scenarios.helstrom`` as well as
``discrimination.helstrom``, because ``scenarios`` imports the
discrimination functions by name) and is removed after every traced pass,
so untraced passes run the program untouched. The renderer table in ``cli``
holds its own references, so ``cli.render`` is timed by calling
``cli.render_json`` directly on the records the pass produced.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

_DISCRIMINATION = ("helstrom", "unambiguous_eval", "outcome_probs", "unambiguous_subspace_povm")


def _method(args, kwargs):
    return args[2] if len(args) > 2 else kwargs.get("method", "design")


def _mc_samples(args, kwargs):
    return args[2] if len(args) > 2 else kwargs.get("mc_samples", 0)


class Tracer:
    """Spans as [name, parent index, pass id, start, end, value] lists.

    ``value`` is a count the span carries (terms, samples) or, for
    ``cli.execute``, the largest |analytic - reference| among its records.
    """

    def __init__(self, pkg):
        self.pkg = pkg
        self.spans = []
        self.pass_id = None
        self._stack = []
        self._saved = []
        self.executed = []  # records returned by cli.execute in the current pass

    def _targets(self):
        p = self.pkg

        def ref_dev(args, kwargs, result):
            records, _ = result
            self.executed.append(records)
            return max(
                (abs(r["analytic"] - r["paper_value"]) for r in records), default=0.0
            )

        targets = [
            (p.cli, "execute", "cli.execute", None, ref_dev),
            (p.scenarios, "build_scenario", "scenarios.build_scenario", None, None),
            (p.scenarios, "run_scenario", "scenarios.run_scenario", None,
             lambda a, k, r: _mc_samples(a, k)),
            (p.haar, "average_pattern", "haar.average_pattern", _method,
             lambda a, k, r: r.samples),
            (p.haar, "twirl_operator", "haar.twirl_operator", _method, lambda a, k, r: r[1]),
            (p.haar, "clifford_group", "haar.clifford_group", None, None),
            (p.linalg, "range_basis", "linalg.range_basis", None, None),
            (p.linalg, "permute_qubits", "linalg.permute_qubits", None, None),
            (p.states, "check_density", "states.check_density", None, None),
        ]
        for fn in _DISCRIMINATION:
            for owner in (p.discrimination, p.scenarios):
                targets.append((owner, fn, f"discrimination.{fn}", None, None))
        return targets

    def _wrap(self, fn, name, key, value):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            label = name if key is None else f"{name}.{key(args, kwargs)}"
            span = [label, stack[-1] if stack else -1, self.pass_id, time.perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if value is not None:
                span[5] = value(args, kwargs, result)
            return result

        return wrapper

    def install(self, pass_id: int):
        self.pass_id = pass_id
        self.executed = []
        for owner, attr, name, key, value in self._targets():
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, key, value))

    def uninstall(self):
        """Restore the original bindings, then time rendering of the pass's records."""
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []
        for records in self.executed:
            start = time.perf_counter()
            self.pkg.cli.render_json(records)
            self.spans.append(["cli.render", -1, self.pass_id, start, time.perf_counter(), None])
        self.executed = []

    def aggregate(self, pass_ids) -> dict:
        """Per-pass busy time, self time, call count and value sum per span name.

        Self time is a span's duration minus that of its direct children;
        spans run on one thread, so children never overlap.
        """
        wanted = set(pass_ids)
        child_time = defaultdict(float)
        for name, parent, pid, start, end, _ in self.spans:
            if parent >= 0 and pid in wanted:
                child_time[parent] += end - start
        stats = defaultdict(lambda: {"busy_s": 0.0, "self_s": 0.0, "calls": 0.0, "value": 0.0,
                                     "value_max": 0.0})
        for i, (name, parent, pid, start, end, value) in enumerate(self.spans):
            if pid not in wanted:
                continue
            s = stats[name]
            s["busy_s"] += end - start
            s["self_s"] += end - start - child_time[i]
            s["calls"] += 1
            if value is not None:
                s["value"] += value
                s["value_max"] = max(s["value_max"], value)
        n = max(len(wanted), 1)
        for s in stats.values():
            for field in ("busy_s", "self_s", "calls", "value"):
                s[field] /= n
        return stats

    def write(self, path):
        """Write every span as one JSON line; called once, when the run ends."""
        with open(path, "w") as fh:
            for name, parent, pid, start, end, value in self.spans:
                fh.write(json.dumps({"name": name, "parent": parent, "pass": pid,
                                     "start": start, "end": end, "value": value}) + "\n")
