"""In-memory span recorder for the traced run.

Each public function is wrapped at the name its caller looks it up under
(`cli.build`, `verify.cauchy_product`, ...), so nothing in the program
changes.  A span is [request, name, parent, start_ns, end_ns, steps, macs];
self time is a span's duration minus the durations of its direct children,
which cover disjoint parts of it because the loop is single-threaded.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

#: (module, attribute) pairs wrapped, by the module that calls them
WRAPPED = (
    ("cli", "build"),
    ("cli", "run"),
    ("cli", "run_combo"),
    ("cli", "emit_json"),
    ("verify", "compare_oracle"),
    ("verify", "build"),
    ("verify", "run"),
    ("verify", "run_combo"),
    ("verify", "elementary_series"),
    ("verify", "hyper_base_series"),
    ("verify", "cauchy_product"),
    ("kernels", "recurrence_steps"),
    ("kernels", "convolve"),
)
RUN_SPANS = ("cli.run", "cli.run_combo", "verify.run", "verify.run_combo")


def _spec_work(spec, N):
    """(steps, multiply-adds) a recurrence spec takes to reach u_N."""
    branches = [getattr(spec, "left", None), getattr(spec, "right", None)]
    steps = macs = 0
    for s in [b for b in branches if b is not None] or [spec]:
        n = max(0, N - getattr(s, "start", N))
        steps += n
        macs += n * (getattr(s, "order", -1) + 1)
    return steps, macs


def _work(name, args):
    if name in RUN_SPANS:
        return _spec_work(*args[:2])
    if name == "kernels.recurrence_steps":
        rows = args[0]
        return len(rows), len(rows) * (len(rows[0]) if len(rows) else 0)
    if name == "kernels.convolve":
        n = len(args[0])
        return 0, n * (n + 1) // 2
    return 0, 0


class Recorder:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.request = -1
        self._restore = []
        self.missing = []
        self.active = True  # wrappers pass straight through while False

    def open(self, name, steps=0, macs=0) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.request, name, parent, time.perf_counter_ns(), 0, steps, macs])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][4] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self.open(name, *_work(name, args))
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap every WRAPPED attribute that exists; note the ones missing."""
        self.missing = []
        for mod_name, attr in WRAPPED:
            mod = modules[mod_name]
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._restore.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(f"{mod_name}.{attr}", fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def totals(self):
        """Per span name: summed duration, self time, steps and macs (ns / counts)."""
        child = defaultdict(int)
        for _, _, parent, t0, t1, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: {"dur": 0, "self": 0, "steps": 0, "macs": 0})
        for i, (_, name, _, t0, t1, steps, macs) in enumerate(self.spans):
            row = out[name]
            row["dur"] += t1 - t0
            row["self"] += t1 - t0 - child[i]
            row["steps"] += steps
            row["macs"] += macs
        return out

    def steps_by_request(self) -> dict:
        steps = defaultdict(int)
        for req, name, _, _, _, n, _ in self.spans:
            if name in RUN_SPANS:
                steps[req] += n
        return steps
