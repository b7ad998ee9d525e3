"""Time fresh ``macprod`` processes, end to end, on two or more trees.

Each command runs as ``python -m macprod.cli ...`` in a new interpreter,
with ``PYTHONPATH`` pointing at one tree's ``src``, and is timed from the
start of the process to its exit: interpreter start, imports, the request
and the output.  The commands are those of the north-star sizes:

* ``list``, ``--help`` and a ``coeffs`` of an unknown family (exit 2):
  start-up alone, with no numeric work;
* ``coeffs`` in f64 at N = 64, 1024, 8192, and exact at N = 40 and 256;
* ``verify`` of one family against the oracle, at the same sizes;
* ``bench`` (f64 only) at N = 64, 1024, 8192.

Every tree first runs each command once untimed, so the C loop is compiled
and the files are cached before timing.  Then, per repetition and command,
the trees run one after the other, the first tree first in even
repetitions and last in odd ones.  Each record gives, per tree, the median
and quartiles of the wall times in ms, how many repetitions the last tree
beat the first, whether the trees printed the same bytes (``bench`` prints
timings, so it is not compared), and the kernel that ran: the
``kernels.implementation_name()`` of the tree for f64 commands, and null for
exact ones, which never call the kernels.

Run from a checkout root:

    python benchmarks/cli_bench.py --tree parent=PATH --tree change=.
        [--reps 11] [--json BENCH_cold-start.json]

Paths are not written to the JSON; only the labels are.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

FAMILY = "exp-F"
VALUES = {"a": "1/3", "b": "-5/4", "c": "7/5", "p": "3/2"}
FLAGS = [f"--{k}={v}" for k, v in VALUES.items()]
F64_SIZES = (64, 1024, 8192)
EXACT_SIZES = (40, 256)


def commands() -> list:
    """(name, backend, N, argv) per timed command; backend and N None for the
    start-up commands."""
    out = [
        ("list", None, None, ["list"]),
        ("--help", None, None, ["--help"]),
        ("coeffs", None, None, ["coeffs", "--family", "no-such-id", "--count", "41", *FLAGS]),
    ]
    for backend, sizes in (("f64", F64_SIZES), ("exact", EXACT_SIZES)):
        for N in sizes:
            out.append(("coeffs", backend, N, ["coeffs", "--family", FAMILY, "--backend", backend,
                                               "--count", str(N + 1), *FLAGS]))
    out.append(("coeffs", "exact", 40, ["coeffs", "--family", "sin-F", "--count", "41", *FLAGS]))
    for backend, sizes in (("f64", F64_SIZES), ("exact", EXACT_SIZES)):
        for N in sizes:
            out.append(("verify", backend, N, ["verify", "--family", FAMILY, "--backend", backend,
                                               "--count", str(N), *FLAGS]))
    for N in F64_SIZES:
        out.append(("bench", "f64", N, ["bench", "--family", FAMILY, "--count", str(N), *FLAGS]))
    return out


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def run_once(root: Path, argv: list):
    """(wall ns, exit code, sha256 of stdout) of one fresh process."""
    t0 = time.perf_counter_ns()
    proc = subprocess.run([sys.executable, "-m", "macprod.cli", *argv], cwd=root,
                          env=_env(root), capture_output=True, timeout=600)
    ns = time.perf_counter_ns() - t0
    return ns, proc.returncode, hashlib.sha256(proc.stdout).hexdigest()


def kernel_name(root: Path) -> str:
    code = "from macprod import kernels; print(kernels.implementation_name())"
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=_env(root),
                          capture_output=True, text=True, timeout=600, check=True)
    return proc.stdout.strip()


def summary(ns: list) -> dict:
    q1, median, q3 = statistics.quantiles([x / 1e6 for x in ns], n=4, method="inclusive")
    return {"median": round(median, 1), "q1": round(q1, 1), "q3": round(q3, 1)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--tree", action="append", required=True, metavar="LABEL=PATH",
                        help="a checkout root to time; give two or more, the baseline first")
    parser.add_argument("--reps", type=int, default=11)
    parser.add_argument("--json", help="write the record to this file")
    args = parser.parse_args()
    trees = dict(t.split("=", 1) for t in args.tree)
    roots = {label: Path(path).resolve() for label, path in trees.items()}
    if len(roots) < 2:
        parser.error("give at least two trees")
    first, last = list(roots)[0], list(roots)[-1]
    cmds = commands()

    for root in roots.values():  # compile the C loop, fill the file cache
        for _, _, _, argv in cmds:
            run_once(root, argv)
    kernels = {label: kernel_name(root) for label, root in roots.items()}

    times = {(label, i): [] for label in roots for i in range(len(cmds))}
    outputs = {(label, i): set() for label in roots for i in range(len(cmds))}
    codes = {(label, i): set() for label in roots for i in range(len(cmds))}
    for rep in range(args.reps):
        order = list(roots) if rep % 2 == 0 else list(reversed(roots))
        for i, (_, _, _, argv) in enumerate(cmds):
            for label in order:
                ns, rc, digest = run_once(roots[label], argv)
                times[label, i].append(ns)
                outputs[label, i].add(digest)
                codes[label, i].add(rc)

    results = []
    for i, (command, backend, N, argv) in enumerate(cmds):
        record = {"command": command, "backend": backend, "N": N, "argv": argv,
                  "kernel": {label: kernels[label] if backend == "f64" else None for label in roots},
                  "exit": {label: sorted(codes[label, i]) for label in roots}}
        for label in roots:
            record[f"{label}_ms"] = summary(times[label, i])
        wins = sum(b < a for a, b in zip(times[first, i], times[last, i]))
        record[f"{last}_faster_reps"] = f"{wins}/{args.reps}"
        if command != "bench":
            record["same_output"] = len(set().union(*(outputs[label, i] for label in roots))) == 1
        results.append(record)
        cells = "  ".join(
            f"{label} {record[f'{label}_ms']['median']:7.1f} "
            f"[{record[f'{label}_ms']['q1']:.1f}, {record[f'{label}_ms']['q3']:.1f}]"
            for label in roots
        )
        print(f"{command:6s} {backend or '':5s} N={N or '':<5} {cells}  "
              f"{last} faster {wins}/{args.reps}", flush=True)

    if args.json:
        import numpy as np

        doc = {
            "benchmark": "cold-start",
            "trees": list(roots),
            "family": FAMILY,
            "params": VALUES,
            "reps": args.reps,
            "host": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "machine": platform.machine(),
                "nproc": os.cpu_count(),
                "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            },
            "results": results,
        }
        Path(args.json).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
