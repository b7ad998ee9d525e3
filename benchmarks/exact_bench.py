"""Time the layers of an exact request: build, row tables, stepping, wrap.

For each family and size one interleaved loop runs every layer once per
repetition, so the columns of one record are read at the same moments; it
reports, best of ``--reps``:

* ``build``: ``families.build``;
* ``rows``: the table evaluations, ``families._integer_rows`` for each
  branch, which ``build`` contains (the rest of a build is the catalogue's
  seeds; the run steps from them);
* ``wrap``: rebuilding the public Gaussian-rational (and pi-linear) values
  from their Fraction parts, which is what materialisation costs;
* ``step``: ``branches`` minus ``wrap``;
* ``branches``: ``recurrence_core.run`` on each branch a run steps (the
  spec itself for a single recurrence);
* ``run``: ``recurrence_core.run`` on the built spec; for a combo, ``run``
  minus ``branches`` is the combine step;
* ``text``: the stream to the ``coeffs`` JSON text, which is
  ``cli.cmd_coeffs`` with its build and run handing over the built spec and
  the run's stream (serialisation and the envelope, no stepping);
* ``request``: ``macprod coeffs --backend exact`` in this process, output
  captured, from argument parsing to JSON text;
* ``oracle``: the exact ``series_oracle.cauchy_product`` of the family's two
  factor series (the elementary factor and the base), built beforehand: the
  referee's side of an exact ``verify``.

A layer that raises is timed no further; its ``_ms`` is null and its error
is kept under ``failed``, and the other layers still run.

Run directly, with the checkout's ``src`` on ``PYTHONPATH``:

    python benchmarks/exact_bench.py [--sizes 40,256,1024] [--reps 5]
        [--json BENCH_exact-rows.json --label NAME]

``--json`` merges this run into the file under ``--label``, so one file can
hold the runs of two trees (point ``PYTHONPATH`` at the other tree's ``src``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from macprod import cli, families, kernels, recurrence_core
from macprod.families import build, conform_params, get_family
from macprod.numerics import EXACT, GaussianRational, PiLinear
from macprod.series_oracle import cauchy_product, elementary_series, hyper_base_series
from macprod.verify import elementary_factor

FAMILIES = (
    "exp-F", "arctanexp-F", "sin-M-combo", "sinh-M-combo", "sin-F", "sinh-F", "arcsin-M",
    "exp-K", "sin-K",
)
VALUES = {"a": Fraction(1, 3), "b": Fraction(-5, 4), "c": Fraction(7, 5), "p": Fraction(3, 2)}


def branches(spec):
    """The branches a run steps: a one-branch combo (``right`` None, the
    conjugate of ``left``) steps its left one only."""
    if not isinstance(spec, recurrence_core.ComboSpec):
        return (spec,)
    return (spec.left,) if spec.right is None else (spec.left, spec.right)


def write_json(path, benchmark: str, values: dict, label: str, reps: int, results: list):
    """Merge one run into the JSON file at ``path`` under ``label``."""
    path = Path(path)
    record = json.loads(path.read_text()) if path.exists() else {}
    record.setdefault("benchmark", benchmark)
    record.setdefault("params", {k: str(v) for k, v in values.items()})
    record.setdefault("runs", {})[label] = {
        "kernels": kernels.implementation_name(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "reps": reps,
        "results": results,
    }
    path.write_text(json.dumps(record, indent=1) + "\n")


def _rows_fn(family: str, params: dict):
    """The table evaluations one build makes."""
    evaluate, calls = families._integer_rows, []
    families._integer_rows = lambda *args: calls.append(args) or evaluate(*args)
    try:
        build(family, params)
    finally:
        families._integer_rows = evaluate
    return lambda: [evaluate(*args) for args in calls]


def _wrap_fn(spec, N: int):
    stepped = [v for b in branches(spec) for v in recurrence_core.run(b, N).coeffs[b.start + 1:]]

    def gaussian(g):
        return GaussianRational(g.re, g.im)

    def wrap():
        return [
            PiLinear(gaussian(v.q0), gaussian(v.q1)) if isinstance(v, PiLinear) else gaussian(v)
            for v in stepped
        ]

    return wrap


def _oracle_fn(family: str, params: dict, N: int):
    info, pp = get_family(family), conform_params(params, EXACT)
    h = elementary_series(elementary_factor(info, pp), N, EXACT)
    base = hyper_base_series(info.base, N, EXACT, a=pp.a, b=pp.b, c=pp.c)
    return lambda: cauchy_product(h, base)


def _argv(family: str, N: int) -> list:
    argv = ["coeffs", "--family", family, "--count", str(N + 1), "--backend", "exact"]
    return argv + [f"--{name}={VALUES[name]}" for name in get_family(family).param_names]


def _request(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)


def _text_fn(spec, argv, N: int):
    """``cmd_coeffs`` from the stream on: its build and run return the spec
    and the stream made beforehand."""
    args = cli._build_parser().parse_args(argv)
    stream = recurrence_core.run(spec, N)

    def text():
        build, run = cli.build, cli.run
        cli.build, cli.run = (lambda *_: spec), (lambda *_: stream)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                args.func(args)
        finally:
            cli.build, cli.run = build, run

    return text


def measure(family: str, N: int, reps: int) -> dict:
    params = {name: VALUES[name] for name in get_family(family).param_names}
    spec = build(family, params)
    layers = {
        "build": lambda: build(family, params),
        "rows": _rows_fn(family, params),
        "wrap": _wrap_fn(spec, N),
        "branches": lambda: [recurrence_core.run(b, N) for b in branches(spec)],
        "run": lambda: recurrence_core.run(spec, N),
        "text": _text_fn(spec, _argv(family, N), N),
        "request": lambda: _request(_argv(family, N)),
        "oracle": _oracle_fn(family, params, N),
    }
    ms = dict.fromkeys(layers, float("inf"))
    failed = {}
    for _ in range(reps):
        for name, fn in layers.items():
            if name in failed:
                continue
            t0 = time.perf_counter()
            try:
                fn()
            except Exception as exc:  # recorded, so the other layers still run
                failed[name] = f"{type(exc).__name__}: {exc}"
                continue
            ms[name] = min(ms[name], time.perf_counter() - t0)
    if "request" not in failed and ms["request"] < ms["run"]:  # a request contains a run
        raise SystemExit(
            f"incoherent record for {family} at N = {N}: request "
            f"{ms['request'] * 1e3:.3f} ms < run {ms['run'] * 1e3:.3f} ms; rerun"
        )
    ms["step"] = max(ms["branches"] - ms["wrap"], 0.0)
    record = {"family": family, "N": N}
    record.update({f"{k}_ms": None if k in failed else round(v * 1e3, 3) for k, v in ms.items()})
    return record | ({"failed": failed} if failed else {})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="40,256,1024")
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--json", help="merge this run into the named JSON file")
    parser.add_argument("--label", default="run", help="key of this run in --json")
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    print(f"f64 kernels: {kernels.implementation_name()}")
    cols = ("build", "rows", "step", "wrap", "branches", "run", "text", "request", "oracle")
    print(f"{'family':12s} {'N':>4s} " + " ".join(f"{c:>9s}" for c in cols) + "   (ms)")
    results = []
    for N in sizes:
        for family in FAMILIES:
            r = measure(family, N, args.reps)
            results.append(r)
            print(f"{family:12s} {N:>4d} " + " ".join(
                "failed".rjust(9) if r[c + "_ms"] is None else f"{r[c + '_ms']:>9.2f}" for c in cols
            ))

    if args.json:
        write_json(args.json, "exact-rows", VALUES, args.label, args.reps, results)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
