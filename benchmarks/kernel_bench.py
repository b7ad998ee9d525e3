"""Time the f64 layers: stepping, the oracle's convolution, a verify request.

For each family and size, one interleaved loop runs every layer once per
repetition, so the columns of one record are read at the same moments; each
column is the best of ``--reps``:

* ``step_<impl>``: ``kernels.recurrence_steps`` over all N - n0 of the
  family's own f64 rows, in one call, for each implementation in
  ``kernels.implementations()`` (``python``, and ``compiled`` when the C loop
  could be built);
* ``convolve``: ``kernels.convolve`` on the family's two f64 factor series,
  as the oracle calls it, and ``convolve_whole``: ``np.convolve`` on the same
  series, cut to their length, the product before any split;
* ``verify``: ``macprod verify --backend f64`` for the family at these
  parameters, in this process, output captured, from argument parsing to
  JSON text.

Run directly, with the checkout's ``src`` on ``PYTHONPATH``:

    python benchmarks/kernel_bench.py [--sizes 64,1024,8192] [--reps 5]
        [--json BENCH_f64-kernels.json --label NAME]

``--json`` merges this run into the file under ``--label``, so one file can
hold the runs of two trees (point ``PYTHONPATH`` at the other tree's ``src``).
Each run records ``kernels.implementation_name()``.
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

from macprod import cli, kernels
from macprod.families import build, conform_params, elementary_factor, get_family
from macprod.numerics import get_backend
from macprod.series_oracle import elementary_series, hyper_base_series

FAMILIES = ("exp-F", "arctanexp-F")
VALUES = {"a": Fraction(1, 2), "b": Fraction(1, 3), "c": Fraction(5, 4), "p": Fraction(1)}


def _layers(family: str, N: int) -> dict:
    """One zero-argument callable per timed layer."""
    bk = get_backend("f64")
    info = get_family(family)
    params = conform_params({k: VALUES[k] for k in info.param_names}, bk)
    spec = build(family, params, bk)
    n0, k = spec.start, spec.order
    with np.errstate(all="ignore"):
        raw = spec.row(np.arange(n0, N, dtype=np.float64))
    rows = np.empty((N - n0, k + 1), dtype=np.complex128)
    for i in range(k + 1):
        rows[:, i] = raw[i]
    layers = {}
    for name, impl in kernels.implementations().items():
        u = np.zeros(N + 1, dtype=np.complex128)  # each call rewrites u[n0+1:]
        u[: n0 + 1] = spec.seeds
        layers[f"step_{name}"] = lambda u=u, impl=impl: kernels.recurrence_steps(rows, u, n0, impl=impl)
    h = elementary_series(elementary_factor(info, params), N, bk).coeffs
    base = hyper_base_series(info.base, N, bk, a=params.a, b=params.b, c=params.c).coeffs
    layers["convolve"] = lambda: kernels.convolve(h, base)
    layers["convolve_whole"] = lambda: np.convolve(h, base)[: N + 1]
    argv = ["verify", "--backend", "f64", "--family", family, "--count", str(N)]
    argv += [f"--{name}={VALUES[name]}" for name in info.param_names]
    layers["verify"] = lambda: _request(argv)
    return layers


def _request(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def measure(family: str, N: int, reps: int) -> dict:
    layers = _layers(family, N)
    best = dict.fromkeys(layers, float("inf"))
    for _ in range(reps):
        for name, fn in layers.items():
            t0 = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - t0)
    rc = layers["verify"]()
    return {
        "family": family,
        "N": N,
        **{f"{name}_ms": round(t * 1e3, 4) for name, t in best.items()},
        "verify_rc": rc,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="64,1024,8192")
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--json", help="merge this run into the named JSON file")
    parser.add_argument("--label", default="run", help="key of this run in --json")
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    print(f"f64 kernels: {kernels.implementation_name()}")
    results = []
    for N in sizes:
        for family in FAMILIES:
            r = measure(family, N, args.reps)
            results.append(r)
            cols = "  ".join(f"{k[:-3]} {v:.4g}" for k, v in r.items() if k.endswith("_ms"))
            print(f"{family:12s} {N:>5d}  {cols}   (ms)")

    if args.json:
        path = Path(args.json)
        record = json.loads(path.read_text()) if path.exists() else {}
        record.setdefault("benchmark", "f64-kernels")
        record.setdefault("params", {k: str(v) for k, v in VALUES.items()})
        record.setdefault("runs", {})[args.label] = {
            "kernels": kernels.implementation_name(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "reps": args.reps,
            "results": results,
        }
        path.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
