"""Time the f64 layers: build, stepping, the whole run, factor series, the
oracle's convolution, a verify request.

For each case and size, one interleaved loop runs every layer once per
repetition, so the columns of one record are read at the same moments; each
column is the best of ``--reps``:

* ``build``: ``families.build`` of the f64 spec;
* ``step_<impl>``: ``kernels.recurrence_steps`` on the row polynomials of
  each branch ``run`` steps (a combo's two, or the left one of a one-branch
  combo, whose right branch is its conjugate), one call per branch over all
  its steps from u_k (the run's first steps, in long double, are not
  timed), row evaluation and stepping as one layer, for each implementation
  in ``kernels.implementations()`` (``python``, and ``compiled`` when the C
  loop could be built);
* ``run``: ``recurrence_core.run`` on the built f64 spec: rows, stepping and
  whatever the spec's route adds (the interleaved sequences of ``arcsin-M``,
  the binomial taps of ``binom-F`` at an integer p);
* ``series``: the oracle's two factor series, ``elementary_series`` and
  ``hyper_base_series``;
* ``convolve``: ``kernels.convolve`` on those two series, as the oracle calls
  it, and ``convolve_whole``: ``np.convolve`` on the same series, cut to
  their length, the product before any split;
* ``verify``: ``macprod verify --backend f64`` for the case, in this process,
  output captured, from argument parsing to JSON text.

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
import time
from fractions import Fraction

import numpy as np

from exact_bench import branches, write_json
from macprod import cli, kernels, recurrence_core
from macprod.families import build, conform_params, get_family
from macprod.numerics import get_backend
from macprod.series_oracle import elementary_series, hyper_base_series
from macprod.verify import elementary_factor

VALUES = {"a": Fraction(1, 2), "b": Fraction(1, 3), "c": Fraction(5, 4), "p": Fraction(1)}
#: (family, parameters that differ from VALUES); binom-F at an integer p takes
#: the taps route, at theta = 3/2 where its own recurrence is unstable, and
#: sin-F the exp-F branches at +-ip
CASES = (
    ("exp-F", {}),
    ("sin-F", {}),
    ("arctanexp-F", {}),
    ("arcsin-M", {}),
    ("binom-F", {"p": Fraction(2), "theta": Fraction(3, 2)}),
    ("binom-F", {"p": Fraction(200), "theta": Fraction(-3, 2)}),
)


def _step_layers(spec, N: int) -> dict:
    """``step_<impl>`` for every implementation, over the branches ``run`` steps."""
    steps = []
    for b in branches(spec):
        # u_0 .. u_k as a run has them before the kernel: the seeds, then
        # the first steps in long double (u below 0 is 0)
        k = b.order
        u = np.zeros(len(b.polys) * N + 1, dtype=np.complex128)  # each call rewrites u[k+1:]
        window = ([0j] * k + list(b.seeds))[-k - 1:]
        u[: k + 1] = list(b.seeds) + recurrence_core.step_wide(b.polys, window, b.start, k)
        steps.append((b.polys, u, k))
    return {
        f"step_{name}": lambda impl=impl: [
            kernels.recurrence_steps(polys, u, n0, impl=impl) for polys, u, n0 in steps
        ]
        for name, impl in kernels.implementations().items()
    }


def _layers(family: str, values: dict, N: int) -> dict:
    """One zero-argument callable per timed layer."""
    bk = get_backend("f64")
    info = get_family(family)
    params = conform_params({k: values[k] for k in info.param_names}, bk)
    spec = build(family, params, bk)
    layers = {"build": lambda: build(family, params, bk), **_step_layers(spec, N)}
    layers["run"] = lambda: recurrence_core.run(spec, N)
    factor = elementary_factor(info, params)

    def series():
        return (
            elementary_series(factor, N, bk).coeffs,
            hyper_base_series(info.base, N, bk, a=params.a, b=params.b, c=params.c).coeffs,
        )

    h, base = series()
    layers["series"] = series
    layers["convolve"] = lambda: kernels.convolve(h, base)
    layers["convolve_whole"] = lambda: np.convolve(h, base)[: N + 1]
    argv = ["verify", "--backend", "f64", "--family", family, "--count", str(N)]
    argv += [f"--{name}={values[name]}" for name in info.param_names]
    layers["verify"] = lambda: _request(argv)
    return layers


def _request(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def measure(family: str, values: dict, N: int, reps: int) -> dict:
    layers = _layers(family, values, N)
    best = dict.fromkeys(layers, float("inf"))
    for _ in range(reps):
        for name, fn in layers.items():
            t0 = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - t0)
    rc = layers["verify"]()
    return {
        "family": family,
        "params": {k: str(values[k]) for k in get_family(family).param_names},
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
        for family, changed in CASES:
            r = measure(family, VALUES | changed, N, args.reps)
            results.append(r)
            cols = "  ".join(f"{k[:-3]} {v:.4g}" for k, v in r.items() if k.endswith("_ms"))
            print(f"{family:12s} p={r['params']['p']:>3s} {N:>5d}  {cols}   (ms)")

    if args.json:
        write_json(args.json, "f64-kernels", VALUES, args.label, args.reps, results)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
