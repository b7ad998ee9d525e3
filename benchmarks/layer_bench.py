"""Time the layers of an exact or an f64 request; every inner layer replays
calls the program itself made.

    python benchmarks/layer_bench.py --backend exact|f64 [--sizes 40,256]
        [--reps 5] [--json BENCH_exact-rows.json --label NAME]

Run it with the checkout's ``src`` on ``PYTHONPATH``.  Per case and size, one
interleaved loop runs every layer once per repetition, so a record's columns
are read at the same moments; each is the best of ``--reps``.  Each
repetition starts one layer further on, so a layer is not always timed right
after the same one, whose leftovers in caches or the allocator it would pay
for: over as many repetitions as layers, each runs first once.  A layer that
raises is timed no further (``_ms`` null, the error under ``failed``); the
others still run.  A record whose request reads less than its run is refused.

A replay: one real build, run or oracle of the case runs with a program
function wrapped to record each call's arguments (an array the call writes
into, the kernel's ``u``, copied as it was), and the layer calls the function
again with them, so nothing here restates the run path.  ``calls`` counts
each replay's calls (the f64 inverse sine writes its rows itself, so its
``rows`` replays none).  Both backends time ``build``, ``rows`` (the build's
``families._integer_rows`` or ``_float_polys``) and ``run``
(``recurrence_core.run``), and for a combo ``branches``, the runs of the
branches it steps, so that ``run`` minus ``branches`` is the combine (a
single spec's one branch is its run, so it has no ``branches`` record).
Both also time ``parse``, ``cli._parse`` of the argv of the case's request
(``coeffs`` for exact, ``verify`` for f64).

``--backend exact`` (sizes 40, 256, 1024; JSON benchmark ``exact-rows``):
``branches`` replays ``recurrence_core._run_generic``, ``step`` the stepping
in integers (``_stream``), ``wrap`` the materialisation as ``Fraction`` and
Gaussian-rational values (``_values``).  A conjugate combo (sin and cos over
M and F at real parameters) steps its one branch with ``_stream`` and forms
the part its combiner reads itself, so its ``branches`` and ``wrap`` replay
no call.  ``text`` is ``cli.cmd_coeffs`` with its build and run handing
over the spec and the stream made beforehand, ``request`` a ``macprod
coeffs`` in this process, and ``oracle`` the ``cauchy_product`` of an exact
``verify.oracle_stream``.

``--backend f64`` (sizes 64, 1024, 8192; JSON benchmark ``f64-kernels``):
``branches`` runs each branch as a spec of its own, ``step_<impl>`` replays
the run's ``kernels.recurrence_steps`` calls (per branch, the steps through
u_k on a long double stream, then the rest in double) on each of
``kernels.implementations()``,
``series`` the oracle's two factor series and ``convolve`` its
``kernels.convolve``; ``convolve_whole`` is ``np.convolve`` of the same
operands, and ``verify`` a ``macprod verify`` in this process (exit code
``verify_rc``).

``--json`` merges the run into the file under ``--label``: one file can hold
the runs of two trees (point ``PYTHONPATH`` at the other tree's ``src``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from macprod import cli, families, kernels, recurrence_core, verify
from macprod.families import build, conform_params, get_family
from macprod.numerics import get_backend

#: per backend: the JSON benchmark name, the default sizes, the parameter
#: values and the cases, each a family and the values that differ
BACKENDS = {
    "exact": (
        "exact-rows", "40,256,1024",
        {"a": Fraction(1, 3), "b": Fraction(-5, 4), "c": Fraction(7, 5), "p": Fraction(3, 2)},
        tuple((f, {}) for f in ("exp-F", "arctanexp-F", "sin-M-combo", "sinh-M-combo", "sin-F",
                                "sinh-F", "arcsin-M", "exp-K", "sin-K")),
    ),
    # binom-F at an integer p takes the taps route, at theta = 3/2 where its
    # own recurrence is unstable, and sin-F the exp-F branches at +-ip
    "f64": (
        "f64-kernels", "64,1024,8192",
        {"a": Fraction(1, 2), "b": Fraction(1, 3), "c": Fraction(5, 4), "p": Fraction(1)},
        (("exp-F", {}), ("sin-F", {}), ("arctanexp-F", {}), ("arcsin-M", {}),
         ("binom-F", {"p": Fraction(2), "theta": Fraction(3, 2)}),
         ("binom-F", {"p": Fraction(200), "theta": Fraction(-3, 2)})),
    ),
}
#: per backend, the program functions the replayed layers wrap: those the
#: build calls, those the run calls, those the oracle calls
REPLAYS = {
    "exact": ({"rows": (families, "_integer_rows")},
              {"step": (recurrence_core, "_stream"), "wrap": (recurrence_core, "_values"),
               "branches": (recurrence_core, "_run_generic")},
              {"oracle": (verify, "cauchy_product")}),
    "f64": ({"rows": (families, "_float_polys")}, {"step": (kernels, "recurrence_steps")},
            {"h": (verify, "elementary_series"), "base": (verify, "hyper_base_series"),
             "convolve": (kernels, "convolve")}),
}


def _recorder(fn, calls: list):
    def record(*args, **kw):
        calls.append(([a.copy() if isinstance(a, np.ndarray) and a.flags.writeable else a
                       for a in args], kw))
        return fn(*args, **kw)

    return record


def _record(call, targets: dict):
    """``call()`` with the function ``module.name`` of each ``layer: (module,
    name)`` in ``targets`` wrapped to record its calls.  Returns what ``call``
    returned (None where it raised: the layer that runs it then fails in the
    timing loop) and, per layer, the function and its recorded calls."""
    saved = {layer: (module, name, getattr(module, name), [])
             for layer, (module, name) in targets.items()}
    for module, name, fn, calls in saved.values():
        setattr(module, name, _recorder(fn, calls))
    try:
        result = call()
    except Exception:
        result = None
    finally:
        for module, name, fn, _ in saved.values():
            setattr(module, name, fn)
    return result, {layer: (fn, calls) for layer, (_, _, fn, calls) in saved.items()}


def _replay(fn, calls: list, **extra):
    """A layer that calls ``fn`` again with each recorded call's arguments."""
    def replay():
        return [fn(*args, **kw, **extra) for args, kw in calls]

    replay.calls = len(calls)
    return replay


def _request(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _text(args, spec, stream):
    """``cmd_coeffs`` from the stream on: its build and run hand over the
    spec and the stream made beforehand."""
    saved = cli.build, cli.run
    cli.build, cli.run = (lambda *_: spec), (lambda *_: stream)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            args.func(args)
    finally:
        cli.build, cli.run = saved


def _layers(backend: str, family: str, values: dict, N: int) -> dict:
    """One zero-argument callable per layer, in the order of the records."""
    names = get_family(family).param_names
    pp = conform_params({k: values[k] for k in names}, get_backend(backend))
    spec = build(family, pp, backend)
    in_build, in_run, in_oracle = REPLAYS[backend]
    _, recorded = _record(lambda: build(family, pp, backend), in_build)
    stream, ran = _record(lambda: recurrence_core.run(spec, N), in_run)
    _, referee = _record(lambda: verify.oracle_stream(family, pp, N, backend), in_oracle)
    recorded |= ran | referee
    replay = {layer: _replay(*calls) for layer, calls in recorded.items()}
    flags = [f"--family={family}", f"--backend={backend}", *(f"--{k}={values[k]}" for k in names)]
    argv = (["coeffs", *flags, f"--count={N + 1}"] if backend == "exact"
            else ["verify", *flags, f"--count={N}"])
    layers = {"parse": lambda: cli._parse(argv), "build": lambda: build(family, pp, backend),
              "rows": replay["rows"]}
    # a single spec's branch is the run itself: branches are timed for combos only
    combo = isinstance(spec, recurrence_core.ComboSpec)
    if backend == "exact":
        args = cli._parse(argv)
        layers |= {"step": replay["step"], "wrap": replay["wrap"]}
        if combo:
            layers["branches"] = replay["branches"]
        return layers | {
            "run": lambda: recurrence_core.run(spec, N),
            "text": lambda: _text(args, spec, stream),
            "request": lambda: _request(argv), "oracle": replay["oracle"],
        }
    for name, impl in kernels.implementations().items():
        layers[f"step_{name}"] = _replay(*recorded["step"], impl=impl)
    _, convolved = recorded["convolve"]
    if combo:  # each branch run as a spec of its own; a conjugate combo steps its left one only
        branches = [b for b in (spec.left, spec.right) if b is not None]
        layers["branches"] = lambda: [recurrence_core.run(b, N) for b in branches]
    return layers | {
        "run": lambda: recurrence_core.run(spec, N),
        "series": lambda: (replay["h"](), replay["base"]()), "convolve": replay["convolve"],
        "convolve_whole": lambda: [np.convolve(a, b)[: len(a)] for (a, b), _ in convolved],
        "verify": lambda: _request(argv),
    }


def measure(backend: str, family: str, values: dict, N: int, reps: int) -> dict:
    """One record: every layer of the case at N, best of ``reps``."""
    layers = _layers(backend, family, values, N)
    request = "verify" if backend == "f64" else "request"
    best, failed, rc = dict.fromkeys(layers, math.inf), {}, None
    order = list(layers.items())
    for rep in range(reps):
        start = rep % len(order)
        for name, fn in order[start:] + order[:start]:
            if name in failed:
                continue
            t0 = time.perf_counter()
            try:
                out = fn()
            except Exception as exc:  # recorded, so the other layers still run
                failed[name] = f"{type(exc).__name__}: {exc}"
                continue
            best[name] = min(best[name], time.perf_counter() - t0)
            rc = out if name == request else rc
    if not {request, "run"} & failed.keys() and best[request] < best["run"]:
        raise SystemExit(
            f"incoherent record for {family} at N = {N}: {request} "
            f"{best[request] * 1e3:.3f} ms < run {best['run'] * 1e3:.3f} ms; rerun"
        )
    names = get_family(family).param_names
    record = {"family": family, "params": {k: str(values[k]) for k in names}, "N": N}
    record |= {f"{k}_ms": None if k in failed else round(t * 1e3, 4) for k, t in best.items()}
    record |= {f"{request}_rc": rc,
               "calls": {k: fn.calls for k, fn in layers.items() if hasattr(fn, "calls")}}
    return record | ({"failed": failed} if failed else {})


def write_json(path, benchmark: str, values: dict, label: str, reps: int, results: list):
    """Merge one run into the JSON file at ``path`` under ``label``."""
    path = Path(path)
    record = json.loads(path.read_text()) if path.exists() else {}
    record.setdefault("benchmark", benchmark)
    record.setdefault("params", {k: str(v) for k, v in values.items()})
    record.setdefault("runs", {})[label] = {
        "kernels": kernels.implementation_name(), "python": platform.python_version(),
        "numpy": np.__version__, "machine": platform.machine(), "nproc": os.cpu_count(),
        "reps": reps, "results": results,
    }
    path.write_text(json.dumps(record, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--backend", choices=BACKENDS, required=True)
    parser.add_argument("--sizes", help="comma-separated N (default: the backend's)")
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--json", help="merge this run into the named JSON file")
    parser.add_argument("--label", default="run", help="key of this run in --json")
    args = parser.parse_args(argv)
    benchmark, sizes, values, cases = BACKENDS[args.backend]

    print(f"f64 kernels: {kernels.implementation_name()}")
    results = []
    for N in map(int, (args.sizes or sizes).split(",")):
        for family, changed in cases:
            r = measure(args.backend, family, values | changed, N, args.reps)
            results.append(r)
            case = " ".join([family, *(f"{k}={v}" for k, v in changed.items())])
            cols = "  ".join(f"{k[:-3]} {'failed' if v is None else format(v, '.4g')}"
                             for k, v in r.items() if k.endswith("_ms"))
            print(f"{case:24s} {N:>5d}  {cols}   (ms)")

    if args.json:
        write_json(args.json, benchmark, values, args.label, args.reps, results)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
