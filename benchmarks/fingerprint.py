"""Fingerprint the CLI's outputs, to show that two trees answer alike.

Every request runs once, in this process, through ``macprod.cli.main``, with
stdout and stderr captured.  Requests fall into groups; for each group the
script prints its call count and one sha256 over every call's (argv, exit
code, stdout, stderr), in order.  A call that raises records the exception's
type and message in place of the exit code.  The groups are:

* ``<workload>@<seed>``: every request that ``perfbench/run.py``'s
  ``generate`` builds for the gated workloads ``f64-small``,
  ``exact-tables`` and ``f64-verify`` at each seed (perfbench is imported,
  never changed);
* a matrix over the 38 catalogue ids, three ``verify.draw_params`` draws
  each per seed: ``coeffs-exact-json`` and ``coeffs-exact-csv`` (``coeffs
  --backend exact`` at N = 40), ``coeffs-f64`` (``coeffs --backend f64`` at
  N = 64), ``verify-exact`` (``verify --backend exact`` at N = 40),
  ``verify-f64`` (``verify --backend f64`` at N = 1024), and
  ``coeffs-normalized`` (``coeffs --normalized`` at N = 40, exact and f64,
  for the K and E ids);
* ``cli-surface``: ``list``, ``--help``, each subcommand's ``--help``, and a
  fixed set of error paths (an unknown family, a malformed scalar, a
  ``--``-valued flag, ``--count 0``, ``sin-M`` at c = 2, and f64
  ``arcsin-M`` at p = 1e155 through ``--count 3``, whose u_0 .. u_2 are
  finite, and ``--count 4``, whose u_3 overflows), and the top-level
  parse errors: ``list extra`` and ``verify --seed 1 x`` (unrecognized
  arguments), ``frobnicate`` (an unknown command), no argv, ``coeffs``
  with no flags, and ``--x coeffs --family exp-M --count 3`` (an unknown
  option before the command).  Help texts are
  formatted at ``COLUMNS=80``, which the script sets, so they do not depend
  on the terminal.

Run it once per tree, with that tree's ``src`` first on ``PYTHONPATH``, and
compare the digests; the first line names the ``macprod`` it imported:

    PYTHONPATH=src python benchmarks/fingerprint.py [--seeds 991,992,993]
        [--calls FILE]

``--calls`` also writes every call's record, one JSON line [group, argv,
exit code, stdout, stderr] each, so that two trees' files diff request by
request where a digest differs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("f64-small", "exact-tables", "f64-verify")
DRAWS = 3


def _call(main, argv) -> list:
    """[argv, exit code or the exception, stdout, stderr] of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # noqa: BLE001 - recorded, not hidden
            rc = f"{type(exc).__name__}: {exc}"
    return [argv, rc, out.getvalue(), err.getvalue()]


def workload_groups(seeds) -> dict:
    """The argv of every request perfbench's gated workloads send, per group."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run as perfbench

    groups = {}
    for seed in seeds:
        for name in WORKLOADS:
            passes = perfbench.generate(name, perfbench.WORKLOADS[name], seed)
            groups[f"{name}@{seed}"] = [req.argv for reqs in passes for req in reqs]
    return groups


def matrix_groups(seeds) -> dict:
    """The argv of the matrix: each mode over every id and draw."""
    from macprod.families import list_families
    from macprod.verify import draw_params

    modes = {
        "coeffs-exact-json": ["coeffs", "--backend", "exact", "--count", "41"],
        "coeffs-exact-csv": ["coeffs", "--backend", "exact", "--count", "41", "--format", "csv"],
        "coeffs-f64": ["coeffs", "--backend", "f64", "--count", "65"],
        "verify-exact": ["verify", "--backend", "exact", "--count", "40"],
        "verify-f64": ["verify", "--backend", "f64", "--count", "1024"],
    }
    groups = {mode: [] for mode in modes}
    groups["coeffs-normalized"] = []
    for seed in seeds:
        rng = Random(f"fingerprint:{seed}")
        for info in list_families():
            for _ in range(DRAWS):
                params = draw_params(info, rng)
                flags = [f"--{k}={getattr(params, k)}" for k in params.present()]
                tail = ["--family", info.id] + flags
                for mode, head in modes.items():
                    groups[mode].append(head + tail)
                if info.base in ("K", "E"):
                    for backend in ("exact", "f64"):
                        groups["coeffs-normalized"].append(
                            ["coeffs", "--backend", backend, "--count", "41", "--normalized"]
                            + tail
                        )
    return groups


def surface_groups() -> dict:
    """The argv of the catalogue, the help texts and the fixed error paths."""
    commands = ("coeffs", "eval", "verify", "bench", "list")
    exp_m = ["coeffs", "--family", "exp-M", "--c=1", "--p=1"]
    return {"cli-surface": [
        ["list"],
        ["--help"],
        *([command, "--help"] for command in commands),
        ["coeffs", "--family", "tan-M", "--count", "3"],
        exp_m + ["--a=1//2", "--count", "3"],
        exp_m + ["--a=--", "--count", "3"],
        exp_m + ["--a=1", "--count", "0"],
        ["coeffs", "--family", "sin-M", "--a=1/2", "--c=2", "--p=1", "--count", "3"],
        *(["coeffs", "--backend", "f64", "--family", "arcsin-M", "--a=1/2", "--c=5/4",
          "--p=1e155", "--count", count] for count in ("3", "4")),
        ["list", "extra"],
        ["verify", "--seed", "1", "x"],
        ["frobnicate"],
        [],
        ["coeffs"],
        ["--x", "coeffs", "--family", "exp-M", "--count", "3"],
    ]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="991,992,993", help="comma-separated seeds")
    parser.add_argument("--calls", help="write each call's record to this file, one a line")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    import macprod
    from macprod.cli import main as cli_main

    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal's width

    print(f"macprod: {Path(macprod.__file__).resolve().parent}")
    groups = {**workload_groups(seeds), **matrix_groups(seeds), **surface_groups()}
    width = max(map(len, groups))
    calls = open(args.calls, "w") if args.calls else contextlib.nullcontext()
    with calls:
        for name, argvs in groups.items():
            digest = hashlib.sha256()
            for call in argvs:
                record = json.dumps(_call(cli_main, call))
                digest.update(record.encode() + b"\n")
                if args.calls:
                    calls.write(f"[{json.dumps(name)}, {record[1:]}\n")
            print(f"{name.ljust(width)}  {len(argvs):5d}  {digest.hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
