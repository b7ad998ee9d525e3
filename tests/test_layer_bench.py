"""The layer benchmark still times every layer of the program it replays."""

import importlib.util
import math
import os
import time

import pytest

from macprod import kernels
from macprod.families import build, get_family
from macprod.recurrence_core import ComboSpec

PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "benchmarks", "layer_bench.py")
#: each backend's layers; "step" stands for one step_<impl> per f64 implementation, and
#: "branches" is timed for combos only
FIELDS = {
    "exact": ("parse", "build", "rows", "step", "wrap", "branches", "run", "text", "request",
              "oracle"),
    "f64": ("parse", "build", "rows", "step", "branches", "run", "series", "convolve",
            "convolve_whole", "verify"),
}


@pytest.fixture(scope="module")
def layer_bench():
    spec = importlib.util.spec_from_file_location("layer_bench", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# (backend, family, the calls each replay makes): the exact combo steps two
# branches; the f64 inverse sine steps four interleaved sets in two kernel
# calls (through u_k on a long double stream, then the rest), and writes its
# rows itself, so it replays no row evaluation
@pytest.mark.parametrize("backend, family, calls", [
    ("exact", "sinh-M-combo", {"rows": 2, "step": 2, "wrap": 2, "branches": 2, "oracle": 1}),
    ("f64", "arcsin-M", {"rows": 0, "step": 2, "convolve": 1}),
], ids=["exact-sinh-M-combo", "f64-arcsin-M"])
def test_every_layer_is_timed(layer_bench, backend, family, calls):
    _, _, values, cases = layer_bench.BACKENDS[backend]
    assert (family, {}) in cases
    record = layer_bench.measure(backend, family, values, 8, 1)
    steps = [f"step_{name}" for name in kernels.implementations()] if backend == "f64" else ["step"]

    def expand(layer):
        return steps if layer == "step" else [layer]

    names = get_family(family).param_names
    combo = isinstance(build(family, {k: values[k] for k in names}, backend), ComboSpec)
    fields = [x for k in FIELDS[backend] for x in expand(k) if combo or k != "branches"]
    assert "failed" not in record
    assert [k[:-3] for k in record if k.endswith("_ms")] == fields
    assert all(math.isfinite(record[f"{k}_ms"]) for k in fields)
    assert record["calls"] == {x: n for k, n in calls.items() for x in expand(k)}
    assert (record["family"], record["N"]) == (family, 8)
    assert record["verify_rc" if backend == "f64" else "request_rc"] == 0
    assert list(record["params"]) == list(get_family(family).param_names)


def test_every_layer_runs_first_once(layer_bench, monkeypatch):
    # each repetition starts one layer further on: over as many repetitions
    # as layers, every layer is timed first once
    ran = []

    def layer(name):
        def call():
            ran.append(name)
            if name == "request":  # a request reads no less than its run
                time.sleep(0.001)
            return 0

        return call

    names = ("build", "rows", "step", "run", "request")
    monkeypatch.setattr(layer_bench, "_layers",
                        lambda *_: {name: layer(name) for name in names})
    _, _, values, _ = layer_bench.BACKENDS["exact"]
    record = layer_bench.measure("exact", "exp-F", values, 8, len(names))
    assert "failed" not in record
    firsts = ran[:: len(names)]
    assert sorted(firsts) == sorted(names)
    assert all(sorted(ran[i: i + len(names)]) == sorted(names)
               for i in range(0, len(ran), len(names)))
