"""The layer benchmark still times every layer of the program it replays."""

import importlib.util
import math
import os

import pytest

from macprod import kernels
from macprod.families import get_family

PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "benchmarks", "layer_bench.py")
#: each backend's layers; "step" stands for one step_<impl> per f64 implementation
FIELDS = {
    "exact": ("build", "rows", "step", "wrap", "branches", "run", "text", "request", "oracle"),
    "f64": ("build", "rows", "step", "branches", "run", "series", "convolve", "convolve_whole",
            "verify"),
}


@pytest.fixture(scope="module")
def layer_bench():
    spec = importlib.util.spec_from_file_location("layer_bench", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# (backend, family, the calls each replay makes): the exact combo steps two
# branches; the f64 inverse sine steps four interleaved sets in one kernel
# call, and writes its rows itself, so it replays no row evaluation
@pytest.mark.parametrize("backend, family, calls", [
    ("exact", "sinh-M-combo", {"rows": 2, "step": 2, "wrap": 2, "branches": 2, "oracle": 1}),
    ("f64", "arcsin-M", {"rows": 0, "step": 1, "convolve": 1}),
], ids=["exact-sinh-M-combo", "f64-arcsin-M"])
def test_every_layer_is_timed(layer_bench, backend, family, calls):
    _, _, values, cases = layer_bench.BACKENDS[backend]
    assert (family, {}) in cases
    record = layer_bench.measure(backend, family, values, 8, 1)
    steps = [f"step_{name}" for name in kernels.implementations()] if backend == "f64" else ["step"]

    def expand(layer):
        return steps if layer == "step" else [layer]

    fields = [x for k in FIELDS[backend] for x in expand(k)]
    assert "failed" not in record
    assert [k[:-3] for k in record if k.endswith("_ms")] == fields
    assert all(math.isfinite(record[f"{k}_ms"]) for k in fields)
    assert record["calls"] == {x: n for k, n in calls.items() for x in expand(k)}
    assert (record["family"], record["N"]) == (family, 8)
    assert record["verify_rc" if backend == "f64" else "request_rc"] == 0
    assert list(record["params"]) == list(get_family(family).param_names)
