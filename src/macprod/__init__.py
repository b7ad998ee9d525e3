"""Maclaurin coefficients of elementary-times-hypergeometric products.

Coefficient streams come from explicit linear recurrences (one family per
supported product) and are cross-checked against an independent Cauchy-product
oracle, in exact Gaussian-rational(+pi) arithmetic and in f64.

Every module is imported where its work begins, never ahead of it: numpy
where an f64 path begins, the engine (``recurrence_core``) where a build or
run begins, and the referee (``verify``, which brings the ``series_oracle``)
where a comparison begins.  The recurrence path (``families``,
``recurrence_core``, ``kernels``) and the oracle share ``numerics``, which
holds the stream type both return, and ``kernels``, of which the oracle uses
only ``convolve``; ``verify`` is the one module that imports both.  So
``import macprod`` loads no submodule, and each name in ``__all__`` is
imported from its submodule the first time it is read.
"""

import importlib

__version__ = "0.1.0"

#: each exported name, by the submodule that defines it
_SOURCES = {
    "families": ("Params", "build", "build_M_family", "build_F_family",
                 "build_elliptic_family", "get_family", "list_families"),
    "numerics": ("CoeffStream", "EXACT", "F64", "GaussianRational", "PiLinear", "Rational",
                 "approximate", "format_scalar", "get_backend", "parse_scalar", "pochhammer"),
    "recurrence_core": ("RecurrenceSpec", "ComboSpec", "run"),
    "series_oracle": ("Elementary", "cauchy_product", "elementary_series", "gauss_series",
                      "hyper_base_series", "kummer_series"),
    "verify": ("DeviationReport", "BenchReport", "compare_oracle", "compare_formulations",
               "bench", "sweep"),
}
_SOURCE = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = [*_SOURCE, "__version__"]


def __getattr__(name):
    """Import an exported name from its submodule on first access, and keep it."""
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
