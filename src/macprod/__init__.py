"""Maclaurin coefficients of elementary-times-hypergeometric products.

Coefficient streams come from explicit linear recurrences (one family per
supported product) and are cross-checked against an independent Cauchy-product
oracle, in exact Gaussian-rational(+pi) arithmetic and in f64.
"""

from .families import (
    Params,
    build,
    build_elliptic_family,
    build_F_family,
    build_M_family,
    get_family,
    list_families,
)
from .numerics import (
    EXACT,
    F64,
    GaussianRational,
    PiLinear,
    Rational,
    approximate,
    format_scalar,
    get_backend,
    parse_scalar,
    pochhammer,
)
from .recurrence_core import ComboSpec, RecurrenceSpec, run
from .series_oracle import (
    CoeffStream,
    Elementary,
    cauchy_product,
    elementary_series,
    gauss_series,
    hyper_base_series,
    kummer_series,
)
from .verify import BenchReport, DeviationReport, bench, compare_formulations, compare_oracle, sweep

__version__ = "0.1.0"

__all__ = [
    "Params",
    "build",
    "build_M_family",
    "build_F_family",
    "build_elliptic_family",
    "get_family",
    "list_families",
    "EXACT",
    "F64",
    "GaussianRational",
    "PiLinear",
    "Rational",
    "approximate",
    "format_scalar",
    "get_backend",
    "parse_scalar",
    "pochhammer",
    "RecurrenceSpec",
    "ComboSpec",
    "run",
    "CoeffStream",
    "Elementary",
    "cauchy_product",
    "elementary_series",
    "gauss_series",
    "hyper_base_series",
    "kummer_series",
    "DeviationReport",
    "BenchReport",
    "compare_oracle",
    "compare_formulations",
    "bench",
    "sweep",
    "__version__",
]
