import ast
from fractions import Fraction
from pathlib import Path

import pytest

import macprod
from macprod import families
from macprod.families import CatalogueError
from macprod.numerics import CoeffStream, GaussianRational, ParameterDomainError
from macprod.verify import (
    BenchReport,
    _compare_streams,
    bench,
    compare_formulations,
    compare_oracle,
    sweep,
)


class TestCompareOracle:
    def test_exact_pass_has_zero_deviation(self):
        rep = compare_oracle("exp-M", {"a": 1, "c": 2, "p": 1}, 40, "exact")
        assert rep.verdict == "pass"
        assert rep.first_mismatch is None
        assert rep.max_abs == 0.0
        assert rep.N == 40
        assert rep.backend == "exact"

    def test_c_two_rejected_for_c2_families(self):
        with pytest.raises(ParameterDomainError, match="c-2|c = 2"):
            compare_oracle("sin-M", {"a": Fraction(1, 2), "c": 2, "p": 1}, 10, "exact")

    def test_elliptic_exact_pass_with_pi(self):
        rep = compare_oracle("exp-K", {"p": 1}, 40, "exact")
        assert rep.verdict == "pass"

    def test_f64_report_metric(self):
        rep = compare_oracle("exp-F", {"a": 0.5, "b": 0.25, "c": 1.5, "p": 1.0}, 48, "f64")
        assert rep.verdict == "pass"
        assert rep.max_rel <= 1e-10

    def test_f64_oracle_whose_terms_overflow(self):
        # the factor (1 + 2z)^-1 reaches 1.8e308 at z^1024 while u_1024 is
        # about -2.0e307: the oracle scales both factors by 2^-n to form it
        params = {"a": Fraction(4, 11), "b": Fraction(-5, 3), "c": Fraction(-4, 11),
                  "p": -1, "theta": -2}
        rep = compare_oracle("binom-F", params, 1024, "f64")
        assert rep.verdict == "pass"
        assert rep.max_rel <= 1e-12

    def test_zero_oracle_entries_use_absolute_bound(self):
        # sin stream has u_0 = 0; the metric must stay finite there
        rep = compare_oracle(
            "sin-M-combo", {"a": 0.0, "c": 1.0, "p": 1.0}, 32, "f64"
        )
        assert rep.verdict == "pass"


def _scalar_fields(got, want, tolerance):
    """The f64 report fields, entry by entry, as a reference for the array code."""
    max_abs = max_rel = 0.0
    first = None
    for n, (x, y) in enumerate(zip(got, want)):
        dx = abs(x - y)
        rel = dx / max(1.0, abs(y))
        max_abs = max(max_abs, dx)
        max_rel = max(max_rel, rel)
        if rel > tolerance and first is None:
            first = n
    return max_abs, max_rel, first, "pass" if max_rel <= tolerance else "fail"


class TestExactReport:
    def test_mismatch_past_double_is_infinite(self):
        big = GaussianRational(10**400)
        want = CoeffStream((GaussianRational(1), big, GaussianRational(2)), "exact")
        got = CoeffStream((GaussianRational(1), big + 1, GaussianRational(3)), "exact")
        rep = _compare_streams(got, want, "exact", 0.0, "exp-M", (), "oracle")
        assert (rep.verdict, rep.first_mismatch) == ("fail", 1)
        assert rep.max_abs == rep.max_rel == float("inf")


class TestF64Report:
    TOL = 1e-8

    def _report(self, got, want):
        def stream(v):
            return CoeffStream(tuple(v), "f64")

        return _compare_streams(stream(got), stream(want), "f64", self.TOL, "exp-M", (), "oracle")

    def _want(self):
        n = range(24)
        return [complex((-1.5) ** k / (k + 1), 0.25 * k) if k % 5 else 0j for k in n]

    def _assert_matches_scalar(self, got, want):
        rep = self._report(got, want)
        fields = (rep.max_abs, rep.max_rel, rep.first_mismatch, rep.verdict)
        assert fields == _scalar_fields(got, want, self.TOL)
        return rep

    def test_within_tolerance(self):
        want = self._want()
        got = [y * (1 + 3e-12) + 1e-13j for y in want]
        rep = self._assert_matches_scalar(got, want)
        assert rep.verdict == "pass" and rep.first_mismatch is None and rep.max_rel > 0

    def test_mismatch_mid_way(self):
        want = self._want()
        got = list(want)
        got[9] += 1e-7 * want[9]  # |y| > 1: relative 1e-7
        got[10] += 5e-9  # y = 0: absolute 5e-9, within the tolerance
        got[17] += 2.0
        rep = self._assert_matches_scalar(got, want)
        assert rep.verdict == "fail" and rep.first_mismatch == 9

    def test_infinite_deviation_fails(self):
        want = self._want()
        got = list(want)
        got[13] = complex(float("inf"), 0.0)
        rep = self._assert_matches_scalar(got, want)
        assert rep.verdict == "fail" and rep.first_mismatch == 13
        assert rep.max_rel == float("inf")

    def test_nan_deviation_fails(self):
        # inf - inf is nan; the scalar loop's max() would drop it and pass
        want = self._want()
        want[6] = complex(float("inf"), 0.0)
        got = list(want)
        rep = self._report(got, want)
        assert rep.verdict == "fail" and rep.first_mismatch == 6
        assert rep.max_abs == rep.max_rel == float("inf")


class TestCompareFormulations:
    def test_combo_vs_single(self):
        rep = compare_formulations(
            "combo-vs-single",
            "sin-F-combo",
            {"a": 1, "b": Fraction(1, 3), "c": Fraction(5, 4), "p": 1},
            40,
            "exact",
        )
        assert rep.verdict == "pass"
        assert rep.comparison == "combo-vs-single"

    def test_combo_vs_single_trivial_at_zero_p(self):
        rep = compare_formulations(
            "combo-vs-single", "sinh-M-combo", {"a": 1, "c": 3, "p": 0}, 24, "exact"
        )
        assert rep.verdict == "pass"

    def test_elliptic_vs_specialized(self):
        rep = compare_formulations(
            "elliptic-vs-specialized-F", "exp-K", {"p": 1}, 40, "exact"
        )
        assert rep.verdict == "pass"

    def test_illegal_pairing(self):
        with pytest.raises(CatalogueError):
            compare_formulations("combo-vs-single", "exp-M", {"a": 1, "c": 2, "p": 1}, 10)
        with pytest.raises(CatalogueError):
            compare_formulations("elliptic-vs-specialized-F", "exp-M", {"a": 1, "c": 2, "p": 1}, 10)
        with pytest.raises(CatalogueError):
            compare_formulations("something-else", "exp-K", {"p": 1}, 10)


class TestRefereeIndependence:
    """The tables and the oracle share no elliptic constant, so a wrong one
    in the catalogue is caught by both comparisons of an elliptic id."""

    def test_a_wrong_catalogue_triple_fails_both_comparisons(self, monkeypatch):
        monkeypatch.setitem(families._ELLIPTIC_ABC, "K", families._ELLIPTIC_ABC["E"])
        assert not compare_oracle("exp-K", {"p": 1}, 12).passed
        assert not compare_formulations("elliptic-vs-specialized-F", "exp-K", {"p": 1}, 12).passed


class TestLayering:
    """The recurrence path and the referee import nothing from each other
    but ``kernels``, whose ``convolve`` the oracle uses; ``verify`` is the one
    module that imports both.  Module-level and
    function-local imports count alike."""

    PACKAGE = Path(macprod.__file__).parent
    RECURRENCE_PATH = {"families", "recurrence_core", "kernels", "_kernels_py"}

    @classmethod
    def imports(cls):
        """Per module of the package, the package modules its source imports."""
        out = {}
        for path in sorted(cls.PACKAGE.glob("*.py")):
            found = set()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    module = node.module or ""
                    if node.level == 0 and not module.startswith("macprod"):
                        continue
                    if node.level == 0:
                        module = module.partition(".")[2]
                    if module:
                        found.add(module.split(".")[0])
                    else:  # from . import a, b
                        found.update(alias.name for alias in node.names)
                elif isinstance(node, ast.Import):
                    found.update(alias.name.split(".")[1] for alias in node.names
                                 if alias.name.startswith("macprod."))
            out[path.stem] = found
        return out

    def test_the_recurrence_path_imports_no_referee(self):
        imports = self.imports()
        for module in self.RECURRENCE_PATH:
            assert not imports[module] & {"series_oracle", "verify"}, module

    def test_the_oracle_imports_no_recurrence(self):
        assert not self.imports()["series_oracle"] & {"families", "recurrence_core", "verify"}

    def test_the_oracle_shares_only_the_kernels(self):
        assert self.imports()["series_oracle"] & self.RECURRENCE_PATH == {"kernels"}

    def test_verify_alone_imports_both_sides(self):
        both = [module for module, found in self.imports().items()
                if "series_oracle" in found and found & self.RECURRENCE_PATH]
        assert both == ["verify"]

    def test_families_take_only_the_spec_types_from_the_engine(self):
        # a build states the catalogue's seeds and rows; every step is the
        # engine's, so families imports none of its steppers
        names = set()
        for node in ast.walk(ast.parse((self.PACKAGE / "families.py").read_text())):
            if isinstance(node, ast.ImportFrom):
                if (node.module or "").endswith("recurrence_core"):
                    names.update(alias.name for alias in node.names)
                else:  # from . import recurrence_core
                    names.update(alias.name for alias in node.names
                                 if alias.name == "recurrence_core")
            elif isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names
                             if alias.name.endswith("recurrence_core"))
        assert names == {"RecurrenceSpec", "ComboSpec"}

    def test_the_reader_sees_function_local_imports(self):
        imports = self.imports()
        assert "recurrence_core" in imports["families"]  # imported inside _spec
        assert "kernels" in imports["series_oracle"]  # imported inside cauchy_product


class TestSweep:
    def test_reproducible(self):
        first = sweep(1, 1, 12, "exact", families=["exp-M", "exp-F", "binom-K"])
        second = sweep(1, 1, 12, "exact", families=["exp-M", "exp-F", "binom-K"])
        assert first == second

    def test_catalogue_order_and_counts(self):
        reports = sweep(5, 2, 8, "exact", families=["exp-M", "exp-K"])
        assert [r.family for r in reports] == ["exp-M", "exp-M", "exp-K", "exp-K"]

    def test_exact_low_order_all_pass(self):
        reports = sweep(
            2,
            3,
            24,
            "exact",
            families=["exp-M", "sin-M-combo", "binom-M", "exp-F", "arctanexp-F", "cosh-E"],
        )
        assert all(r.passed for r in reports)

    def test_failures_are_reports_not_exceptions(self):
        reports = sweep(3, 1, 16, "exact")
        assert len(reports) == 38
        for rep in reports:
            assert rep.verdict in ("pass", "fail")

    def test_overflow_is_a_failing_report(self):
        # the theta = -2 draw (a = -1/4, c = 9/4, p = 3/2) overflows at
        # n = 1051 in f64: exact u_1050 is 1.5069e308, a finite double, and
        # u_1051 is past double
        reports = sweep(1, 6, 1100, "f64", families=["binom-M"])
        assert len(reports) == 6
        failed = [rep for rep in reports if not rep.passed]
        assert [rep.first_mismatch for rep in failed] == [1051]
        assert dict(failed[0].params)["theta"] == "-2.0"

    def test_draws_respect_family_domains(self):
        # excluded c values never appear, even over many trials
        reports = sweep(7, 40, 2, "exact", families=["sin-M"])
        for rep in reports:
            c = dict(rep.params)["c"]
            assert c != "2"


class TestBench:
    def test_repetitions_at_least_one(self):
        with pytest.raises(ValueError, match="repetitions must be at least 1"):
            bench("exp-F", {"a": 0.5, "b": 1 / 3, "c": 1.25, "p": 1.0}, 16, repetitions=0)

    def test_oracle_superlinear_recurrence_linear(self):
        params = {"a": 0.5, "b": 1 / 3, "c": 1.25, "p": 1.0}
        times = {N: bench("exp-F", params, N, repetitions=3) for N in (1024, 8192)}
        # 8x the size: the O(N^2) path must grow clearly superlinearly...
        assert times[8192].oracle_time / times[1024].oracle_time > 8
        # ...while the recurrence path stays close to linear
        assert times[8192].recurrence_time / times[1024].recurrence_time < 8 * 2.5

    def test_smoke(self):
        rep = bench("exp-M", {"a": 0.5, "c": 1.5, "p": 1.0}, 16, repetitions=2)
        assert isinstance(rep, BenchReport)
        assert rep.ratio > 0
        assert rep.recurrence_time > 0
        assert rep.oracle_time > 0
        assert rep.N == 16

    def test_report_dict_round_trip(self):
        rep = bench("exp-F", {"a": 0.5, "b": 0.25, "c": 1.5, "p": 1.0}, 16, repetitions=1)
        d = rep.to_dict()
        assert set(d) == {
            "family",
            "N",
            "repetitions",
            "recurrence_time",
            "oracle_time",
            "ratio",
        }

    def test_no_repetition_times_first_use(self, monkeypatch):
        # loading the C loop, made 0.2 s slower here, happens before timing
        import time

        from macprod import kernels

        build = kernels._build

        def slow_build():
            time.sleep(0.2)
            return build()

        monkeypatch.setattr(kernels, "_build", slow_build)
        kernels._c_impl.cache_clear()
        try:
            rep = bench("exp-F", {"a": 0.5, "b": 1 / 3, "c": 1.25, "p": 1.0}, 64, repetitions=1)
        finally:
            kernels._c_impl.cache_clear()
        assert rep.recurrence_time < 0.1
