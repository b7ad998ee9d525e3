import pickle
from fractions import Fraction
from math import factorial
from random import Random
from zlib import crc32

import numpy as np
import pytest

from macprod import kernels, recurrence_core
from macprod.families import build, get_family, list_families
from macprod.numerics import (
    EXACT,
    GaussianRational,
    NonFiniteError,
    PiLinear,
    SingularIndexError,
    approximate,
    get_backend,
)
from macprod.recurrence_core import (
    COMBINERS,
    ComboSpec,
    RecurrenceSpec,
    run,
)
from macprod.series_oracle import kummer_series
from macprod.verify import draw_params

G = GaussianRational


def gr(num, den=1):
    return G(Fraction(num, den))


def f64_spec(order, seeds, polys, sets=1, **kw):
    """An f64 spec from its row polynomials, one set per sequence:
    P_0, P_1, ..., P_{order+1}, each highest power first (see RecurrenceSpec)."""
    polys = np.array(polys, dtype=np.longdouble).reshape(sets, order + 2, -1)
    return RecurrenceSpec(order, tuple(seeds), polys, "f64", **kw)


def rebuilt(spec, **change):
    """``spec`` constructed anew from its fields, those in ``change`` replaced."""
    fields = {name: getattr(spec, name) for name in type(spec).__slots__}
    return type(spec)(**{**fields, **change})


#: the exact row of u[n+1] = u[n]: entry 0 is 1 over the denominator 1
ONES = (((1,), (0,)), ((0, ((1,), (0,))),))


def poly_row(polys, order):
    """The row of an exact spec's integer polys as a callable: entry i at n is
    num_i(n) / den(n), each polynomial summed term by term."""
    den, terms = polys

    def at(poly, n):
        re, im = (sum(c * n**e for e, c in enumerate(reversed(part))) for part in poly)
        return G(re, im)

    def row(n):
        d = at(den, n)
        out = [G(0)] * (order + 1)
        for i, num in terms:
            out[i] = at(num, n) / d
        return out

    return row


def closure_stream(spec, N, row=None):
    """Reference: evaluate the row at every step as a Fraction n and step in
    the public scalars, reading u below 0 as 0.  The row defaults to the
    spec's own integer polys."""
    row_at = row or poly_row(spec.polys, spec.order)
    values = list(spec.seeds)
    for n in range(spec.start, N):
        row = [EXACT.coerce(b) for b in row_at(Fraction(n))]
        acc = row[0] * values[n]
        for i in range(1, min(n, spec.order) + 1):
            acc = acc + row[i] * values[n - i]
        values.append(acc)
    return tuple(values)


def run_branches(spec):
    """The branches a run of ``spec`` steps: a combo's two, a one-branch
    combo's left one, or the spec itself."""
    if not isinstance(spec, ComboSpec):
        return (spec,)
    return (spec.left,) if spec.right is None else (spec.left, spec.right)


class TestRun:
    def test_exp_M_prefix(self):
        spec = build("exp-M", {"a": 1, "c": 2, "p": 1})
        stream = run(spec, 2)
        assert stream.coeffs == (gr(1), gr(3, 2), gr(7, 6))

    def test_exp_F_prefix(self):
        spec = build("exp-F", {"a": 1, "b": 1, "c": 1, "p": 1})
        stream = run(spec, 3)
        assert stream.coeffs == (gr(1), gr(2), gr(5, 2), gr(8, 3))

    def test_seeds_pass_through(self):
        spec = build("exp-F", {"a": 1, "b": 1, "c": 1, "p": 1})
        assert run(spec, spec.start).coeffs == spec.seeds
        assert run(spec, 0).coeffs == spec.seeds[:1]

    def test_determinism_exact(self):
        spec = build("sin-F", {"a": 1, "b": Fraction(1, 3), "c": Fraction(5, 4), "p": 2})
        assert run(spec, 30).coeffs == run(spec, 30).coeffs

    def test_determinism_f64(self):
        spec = build("sin-F", {"a": 1.0, "b": 1 / 3, "c": 1.25, "p": 2.0}, "f64")
        first = run(spec, 30).coeffs
        second = run(spec, 30).coeffs
        assert all(x == y for x, y in zip(first, second))

    def test_linearity_in_seeds(self):
        rng = Random(12)
        spec = build("exp-F", {"a": Fraction(1, 2), "b": 2, "c": Fraction(7, 3), "p": 1})
        base = run(spec, 40).coeffs
        for _ in range(3):
            lam = gr(rng.randint(-8, 8), rng.randint(1, 8))
            scaled = rebuilt(spec, seeds=tuple(lam * s for s in spec.seeds))
            assert run(scaled, 40).coeffs == tuple(lam * v for v in base)


class TestF64Parity:
    """The C loop and the numpy fallback evaluate the same row polynomials
    with the same long double operations, so every f64 route (the single
    tables, the combo branches, binom's taps, the interleaved inverse-sine
    sequences) gives the same bits, the first steps of each run, which the
    kernel takes on a long double stream, included."""

    @staticmethod
    def draws(info):
        rng = Random(crc32(info.id.encode()) ^ 0xF64)
        for d in range(3):
            params = draw_params(info, rng)
            fl = {k: complex(getattr(params, k)) for k in info.param_names}
            if d == 2:
                fl = {k: v + (0.375j if k in ("a", "p") else 0) for k, v in fl.items()}
            yield fl

    @staticmethod
    def stream(impl, monkeypatch, family, params, N):
        with monkeypatch.context() as m:
            m.setattr(kernels, "_c_impl", lambda: impl)
            try:
                return run(build(family, params, "f64"), N).coeffs.view(np.uint64)
            except (NonFiniteError, SingularIndexError) as exc:
                return type(exc), exc.index

    def check(self, monkeypatch, family, params):
        impls = kernels.implementations()
        if len(impls) < 2:
            pytest.skip("compiled kernels unavailable")
        for N in (64, 2085):  # 2085 crossed two of the former 1024-step blocks
            got, want = (self.stream(impl, monkeypatch, family, params, N) for impl in impls.values())
            if isinstance(want, tuple):
                assert got == want
            else:
                assert np.array_equal(got, want), (family, params, N)

    @pytest.mark.parametrize("info", list_families(), ids=lambda i: i.id)
    def test_implementations_agree_bitwise(self, info, monkeypatch):
        for params in self.draws(info):
            self.check(monkeypatch, info.id, params)

    @pytest.mark.parametrize(
        "family, params",
        [
            ("exp-F", {"a": 0.5, "b": 1 / 3, "c": 1.25, "p": 1.0}),
            ("arctanexp-F", {"a": 0.5, "b": 1 / 3, "c": 1.25, "p": 1.0}),
            ("binom-K", {"p": 1 / 3, "theta": 0.5}),
        ],
    )
    def test_fixed_points_agree_bitwise(self, family, params, monkeypatch):
        self.check(monkeypatch, family, params)


class TestSpecKinds:
    def test_run_accepts_combo(self):
        # M(0,c;z) = 1, so the product is sinh(2z): 2^n/n! at odd n, 0 at even n
        combo = build("sinh-M-combo", {"a": 0, "c": Fraction(4, 3), "p": 2})
        assert isinstance(combo, ComboSpec)
        stream = run(combo, 12)
        assert stream.coeffs == tuple(
            gr(2**n, factorial(n)) if n % 2 else gr(0) for n in range(13)
        )

    @staticmethod
    def _cosh_sinh(y1_gain=1.0):
        # y0' = y1, y1' = y1_gain * y0 from (1, 0), interleaved: stream entry
        # 2n is y0[n] = y1[n-1] / n, written by the step at m = 2n - 1 from
        # lag 0; entry 2n + 1 is y1[n] = y1_gain * y0[n-1] / n, written at
        # m = 2n from lag 2.  Times 2, as polynomials in m: P_0, lags 0 .. 2
        y0 = [(1, 1), (0, 2), (0, 0), (0, 0)]
        y1 = [(1, 0), (0, 0), (0, 0), (0, 2 * y1_gain)]
        return f64_spec(2, (1 + 0j, 0j, 0j), [y0, y1], sets=2)

    def test_interleaved_sequences_return_the_first(self):
        # y0 = cosh z: 1/n! at even n, 0 at odd n
        stream = run(self._cosh_sinh(), 12)
        assert len(stream) == 13
        want = [1 / factorial(n) if n % 2 == 0 else 0 for n in range(13)]
        assert np.allclose(stream.coeffs, want, rtol=1e-15, atol=0)

    def test_interleaved_overflow_names_the_sequence_index(self):
        # with y1_gain = 1e300, y1[1] = 1e300 and y0[2] = 5e299, so y1[3]
        # (stream entry 7) overflows first and y0[4] (stream entry 8) after it
        with pytest.raises(NonFiniteError, match="at n=4") as exc:
            run(self._cosh_sinh(1e300), 6)
        assert exc.value.index == 4

    def test_binomial_convolves_the_stream(self):
        ones = f64_spec(1, (1 + 0j, 1 + 0j), [(1,), (1,), (0,)])
        spec = rebuilt(ones, binomial=(2, -1.0))  # (1 + z)^2
        assert run(spec, 5).coeffs.tolist() == [1, 3, 4, 4, 4, 4]
        assert run(spec, 1).coeffs.tolist() == [1, 3]  # p above N: the taps through u_1

    def test_f64_streams_are_read_only_arrays(self):
        stream = run(build("exp-F", {"a": 0.5, "b": 0.25, "c": 1.5, "p": 1.0}, "f64"), 8)
        assert stream.coeffs.dtype == np.complex128
        with pytest.raises(ValueError, match="read-only"):
            stream.coeffs[0] = 0

    def test_binomial_is_f64_only(self):
        with pytest.raises(ValueError, match="f64 specs only"):
            RecurrenceSpec(1, (gr(1), gr(1)), ONES, "exact", binomial=(1, 1))

    def test_f64_specs_step_polys_not_a_row(self):
        ones = f64_spec(1, (1 + 0j, 1 + 0j), [(1,), (1,), (0,)])
        for change in (
            {"polys": None},
            {"polys": ONES},
            {"polys": ones.polys[:, :2]},  # one polynomial short of order 1
            {"polys": ones.polys[0]},  # no axis of sets
        ):
            with pytest.raises(ValueError, match="polys of shape"):
                rebuilt(ones, **change)

    def test_exact_specs_step_an_integer_row(self):
        spec = RecurrenceSpec(1, (gr(1), gr(1)), ONES, "exact")
        den, terms = ONES
        for polys in (
            None,
            lambda n: (gr(1), gr(0)),  # a row callable
            f64_spec(1, (1 + 0j, 1 + 0j), [(1,), (1,), (0,)]).polys,
            (den,),  # no terms
            (((Fraction(1, 2),), (0,)), terms),  # a Fraction coefficient
            (((1,), (0.0,)), terms),  # a float coefficient
            ((1,), terms),  # a den without its imaginary part
            (den, ((2, ((1,), (0,))),)),  # an entry beyond order 1
            (den, ((0, ((), (0,))),)),  # an empty polynomial
        ):
            with pytest.raises(ValueError, match=r"polys = \(den, terms\)"):
                rebuilt(spec, polys=polys)

    def test_start_is_the_last_seed_index(self):
        spec = RecurrenceSpec(1, (gr(1), gr(1), gr(2)), ONES, "exact")
        assert spec.start == 2
        assert run(spec, 5).coeffs == (gr(1), gr(1), gr(2), gr(2), gr(2), gr(2))
        with pytest.raises(AttributeError):
            spec.start = 1

    @staticmethod
    def outcome(spec, N):
        """The stream as comparable data (f64 bits), or the error's type and index."""
        try:
            coeffs = run(spec, N).coeffs
        except (NonFiniteError, SingularIndexError) as exc:
            return type(exc), exc.index
        if isinstance(coeffs, np.ndarray):
            return coeffs.view(np.uint64).tolist()
        return [repr(v) for v in coeffs]

    @pytest.mark.parametrize("backend", ["exact", "f64"])
    @pytest.mark.parametrize("info", list_families(), ids=lambda i: i.id)
    def test_specs_are_plain_data_that_pickle(self, info, backend):
        params = draw_params(info, Random(crc32(info.id.encode()) + 5))
        if backend == "f64":
            params = {k: complex(getattr(params, k)) for k in info.param_names}
        spec = build(info.id, params, backend)
        branches = run_branches(spec) if isinstance(spec, ComboSpec) else ()
        for s in (spec,) + branches:
            for name in type(s).__slots__:
                assert not callable(getattr(s, name)), (info.id, name)
            copy = pickle.loads(pickle.dumps(s))
            assert self.outcome(copy, 64) == self.outcome(s, 64), info.id


class TestValidation:
    ROW = (((1,), (0,)), ((0, ((1,), (0,))), (1, ((1,), (0,)))))  # u[n+1] = u[n] + u[n-1]

    def test_seed_count(self):
        with pytest.raises(ValueError, match="seed"):
            RecurrenceSpec(1, (), self.ROW, "exact")

    def test_start_below_order(self):
        # seeds that stop below the order run as the window padded with
        # zeros: u_{-1} = 0, so u_1 = u_0 and the stream is Fibonacci's
        fib = (1, 1, 2, 3, 5, 8, 13, 21)
        for order, seeds in ((1, (1,)), (2, (1,)), (2, (1, 1))):
            spec = RecurrenceSpec(order, tuple(map(gr, seeds)), self.ROW, "exact")
            assert spec.start == len(seeds) - 1
            assert run(spec, 7).coeffs == tuple(map(gr, fib))
            assert run(spec, 0).coeffs == (gr(1),)
            fl = f64_spec(order, [complex(s) for s in seeds],
                          [(1,), (1,), (1,)] + [(0,)] * (order - 1))
            for N in (0, 1, 2, 7):  # through the long double steps, then the kernel
                assert run(fl, N).coeffs.tolist() == list(fib[: N + 1])

    def test_order_positive(self):
        with pytest.raises(ValueError, match="order"):
            RecurrenceSpec(0, (gr(1), gr(1)), self.ROW, "exact")

    def test_unknown_combiner(self):
        spec = RecurrenceSpec(1, (gr(1), gr(1)), self.ROW, "exact")
        with pytest.raises(ValueError, match="combiner"):
            ComboSpec(spec, spec, "(u*v)")

    def test_combo_branches_share_one_backend(self):
        exact = RecurrenceSpec(1, (gr(1), gr(1)), self.ROW, "exact")
        fl = f64_spec(1, (1 + 0j, 1 + 0j), [(1,), (1,), (1,)])
        for left, right in ((exact, fl), (fl, exact)):
            with pytest.raises(ValueError, match="share one backend"):
                ComboSpec(left, right, "(u+v)/2")

    @pytest.mark.parametrize("backend", ["exact", "f64"])
    def test_negative_N(self, backend):
        spec = build("exp-M", {"a": 1, "c": 2, "p": 1}, backend)
        with pytest.raises(ValueError, match="N must be nonnegative"):
            run(spec, -1)


class TestErrors:
    # u[n+1] = u[n] / (n - 7)
    OVER_N_MINUS_7 = (((1, -7), (0,)), ((0, ((1,), (0,))),))

    MESSAGE = "recurrence row is singular at n=7: its denominator vanishes"

    def test_singular_index_exact(self):
        spec = RecurrenceSpec(
            order=1,
            seeds=(gr(1), gr(1)),
            polys=self.OVER_N_MINUS_7,
            backend="exact",
        )
        with pytest.raises(SingularIndexError, match="n=7") as exc:
            run(spec, 12)
        assert exc.value.index == 7
        assert str(exc.value) == self.MESSAGE

    def test_singular_index_exact_with_zero_seeds(self):
        spec = RecurrenceSpec(1, (gr(0), gr(0)), self.OVER_N_MINUS_7, "exact")
        with pytest.raises(SingularIndexError, match="n=7"):
            run(spec, 12)

    def test_singular_index_f64(self):
        # u[n+1] = u[n] / (n - 7)
        spec = f64_spec(1, (1.0 + 0j, 1.0 + 0j), [(1, -7), (0, 1), (0, 0)])
        with pytest.raises(SingularIndexError, match=self.MESSAGE) as exc:
            run(spec, 12)
        assert exc.value.index == 7
        assert run(spec, 7).coeffs[-1] == pytest.approx(1 / 720)  # steps n = 1 .. 6 ran

    def test_first_steps_name_the_singular_row(self):
        # the kernel's long double stream, which takes an f64 run's first
        # steps, returns a vanishing row denominator's index, the one the
        # exact stepper reports
        with pytest.raises(SingularIndexError, match=self.MESSAGE) as exc:
            run(RecurrenceSpec(1, (gr(1), gr(1)), self.OVER_N_MINUS_7, "exact"), 12)
        assert exc.value.index == 7
        polys = f64_spec(1, (1.0 + 0j, 1.0 + 0j), [(1, -7), (0, 1), (0, 0)]).polys
        for impl in kernels.implementations().values():
            u = np.zeros(13, dtype=np.clongdouble)
            u[:2] = 1
            assert kernels.recurrence_steps(polys, u, 1, impl=impl) == 7
        # an order-8 row over n - 7 whose one seed is u_0: the run reaches the
        # singular row among the long double steps, before the kernel
        spec = f64_spec(8, (1.0 + 0j,), [(1, -7), (0, 1)] + [(0, 0)] * 8)
        with pytest.raises(SingularIndexError, match=self.MESSAGE) as exc:
            run(spec, 12)
        assert exc.value.index == 7
        assert run(spec, 7).coeffs[-1] == pytest.approx(-1 / 5040)

    def test_non_finite_f64(self):
        # u[n+1] = 1e200 u[n]: u_2 = 1e200, u_3 overflows
        spec = f64_spec(1, (1.0 + 0j, 1.0 + 0j), [(1,), (1e200,), (0,)])
        with pytest.raises(NonFiniteError, match="n=3") as exc:
            run(spec, 6)
        assert exc.value.index == 3

    def test_non_finite_seed_f64(self):
        # the inverse-sine seed y4[0] = p a / c is past double, and the
        # seeds that read it, through y1[2] (exact u_2 = p a / c), have no
        # value; a run that takes no step reports them too.  y1[1] = y2[0] +
        # y3[0] skips lag 0, whose polynomial is zero, so 0 * inf never enters
        spec = build("arcsin-M", {"a": 1e300, "c": 0.5, "p": 1e10}, "f64")
        assert run(spec, 1).coeffs.tolist() == [0, 1e10]
        with pytest.raises(NonFiniteError, match="n=2") as exc:
            run(spec, 2)
        assert exc.value.index == 2

    def test_entry_beyond_double_f64(self):
        # u[n+1] = 1e308 n u[n]: the entry is a long double, but not a
        # double from n = 2; no denominator vanishes, so the run steps on and
        # reports u_3, the first value past double
        spec = f64_spec(1, (1.0 + 0j, 1.0 + 0j), [(0, 1), (1e308, 0), (0, 0)])
        with pytest.raises(NonFiniteError, match="n=3") as exc:
            run(spec, 6)
        assert exc.value.index == 3


class TestExactScalars:
    @pytest.mark.parametrize("info", list_families(), ids=lambda i: i.id)
    def test_streams_hold_only_exact_scalars(self, info):
        params = draw_params(info, Random(crc32(info.id.encode())))
        for v in run(build(info.id, params), 40).coeffs:
            assert type(v) in (GaussianRational, PiLinear), type(v)
            parts = (v.q0, v.q1) if type(v) is PiLinear else (v,)
            for g in parts:
                assert type(g) is GaussianRational
                assert type(g.re) is Fraction and type(g.im) is Fraction

    @pytest.mark.parametrize("info", list_families(), ids=lambda i: i.id)
    def test_equals_stepping_the_row_closure(self, info):
        params = draw_params(info, Random(crc32(info.id.encode()) + 1))
        spec = build(info.id, params)
        for branch in run_branches(spec):
            want = closure_stream(branch, 30)
            got = run(branch, 30).coeffs
            assert got == want
            assert [type(v) for v in got] == [type(v) for v in want]

    @pytest.mark.parametrize("info", list_families(), ids=lambda i: i.id)
    def test_real_parameters_give_real_integer_rows(self, info):
        # the table evaluation stays out of Gaussian integers at real
        # parameters; only the sin/cos combos have branches at +-ip
        params = draw_params(info, Random(crc32(info.id.encode()) + 2))
        spec = build(info.id, params)
        at_ip = info.formulation == "combo" and info.h in ("sin", "cos")
        for branch in run_branches(spec):
            den, terms = branch.polys
            imaginary = [poly[1] for poly in [den] + [num for _, num in terms]]
            real = all(im == (0,) for im in imaginary)
            assert real != at_ip, info.id

    def test_int_and_fraction_seeds_step_to_gaussian_rationals(self):
        # entries n + 1 and 1 / (n + 2): (n + 1)(n + 2) and 1 over n + 2
        polys = (((1, 2), (0,)), ((0, ((1, 3, 2), (0,))), (1, ((1,), (0,)))))
        spec = RecurrenceSpec(1, (1, Fraction(1, 2)), polys, "exact")
        coeffs = run(spec, 4).coeffs
        assert coeffs[:2] == (1, Fraction(1, 2))
        assert all(type(v) is GaussianRational for v in coeffs[2:])
        assert coeffs[2] == gr(1) + gr(1, 3)


class TestIntegerStepper:
    """Exact streams step as integer numerators over one running denominator."""

    @staticmethod
    def draw(info, kind):
        params = draw_params(info, Random(crc32(info.id.encode()) + 3))
        if kind == "complex":
            return {
                k: G(getattr(params, k)) + (G(0, Fraction(2, 5)) if k in ("c", "p") else 0)
                for k in info.param_names
            }
        return params

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("info", list_families(), ids=lambda i: i.id)
    def test_equals_stepping_the_row_closure_at_256(self, info, kind):
        spec = build(info.id, self.draw(info, kind))
        for branch in run_branches(spec):
            want = closure_stream(branch, 256)
            got = run(branch, 256).coeffs
            assert got == want
            assert [repr(v) for v in got] == [repr(v) for v in want]

    # a real row, and one whose denominator (n - s)(n + i) is complex off
    # n = s: the callable, and its integer row over 3 (n - s) (n + i)
    ROWS = {
        "real": lambda s: (
            lambda n: (1 / (n - s), Fraction(1, 3)),
            (((3, -3 * s), (0,)), ((0, ((3,), (0,))), (1, ((1, -s), (0,))))),
        ),
        "complex": lambda s: (
            lambda n: (1 / ((n - s) * (n + G(0, 1))), Fraction(1, 3)),
            (((3, -3 * s, 0), (3, -3 * s)), ((0, ((3,), (0,))), (1, ((1, -s, 0), (1, -s))))),
        ),
    }

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("at", [1, 7])  # the first step, and a later one
    def test_singular_index(self, kind, at):
        row, polys = self.ROWS[kind](at)
        spec = RecurrenceSpec(1, (gr(1), gr(2)), polys, "exact")
        with pytest.raises(SingularIndexError, match=f"n={at}") as exc:
            run(spec, 12)
        assert exc.value.index == at
        assert run(spec, at).coeffs == closure_stream(spec, at, row)

    @pytest.mark.parametrize(
        "seeds",
        [(gr(1), gr(1, 2), gr(-1, 3)), (gr(1), G(Fraction(1, 2), Fraction(-2, 7)), gr(-1, 3))],
        ids=["real", "complex"],
    )
    def test_negative_denominators(self, seeds):
        # the integer row's denominator 7 (2n - 41)(n^2 - 150)(61 - 2n)
        # changes sign at n = 13, 21 and 31
        def row(n):
            return (
                (n + 1) / (2 * n - 41), Fraction(2, 7) / (n * n - 150), 1 / (Fraction(61, 2) - n)
            )

        polys = (
            ((-28, 1428, -13307, -214200, 2626050), (0,)),
            (
                (0, ((-14, 413, 2527, -61950, -64050), (0,))),
                (1, ((-8, 408, -5002), (0,))),
                (2, ((28, -574, -4200, 86100), (0,))),
            ),
        )
        spec = RecurrenceSpec(2, seeds, polys, "exact")
        want = closure_stream(spec, 60, row)
        got = run(spec, 60).coeffs
        assert got == want
        assert [repr(v) for v in got] == [repr(v) for v in want]

    @pytest.mark.parametrize("family_id", ["arccos-M", "exp-K"])
    def test_pi_linear_steps_as_two_rational_streams(self, family_id):
        info = get_family(family_id)
        spec = build(family_id, self.draw(info, "real"))
        assert any(isinstance(s, PiLinear) for s in spec.seeds)
        got = run(spec, 80).coeffs
        assert got == closure_stream(spec, 80)

        def part(q):  # the stream of the seeds' rational (q0) or pi (q1) parts
            seeds = tuple(
                getattr(s, q) if isinstance(s, PiLinear) else (s if q == "q0" else gr(0))
                for s in spec.seeds
            )
            return list(run(rebuilt(spec, seeds=seeds), 80).coeffs[spec.start + 1:])

        stepped = got[spec.start + 1:]
        assert all(type(v) is PiLinear for v in stepped)
        assert [v.q0 for v in stepped] == part("q0")
        assert [v.q1 for v in stepped] == part("q1")


class TestSingularMidRun:
    """A row that turns singular mid-run is reported at its n, with the
    same message, after the entries before it were stepped."""

    # u[n+1] = u[n] / (n - 7) + u[n-1] / 3, and the same over a complex
    # denominator 3 (n - 7)(n + i)
    ROWS = {
        "real": (((3, -21), (0,)), ((0, ((3,), (0,))), (1, ((1, -7), (0,))))),
        "complex": (((3, -21, 0), (3, -21)), ((0, ((3,), (0,))), (1, ((1, -7, 0), (1, -7))))),
    }
    SEEDS = {
        "real": (gr(1), gr(2)),
        "complex": (gr(1), G(Fraction(1, 2), Fraction(-2, 7))),
        "pi": (PiLinear(gr(1), gr(1, 2)), PiLinear(gr(2), gr(-1, 3))),
        "zero": (gr(0), gr(0)),
    }
    MESSAGE = "recurrence row is singular at n=7: its denominator vanishes"

    def spec(self, row, seeds):
        return RecurrenceSpec(1, self.SEEDS[seeds], self.ROWS[row], "exact")

    def raises_at_7(self, spec, N=12):
        with pytest.raises(SingularIndexError) as exc:
            run(spec, N)
        assert str(exc.value) == self.MESSAGE
        assert exc.value.index == 7

    @pytest.mark.parametrize("seeds", ["real", "complex", "pi", "zero"])
    @pytest.mark.parametrize("row", ["real", "complex"])
    def test_singular_mid_run(self, row, seeds):
        spec = self.spec(row, seeds)
        self.raises_at_7(spec)
        self.raises_at_7(spec, 8)
        out = run(spec, 7).coeffs  # u_2 .. u_7 were stepped before n = 7
        assert len(out) == 8 and out == closure_stream(spec, 7)

    @pytest.mark.parametrize("combiner", COMBINERS)
    @pytest.mark.parametrize("row", ["real", "complex"])
    def test_singular_mid_run_in_a_combo(self, row, combiner):
        left = self.spec(row, "complex")
        zero = self.spec(row, "zero")  # a one-branch combo steps all-zero seeds too
        for combo in (ComboSpec(left, left, combiner), ComboSpec(left, None, combiner),
                      ComboSpec(zero, None, combiner)):
            self.raises_at_7(combo)
            assert len(run(combo, 7).coeffs) == 8


class TestConjugateParts:
    """A one-branch combo forms only the part its combiner reads, to the
    values and types of the Gaussian-rational formula on the branch and its
    conjugate.  No combo can be built with pi-linear seeds."""

    @staticmethod
    def left(family):
        info = get_family(family)
        params = draw_params(info, Random(crc32(family.encode()) + 9))
        return build(family, {k: getattr(params, k) for k in info.param_names}).left

    @pytest.mark.parametrize("combiner", COMBINERS)
    @pytest.mark.parametrize("family", ["sin-M-combo", "cos-F-combo"])
    def test_equals_the_formula(self, family, combiner):
        branch = self.left(family)
        combo = ComboSpec(branch, None, combiner)
        combine, scale, _ = recurrence_core._COMBINE[combiner]
        u = run(branch, 40).coeffs
        want = [combine(x, x.conjugate()) * scale(EXACT) for x in u]
        got = run(combo, 40).coeffs
        assert [repr(v) for v in got] == [repr(v) for v in want]

    @pytest.mark.parametrize("combiner", COMBINERS)
    @pytest.mark.parametrize("family", ["sin-M-combo", "cos-F-combo"])
    def test_pi_linear_seeds_are_rejected(self, family, combiner):
        left = self.left(family)
        for seeds in (
            tuple(PiLinear(s, s * gr(1, 2)) for s in left.seeds),  # a K/E-like stream
            tuple(PiLinear(gr(0), s) for s in left.seeds),
        ):
            branch = rebuilt(left, seeds=seeds)
            for right in (None, branch, left):
                with pytest.raises(ValueError, match="pi"):
                    ComboSpec(branch, right, combiner)
            with pytest.raises(ValueError, match="pi"):
                ComboSpec(left, branch, combiner)  # pi on the right branch alone


class TestCombo:
    def test_sinh_at_zero_p_vanishes(self):
        combo = build("sinh-M-combo", {"a": 1, "c": 3, "p": 0})
        stream = run(combo, 12)
        assert all(v == gr(0) for v in stream.coeffs)

    def test_cosh_at_zero_p_is_base(self):
        combo = build("cosh-M-combo", {"a": 1, "c": 3, "p": 0})
        stream = run(combo, 12)
        assert stream.coeffs == kummer_series(gr(1), gr(3), 12).coeffs

    def test_sin_combo_entry_one(self):
        combo = build("sin-F-combo", {"a": 1, "b": 1, "c": 1, "p": 1})
        stream = run(combo, 3)
        assert stream[1] == gr(1)
        # sin(z)/(1-z): partial sums of sin's coefficients
        assert stream[3] == gr(5, 6)

    def test_imaginary_combiner_produces_real_stream(self):
        combo = build("sin-M-combo", {"a": Fraction(1, 2), "c": Fraction(4, 3), "p": 2})
        stream = run(combo, 16)
        assert all(v.im == 0 for v in stream.coeffs)


class TestConjugateBranches:
    """At real a, b, c and p the sin/cos branch at -ip is the conjugate of the
    one at +ip: a run steps one branch, and its result keeps every bit of
    the two branches stepped apart and combined."""

    EXACT_IDS = ("sin-M-combo", "cos-M-combo", "sin-F-combo", "cos-F-combo")
    F64_IDS = EXACT_IDS + tuple(f"{h}-{b}" for b in "MFKE" for h in ("sin", "cos"))

    @staticmethod
    def draws(family, backend):
        """Real draws at a negative p, at p = 0 and at a positive p."""
        info = get_family(family)
        params = draw_params(info, Random(crc32(family.encode()) + 7))
        magnitude = abs(params.p) or Fraction(3, 2)
        for p in (-magnitude, Fraction(0), magnitude + Fraction(1, 3)):
            values = {k: getattr(params, k) for k in info.param_names} | {"p": p}
            yield {k: complex(v) for k, v in values.items()} if backend == "f64" else values

    @staticmethod
    def two_branches(family, params, backend, N):
        """The parent formula: the exp-X branches at +ip and -ip, each built
        and stepped on its own, combined entrywise."""
        info = get_family(family)
        bk = get_backend(backend)
        q = bk.imaginary_unit() * bk.coerce(params["p"])
        exp_id = f"exp-{info.base}"
        u, v = (run(build(exp_id, dict(params, p=s), backend), N).coeffs for s in (q, -q))
        combine, scale, _ = recurrence_core._COMBINE[build(family, params, backend).combiner]
        if backend == "f64":
            return combine(u, v) * scale(bk)
        return [combine(x, y) * scale(bk) for x, y in zip(u, v)]

    @staticmethod
    def bits(coeffs):
        if isinstance(coeffs, np.ndarray):
            return coeffs.view(np.uint64).tolist()
        return [(type(v), v.re, v.im, type(v.re), type(v.im)) for v in coeffs]

    def check(self, family, backend, N, monkeypatch):
        stepped = []  # the polys of each stream stepped: exact in _stream, f64 in _run_f64
        stream, run_f64 = recurrence_core._stream, recurrence_core._run_f64

        def exact_stream(polys, *args):
            stepped.append(polys)
            return stream(polys, *args)

        def f64_stream(spec, n):
            stepped.append(spec.polys)
            return run_f64(spec, n)

        monkeypatch.setattr(recurrence_core, "_stream", exact_stream)
        monkeypatch.setattr(recurrence_core, "_run_f64", f64_stream)
        for params in self.draws(family, backend):
            spec = build(family, params, backend)
            assert spec.right is None
            stepped.clear()
            got = run(spec, N).coeffs
            assert len(stepped) == 1 and stepped[0] is spec.left.polys, (family, params)
            want = self.two_branches(family, params, backend, N)
            assert self.bits(got) == self.bits(want), (family, params, N)

    @pytest.mark.parametrize("N", [64, 1024])
    @pytest.mark.parametrize("family", EXACT_IDS)
    def test_exact_combos(self, family, N, monkeypatch):
        self.check(family, "exact", N, monkeypatch)

    @pytest.mark.parametrize("N", [64, 1024])
    @pytest.mark.parametrize("family", F64_IDS)
    def test_f64_routes(self, family, N, monkeypatch):
        self.check(family, "f64", N, monkeypatch)

    @pytest.mark.parametrize("backend", ["exact", "f64"])
    @pytest.mark.parametrize("family", EXACT_IDS)
    def test_complex_p_steps_both_branches(self, family, backend):
        info = get_family(family)
        params = draw_params(info, Random(crc32(family.encode()) + 8))
        params = {k: getattr(params, k) for k in info.param_names}
        params["p"] = G(params["p"], Fraction(2, 5))
        if backend == "f64":
            params = {k: complex(approximate(v)) for k, v in params.items()}
        spec = build(family, params, backend)
        assert spec.right is not None
        got = run(spec, 64).coeffs
        assert self.bits(got) == self.bits(self.two_branches(family, params, backend, 64))


class TestSpecEquality:
    """Specs, combos and streams compare and hash by identity, so ``==`` and
    ``hash`` never raise, f64 arrays included: a value equals itself, and
    two builds are two values."""

    PARAMS = {"a": Fraction(1, 2), "b": Fraction(1, 3), "c": Fraction(3, 2), "p": Fraction(2)}

    @pytest.mark.parametrize("backend", ["exact", "f64"])
    @pytest.mark.parametrize("family", ["exp-M", "sin-M-combo", "sinh-F-combo", "arcsin-M"])
    def test_builds_and_streams(self, family, backend):
        info = get_family(family)
        params = {k: self.PARAMS[k] for k in info.param_names}
        if backend == "f64":
            params = {k: complex(v) for k, v in params.items()}
        one, two = (build(family, params, backend) for _ in range(2))
        values = [one, two, run(one, 4), run(one, 4)]
        if isinstance(one, ComboSpec):
            values += [b for b in (one.left, one.right, two.left) if b is not None]
        for x in values:
            assert x == x and hash(x) == hash(x)
        for i, x in enumerate(values):
            for y in values[i + 1:]:
                assert x != y
        assert len(set(values)) == len(values)
