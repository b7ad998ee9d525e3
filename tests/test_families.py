import cmath
import math
from fractions import Fraction
from random import Random
from zlib import crc32

import numpy as np
import pytest

from macprod import _kernels_py
from macprod.families import (
    CatalogueError,
    Params,
    build,
    build_elliptic_family,
    build_F_family,
    build_M_family,
    disc_radius,
    get_family,
    list_families,
    params_snapshot,
)
from macprod.numerics import (
    EXACT,
    GaussianRational,
    NonFiniteError,
    ParameterDomainError,
    PiLinear,
    SingularIndexError,
    approximate,
    get_backend,
)
from macprod.recurrence_core import ComboSpec, RecurrenceSpec, run
from macprod.series_oracle import (
    Elementary,
    cauchy_product,
    elementary_series,
    gauss_series,
    hyper_base_series,
    kummer_series,
    scale_stream,
)
from macprod.verify import compare_oracle, draw_params, oracle_stream, recurrence_stream, sweep

G = GaussianRational


def gr(num, den=1):
    return G(Fraction(num, den))


#: the catalogue as it stood before one rule built it: every row's repr, and
#: the bytes of ``macprod list``
CATALOGUE_REPRS = """\
FamilyInfo(id='exp-M', base='M', h='exp', formulation='single', order=1, radius='entire', param_names=('a', 'c', 'p'), c_excludes_2=False)
FamilyInfo(id='sinh-M-combo', base='M', h='sinh', formulation='combo', order=1, radius='entire', param_names=('a', 'c', 'p'), c_excludes_2=False)
FamilyInfo(id='cosh-M-combo', base='M', h='cosh', formulation='combo', order=1, radius='entire', param_names=('a', 'c', 'p'), c_excludes_2=False)
FamilyInfo(id='sin-M-combo', base='M', h='sin', formulation='combo', order=1, radius='entire', param_names=('a', 'c', 'p'), c_excludes_2=False)
FamilyInfo(id='cos-M-combo', base='M', h='cos', formulation='combo', order=1, radius='entire', param_names=('a', 'c', 'p'), c_excludes_2=False)
FamilyInfo(id='binom-M', base='M', h='binom', formulation='single', order=2, radius='1/|theta|', param_names=('a', 'c', 'p', 'theta'), c_excludes_2=False)
FamilyInfo(id='arctanexp-M', base='M', h='exp_arctan', formulation='single', order=4, radius='1', param_names=('a', 'c', 'p'), c_excludes_2=False)
FamilyInfo(id='sin-M', base='M', h='sin', formulation='single', order=5, radius='entire', param_names=('a', 'c', 'p'), c_excludes_2=True)
FamilyInfo(id='cos-M', base='M', h='cos', formulation='single', order=5, radius='entire', param_names=('a', 'c', 'p'), c_excludes_2=True)
FamilyInfo(id='sinh-M', base='M', h='sinh', formulation='single', order=5, radius='entire', param_names=('a', 'c', 'p'), c_excludes_2=True)
FamilyInfo(id='cosh-M', base='M', h='cosh', formulation='single', order=5, radius='entire', param_names=('a', 'c', 'p'), c_excludes_2=True)
FamilyInfo(id='arcsin-M', base='M', h='arcsin', formulation='single', order=11, radius='1/|p|', param_names=('a', 'c', 'p'), c_excludes_2=True)
FamilyInfo(id='arccos-M', base='M', h='arccos', formulation='single', order=11, radius='1/|p|', param_names=('a', 'c', 'p'), c_excludes_2=True)
FamilyInfo(id='exp-F', base='F', h='exp', formulation='single', order=2, radius='1', param_names=('a', 'b', 'c', 'p'), c_excludes_2=False)
FamilyInfo(id='sinh-F-combo', base='F', h='sinh', formulation='combo', order=2, radius='1', param_names=('a', 'b', 'c', 'p'), c_excludes_2=False)
FamilyInfo(id='cosh-F-combo', base='F', h='cosh', formulation='combo', order=2, radius='1', param_names=('a', 'b', 'c', 'p'), c_excludes_2=False)
FamilyInfo(id='sin-F-combo', base='F', h='sin', formulation='combo', order=2, radius='1', param_names=('a', 'b', 'c', 'p'), c_excludes_2=False)
FamilyInfo(id='cos-F-combo', base='F', h='cos', formulation='combo', order=2, radius='1', param_names=('a', 'b', 'c', 'p'), c_excludes_2=False)
FamilyInfo(id='binom-F', base='F', h='binom', formulation='single', order=2, radius='min(1,1/|theta|)', param_names=('a', 'b', 'c', 'p', 'theta'), c_excludes_2=False)
FamilyInfo(id='arctanexp-F', base='F', h='exp_arctan', formulation='single', order=4, radius='1', param_names=('a', 'b', 'c', 'p'), c_excludes_2=False)
FamilyInfo(id='sin-F', base='F', h='sin', formulation='single', order=9, radius='1', param_names=('a', 'b', 'c', 'p'), c_excludes_2=True)
FamilyInfo(id='cos-F', base='F', h='cos', formulation='single', order=9, radius='1', param_names=('a', 'b', 'c', 'p'), c_excludes_2=True)
FamilyInfo(id='sinh-F', base='F', h='sinh', formulation='single', order=9, radius='1', param_names=('a', 'b', 'c', 'p'), c_excludes_2=True)
FamilyInfo(id='cosh-F', base='F', h='cosh', formulation='single', order=9, radius='1', param_names=('a', 'b', 'c', 'p'), c_excludes_2=True)
FamilyInfo(id='exp-K', base='K', h='exp', formulation='single', order=2, radius='1', param_names=('p',), c_excludes_2=False)
FamilyInfo(id='binom-K', base='K', h='binom', formulation='single', order=2, radius='min(1,1/|theta|)', param_names=('p', 'theta'), c_excludes_2=False)
FamilyInfo(id='arctanexp-K', base='K', h='exp_arctan', formulation='single', order=4, radius='1', param_names=('p',), c_excludes_2=False)
FamilyInfo(id='sin-K', base='K', h='sin', formulation='single', order=9, radius='1', param_names=('p',), c_excludes_2=False)
FamilyInfo(id='cos-K', base='K', h='cos', formulation='single', order=9, radius='1', param_names=('p',), c_excludes_2=False)
FamilyInfo(id='sinh-K', base='K', h='sinh', formulation='single', order=9, radius='1', param_names=('p',), c_excludes_2=False)
FamilyInfo(id='cosh-K', base='K', h='cosh', formulation='single', order=9, radius='1', param_names=('p',), c_excludes_2=False)
FamilyInfo(id='exp-E', base='E', h='exp', formulation='single', order=2, radius='1', param_names=('p',), c_excludes_2=False)
FamilyInfo(id='binom-E', base='E', h='binom', formulation='single', order=2, radius='min(1,1/|theta|)', param_names=('p', 'theta'), c_excludes_2=False)
FamilyInfo(id='arctanexp-E', base='E', h='exp_arctan', formulation='single', order=4, radius='1', param_names=('p',), c_excludes_2=False)
FamilyInfo(id='sin-E', base='E', h='sin', formulation='single', order=9, radius='1', param_names=('p',), c_excludes_2=False)
FamilyInfo(id='cos-E', base='E', h='cos', formulation='single', order=9, radius='1', param_names=('p',), c_excludes_2=False)
FamilyInfo(id='sinh-E', base='E', h='sinh', formulation='single', order=9, radius='1', param_names=('p',), c_excludes_2=False)
FamilyInfo(id='cosh-E', base='E', h='cosh', formulation='single', order=9, radius='1', param_names=('p',), c_excludes_2=False)
"""

LIST_TEXT = """\
exp-M         M  exp         single  k=1   n0=1   entire            a,c,p
sinh-M-combo  M  sinh        combo   k=1   n0=1   entire            a,c,p
cosh-M-combo  M  cosh        combo   k=1   n0=1   entire            a,c,p
sin-M-combo   M  sin         combo   k=1   n0=1   entire            a,c,p
cos-M-combo   M  cos         combo   k=1   n0=1   entire            a,c,p
binom-M       M  binom       single  k=2   n0=2   1/|theta|         a,c,p,theta
arctanexp-M   M  exp_arctan  single  k=4   n0=4   1                 a,c,p
sin-M         M  sin         single  k=5   n0=5   entire            a,c,p
cos-M         M  cos         single  k=5   n0=5   entire            a,c,p
sinh-M        M  sinh        single  k=5   n0=5   entire            a,c,p
cosh-M        M  cosh        single  k=5   n0=5   entire            a,c,p
arcsin-M      M  arcsin      single  k=11  n0=11  1/|p|             a,c,p
arccos-M      M  arccos      single  k=11  n0=11  1/|p|             a,c,p
exp-F         F  exp         single  k=2   n0=2   1                 a,b,c,p
sinh-F-combo  F  sinh        combo   k=2   n0=2   1                 a,b,c,p
cosh-F-combo  F  cosh        combo   k=2   n0=2   1                 a,b,c,p
sin-F-combo   F  sin         combo   k=2   n0=2   1                 a,b,c,p
cos-F-combo   F  cos         combo   k=2   n0=2   1                 a,b,c,p
binom-F       F  binom       single  k=2   n0=2   min(1,1/|theta|)  a,b,c,p,theta
arctanexp-F   F  exp_arctan  single  k=4   n0=4   1                 a,b,c,p
sin-F         F  sin         single  k=9   n0=9   1                 a,b,c,p
cos-F         F  cos         single  k=9   n0=9   1                 a,b,c,p
sinh-F        F  sinh        single  k=9   n0=9   1                 a,b,c,p
cosh-F        F  cosh        single  k=9   n0=9   1                 a,b,c,p
exp-K         K  exp         single  k=2   n0=2   1                 p
binom-K       K  binom       single  k=2   n0=2   min(1,1/|theta|)  p,theta
arctanexp-K   K  exp_arctan  single  k=4   n0=4   1                 p
sin-K         K  sin         single  k=9   n0=9   1                 p
cos-K         K  cos         single  k=9   n0=9   1                 p
sinh-K        K  sinh        single  k=9   n0=9   1                 p
cosh-K        K  cosh        single  k=9   n0=9   1                 p
exp-E         E  exp         single  k=2   n0=2   1                 p
binom-E       E  binom       single  k=2   n0=2   min(1,1/|theta|)  p,theta
arctanexp-E   E  exp_arctan  single  k=4   n0=4   1                 p
sin-E         E  sin         single  k=9   n0=9   1                 p
cos-E         E  cos         single  k=9   n0=9   1                 p
sinh-E        E  sinh        single  k=9   n0=9   1                 p
cosh-E        E  cosh        single  k=9   n0=9   1                 p
"""


class TestCatalogue:
    def test_catalogue_is_pinned(self, capsys):
        from macprod import cli

        infos = list_families()
        assert "".join(f"{info!r}\n" for info in infos) == CATALOGUE_REPRS
        assert len({info.id for info in infos}) == len(infos) == 38
        assert cli.main(["list"]) == 0
        assert capsys.readouterr() == (LIST_TEXT, "")

    def test_total_count(self):
        assert len(list_families()) == 38

    def test_m_base_count(self):
        # the twelve M-base statements plus the symmetry-completing cos combo
        m = [f for f in list_families() if f.base == "M"]
        assert len(m) == 13
        assert sum(1 for f in m if f.formulation == "combo") == 4

    def test_ids_unique_and_stable(self):
        ids = [f.id for f in list_families()]
        assert len(ids) == len(set(ids))
        assert ids[:3] == ["exp-M", "sinh-M-combo", "cosh-M-combo"]

    def test_arcsin_shape(self):
        info = get_family("arcsin-M")
        assert info.order == 11
        assert info.start == 11

    def test_sin_F_shape(self):
        info = get_family("sin-F")
        assert info.order == 9
        assert info.start == 9

    @pytest.mark.parametrize("info", list_families(), ids=lambda info: info.id)
    def test_exact_spec_shape_matches_catalogue(self, info):
        # a spec holds only the catalogue's seeds: u_0, or u_0 and u_1 for
        # a second-order h's own table; a combo's branches are exp tables
        spec = build(info.id, {k: Fraction(1, 3) for k in info.param_names})
        branches = (spec.left, spec.right) if isinstance(spec, ComboSpec) else (spec,)
        seeds = 2 if info.formulation == "single" and info.h in SECOND_ORDER else 1
        for s in (b for b in branches if b is not None):
            assert (s.order, len(s.seeds)) == (info.order, seeds)

    def test_unknown_family(self):
        with pytest.raises(CatalogueError):
            get_family("tan-M")

    def test_builder_wrappers(self):
        spec = build_M_family("exp", "single", {"a": 1, "c": 2, "p": 1})
        assert spec.seeds == (gr(1),)
        assert run(spec, 1).coeffs == (gr(1), gr(3, 2))
        combo = build_F_family("sin", "combo", {"a": 1, "b": 1, "c": 1, "p": 1})
        assert isinstance(combo, ComboSpec)
        ell = build_elliptic_family("K", "exp", {"p": 1})
        assert ell.seeds[0] == EXACT.half_pi()
        with pytest.raises(CatalogueError):
            build_M_family("exp", "combo", {"a": 1, "c": 2, "p": 1})
        with pytest.raises(CatalogueError):
            build_elliptic_family("M", "exp", {"p": 1})
        with pytest.raises(CatalogueError, match="unknown elementary kind 'foo'"):
            build_M_family("foo", "single", {"a": 1, "c": 2, "p": 1})


class TestValidation:
    def test_c_nonpositive_integer(self):
        for c in (0, -1, -5):
            with pytest.raises(ParameterDomainError, match="c"):
                build("exp-M", {"a": 1, "c": c, "p": 1})

    def test_c_two_excluded_where_rows_carry_it(self):
        with pytest.raises(ParameterDomainError, match="c-2|c - 2|\\(c-2\\)"):
            build("sin-M", {"a": Fraction(1, 2), "c": 2, "p": 1})

    def test_c_two_allowed_elsewhere(self):
        build("exp-M", {"a": 1, "c": 2, "p": 1})
        build("binom-F", {"a": 1, "b": 1, "c": 2, "p": 1, "theta": 1})

    def test_missing_parameter(self):
        with pytest.raises(ParameterDomainError, match="requires"):
            build("exp-F", {"a": 1, "b": 1, "c": 1})

    def test_extra_parameter(self):
        with pytest.raises(ParameterDomainError, match="does not take"):
            build("exp-M", {"a": 1, "b": 1, "c": 2, "p": 1})

    def test_fractional_c_near_excluded(self):
        build("sin-M", {"a": 1, "c": Fraction(-7, 2), "p": 1})

    @pytest.mark.parametrize("family, params, name", [
        ("exp-M", {"a": 1, "c": 1, "p": PiLinear(0, 1)}, "p"),
        ("exp-M", {"a": PiLinear(1, 0), "c": 1, "p": 1}, "a"),
        ("sin-M", {"a": 1, "c": PiLinear(0, 1), "p": 1}, "c"),
    ], ids=["exp-M-p-pi", "exp-M-a-pi-linear", "sin-M-c-pi"])
    def test_parameters_carrying_pi_are_refused(self, family, params, name):
        # the tables take Gaussian rationals; a PiLinear, even one whose pi
        # part is zero, is refused by name before the build reads it
        message = f"family {family}: parameter {name} carries pi"
        with pytest.raises(ParameterDomainError, match=message):
            build(family, params)
        with pytest.raises(ParameterDomainError, match=message):
            compare_oracle(family, params, 8)


class TestSeeds:
    """A spec's seeds are the catalogue's u_0 (u_1); the run steps the
    table's first entries from them."""

    @staticmethod
    def head(family_id, params):
        """The spec's seeds, and u_0 .. u_k of its run, k the order."""
        spec = build(family_id, params)
        return spec.seeds, run(spec, spec.order).coeffs

    def test_exp_M(self):
        seeds, head = self.head("exp-M", {"a": 1, "c": 2, "p": 1})
        assert seeds == (gr(1),)
        assert head == (gr(1), gr(3, 2))

    def test_exp_F(self):
        seeds, head = self.head("exp-F", {"a": 1, "b": 1, "c": 1, "p": 1})
        assert seeds == (gr(1),)
        assert head == (gr(1), gr(2), gr(5, 2))

    def test_arcsin_at_zero_a_matches_classical_series(self):
        p = gr(1)
        seeds, head = self.head("arcsin-M", {"a": 0, "c": Fraction(3, 2), "p": 1})
        series = elementary_series(Elementary("arcsin", p=p), 11)
        assert seeds == (gr(0), gr(1))
        assert head == series.coeffs
        assert head[5] == gr(3, 40)
        assert head[7] == gr(5, 112)
        assert head[9] == gr(35, 1152)
        assert head[11] == gr(63, 2816)

    def test_exp_K_normalized_values(self):
        seeds, head = self.head("exp-K", {"p": 1})
        half_pi = EXACT.half_pi()
        assert seeds == (half_pi,)
        assert head[0] == half_pi
        assert head[1] == half_pi * gr(5, 4)
        assert head[2] == half_pi * gr(57, 64)

    def test_binom_K_u1(self):
        for theta, p in ((gr(1), gr(1)), (gr(2, 3), gr(-1, 2))):
            seeds, head = self.head("binom-K", {"p": p.re, "theta": theta.re})
            half_pi = EXACT.half_pi()
            assert seeds == (half_pi,)
            assert head[1] == half_pi * ((1 - 4 * theta * p) / 4)

    def test_exp_E_u1_at_zero_p(self):
        seeds, head = self.head("exp-E", {"p": 0})
        assert head[1] == EXACT.half_pi() * gr(-1, 4)


def _assert_oracle_equal(family_id, params, N):
    got = recurrence_stream(family_id, params, N, "exact")
    want = oracle_stream(family_id, params, N, "exact")
    mismatches = [
        (n, x, y) for n, (x, y) in enumerate(zip(got.coeffs, want.coeffs)) if x != y
    ]
    assert not mismatches, (
        f"{family_id} deviates from the oracle first at n={mismatches[0][0]}: "
        f"recurrence={mismatches[0][1]} oracle={mismatches[0][2]}"
    )


# Families whose shipped row table the referee is known to reject.  Empty since
# the arcsin-M/arccos-M row is derived from the product ODE.
KNOWN_DEVIATING = ()

#: the two families that share the order-11 arcsin-M row
INVERSE_SINE = ("arcsin-M", "arccos-M")
#: the elementary kinds whose own table is second order, seeded with u_0 and u_1
SECOND_ORDER = ("sin", "cos", "sinh", "cosh", "arcsin", "arccos")


class TestOracleEquality:
    @pytest.mark.parametrize(
        "info",
        [i for i in list_families() if i.id not in KNOWN_DEVIATING],
        ids=lambda i: i.id,
    )
    def test_random_draws(self, info):
        rng = Random(crc32(info.id.encode()))
        for _ in range(2):
            params = draw_params(info, rng)
            _assert_oracle_equal(info.id, params, 28)


class TestComplexParameters:
    """Non-real a, b, c, p and theta: the exact engine's Gaussian stepping."""

    VALUES = {
        "a": G(Fraction(2, 3), Fraction(-1, 5)),
        "b": G(Fraction(-3, 4), Fraction(1, 2)),
        "c": G(Fraction(7, 5), Fraction(1, 3)),
        "p": G(Fraction(1, 2), Fraction(1, 3)),
        "theta": G(Fraction(-1, 3), Fraction(1, 4)),
    }

    @pytest.mark.parametrize("info", list_families(), ids=lambda i: i.id)
    def test_equals_oracle(self, info):
        params = Params(**{name: self.VALUES[name] for name in info.param_names})
        got = recurrence_stream(info.id, params, 24).coeffs
        assert any(approximate(v).imag for v in got)
        _assert_oracle_equal(info.id, params, 24)


#: each of the nine tables with every elementary kind it serves
OPERATOR_CASES = [
    (table, h, base)
    for base in ("M", "F")
    for table, kinds in (
        ("exp", ("exp",)),
        ("binom", ("binom",)),
        ("arctanexp", ("exp_arctan",)),
        ("sin", ("sin", "cos", "sinh", "cosh")),
        ("arcsin", ("arcsin", "arccos")),
    )
    if not (table == "arcsin" and base == "F")
    for h in kinds
]
OPERATOR_NAMES = sorted({f"{table}-{base}" for table, _, base in OPERATOR_CASES})


class TestOperators:
    """Each table's operator sum_j z^j P_j(theta) annihilates its products.

    Applied to the oracle's exact product series through z^60, the residual
    is exactly 0.  The operator is evaluated from the table's terms in
    Gaussian rationals here, independently of the engine's integer tables.
    """

    N = 60
    COMPLEX = TestComplexParameters.VALUES

    @staticmethod
    def theta_polys(entry, values):
        """Per P_j its theta-coefficients {t: value} at ``values``."""
        names, *polys = entry
        out = []
        for poly in polys:
            coeffs = {}
            for term in poly.split(","):
                coef, t, *exps = map(int, term.split())
                m = G(coef)
                for x, e in zip(names.split(), exps):
                    m = m * values[x] ** e
                coeffs[t] = coeffs.get(t, 0) + m
            out.append(coeffs)
        return out

    def residual(self, entry, h, base, params):
        pp = {k: EXACT.coerce(v) for k, v in params.items()}
        w = pp["p"] * pp["p"]
        values = dict(pp, w=-w if h in ("sinh", "cosh") else w)
        factor = Elementary(h, p=pp["p"], theta=pp.get("theta"))
        u = cauchy_product(
            elementary_series(factor, self.N, EXACT),
            hyper_base_series(base, self.N, EXACT, a=pp["a"], b=pp.get("b"), c=pp["c"]),
        ).coeffs
        P = self.theta_polys(entry, values)
        return [
            sum(
                (sum(co * (s - j) ** t for t, co in Pj.items()) * u[s - j]
                 for j, Pj in enumerate(P) if s >= j),
                G(0),
            )
            for s in range(self.N + 1)
        ]

    def draws(self, h, base):
        token = {"exp_arctan": "arctanexp"}.get(h, h)
        info = get_family(f"{token}-{base}")
        rng = Random(crc32(info.id.encode()) ^ 0x0DE)
        rational = [
            {k: getattr(d, k) for k in info.param_names}
            for d in (draw_params(info, rng), draw_params(info, rng))
        ]
        return rational + [{k: self.COMPLEX[k] for k in info.param_names}]

    @pytest.mark.parametrize("table, h, base", OPERATOR_CASES)
    def test_residual_is_zero(self, table, h, base):
        from macprod import families

        entry = families._OPERATORS[f"{table}-{base}"]
        for params in self.draws(h, base):
            assert all(not r for r in self.residual(entry, h, base, params)), params

    @pytest.mark.parametrize("table, base", [("exp", "M"), ("sin", "F"), ("arcsin", "M")])
    def test_one_changed_coefficient_leaves_a_residual(self, table, base):
        from macprod import families

        names, *polys = families._OPERATORS[f"{table}-{base}"]
        coef, rest = polys[1].split(" ", 1)
        mutant = (names, polys[0], f"{int(coef) + 1} {rest}", *polys[2:])
        h = {"exp": "exp", "sin": "sin", "arcsin": "arcsin"}[table]
        for params in self.draws(h, base):
            assert any(self.residual(mutant, h, base, params)), params


class TestKnownTableDeviation:
    """The referee flags a table that does not satisfy its product.

    A perturbed copy of the arcsin-M operator is installed for the test
    only: P_1 gains a term w = p^2, so row entry b0 is off by
    -p^2 / P_0(n+1).  u_0 and u_1 are closed forms; the table steps every
    later value, so u_2 is the first to deviate.
    """

    @pytest.mark.parametrize("family_id", INVERSE_SINE)
    def test_referee_reports_first_mismatch_past_seeds(self, family_id, monkeypatch):
        from macprod import families
        from macprod.verify import compare_oracle

        names, *polys = families._OPERATORS["arcsin-M"]
        assert names == "a c w"
        perturbed = (names, polys[0], polys[1] + ", 1 0 0 0 1", *polys[2:])
        monkeypatch.setitem(families._OPERATORS, "arcsin-M", perturbed)
        info = get_family(family_id)
        rng = Random(crc32(family_id.encode()))
        seen = 0
        while seen < 2:
            params = draw_params(info, rng)
            if params.p == 0:  # every row deviation carries a p^2 factor
                continue
            seen += 1
            seeds_only = compare_oracle(family_id, params, 1, "exact")
            assert seeds_only.passed  # u_0 and u_1 certify exactly
            rep = compare_oracle(family_id, params, 20, "exact")
            assert rep.verdict == "fail"
            assert rep.first_mismatch == 2
            assert rep.max_abs > 0


class TestReplacedTable:
    """A replaced operator entry reaches the exact and the f64 builds alike.

    Each family is built from the shipped table first, so a cache that kept
    that table would serve it again.  The replacement changes one
    coefficient of P_1; both backends must then step it, agreeing with each
    other and not with the shipped table.
    """

    VALUES = {"a": Fraction(1, 3), "b": Fraction(-5, 4), "c": Fraction(7, 5),
              "p": Fraction(3, 4), "theta": Fraction(2, 3)}
    N = 12

    @pytest.mark.parametrize(
        "name", [f"{t}-{b}" for t in ("exp", "binom", "arctanexp") for b in ("M", "F")]
    )
    def test_both_backends_step_the_replaced_table(self, name, monkeypatch):
        from macprod import families

        params = {k: self.VALUES[k] for k in get_family(name).param_names}

        def streams():
            exact = [approximate(u) for u in run(build(name, params), self.N).coeffs]
            return np.array(exact), run(build(name, params, "f64"), self.N).coeffs

        shipped, _ = streams()
        names, *polys = families._OPERATORS[name]
        coef, rest = polys[1].split(" ", 1)
        mutant = (names, polys[0], f"{int(coef) + 1} {rest}", *polys[2:])
        monkeypatch.setitem(families._OPERATORS, name, mutant)
        exact, f64 = streams()
        scale = np.abs(exact).max()
        assert np.abs(exact - shipped).max() > 1e-6 * scale
        assert np.abs(f64 - exact).max() <= 1e-13 * scale


class TestPlan:
    """``families._plan`` builds each operator's matrix in Python integers.

    It must equal the int64 computation it replaced (per P_j, a binomial
    shift matrix times the table's terms), its nonzero entries must give
    that matrix's product, and its long double copy, made on first f64 use,
    must equal it.
    """

    @staticmethod
    def int64_matrix(entry):
        from macprod import families

        _, size, degree, _, monomials = families._parse(entry)
        width = degree + 1
        terms = np.zeros((size, width, len(monomials)), dtype=np.int64)
        for m, (_, uses) in enumerate(monomials):
            for j, t, coef in uses:
                terms[j, degree - t, m] = -coef if j else coef
        for j in range(size):
            s = 1 - j
            shift = [[math.comb(degree - i, degree - r) * s ** (r - i) if i <= r else 0
                      for i in range(width)] for r in range(width)]
            terms[j] = np.array(shift, dtype=np.int64) @ terms[j]
        return terms.reshape(size * width, -1)

    @pytest.mark.parametrize("name", OPERATOR_NAMES)
    def test_matrix_equals_the_int64_computation(self, name):
        from macprod import families

        entry = families._OPERATORS[name]
        plan = families._plan(entry)
        want = self.int64_matrix(entry)
        got = plan.matrix()
        assert got == want.tolist()
        assert all(type(x) is int for row in got for x in row)
        rng = Random(crc32(name.encode()))
        values = [rng.randint(-10**30, 10**30) for _ in plan.exps]
        assert plan.times(values) == [sum(x * v for x, v in zip(row, values)) for row in got]
        assert plan.wide.dtype == np.longdouble and plan.wide.shape == want.shape
        assert np.array_equal(plan.wide, want) and plan.wide is plan.wide
        assert np.array_equal(plan.exps_array, np.array(plan.exps))


class TestSingularRows:
    """The validator rejects every c at which P_0(n+1) vanishes for some
    n past the seeds; a spec built around it reports the row where its run
    meets it, at the n where the factor c + n is 0."""

    @pytest.mark.parametrize(
        "family_id, c, index",
        [("arctanexp-M", -2, 2), ("sin-M", -3, 3), ("cos-F", -3, 3)],
    )
    def test_run_reports_the_singular_index(self, family_id, c, index):
        from macprod import families

        info = get_family(family_id)
        params = Params(
            **{k: Fraction(c) if k == "c" else Fraction(1, 3) for k in info.param_names}
        )
        with pytest.raises(ParameterDomainError, match="c must not be"):
            build(family_id, params)
        # around the validator, with the params coerced as build coerces them
        spec = families._route(info, families.conform_params(params, EXACT), EXACT)
        assert len(run(spec, index).coeffs) == index + 1
        with pytest.raises(SingularIndexError, match=f"n={index}") as exc:
            run(spec, index + 1)
        assert exc.value.index == index


class TestRoute:
    """Every id, in both backends and at every kind of p, is served by the
    formulation ``families._route`` names for it."""

    P = {"real": Fraction(1, 3), "zero": Fraction(0), "integer": Fraction(2),
         "negative-integer": Fraction(-2), "complex": G(Fraction(1, 3), Fraction(2, 5))}
    OTHERS = {"a": Fraction(1, 3), "b": Fraction(1, 5), "c": Fraction(3, 2),
              "theta": Fraction(3, 4)}

    @staticmethod
    def sets(spec):
        """The sets of row polynomials an f64 spec steps, one per sequence;
        an exact spec steps one row."""
        return spec.polys.shape[0] if spec.backend == "f64" else 1

    @pytest.mark.parametrize("p", list(P))
    @pytest.mark.parametrize("backend", ["exact", "f64"])
    @pytest.mark.parametrize("info", list_families(), ids=lambda info: info.id)
    def test_formulation(self, info, backend, p):
        params = {k: self.OTHERS.get(k, self.P[p]) for k in info.param_names}
        if backend == "f64":
            params = {k: complex(approximate(v)) for k, v in params.items()}
        spec = build(info.id, params, backend)
        f64 = backend == "f64"
        exp_order = get_family(f"exp-{info.base}").order
        if info.formulation == "combo" or f64 and info.h in ("sin", "cos", "sinh", "cosh"):
            # the exp-X branches; sin and cos at real parameters carry one
            assert isinstance(spec, ComboSpec)
            assert (spec.right is None) == (info.h in ("sin", "cos") and p != "complex")
            for branch in (spec.left, spec.right):
                if branch is not None:
                    assert (branch.order, self.sets(branch), branch.binomial) == (exp_order, 1, ())
            return
        assert isinstance(spec, RecurrenceSpec)
        if f64 and info.h in ("arcsin", "arccos"):
            assert (spec.order, self.sets(spec), spec.binomial) == (11, 4, ())
        elif f64 and info.h == "binom" and p in ("zero", "integer"):
            want = (int(self.P[p]), params["theta"])
            assert (spec.order, self.sets(spec), spec.binomial) == (exp_order, 1, want)
        else:  # the id's own table, exp-* and arctanexp-* in f64 too
            assert (spec.order, self.sets(spec), spec.binomial) == (info.order, 1, ())


class TestFormulationAgreement:
    @pytest.mark.parametrize("h", ["sin", "cos", "sinh", "cosh"])
    @pytest.mark.parametrize("base", ["M", "F"])
    def test_combo_equals_single(self, h, base):
        rng = Random(17)
        info = get_family(f"{h}-{base}")
        params = draw_params(info, rng)
        single = recurrence_stream(f"{h}-{base}", params, 40, "exact")
        combo = recurrence_stream(f"{h}-{base}-combo", params, 40, "exact")
        assert single.coeffs == combo.coeffs


class TestDegeneracies:
    N = 32

    def test_zero_a_reduces_M_products_to_elementary(self):
        c = Fraction(7, 5)
        for fam in ("exp-M", "sin-M", "cosh-M", "arctanexp-M"):
            params = {"a": 0, "c": c, "p": Fraction(3, 2)}
            got = recurrence_stream(fam, params, self.N, "exact")
            info = get_family(fam)
            h = elementary_series(
                Elementary(info.h, p=gr(3, 2)), self.N, EXACT
            )
            assert got.coeffs == h.coeffs

    def test_zero_ab_reduces_F_products_to_elementary(self):
        params = {"a": 0, "b": Fraction(5, 3), "c": Fraction(7, 5), "p": 1}
        got = recurrence_stream("sinh-F", params, self.N, "exact")
        h = elementary_series(Elementary("sinh", p=gr(1)), self.N, EXACT)
        assert got.coeffs == h.coeffs

    def test_zero_p_reduces_even_families_to_base(self):
        a, c = Fraction(2, 3), Fraction(7, 5)
        base = kummer_series(a, c, self.N).coeffs
        for fam in ("exp-M", "cos-M", "cosh-M", "arctanexp-M"):
            got = recurrence_stream(fam, {"a": a, "c": c, "p": 0}, self.N, "exact")
            assert got.coeffs == base
        got = recurrence_stream(
            "binom-M", {"a": a, "c": c, "p": 0, "theta": Fraction(1, 2)}, self.N, "exact"
        )
        assert got.coeffs == base

    def test_zero_p_annihilates_odd_families(self):
        a, c = Fraction(2, 3), Fraction(7, 5)
        for fam in ("sin-M", "sinh-M", "arcsin-M"):
            got = recurrence_stream(fam, {"a": a, "c": c, "p": 0}, self.N, "exact")
            assert all(v == gr(0) for v in got.coeffs)

    def test_zero_p_sends_arccos_to_half_pi_base(self):
        a, c = Fraction(2, 3), Fraction(7, 5)
        got = recurrence_stream("arccos-M", {"a": a, "c": c, "p": 0}, self.N, "exact")
        half_pi = EXACT.half_pi()
        base = kummer_series(a, c, self.N).coeffs
        assert got.coeffs == tuple(half_pi * v for v in base)

    def test_zero_theta_reduces_binomials_to_base(self):
        a, b, c = Fraction(1, 3), Fraction(4, 3), Fraction(7, 5)
        got = recurrence_stream(
            "binom-M", {"a": a, "c": c, "p": 2, "theta": 0}, self.N, "exact"
        )
        assert got.coeffs == kummer_series(a, c, self.N).coeffs
        got = recurrence_stream(
            "binom-F", {"a": a, "b": b, "c": c, "p": 2, "theta": 0}, self.N, "exact"
        )
        assert got.coeffs == gauss_series(a, b, c, self.N).coeffs

    def test_kummer_collapse(self):
        # c = a turns the exponential-M product into exp((p+1) z)
        a = Fraction(5, 4)
        p = Fraction(2, 3)
        got = recurrence_stream("exp-M", {"a": a, "c": a, "p": p}, self.N, "exact")
        want = elementary_series(Elementary("exp", p=gr(5, 3)), self.N, EXACT)
        assert got.coeffs == want.coeffs

    def test_gauss_collapse(self):
        # b = c, theta = 1 turns the binomial-F product into (1-z)^(p-a)
        a, b, p = Fraction(1, 3), Fraction(9, 4), Fraction(1, 2)
        got = recurrence_stream(
            "binom-F", {"a": a, "b": b, "c": b, "p": p, "theta": 1}, self.N, "exact"
        )
        want = elementary_series(
            Elementary("binom", p=gr(1, 6), theta=gr(1)), self.N, EXACT
        )
        assert got.coeffs == want.coeffs


class TestEllipticConsistency:
    @pytest.mark.parametrize(
        "h", ["exp", "binom", "arctanexp", "sin", "cos", "sinh", "cosh"]
    )
    @pytest.mark.parametrize("kind", ["K", "E"])
    def test_half_pi_times_specialized_F(self, kind, h):
        params = {"p": Fraction(2, 3)}
        if h == "binom":
            params["theta"] = Fraction(3, 4)
        ell = recurrence_stream(f"{h}-{kind}", params, 40, "exact")
        a = Fraction(1, 2) if kind == "K" else Fraction(-1, 2)
        f_params = dict(params, a=a, b=Fraction(1, 2), c=1)
        f_id = f"{h}-F"
        f_stream = recurrence_stream(f_id, f_params, 40, "exact")
        half_pi = EXACT.half_pi()
        assert ell.coeffs == scale_stream(f_stream, half_pi).coeffs


#: ids whose f64 requests leave the single recurrence for a stable route
TRIG_HYP_SINGLES = tuple(
    f"{h}-{base}" for base in ("M", "F", "K", "E") for h in ("sin", "cos", "sinh", "cosh")
)
REROUTED = TRIG_HYP_SINGLES + INVERSE_SINE


class TestFloatRoutes:
    @pytest.mark.parametrize("family_id", REROUTED)
    def test_exact_keeps_single_f64_reroutes(self, family_id):
        info = get_family(family_id)
        params = {k: Fraction(1, 3) for k in info.param_names}
        exact = build(family_id, params)
        assert isinstance(exact, RecurrenceSpec)
        assert (exact.order, len(exact.seeds)) == (info.order, 2)  # u_0 and u_1
        fl = build(family_id, {k: 1 / 3 for k in info.param_names}, "f64")
        if family_id in INVERSE_SINE:  # four coupled sequences, interleaved
            assert isinstance(fl, RecurrenceSpec)
            # the seeds are the four sequences' entries at n = 0
            assert (fl.order, len(fl.seeds), fl.polys.shape[0]) == (11, 4, 4)
        else:
            assert isinstance(fl, ComboSpec)

    @pytest.mark.parametrize("family_id", INVERSE_SINE)
    def test_inverse_sine_overflow_names_the_coefficient_index(self, family_id):
        # the coefficients grow like 30^n: exact u_211 = 1.2265e308 and
        # u_212 = 4.9059e307 are finite doubles, u_213 is the first past double
        params = {"a": 0.5, "c": 1.25, "p": 30.0}
        with pytest.raises(NonFiniteError, match="at n=213") as exc:
            recurrence_stream(family_id, params, 400, "f64")
        assert exc.value.index == 213
        # the failing draw (a = 0.2, c = 1.2, p = 2) overflows where exact's
        # u_1041 is the first entry past double
        reports = sweep(35, 2, 1100, "f64", families=[family_id])
        assert [(r.verdict, r.first_mismatch) for r in reports if not r.passed] == [("fail", 1041)]

    @pytest.mark.parametrize("family_id", ["binom-M", "binom-F", "binom-K", "binom-E"])
    def test_binomial_at_integer_p_convolves_the_exp_stream(self, family_id):
        info = get_family(family_id)
        params = {k: 0.5 for k in info.param_names} | {"p": 2.0, "theta": 3.0}
        spec = build(family_id, params, "f64")
        assert spec.binomial == (2, 3)  # (1 - 3z)^2
        exp_params = {k: v for k, v in params.items() if k != "theta"}
        base = build(f"exp-{info.base}", dict(exp_params, p=0.0), "f64")
        assert (spec.order, spec.start, spec.seeds) == (base.order, base.start, base.seeds)

    @pytest.mark.parametrize("family_id", ["binom-M", "binom-F", "binom-K", "binom-E"])
    def test_binomial_at_huge_integer_p_forms_only_the_taps_it_reads(self, family_id):
        # p + 1 taps would take 8 GB at p = 1e9; a run through u_7 forms 8
        info = get_family(family_id)
        values = {"a": Fraction(1), "b": Fraction(1, 3), "c": Fraction(2),
                  "p": Fraction(10**9), "theta": Fraction(1, 2)}
        params = {k: values[k] for k in info.param_names}
        exact = recurrence_stream(family_id, params, 7, "exact")
        fl = recurrence_stream(family_id, {k: complex(v) for k, v in params.items()}, 7, "f64")
        for x, y in zip(fl.coeffs, exact.coeffs):
            assert abs(x - approximate(y)) <= 1e-12 * abs(approximate(y))

    @pytest.mark.parametrize("family_id", REROUTED)
    def test_rerouted_finite_at_8192(self, family_id):
        info = get_family(family_id)
        rng = Random(crc32(family_id.encode()) ^ 0x2000)
        seen = 0
        while seen < 2:
            pe = draw_params(info, rng)
            if family_id in INVERSE_SINE and abs(pe.p) > 1:
                continue  # the true coefficients grow like |p|^n
            seen += 1
            fl_params = {k: approximate(getattr(pe, k)) for k in pe.present()}
            stream = recurrence_stream(family_id, fl_params, 8192, "f64")
            assert all(cmath.isfinite(v) for v in stream.coeffs)

    def test_c_two_still_rejected_in_f64(self):
        for family_id in ("sin-M", "cosh-F", "arcsin-M", "arccos-M"):
            info = get_family(family_id)
            params = {k: 2.0 if k == "c" else 0.5 for k in info.param_names}
            with pytest.raises(ParameterDomainError, match="c = 2"):
                build(family_id, params, "f64")


class TestExpBranches:
    """Each trig/hyp product is its base's exp-X product at +q and at -q,
    combined entrywise: q = ip for sin and cos, q = p for sinh and cosh."""

    CASES = [
        (f"{h}-{base}-combo", "exact") for base in ("M", "F") for h in ("sin", "cos", "sinh", "cosh")
    ] + [(family_id, "f64") for family_id in TRIG_HYP_SINGLES]

    @pytest.mark.parametrize("family_id, backend", CASES)
    def test_equals_combined_exp_streams(self, family_id, backend):
        info = get_family(family_id)
        bk = get_backend(backend)
        pe = draw_params(info, Random(crc32(family_id.encode())))
        params = {
            k: approximate(getattr(pe, k)) if backend == "f64" else getattr(pe, k)
            for k in pe.present()
        }
        i = bk.imaginary_unit()
        p = bk.coerce(params["p"])
        q = i * p if info.h in ("sin", "cos") else p
        exp_id = f"exp-{info.base}"
        u = recurrence_stream(exp_id, dict(params, p=q), 30, backend).coeffs
        v = recurrence_stream(exp_id, dict(params, p=-q), 30, backend).coeffs
        if info.h in ("sin", "sinh"):
            diff = [x - y for x, y in zip(u, v)]
        else:
            diff = [x + y for x, y in zip(u, v)]
        scale = -i / 2 if info.h == "sin" else bk.one() / 2
        got = recurrence_stream(family_id, params, 30, backend)
        assert list(got.coeffs) == [d * scale for d in diff]


class TestFloatFidelity:
    STABLE = REROUTED + (
        "exp-M",
        "sinh-M-combo",
        "cosh-M-combo",
        "sin-M-combo",
        "cos-M-combo",
        "arctanexp-M",
        "exp-F",
        "sinh-F-combo",
        "cosh-F-combo",
        "sin-F-combo",
        "cos-F-combo",
        "arctanexp-F",
        "exp-K",
        "arctanexp-K",
        "exp-E",
        "arctanexp-E",
    )

    @pytest.mark.parametrize("family_id", STABLE)
    def test_low_order_families_track_exact(self, family_id):
        info = get_family(family_id)
        rng = Random(crc32(family_id.encode()) ^ 0xF1)
        for _ in range(3):
            pe = draw_params(info, rng)
            exact = recurrence_stream(family_id, pe, 64, "exact")
            fl_params = {k: approximate(getattr(pe, k)) for k in pe.present()}
            fl = recurrence_stream(family_id, fl_params, 64, "f64")
            for x, y in zip(fl.coeffs, exact.coeffs):
                ya = approximate(y)
                assert abs(x - ya) / max(1.0, abs(ya)) <= 1e-8

    @pytest.mark.parametrize("family_id", ["binom-M", "binom-F", "binom-K"])
    @pytest.mark.parametrize("p", [0, 1, 2])
    @pytest.mark.parametrize("theta", [Fraction(3, 2), Fraction(3), Fraction(-2)])
    def test_binomial_at_integer_p_tracks_exact(self, family_id, p, theta):
        # the order-2 row's other solution grows like theta^n here
        values = {
            "a": Fraction(1, 3), "b": Fraction(2, 3), "c": Fraction(7, 5), "p": p, "theta": theta
        }
        params = {k: values[k] for k in get_family(family_id).param_names}
        exact = recurrence_stream(family_id, params, 64, "exact")
        fl = recurrence_stream(family_id, {k: complex(v) for k, v in params.items()}, 64, "f64")
        for x, y in zip(fl.coeffs, exact.coeffs):
            ya = approximate(y)
            assert abs(x - ya) / max(1.0, abs(ya)) <= 1e-12

    @pytest.mark.parametrize("family_id", ["binom-M", "binom-F", "binom-K"])
    @pytest.mark.parametrize("theta", [Fraction(3, 2), Fraction(3), Fraction(-2)])
    def test_binomial_at_large_integer_p_tracks_exact(self, family_id, theta):
        # p = 200 taps, more than half the stream.  u_n sums C(p, j)(-theta)^j
        # b_{n-j}, whose terms reach 1e79 at theta = 3/2 while u_n is about
        # (1 - theta)^p b_n for n > p: no f64 sum keeps relative digits there,
        # so the bound is on the sum of the terms' sizes, which is |u_n| itself
        # at theta = -2 (every term positive)
        N, p = 300, 200
        values = {"a": Fraction(1, 3), "b": Fraction(2, 3), "c": Fraction(7, 5), "p": p, "theta": theta}
        info = get_family(family_id)
        params = {k: values[k] for k in info.param_names}
        exact = recurrence_stream(family_id, params, N, "exact")
        fl = recurrence_stream(family_id, {k: complex(v) for k, v in params.items()}, N, "f64")
        h = elementary_series(Elementary("binom", p=p, theta=theta), N, EXACT)
        b = hyper_base_series(info.base, N, EXACT, a=values["a"], b=values["b"], c=values["c"])
        size = np.convolve(
            [abs(approximate(v)) for v in h.coeffs], [abs(approximate(v)) for v in b.coeffs]
        )
        for x, y, s in zip(fl.coeffs, exact.coeffs, size):
            ya = approximate(y)
            assert abs(x - ya) <= 1e-12 * max(1.0, s)
            if theta < 0:
                assert abs(x - ya) / max(1.0, abs(ya)) <= 1e-12

    @pytest.mark.parametrize("family_id", ["binom-M", "binom-F", "binom-K", "binom-E"])
    @pytest.mark.parametrize("p", [Fraction(11, 2), Fraction(41, 2), Fraction(-7, 2)])
    @pytest.mark.parametrize("theta", [Fraction(3, 2), Fraction(-3)])
    def test_binomial_at_large_theta_tracks_exact(self, family_id, p, theta):
        # |theta| > 1 at a p that is no nonnegative integer: the order-2 row's
        # other solution outgrows the wanted one by a power of n, so f64 takes
        # the convolution with all N + 1 coefficients of (1 - theta z)^p.
        # Metrics, at N = 256, against exact at the same (binary) parameters:
        # every entry's error within 1e-14 of s_n, the sum of the sizes of
        # the terms C(p, j)(-theta)^j b_{n-j} of u_n; and its relative error
        # within 1e-14 wherever they cancel by less than 10 (s_n <= 10 |u_n|).
        # At p = 41/2, theta = 3/2 the terms cancel in most entries of the F,
        # K and E ids, and no double sum keeps relative digits there.
        N = 256
        values = {"a": Fraction(1, 3), "b": Fraction(2, 3), "c": Fraction(7, 5), "p": p,
                  "theta": theta}
        info = get_family(family_id)
        params = {k: values[k] for k in info.param_names}
        spec = build(family_id, {k: complex(v) for k, v in params.items()}, "f64")
        assert spec.binomial == (p, theta)  # all N + 1 taps
        exact = recurrence_stream(family_id, params, N, "exact")
        fl = run(spec, N)
        h = elementary_series(Elementary("binom", p=p, theta=theta), N, EXACT)
        b = hyper_base_series(info.base, N, EXACT, a=values["a"], b=values["b"], c=values["c"])
        size = np.convolve(
            [abs(approximate(v)) for v in h.coeffs], [abs(approximate(v)) for v in b.coeffs]
        )
        for x, y, s in zip(fl.coeffs, exact.coeffs, size):
            ya = approximate(y)
            assert abs(x - ya) <= 1e-14 * s
            if s <= 10 * abs(ya):
                assert abs(x - ya) <= 1e-14 * abs(ya)

    @pytest.mark.skipif(
        np.finfo(np.longdouble).nmant <= np.finfo(np.float64).nmant,
        reason="long double is no wider than double on this platform",
    )
    @pytest.mark.parametrize(
        "family_id", ["exp-M", "exp-F", "binom-M", "binom-F", "arctanexp-M", "arctanexp-F"]
    )
    def test_rows_and_seeds_are_correctly_rounded(self, family_id):
        # f64 rows and seeds against the exact ones at the parameters' binary
        # values, rounded once: a rare near-tie may land one ulp off
        info = get_family(family_id)
        rng = Random(crc32(family_id.encode()) ^ 0x5EED)
        same = total = 0
        for draw in range(4):
            fl = {k: complex(approximate(getattr(draw_params(info, rng), k)))
                  for k in info.param_names}
            if draw == 3:
                fl["p"] = complex(fl["p"].real, 0.75)
            if family_id.startswith("binom"):  # keep the draw on the binom table:
                if fl["p"].real.is_integer():
                    fl["p"] += 0.5  # an integer p routes to the exp row and taps,
                if abs(fl["theta"]) > 1:
                    fl["theta"] = 1 / fl["theta"]  # and so does |theta| > 1
            exact = build(family_id, {
                k: G(Fraction(v.real), Fraction(v.imag)) for k, v in fl.items()})
            spec = build(family_id, fl, "f64")
            assert not spec.binomial  # the id's own table
            got = _kernels_py.rows(spec.polys, spec.start, 200 - spec.start)[0].T
            want = [
                [complex(float(x.re), float(x.im)) for x in exact_row(exact, n)]
                for n in range(spec.start, 200)
            ]
            pairs = [(got[i, j], w[i]) for j, w in enumerate(want) for i in range(len(w))]
            heads = (run(s, info.order).coeffs for s in (spec, exact))  # seeds and first steps
            pairs += [(x, approximate(y)) for x, y in zip(*heads)]
            for x, y in pairs:
                assert abs(x - y) <= 2.3e-16 * abs(y)
            same += sum(x == y for x, y in pairs)
            total += len(pairs)
        assert same >= 0.99 * total


def exact_row(spec, n):
    """The row entries num_i(n) / den(n) of an exact spec's integer polys."""
    den, terms = spec.polys

    def at(poly):
        re, im = (sum(c * n**e for e, c in enumerate(reversed(part))) for part in poly)
        return GaussianRational(re, im)

    row = [GaussianRational(0)] * (spec.order + 1)
    for i, num in terms:
        row[i] = at(num) / at(den)
    return row


class TestMeta:
    def test_radius_notes(self):
        assert get_family("exp-M").radius == "entire"
        assert get_family("exp-F").radius == "1"
        assert get_family("binom-M").radius == "1/|theta|"
        assert get_family("arcsin-M").radius == "1/|p|"
        assert get_family("arccos-M").radius == "1/|p|"
        # arctan z branches at +-i; F, K and E converge in |z| < 1
        assert get_family("arctanexp-M").radius == "1"
        for base in ("F", "K", "E"):
            assert get_family(f"binom-{base}").radius == "min(1,1/|theta|)"

    @staticmethod
    def _note_value(note, params):
        """The number a radius note reads at ``params``."""
        def term(text):
            if text in ("entire", "1"):
                return math.inf if text == "entire" else 1.0
            t = abs(getattr(params, text[3:-1]))  # "1/|name|"
            return 1 / t if t else math.inf

        if note.startswith("min("):
            return min(map(term, note[4:-1].split(",")))
        return term(note)

    def test_disc_radius_reads_as_its_note(self):
        rng = Random(11)
        for info in list_families():
            for _ in range(4):
                # nonzero p and theta: a factor's singularity moves to infinity at 0
                params = Params(**{name: complex(rng.choice((-1, 1)) * rng.uniform(0.1, 3), 0)
                                   for name in info.param_names})
                assert disc_radius(info, params) == self._note_value(info.radius, params), info.id

    def test_disc_radius_examples(self):
        def at(family, **values):
            return disc_radius(get_family(family), Params(**values))

        assert at("exp-M", a=0.5, c=1.5, p=2.0) == math.inf
        assert at("arctanexp-M", a=0.5, c=1.5, p=1.0) == 1.0
        assert at("arctanexp-M", a=0.5, c=1.5, p=0j) == math.inf  # h is 1 at p = 0
        assert at("binom-M", a=0.5, c=1.5, p=0.5, theta=0.25) == 4.0
        assert at("binom-F", a=0.5, b=0.5, c=1.5, p=0.5, theta=0.25) == 1.0
        assert at("binom-K", p=0.5, theta=-4.0) == 0.25
        # (1 - theta z)^p is a polynomial at a nonnegative integer p
        assert at("binom-M", a=0.5, c=1.5, p=2 + 0j, theta=2 + 0j) == math.inf
        assert at("binom-F", a=0.5, b=1 / 3, c=1.5, p=0j, theta=4 + 0j) == 1.0
        assert at("binom-K", p=-1 + 0j, theta=4 + 0j) == 0.25
        assert at("binom-E", p=2 + 1j, theta=4 + 0j) == 0.25
        assert at("arcsin-M", a=0.5, c=1.5, p=0.5j) == 2.0
        assert at("arccos-M", a=0.5, c=1.5, p=0j) == math.inf

    def test_params_snapshot(self):
        params = Params(a=GaussianRational(1), c=GaussianRational(2), p=Fraction(1, 3))
        assert params_snapshot(params) == (("a", "1"), ("c", "2"), ("p", "1/3"))
