"""The family catalogue as the benchmark sees it, and seeded parameter draws.

Nothing here imports macprod: the catalogue is written out from the CLI's
documented surface (`macprod list`), and parameters are drawn from its
domain by this module's own generator, so the inputs cannot shift when the
program's sweep helpers change.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from random import Random

#: series_oracle's name for an elementary kind, where it differs from the id token
_KIND = {"arctanexp": "exp_arctan"}
TRIG_HYP = ("sin", "cos", "sinh", "cosh")


@dataclass(frozen=True)
class Family:
    id: str
    h: str  # elementary kind of the h(z) factor
    base: str  # "M" | "F" | "K" | "E"
    single: bool  # False for the two-branch combo formulation

    @property
    def param_names(self) -> tuple:
        names = {"M": ("a", "c", "p"), "F": ("a", "b", "c", "p")}.get(self.base, ("p",))
        return names + (("theta",) if self.h == "binom" else ())

    @property
    def c_excludes_2(self) -> bool:
        """The high-order single tables carry a (c-2) row factor."""
        return (
            self.base in ("M", "F")
            and self.single
            and self.h in TRIG_HYP + ("arcsin", "arccos")
        )


def _catalogue() -> tuple:
    fams = []
    for base in ("M", "F"):
        fams.append(Family(f"exp-{base}", "exp", base, True))
        for h in ("sinh", "cosh", "sin", "cos"):
            fams.append(Family(f"{h}-{base}-combo", h, base, False))
        for token in ("binom", "arctanexp") + TRIG_HYP:
            fams.append(Family(f"{token}-{base}", _KIND.get(token, token), base, True))
        if base == "M":
            for h in ("arcsin", "arccos"):
                fams.append(Family(f"{h}-M", h, "M", True))
    for base in ("K", "E"):
        for token in ("exp", "binom", "arctanexp") + TRIG_HYP:
            fams.append(Family(f"{token}-{base}", _KIND.get(token, token), base, True))
    return tuple(fams)


#: all 38 ids, in `macprod list` order
CATALOGUE = _catalogue()


@lru_cache(maxsize=None)
def _domain(name: str, c_excludes_2: bool):
    """Sorted values of one parameter and their cumulative probabilities.

    A value is num/den with den uniform in 1..12 and num uniform in -12..12,
    or in -min(12, 2 den)..min(12, 2 den) for p and theta, which keeps
    |p|, |theta| <= 2.  c is never a nonpositive integer, nor 2 where the
    family's (c-2) row factor excludes it.
    """
    weighted = []
    for den in range(1, 13):
        top = min(12, 2 * den) if name in ("p", "theta") else 12
        for num in range(-top, top + 1):
            q = Fraction(num, den)
            if name == "c" and ((q.denominator == 1 and q <= 0) or (c_excludes_2 and q == 2)):
                continue
            weighted.append((q, 1 / (2 * top + 1)))
    weighted.sort()
    total = sum(w for _, w in weighted)
    cum, acc = [], 0.0
    for _, w in weighted:
        acc += w
        cum.append(acc / total)
    return [q for q, _ in weighted], cum


def _pick(domain, u: float) -> Fraction:
    values, cum = domain
    return values[min(bisect_right(cum, u), len(values) - 1)]


def draw_points(family: Family, rng: Random, k: int, accept) -> list:
    """k parameter points for one family, stratified across the k points.

    Each parameter's k draws come one from each of k equal-probability
    strata of its distribution (a Latin hypercube), so the mix a run sees
    varies little from seed to seed while each point keeps the catalogue
    distribution.  A point that `accept` rejects is redrawn from the whole
    distribution.
    """
    domains = {n: _domain(n, family.c_excludes_2) for n in family.param_names}
    strata = {n: rng.sample(range(k), k) for n in domains}
    points = []
    for j in range(k):
        point = {n: _pick(d, (strata[n][j] + rng.random()) / k) for n, d in domains.items()}
        while not accept(point):
            point = {n: _pick(d, rng.random()) for n, d in domains.items()}
        points.append(point)
    return points


def param_flags(params: dict) -> list:
    # `--a=-3/4`, never `--a -3/4`: argparse reads a leading '-' as a flag
    return [f"--{k}={v.numerator}/{v.denominator}" for k, v in params.items()]
