"""Exact stratum constants and finite-degree slope estimators.

For a stratum the three quantities of interest — the area constant c,
the exponent sum L and the limiting slope s — determine each other
through L = kappa + c and s = 12 c / L.  On hyperelliptic loci they
are known in closed form and every finite-degree orbit already has the
limiting slope; elsewhere the census ratio M/N estimates c and the
bundled reference table (data/appendix_b.csv) gives the limit values
for genus 3 to 6.
"""
from __future__ import annotations

import csv
import functools
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .census import ResourceBudgetError, enumerate_census, weight_of_keys
from .involutions import is_hyperelliptic
from .orbits import ComponentSummary, component_slope, decompose
from .surface import InvariantError, StratumSignature

REFERENCE_GENUS_RANGE = (3, 6)

_DATA_FILE = Path(__file__).parent / "data" / "appendix_b.csv"


def hyperelliptic_constants(
    genus: int, zeros: int = 1
) -> tuple[Fraction, Fraction, Fraction]:
    """Exact (c, L, s) for a hyperelliptic locus.

    ``zeros=1`` is the single-zero shape (2g-2), ``zeros=2`` the
    two-equal-zeros shape (g-1, g-1).  The slope always comes out as
    8 + 4/g.
    """
    if genus < 2:
        raise ValueError(f"hyperelliptic constants need genus >= 2, got {genus}")
    g = genus
    if zeros == 1:
        c = Fraction(g * (2 * g + 1), 3 * (2 * g - 1))
        big_l = Fraction(g * g, 2 * g - 1)
    elif zeros == 2:
        c = Fraction((g + 1) * (2 * g + 1), 6 * g)
        big_l = Fraction(g + 1, 2)
    else:
        raise ValueError(f"zeros must be 1 or 2, got {zeros}")
    s = s_from_c_l(c, big_l)
    if s != 8 + Fraction(4, g):
        raise InvariantError(
            f"hyperelliptic slope {s} at genus {g} is not 8 + 4/g"
        )
    return c, big_l, s


def s_from_c_l(c: Fraction, big_l: Fraction) -> Fraction:
    """Slope from area constant and exponent sum: 12c/L."""
    if big_l <= 0:
        raise ValueError(f"exponent sum must be positive, got {big_l}")
    return 12 * Fraction(c) / Fraction(big_l)


def l_from_s_kappa(s: Fraction, kap: Fraction) -> Fraction:
    """Invert the slope relation: L = 12 kappa / (12 - s)."""
    if s >= 12:
        raise ValueError(f"slope must be below 12, got {s}")
    if kap <= 0:
        raise ValueError(f"kappa must be positive, got {kap}")
    return 12 * Fraction(kap) / (12 - Fraction(s))


def stratum_constants(
    stratum: StratumSignature,
) -> tuple[Fraction, Fraction, Fraction] | None:
    """Exact (c, L, s) when the stratum has a hyperelliptic shape, else None."""
    g, mu = stratum.genus, stratum.mu
    if mu == (2 * g - 2,):
        return hyperelliptic_constants(g, zeros=1)
    if len(mu) == 2 and mu[0] == mu[1]:
        return hyperelliptic_constants(g, zeros=2)
    return None


@dataclass(frozen=True)
class ReferenceRow:
    genus: int
    mu: tuple[int, ...]
    label: str  # hyp | odd | even | nonhyp | all
    slope: Fraction


@functools.cache
def _reference_table() -> tuple[ReferenceRow, ...]:
    with open(_DATA_FILE, newline="") as f:
        return tuple(
            ReferenceRow(
                genus=int(rec["genus"]),
                mu=tuple(int(x) for x in rec["mu"].split(",")),
                label=rec["label"],
                slope=Fraction(int(rec["s_num"]), int(rec["s_den"])),
            )
            for rec in csv.DictReader(f)
        )


def load_reference_table() -> list[ReferenceRow]:
    """The bundled limiting-slope table, rows in file order."""
    return list(_reference_table())


def reference_rows(genus: int) -> list[ReferenceRow]:
    lo, hi = REFERENCE_GENUS_RANGE
    if not lo <= genus <= hi:
        raise ValueError(
            f"genus {genus} outside table range {lo}..{hi}"
        )
    return [r for r in load_reference_table() if r.genus == genus]


def component_label(comp: ComponentSummary) -> str:
    """hyp / odd / even / nonhyp, matching the reference table labels."""
    if comp.hyperelliptic:
        return "hyp"
    if comp.parity == 1:
        return "odd"
    if comp.parity == 0:
        return "even"
    return "nonhyp"


@dataclass(frozen=True)
class SweepRow:
    degree: int
    label: str  # all, or hyp/odd/even/nonhyp for class rows
    n_classes: int
    total_weight: Fraction
    slope: Fraction | None  # exact component slope; None for an empty row

    @property
    def ratio(self) -> Fraction | None:
        """M/N, the finite-degree estimate of the area constant."""
        if self.n_classes == 0:
            return None
        return self.total_weight / self.n_classes


@dataclass(frozen=True)
class SweepReport:
    rows: tuple[SweepRow, ...]
    truncated_at: int | None = None  # degree at which the budget ran out


def sweep(
    stratum: StratumSignature,
    d_max: int,
    scope: str = "stratum",
    provider=enumerate_census,
) -> SweepReport:
    """One row per nonempty degree up to d_max, per requested scope.

    ``provider(d, stratum)`` gives the census at degree d.  scope
    "stratum" totals the whole census, "hyperelliptic" restricts
    member-wise to flagged surfaces, "classes" groups orbits by their
    hyp/odd/even/nonhyp label.  Each row carries its exact slope.  A
    blown budget truncates the sweep and records the degree it
    happened at.
    """
    if scope not in ("stratum", "hyperelliptic", "classes"):
        raise ValueError(f"unknown scope {scope!r}")
    rows: list[SweepRow] = []
    d_min = sum(m + 1 for m in stratum.mu)
    truncated = None
    for d in range(d_min, d_max + 1):
        try:
            census = provider(d, stratum)
        except ResourceBudgetError:
            truncated = d
            break
        if census.n_classes == 0:
            continue
        if scope == "stratum":
            totals = [("all", census.n_classes, census.total_weight)]
        elif scope == "hyperelliptic":
            keys = [k for k, o in census.items() if is_hyperelliptic(o)]
            totals = [("hyp", len(keys), weight_of_keys(keys, d))]
        else:
            groups: dict[str, tuple[int, Fraction]] = {}
            for comp in decompose(census):
                label = component_label(comp)
                n, m = groups.get(label, (0, Fraction(0)))
                groups[label] = (n + comp.n_classes, m + comp.total_weight)
            totals = [(label, *groups[label]) for label in sorted(groups)]
        rows += [
            SweepRow(d, label, n, m, component_slope(n, m, stratum) if n else None)
            for label, n, m in totals
        ]
    return SweepReport(tuple(rows), truncated)
