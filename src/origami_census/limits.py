"""Exact stratum constants and finite-degree slope estimators.

For a stratum the three quantities of interest — the area constant c,
the exponent sum L and the limiting slope s — determine each other
through L = kappa + c and s = 12 c / L.  On the hyperelliptic
components of H(2g-2) and H(g-1, g-1) they are known in closed form
and every finite-degree orbit already has the limiting slope 8 + 4/g;
elsewhere the census ratio M/N estimates c and the bundled reference
table (data/appendix_b.csv) gives the limit values for genus 3 to 6.
"""
from __future__ import annotations

from fractions import Fraction
from pathlib import Path

from .census import ResourceBudgetError, enumerate_census, weight_of_keys
from .involutions import is_hyperelliptic
from .orbits import ComponentSummary, component_slope, decompose
from .perm import Value
from .surface import InvariantError, StratumSignature

REFERENCE_GENUS_RANGE = (3, 6)

_DATA_FILE = Path(__file__).parent / "data" / "appendix_b.csv"


def hyperelliptic_constants(
    genus: int, zeros: int = 1
) -> tuple[Fraction, Fraction, Fraction]:
    """Exact (c, L, s) for a hyperelliptic component.

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
    zeros = stratum.hyperelliptic_zeros
    if zeros is None:
        return None
    return hyperelliptic_constants(stratum.genus, zeros)


class ReferenceRow(Value):
    """One row of the reference table; ``label`` is hyp, odd, even,
    nonhyp or all."""

    __slots__ = ("genus", "mu", "label", "slope")

    def __init__(self, genus: int, mu: tuple[int, ...], label: str,
                 slope: Fraction):
        self._set(genus, mu, label, slope)


def load_reference_table() -> list[ReferenceRow]:
    """The bundled limiting-slope table, rows in file order, read from
    ``data/appendix_b.csv`` on each call."""
    # Imported here: only `table` reads the file, so other commands
    # start without the csv module.
    import csv

    with open(_DATA_FILE, newline="") as f:
        return [
            ReferenceRow(
                genus=int(rec["genus"]),
                mu=tuple(int(x) for x in rec["mu"].split(",")),
                label=rec["label"],
                slope=Fraction(int(rec["s_num"]), int(rec["s_den"])),
            )
            for rec in csv.DictReader(f)
        ]


def reference_rows(genus: int) -> list[ReferenceRow]:
    lo, hi = REFERENCE_GENUS_RANGE
    if not lo <= genus <= hi:
        raise ValueError(
            f"genus {genus} outside table range {lo}..{hi}"
        )
    return [r for r in load_reference_table() if r.genus == genus]


def component_label(comp: ComponentSummary, stratum: StratumSignature) -> str:
    """The Kontsevich-Zorich component of the stratum holding an orbit,
    named as the reference table names it.

    A flagged orbit lies in the hyperelliptic component: "hyp".  Any
    other orbit of an all-even stratum is "even" or "odd" by its spin
    parity, one of H(g-1, g-1) with g-1 odd is "nonhyp", and every
    other stratum is connected: "all".
    """
    if comp.hyperelliptic:
        return "hyp"
    if stratum.all_even():
        return ("even", "odd")[comp.parity]
    if stratum.hyperelliptic_zeros == 2:
        return "nonhyp"
    return "all"


class SweepRow(Value):
    """One row of a sweep.  ``label`` is "all", or the component label
    of a class row; ``slope`` is the exact component slope, None for an
    empty row."""

    __slots__ = ("degree", "label", "n_classes", "total_weight", "slope")

    def __init__(self, degree: int, label: str, n_classes: int,
                 total_weight: Fraction, slope: Fraction | None):
        self._set(degree, label, n_classes, total_weight, slope)

    @property
    def ratio(self) -> Fraction | None:
        """M/N, the finite-degree estimate of the area constant."""
        if self.n_classes == 0:
            return None
        return self.total_weight / self.n_classes


class SweepReport(Value):
    """The rows of a sweep; ``truncated_at`` is the degree at which the
    budget ran out, None for a full sweep."""

    __slots__ = ("rows", "truncated_at")

    def __init__(self, rows: tuple[SweepRow, ...],
                 truncated_at: int | None = None):
        self._set(rows, truncated_at)


def sweep(
    stratum: StratumSignature,
    d_max: int,
    scope: str = "stratum",
    provider=enumerate_census,
) -> SweepReport:
    """One row per nonempty degree up to d_max, per requested scope.

    ``provider(d, stratum)`` gives the census at degree d.  scope
    "stratum" totals the whole census, "hyperelliptic" restricts
    member-wise to the flagged surfaces, those of the hyperelliptic
    component (N=0 on a stratum with none), "classes" groups orbits by
    their connected component, labeled as ``table`` labels it.  Each row
    carries its exact slope.  A blown budget truncates the sweep and
    records the degree it happened at.
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
            keys = [k for k in census if is_hyperelliptic(census.member(k))]
            totals = [("hyp", len(keys), weight_of_keys(keys))]
        else:
            groups: dict[str, tuple[int, Fraction]] = {}
            for comp in decompose(census):
                label = component_label(comp, stratum)
                n, m = groups.get(label, (0, Fraction(0)))
                groups[label] = (n + comp.n_classes, m + comp.total_weight)
            totals = [(label, *groups[label]) for label in sorted(groups)]
        rows += [
            SweepRow(d, label, n, m, component_slope(n, m, stratum) if n else None)
            for label, n, m in totals
        ]
    return SweepReport(tuple(rows), truncated)
