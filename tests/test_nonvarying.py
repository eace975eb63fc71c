"""Orbits whose slope is known exactly from the geometry.

The paper ties a Teichmueller curve's slope s to the sum L of its
Lyapunov exponents through s = 12 c / L, so a curve whose L is known
pins the slope of its orbit.

The Eierlegende Wollmilchsau is the quaternion origami: eight squares
labelled by Q8, with alpha and beta right multiplication by i and j.
All its non-trivial Lyapunov exponents vanish (Forni 2006; Herrlich
and Schmithuesen, Math. Nachr. 281 (2008)), so L = 1.  Its Veech group
is SL2(Z), so its orbit is one class.

Chen and Moeller ("Non-varying sums of Lyapunov exponents of Abelian
differentials in low genus", Geom. Topol. 16 (2012)) proved that in
the connected components listed in NON_VARYING every Teichmueller
curve has the same L.  There every orbit must have its component's
slope from the reference table exactly, and components with different
slopes pin each orbit's hyperelliptic flag and spin parity.  The
component of an orbit is computed here from the Kontsevich-Zorich
classification (Invent. Math. 153 (2003)), not by the library.
"""
import csv
from fractions import Fraction
from pathlib import Path

import pytest

import origami_census
from origami_census.limits import l_from_s_kappa
from origami_census.orbits import decompose
from origami_census.surface import canonical_form

# Q8 as (sign, unit) pairs; the product of two units.
UNITS = ("1", "i", "j", "k")
UNIT_PRODUCT = {
    ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
    ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
    ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
}
Q8 = [(sign, u) for u in UNITS for sign in (1, -1)]


def q8_times(x, y):
    (sx, ux), (sy, uy) = x, y
    if ux == "1":
        return sx * sy, uy
    if uy == "1":
        return sx * sy, ux
    sign, u = UNIT_PRODUCT[ux, uy]
    return sx * sy * sign, u


def right_multiplication(g) -> tuple[int, ...]:
    """The word x -> x g on Q8, 0-based."""
    return tuple(Q8.index(q8_times(x, g)) for x in Q8)


def test_eierlegende_wollmilchsau_is_a_one_class_orbit_of_slope_6(census_of):
    aw = right_multiplication((1, "i"))
    bw = right_multiplication((1, "j"))
    key = canonical_form(aw, bw)
    assert key.hex() == "01030506020700040204030706010500"
    census = census_of(8, (1, 1, 1, 1))
    assert key in census

    (comp,) = [c for c in decompose(census) if key in c.member_keys]
    assert comp.member_keys == (key,)
    assert comp.total_weight == Fraction(1, 2)
    assert comp.slope == 6
    assert not comp.hyperelliptic
    assert comp.cusps == ((1, (4, 4)),)
    # paper (b): L = 1, every non-trivial exponent vanishes
    assert l_from_s_kappa(comp.slope, census.stratum.kappa) == 1


# Chen-Moeller's non-varying components in genus 3 and 4, as
# (mu, Kontsevich-Zorich label).
NON_VARYING = {
    ((4,), "hyp"), ((4,), "odd"), ((3, 1), "all"), ((2, 2), "hyp"),
    ((2, 2), "odd"), ((2, 1, 1), "all"),
    ((6,), "hyp"), ((6,), "even"), ((6,), "odd"), ((5, 1), "all"),
    ((4, 2), "even"), ((4, 2), "odd"), ((3, 3), "hyp"), ((3, 3), "nonhyp"),
    ((2, 2, 2), "odd"),
}


def table_slopes() -> dict[tuple[tuple[int, ...], str], Fraction]:
    """(mu, label) -> slope, read straight from the bundled table."""
    path = Path(origami_census.__file__).parent / "data" / "appendix_b.csv"
    with open(path, newline="") as f:
        return {
            (tuple(int(m) for m in row["mu"].split(",")), row["label"]):
            Fraction(int(row["s_num"]), int(row["s_den"]))
            for row in csv.DictReader(f)
        }


def kz_component(mu: tuple[int, ...], hyperelliptic: bool, parity) -> str:
    """The connected component of H(mu) holding an orbit.

    An orbit lies in the hyperelliptic component when the stratum has
    one, H(2g-2) or H(g-1, g-1), and the orbit is flagged.  Otherwise
    an all-even stratum splits by spin parity, H(g-1, g-1) with g-1 odd
    has one non-hyperelliptic component, and any other stratum is
    connected.
    """
    g = sum(mu) // 2 + 1
    if hyperelliptic and mu in ((2 * g - 2,), (g - 1, g - 1)):
        return "hyp"
    if all(m % 2 == 0 for m in mu):
        return ("even", "odd")[parity]
    if mu == (g - 1, g - 1):
        return "nonhyp"
    return "all"


# Censuses that reach each component above, with the components their
# orbits fall in.
CASES = [
    (5, (4,), {"hyp", "odd"}),
    (6, (4,), {"hyp", "odd"}),
    (7, (4,), {"hyp", "odd"}),
    (6, (2, 2), {"hyp", "odd"}),
    (7, (2, 2), {"hyp", "odd"}),
    (8, (2, 2), {"hyp", "odd"}),
    (6, (3, 1), {"all"}),
    (7, (3, 1), {"all"}),
    (7, (2, 1, 1), {"all"}),
    (8, (2, 1, 1), {"all"}),
    (7, (6,), {"hyp", "even", "odd"}),
    (8, (5, 1), {"all"}),
    (8, (4, 2), {"even", "odd"}),
    (8, (3, 3), {"hyp", "nonhyp"}),
    (9, (2, 2, 2), {"even", "odd"}),
]


@pytest.mark.parametrize(
    "d,mu,components",
    CASES,
    ids=[f"d{d}-mu{''.join(map(str, mu))}" for d, mu, _ in CASES],
)
def test_non_varying_components_have_the_table_slope(
    d, mu, components, census_of
):
    slopes = table_slopes()
    seen = set()
    for comp in decompose(census_of(d, mu)):
        label = kz_component(mu, comp.hyperelliptic, comp.parity)
        assert comp.hyperelliptic == (label == "hyp"), (
            comp.member_keys[0].hex(), label
        )
        seen.add(label)
        # H(4)^even, say, is no component: a wrong parity lands there.
        assert (mu, label) in slopes, (comp.member_keys[0].hex(), label)
        if (mu, label) in NON_VARYING:
            assert comp.slope == slopes[mu, label], (
                comp.member_keys[0].hex(), label
            )
    assert seen == components
