"""Orbits whose slope is known exactly from the geometry.

The paper ties a Teichmueller curve's slope s to the sum L of its
Lyapunov exponents through s = 12 c / L, so a curve whose L is known
pins the slope of its orbit.

The Eierlegende Wollmilchsau is the quaternion origami: eight squares
labelled by Q8, with alpha and beta right multiplication by i and j.
All its non-trivial Lyapunov exponents vanish (Forni 2006; Herrlich
and Schmithuesen, Math. Nachr. 281 (2008)), so L = 1.  Its Veech group
is SL2(Z), so its orbit is one class.
"""
from fractions import Fraction

from origami_census.limits import l_from_s_kappa
from origami_census.orbits import decompose
from origami_census.surface import canonical_form, encode_pair

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
    key = encode_pair(*canonical_form(aw, bw))
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
