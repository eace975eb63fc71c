"""Exact oracle for orbits and cusps: the genus of the Teichmueller curve.

Each twist orbit is a finite SL2(Z)-set, and its Teichmueller curve is
H/Gamma for the image Gamma of the Veech group in PSL2(Z).  Let X be
the orbit modulo -I, which sends (alpha, beta) to (alpha^-1, beta^-1),
mu = |X|, e2 and e3 the fixed points on X of S: (alpha, beta) ->
(beta^-1, alpha) and of ST, and c the number of T-orbits on X, with T
the horizontal twist.  Then g = 1 + mu/12 - e2/4 - e3/3 - c/2 is a
whole number >= 0 (Shimura, Introduction to the Arithmetic Theory of
Automorphic Functions, Prop. 1.40; Schmithuesen, Experiment. Math. 13
(2004), for origamis).

``cusp_count`` counts the T-cycles on the orbit's members.  Those are
the curve's c cusps when -I fixes the members.  Otherwise -I pairs
T-cycles or maps one to itself, so ``cusp_count`` = 2c minus the
T-cycles that -I maps to themselves.
"""
from fractions import Fraction

import pytest

from origami_census.orbits import decompose, twist_words
from origami_census.perm import inverse_word
from origami_census.surface import canonical_form

CENSUSES = [(d, (2,)) for d in range(3, 9)] + [
    (4, (1, 1)), (5, (1, 1)), (5, (4,)), (6, (3, 1)), (7, (2, 2)),
    (8, (1, 1, 1, 1)), (8, (6,)),
]

# (d, mu) -> {orbit size: (cusp_count, c, g)}, measured with the
# formulas above; the curve's cusps differ from cusp_count where -I
# does not fix the members.
PINS = {
    (5, (4,)): {12: (5, 3, 0)},
    (8, (6,)): {3864: (560, 280, 22)},
}


def _images(key: bytes, d: int) -> tuple[bytes, bytes, bytes]:
    """The keys of the T, S and -I images of a member, canonicalized as
    ``decompose`` canonicalizes its twist images."""
    aw, bw = key[:d], key[d:]
    return (
        canonical_form(*twist_words(aw, bw)[0]),
        canonical_form(inverse_word(bw), aw),
        canonical_form(inverse_word(aw), inverse_word(bw)),
    )


def _cycles(points, step) -> list[list]:
    """The cycles of the permutation ``step`` of ``points``."""
    left = set(points)
    cycles = []
    for p in sorted(points):
        if p not in left:
            continue
        cycle = []
        while p in left:
            left.remove(p)
            cycle.append(p)
            p = step[p]
        cycles.append(cycle)
    return cycles


def curve_data(keys, d: int) -> tuple[int, int, int, Fraction]:
    """(T-cycles on the members, c, -I-fixed flag, g) of one orbit,
    asserting each property the genus formula rests on."""
    t, s, neg = {}, {}, {}
    for key in keys:
        t[key], s[key], neg[key] = _images(key, d)
    members = set(keys)
    for name, image in (("T", t), ("S", s), ("-I", neg)):
        assert set(image.values()) == members, f"{name} leaves the orbit"
    fixed = {key for key in keys if neg[key] == key}
    assert fixed in (set(), members), "-I fixes only some members"

    # X: the orbit modulo -I, each point named by its least member.
    def rep(key):
        return min(key, neg[key])

    xs = {rep(key) for key in keys}
    t_x = {x: rep(t[x]) for x in xs}
    s_x = {x: rep(s[x]) for x in xs}
    for key in keys:  # -I commutes with S and T
        assert rep(t[key]) == t_x[rep(key)]
        assert rep(s[key]) == s_x[rep(key)]
    st_x = {x: s_x[t_x[x]] for x in xs}
    for x in xs:
        assert s_x[s_x[x]] == x, "S^2 moves a point of X"
        assert st_x[st_x[st_x[x]]] == x, "(ST)^3 moves a point of X"

    mu = len(xs)
    e2 = sum(1 for x in xs if s_x[x] == x)
    e3 = sum(1 for x in xs if st_x[x] == x)
    c = len(_cycles(xs, t_x))
    g = 1 + Fraction(mu, 12) - Fraction(e2, 4) - Fraction(e3, 3) - Fraction(c, 2)

    t_cycles = _cycles(members, t)
    if fixed:
        assert len(t_cycles) == c
    else:
        self_paired = sum(1 for cyc in t_cycles if neg[cyc[0]] in cyc)
        assert len(t_cycles) == 2 * c - self_paired
    return len(t_cycles), c, bool(fixed), g


@pytest.mark.parametrize("d,mu", CENSUSES)
def test_orbit_curves_have_whole_genus_and_counted_cusps(d, mu, census_of):
    pins = dict(PINS.get((d, mu), {}))
    for comp in decompose(census_of(d, mu)):
        t_cycles, c, _, g = curve_data(comp.member_keys, d)
        assert g.denominator == 1 and g >= 0, (comp.n_classes, g)
        assert comp.cusp_count == t_cycles
        if comp.n_classes in pins:
            assert (comp.cusp_count, c, g) == pins.pop(comp.n_classes)
    assert pins == {}


def test_wollmilchsau_orbit_is_a_rational_curve(census_of):
    # The one-class orbit of (8,(1,1,1,1)): mu = e2 = e3 = c = 1, g = 0.
    comps = [
        c for c in decompose(census_of(8, (1, 1, 1, 1))) if c.n_classes == 1
    ]
    assert len(comps) == 1
    assert curve_data(comps[0].member_keys, 8) == (1, 1, True, 0)
