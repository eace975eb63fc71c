"""An exact oracle for the orbit split: genus-2 censuses, n = 3-13.

In H(2) (``--mu 2``) the split of a census into twist orbits is known
in closed form.  Write prod(n) for the product of (1 - 1/p^2) over the
primes p dividing n.

- There are P(n) = (3/8)(n-2) n^2 prod(n) primitive n-square-tiled
  surfaces in H(2) for n >= 3, and none below (Eskin, Masur and
  Schmoll, Duke Math. J. 118 (2003); Hubert and Lelievre, Israel J.
  Math. 151 (2006)).  A surface is primitive when its lattice of
  periods is Z^2.  One whose lattice has index k is a primitive
  surface of degree n/k composed with one of the sigma(k) sublattices
  of index k, so a census has sum_{k | n} sigma(k) P(n/k) classes.
- For odd n >= 5 the primitive classes form two orbits: A_n of size
  (3/16)(n-1) n^2 prod(n), whose members have one Weierstrass point at
  an integer point, and B_n of size (3/16)(n-3) n^2 prod(n), whose
  members have three.  For other n they form one orbit (Hubert and
  Lelievre for prime n; McMullen, Math. Ann. 333 (2005), and Lelievre
  and Royer, IMRN 2006, for all n).

Primitivity is computed here, not read from the package: the squares
are placed at points of Z^2 along a spanning tree of the alpha/beta
graph, and the closing vectors of the other edges generate the period
lattice, which is Z^2 when the gcd of their 2x2 minors is 1.
"""
from fractions import Fraction
from math import gcd

import pytest

from origami_census.involutions import find_anti_involutions
from origami_census.orbits import decompose

DEGREES = range(3, 14)

# Census totals and primitive orbit sizes, largest first.
TOTALS = {
    3: 3, 4: 9, 5: 27, 6: 45, 7: 90, 8: 135, 9: 201, 10: 297, 11: 405,
    12: 525, 13: 693,
}
PRIMITIVE_ORBITS = {
    3: [3], 4: [9], 5: [18, 9], 6: [36], 7: [54, 36], 8: [108],
    9: [108, 81], 10: [216], 11: [225, 180], 12: [360], 13: [378, 315],
}


def prime_product(n: int) -> Fraction:
    out = Fraction(1)
    for p in range(2, n + 1):
        if n % p == 0 and all(p % q for q in range(2, p)):
            out *= 1 - Fraction(1, p * p)
    return out


def primitive_count(n: int) -> Fraction:
    if n < 3:
        return Fraction(0)
    return Fraction(3, 8) * (n - 2) * n * n * prime_product(n)


def divisor_sum(k: int) -> int:
    return sum(j for j in range(1, k + 1) if k % j == 0)


def is_primitive(aw: bytes, bw: bytes) -> bool:
    """Is the period lattice of the pair Z^2?"""
    d = len(aw)
    steps = ((aw, (1, 0)), (bw, (0, 1)))
    pos: list[tuple[int, int] | None] = [None] * d
    pos[0] = (0, 0)
    stack = [0]
    while stack:
        x = stack.pop()
        for w, (dx, dy) in steps:
            if pos[w[x]] is None:
                pos[w[x]] = (pos[x][0] + dx, pos[x][1] + dy)
                stack.append(w[x])
    # A tree edge closes with the zero vector, which adds no minor.
    closing = [
        (pos[x][0] + dx - pos[w[x]][0], pos[x][1] + dy - pos[w[x]][1])
        for w, (dx, dy) in steps for x in range(d)
    ]
    g = 0
    for i, (ux, uy) in enumerate(closing):
        for vx, vy in closing[i + 1:]:
            g = gcd(g, ux * vy - uy * vx)
    return g == 1


def integer_weierstrass_points(o) -> int:
    """Fixed vertices of the hyperelliptic involution, the compatible
    involution with 2g + 2 = 6 fixed points."""
    (rep,) = [r for r in find_anti_involutions(o) if r.total_fixed == 6]
    return rep.regular_vertices + rep.fixed_zeros


@pytest.fixture(scope="module")
def split(census_of):
    """n -> (census, [(orbit, primitive)]), each orbit's primitivity
    checked to hold for all of its members or none."""
    out = {}
    for n in DEGREES:
        census = census_of(n, (2,))
        orbits = []
        for comp in decompose(census):
            flags = {
                is_primitive(k[:n], k[n:]) for k in comp.member_keys
            }
            assert len(flags) == 1, (
                f"primitivity varies on the orbit of {comp.member_keys[0].hex()}"
            )
            orbits.append((comp, flags.pop()))
        out[n] = census, orbits
    return out


def test_closed_forms_give_the_pinned_numbers():
    for n in DEGREES:
        total = sum(
            divisor_sum(k) * primitive_count(n // k)
            for k in range(1, n + 1) if n % k == 0
        )
        assert total == TOTALS[n]
        assert sum(PRIMITIVE_ORBITS[n]) == primitive_count(n)
        if n % 2 and n >= 5:
            a = Fraction(3, 16) * (n - 1) * n * n * prime_product(n)
            b = Fraction(3, 16) * (n - 3) * n * n * prime_product(n)
            assert PRIMITIVE_ORBITS[n] == [a, b]


@pytest.mark.parametrize("n", DEGREES)
def test_census_total(split, n):
    census, orbits = split[n]
    assert census.n_classes == TOTALS[n]
    assert sum(c.n_classes for c, _ in orbits) == TOTALS[n]


@pytest.mark.parametrize("n", DEGREES)
def test_primitive_orbits(split, n):
    _, orbits = split[n]
    sizes = sorted(
        (c.n_classes for c, primitive in orbits if primitive), reverse=True
    )
    assert sizes == PRIMITIVE_ORBITS[n]


@pytest.mark.parametrize("n", [n for n in DEGREES if n % 2 and n >= 5])
def test_integer_weierstrass_points_tell_the_two_orbits_apart(split, n):
    census, orbits = split[n]
    a, b = sorted(
        (c for c, primitive in orbits if primitive),
        key=lambda c: -c.n_classes,
    )
    for comp, want in ((a, 1), (b, 3)):
        for key in comp.member_keys:
            o = census[key]
            assert integer_weierstrass_points(o) == want, key.hex()
