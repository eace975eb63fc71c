"""Frobenius counts of torus covers: an exact oracle beyond brute force.

The number of pairs (a, b) in S_k x S_k whose commutator lies in the
conjugacy class C is

    A(k, C) = |C| k! sum_lambda chi_lambda(C) / chi_lambda(1),

the Frobenius formula as used by Eskin and Okounkov, Invent. Math. 145
(2001).  The characters come from the Murnaghan-Nakayama rule on
beta-sets.  Rooting the count at letter 0 splits off the connected
part T(k, nu): the number of transitive pairs whose commutator has
nontrivial cycle lengths nu.  A census is complete and free of
duplicates exactly when its classes, each counted with its d!/|Aut(o)|
labelings, add up to T(d, nu).

Fixing the cycle type A of a as well splits these counts by alpha
class: for a fixed a, b^-1 a^-1 b runs over a's class |Z(a)| times
each, so the pairs with a of type A number

    P(k, A, C) = |C_A| |C| sum_lambda chi_lambda(A)^2 chi_lambda(C) / chi_lambda(1),

and rooting at letter 0 gives the connected part T(k, A, nu).  The
classes whose alpha has type A, and the keys the enumeration returns
for that alpha class, must carry T(d, A, nu) labelings.  Only exact
integers and the standard library are used on the character side; the
enumerator is called only to produce the keys that are checked.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import comb, factorial

import pytest

from origami_census.census import _enumerate_alpha_class, partitions_desc
from origami_census.perm import cycle_lengths
from conftest import strata_at


def _partitions(n: int, largest: int | None = None):
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _mn(beads: frozenset[int], rho: tuple[int, ...]) -> int:
    """Murnaghan-Nakayama: chi_lambda(rho), lambda given by a beta-set.

    Removing a rim hook of length r moves one bead from b down to a
    free position b - r; its sign is -1 to the number of beads it
    jumps over.
    """
    if not rho:
        return 1
    r, rest = rho[0], rho[1:]
    total = 0
    for b in beads:
        if b >= r and b - r not in beads:
            jumped = sum(1 for c in beads if b - r < c < b)
            total += (-1) ** jumped * _mn(beads - {b} | {b - r}, rest)
    return total


def character(lam: tuple[int, ...], rho: tuple[int, ...]) -> int:
    n = len(lam)
    return _mn(frozenset(p + n - 1 - i for i, p in enumerate(lam)), rho)


def class_size(parts: tuple[int, ...]) -> int:
    z = 1
    for length in set(parts):
        m = parts.count(length)
        z *= factorial(m) * length**m
    return factorial(sum(parts)) // z


@lru_cache(maxsize=None)
def pair_count(k: int, nu: tuple[int, ...]) -> int:
    """A(k, nu): pairs in S_k x S_k whose commutator has nontrivial
    cycle lengths nu (descending) and fixes every other letter."""
    if sum(nu) > k:
        return 0
    rho = nu + (1,) * (k - sum(nu))
    ratio = sum(
        (Fraction(character(lam, rho), character(lam, (1,) * k))
         for lam in _partitions(k)),
        Fraction(0),
    )
    count = class_size(rho) * factorial(k) * ratio
    assert count.denominator == 1
    return int(count)


def _split(nu: tuple[int, ...]):
    """Every sub-multiset of nu with its complement, both descending."""
    distinct = sorted(set(nu), reverse=True)
    for take in product(*(range(nu.count(p) + 1) for p in distinct)):
        sub = tuple(p for p, t in zip(distinct, take) for _ in range(t))
        rest = tuple(
            p for p, t in zip(distinct, take) for _ in range(nu.count(p) - t)
        )
        yield sub, rest


@lru_cache(maxsize=None)
def transitive_count(k: int, nu: tuple[int, ...]) -> int:
    """T(k, nu): the transitive pairs among those counted by A(k, nu).

    The orbit of letter 0 has some size j, its other j - 1 letters are
    chosen in C(k-1, j-1) ways, and the commutator's cycles split
    between the orbit (nu') and the rest (nu minus nu'):
    A(k, nu) = sum C(k-1, j-1) T(j, nu') A(k-j, nu minus nu').
    """
    total = pair_count(k, nu)
    for j in range(1, k + 1):
        for sub, rest in _split(nu):
            if (j, sub) != (k, nu) and sum(sub) <= j and sum(rest) <= k - j:
                total -= (
                    comb(k - 1, j - 1)
                    * transitive_count(j, sub)
                    * pair_count(k - j, rest)
                )
    return total


@lru_cache(maxsize=None)
def alpha_pair_count(k: int, alpha: tuple[int, ...], nu: tuple[int, ...]) -> int:
    """P(k, A, nu): the pairs counted by A(k, nu) whose first member has
    cycle type ``alpha`` (descending, fixed points as 1s)."""
    if sum(nu) > k:
        return 0
    rho = nu + (1,) * (k - sum(nu))
    ratio = sum(
        (Fraction(character(lam, alpha) ** 2 * character(lam, rho),
                  character(lam, (1,) * k))
         for lam in _partitions(k)),
        Fraction(0),
    )
    count = class_size(alpha) * class_size(rho) * ratio
    assert count.denominator == 1
    return int(count)


@lru_cache(maxsize=None)
def alpha_transitive_count(
    k: int, alpha: tuple[int, ...], nu: tuple[int, ...]
) -> int:
    """T(k, A, nu): the transitive pairs among those counted by
    P(k, A, nu).

    Rooted at letter 0 as in :func:`transitive_count`: the orbit of
    letter 0 takes the cycles A' of a that it holds, so its size is
    j = sum(A'), and the commutator's cycles nu' that it holds.
    """
    total = alpha_pair_count(k, alpha, nu)
    for sub_a, rest_a in _split(alpha):
        j = sum(sub_a)
        if j == 0:
            continue
        for sub, rest in _split(nu):
            if (j, sub) != (k, nu) and sum(sub) <= j and sum(rest) <= k - j:
                total -= (
                    comb(k - 1, j - 1)
                    * alpha_transitive_count(j, sub_a, sub)
                    * alpha_pair_count(k - j, rest_a, rest)
                )
    return total


def automorphism_count(aw: tuple[int, ...], bw: tuple[int, ...]) -> int:
    """|Aut(o)|: the permutations commuting with alpha and beta.

    The intertwining walk of ``involutions._propagate`` with the plain
    targets (alpha, beta) and no tau^2 test: an automorphism is fixed
    by the image of letter 0, so count the images that extend.
    """
    d = len(aw)
    count = 0
    for target in range(d):
        tau = [-1] * d
        tau[0] = target
        stack = [0]
        ok = True
        while stack and ok:
            x = stack.pop()
            for w in (aw, bw):
                y, img = w[x], w[tau[x]]
                if tau[y] < 0:
                    tau[y] = img
                    stack.append(y)
                elif tau[y] != img:
                    ok = False
                    break
        count += ok
    return count


def labelings_by_alpha_type(keys, d: int) -> Counter:
    """Labelings d!/|Aut| of the classes with these keys, summed per
    cycle type of alpha."""
    out: Counter = Counter()
    for key in keys:
        aw, bw = key[:d], key[d:]
        aut = automorphism_count(aw, bw)
        assert factorial(d) % aut == 0
        out[cycle_lengths(aw)] += factorial(d) // aut
    return out


def weighted_labelings(census) -> int:
    return sum(labelings_by_alpha_type(census, census.degree).values())


class TestCounts:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_pair_counts_add_up_to_all_pairs(self, k):
        assert sum(
            pair_count(k, tuple(p for p in rho if p > 1))
            for rho in _partitions(k)
        ) == factorial(k) ** 2

    def test_commuting_pairs(self):
        # n! p(n): one orbit of commuting pairs per class
        for n in range(1, 9):
            p = sum(1 for _ in _partitions(n))
            assert pair_count(n, ()) == factorial(n) * p

    @pytest.mark.parametrize("k", range(1, 6))
    def test_counts_match_direct_count(self, k):
        words = list(permutations(range(k)))
        pairs: dict[tuple[int, ...], int] = {}
        connected: dict[tuple[int, ...], int] = {}
        for aw in words:
            ai = [0] * k
            for i, x in enumerate(aw):
                ai[x] = i
            for bw in words:
                bi = [0] * k
                for i, x in enumerate(bw):
                    bi[x] = i
                gw = [bi[ai[bw[aw[i]]]] for i in range(k)]
                nu = _nontrivial_lengths(gw)
                pairs[nu] = pairs.get(nu, 0) + 1
                if _orbit_size(aw, bw) == k:
                    connected[nu] = connected.get(nu, 0) + 1
        for rho in _partitions(k):
            nu = tuple(p for p in rho if p > 1)
            assert pair_count(k, nu) == pairs.get(nu, 0), nu
            assert transitive_count(k, nu) == connected.get(nu, 0), nu


def _nontrivial_lengths(w) -> tuple[int, ...]:
    seen = [False] * len(w)
    lengths = []
    for s in range(len(w)):
        n = 0
        x = s
        while not seen[x]:
            seen[x] = True
            x = w[x]
            n += 1
        if n > 1:
            lengths.append(n)
    return tuple(sorted(lengths, reverse=True))


def _orbit_size(aw, bw) -> int:
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in (aw[x], bw[x]):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen)


FROBENIUS_CENSUSES = [
    (d, mu) for d in range(3, 8) for mu in strata_at(d)
] + [(8, (2,)), (8, (3, 1)), (9, (4,)), (10, (4,)), (8, (6,)), (8, (2, 2))]


@pytest.mark.parametrize("d,mu", FROBENIUS_CENSUSES)
def test_census_labelings_match_frobenius(d, mu, census_of):
    census = census_of(d, mu)
    assert census.n_classes > 0
    nu = tuple(sorted((m + 1 for m in mu), reverse=True))
    assert weighted_labelings(census) == transitive_count(d, nu)


@pytest.mark.parametrize("k", range(1, 9))
def test_alpha_counts_add_up_to_the_totals(k):
    for rho in _partitions(k):
        nu = tuple(p for p in rho if p > 1)
        assert sum(
            alpha_pair_count(k, alpha, nu) for alpha in _partitions(k)
        ) == pair_count(k, nu)
        assert sum(
            alpha_transitive_count(k, alpha, nu) for alpha in _partitions(k)
        ) == transitive_count(k, nu)


def _alpha_counts(d: int, nu: tuple[int, ...]) -> dict:
    return {
        alpha: count
        for alpha in _partitions(d)
        if (count := alpha_transitive_count(d, alpha, nu))
    }


@pytest.mark.parametrize("d,mu", FROBENIUS_CENSUSES)
def test_alpha_types_match_frobenius(d, mu, census_of):
    nu = tuple(sorted((m + 1 for m in mu), reverse=True))
    got = labelings_by_alpha_type(census_of(d, mu), d)
    assert dict(got) == _alpha_counts(d, nu)


@pytest.mark.parametrize(
    "d,mu",
    [(d, mu) for d, mu in FROBENIUS_CENSUSES if d <= 8]
    + [(9, (2,)), (10, (2,))],
)
def test_alpha_class_chunks_match_frobenius(d, mu):
    # Each chunk the enumeration returns holds the keys of one alpha
    # class, so it carries that class's count and no other type.  In
    # H(2) at degrees 9 and 10 most alpha classes have many fixed
    # points, so these chunks check the cut on the fixed-point matchings.
    nu = tuple(sorted((m + 1 for m in mu), reverse=True))
    target = nu + (1,) * (d - sum(nu))
    want = _alpha_counts(d, nu)
    for alpha in partitions_desc(d):
        chunk = _enumerate_alpha_class(d, alpha, target)
        got = labelings_by_alpha_type(chunk, d)
        assert dict(got) == ({alpha: want[alpha]} if alpha in want else {}), alpha
