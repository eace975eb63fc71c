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
labelings, add up to T(d, nu).  Only exact integers and the standard
library are used; nothing here calls the enumerator's kernels.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import comb, factorial

import pytest

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


def weighted_labelings(census) -> int:
    d = census.degree
    total = 0
    for o in census.values():
        aut = automorphism_count(o.alpha.word, o.beta.word)
        assert factorial(d) % aut == 0
        total += factorial(d) // aut
    return total


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
