"""Spin Hurwitz numbers of torus covers: an exact oracle for spin parity.

On a stratum whose zero orders are all even, every cycle of the
commutator has odd length; let eta be its full cycle type, fixed
points as 1s.  The genus-1 case of Eskin, Okounkov and Pandharipande,
"The theta characteristic of a branched covering", Adv. Math. 217
(2008), counts the pairs (a, b) of S_d x S_d with commutator in eta,
each with the sign (-1)^p of its theta characteristic:

    S(d, eta) = d! |C_eta| sum_lambda (-1)^l(lambda) phi_lambda(eta) / phi_lambda(1^d),

the sum over strict partitions lambda of d.  Here p adds over the
connected components of the cover, and a component with no zero (a
torus) counts odd.  phi_lambda are the spin characters of the double
cover of S_d, computed from Schur Q-functions in the odd power sums
(Macdonald, Symmetric Functions and Hall Polynomials, III.8;
Stembridge, Adv. Math. 74 (1989)):

- sum_r q_r t^r = exp(sum over odd k of 2 p_k t^k / k);
- Q_(a,b) = q_a q_b + 2 sum_{i=1..b} (-1)^i q_(a+i) q_(b-i), and
  Q_(a,0) = q_a;
- Q_lambda is the Pfaffian of [Q_(lambda_i, lambda_j)], with a 0
  appended to lambda when its length is odd;
- X_lambda(eta) = z_eta 2^-l(eta) times the coefficient of p_eta in
  Q_lambda;
- phi_lambda(eta) = 2^((l(eta) - l(lambda) - e)/2) X_lambda(eta), with
  e = (d - l(lambda)) mod 2.  A lambda with e = 1 stands for two
  associate characters with these values.

Why the sign works: (-1)^p is (-1)^d times the sign of the
commutator's lift to the double cover, times (-1)^(|a| + |b| + |a||b|),
where |a| is a's parity as a permutation.  In the twisted sum only the
self-associate characters survive, which is why each lambda counts
once in S; without the twist the sums fail from degree 5 on.

Rooting at letter 0, as ``transitive_count`` does, splits off the
connected part.  A census's orbits, each member counted with its
d!/|Aut| labelings and signed by its orbit's parity, must add up to
it, so the orbit labels themselves are what is checked.  The test
checks a signed total: two orbits of equal labeling weight flipped in
opposite directions would cancel, and it says nothing about the
hyperelliptic flag.  The character side uses exact rationals and the
standard library only.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import pytest

from origami_census.orbits import decompose
from test_frobenius import (
    _partitions,
    _split,
    class_size,
    labelings_by_alpha_type,
    transitive_count,
)

# A symmetric function in the odd power sums: {odd partition: coefficient}.
Poly = dict[tuple[int, ...], Fraction]


def _z(rho: tuple[int, ...]) -> int:
    """Order of the centralizer of a permutation of cycle type rho."""
    return factorial(sum(rho)) // class_size(rho)


def _odd_partitions(n: int) -> list[tuple[int, ...]]:
    return [rho for rho in _partitions(n) if all(p % 2 for p in rho)]


def _strict_partitions(n: int) -> list[tuple[int, ...]]:
    return [lam for lam in _partitions(n) if len(set(lam)) == len(lam)]


def _times(f: Poly, g: Poly) -> Poly:
    out: Poly = {}
    for r1, c1 in f.items():
        for r2, c2 in g.items():
            rho = tuple(sorted(r1 + r2, reverse=True))
            out[rho] = out.get(rho, 0) + c1 * c2
    return out


def _add(out: Poly, f: Poly, scale: int) -> None:
    for rho, c in f.items():
        out[rho] = out.get(rho, 0) + scale * c


@lru_cache(maxsize=None)
def _q(r: int) -> Poly:
    """q_r: the coefficient of t^r in exp(sum over odd k of 2 p_k t^k / k),
    which is sum over odd rho of r of 2^l(rho) / z_rho p_rho."""
    return {rho: Fraction(2 ** len(rho), _z(rho)) for rho in _odd_partitions(r)}


def _q_pair(a: int, b: int) -> Poly:
    """Q_(a,b) for a > b >= 0."""
    out = _times(_q(a), _q(b))
    for i in range(1, b + 1):
        _add(out, _times(_q(a + i), _q(b - i)), 2 * (-1) ** i)
    return out


def _pfaffian(parts: tuple[int, ...]) -> Poly:
    """Pfaffian of [Q_(parts_i, parts_j)], expanded along the first row."""
    if not parts:
        return {(): Fraction(1)}
    out: Poly = {}
    first, rest = parts[0], parts[1:]
    for j, part in enumerate(rest):
        minor = _pfaffian(rest[:j] + rest[j + 1:])
        _add(out, _times(_q_pair(first, part), minor), (-1) ** j)
    return out


@lru_cache(maxsize=None)
def spin_characters(d: int) -> dict[tuple[int, ...], dict]:
    """phi_lambda(eta) for every strict lambda and odd eta of d."""
    out = {}
    for lam in _strict_partitions(d):
        q_lam = _pfaffian(lam + (0,) * (len(lam) % 2))
        e = (d - len(lam)) % 2
        out[lam] = {
            eta: Fraction(2) ** ((len(eta) - len(lam) - e) // 2)
            * _z(eta) / 2 ** len(eta) * q_lam.get(eta, 0)
            for eta in _odd_partitions(d)
        }
    return out


@lru_cache(maxsize=None)
def signed_pair_count(k: int, nu: tuple[int, ...]) -> int:
    """S(k, eta): the pairs of S_k x S_k whose commutator has nontrivial
    cycle lengths nu (all odd) and fixes every other letter, each with
    the sign (-1)^p."""
    if sum(nu) > k:
        return 0
    eta = nu + (1,) * (k - sum(nu))
    identity = (1,) * k
    ratio = sum(
        ((-1) ** len(lam) * phi[eta] / phi[identity]
         for lam, phi in spin_characters(k).items()),
        Fraction(0),
    )
    count = factorial(k) * class_size(eta) * ratio
    assert count.denominator == 1
    return int(count)


@lru_cache(maxsize=None)
def signed_transitive_count(k: int, nu: tuple[int, ...]) -> int:
    """The connected part of S(k, nu), rooted at letter 0 as
    ``transitive_count`` is; (-1)^p is a product over components."""
    total = signed_pair_count(k, nu)
    for j in range(1, k + 1):
        for sub, rest in _split(nu):
            if (j, sub) != (k, nu) and sum(sub) <= j and sum(rest) <= k - j:
                total -= (
                    comb(k - 1, j - 1)
                    * signed_transitive_count(j, sub)
                    * signed_pair_count(k - j, rest)
                )
    return total


def _multiplicity(lam: tuple[int, ...], d: int) -> int:
    # A lambda with e = 1 stands for two associate characters.
    return 1 + (d - len(lam)) % 2


@pytest.mark.parametrize("d", range(1, 11))
def test_spin_characters_are_orthonormal(d):
    chars = spin_characters(d)
    identity = (1,) * d
    assert sum(
        _multiplicity(lam, d) * phi[identity] ** 2 for lam, phi in chars.items()
    ) == factorial(d)
    for eta in _odd_partitions(d):
        assert sum(
            _multiplicity(lam, d) * phi[eta] ** 2 for lam, phi in chars.items()
        ) == _z(eta), eta


@pytest.mark.parametrize("k", range(1, 10))
def test_unbranched_covers_count_as_odd_tori(k):
    # With no zero every component is a torus, so a connected cover
    # counts -1.
    assert signed_transitive_count(k, ()) == -transitive_count(k, ())


SPIN_CENSUSES = [
    (3, (2,)), (4, (2,)), (5, (4,)), (6, (2, 2)), (7, (6,)), (7, (2, 2)),
    (8, (4, 2)), (8, (6,)),
]


@pytest.mark.parametrize("d,mu", SPIN_CENSUSES)
def test_orbit_parities_match_spin_hurwitz(d, mu, census_of):
    census = census_of(d, mu)
    total = 0
    for comp in decompose(census):
        weight = sum(labelings_by_alpha_type(comp.member_keys, d).values())
        total += (-1) ** comp.parity * weight
    nu = tuple(sorted((m + 1 for m in mu), reverse=True))
    assert total == signed_transitive_count(d, nu)
