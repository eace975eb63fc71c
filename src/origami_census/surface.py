"""Square-tiled surfaces as monodromy pairs.

A surface is built from d unit squares: the right edge of square i is
glued to the left edge of square alpha(i), the top edge of square i to
the bottom edge of square beta(i).  The pair (alpha, beta) determines
the surface up to simultaneous relabeling of the squares, which is the
equivalence realized by :func:`canonical_key`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .perm import (
    CycleType,
    DegreeMismatchError,
    Perm,
    commutator_word,
    cycle_lengths,
    word_cycles,
    word_from_cycles,
    words_transitive,
)


class InvariantError(RuntimeError):
    """A mathematical invariant of a census or its orbits failed.

    This indicates a bug, not bad input; the message names the census
    keys at fault in hex.
    """


class OrigamiError(ValueError):
    """Base class for invalid monodromy pairs."""


class DisconnectedCoverError(OrigamiError):
    """<alpha, beta> does not act transitively: the cover is disconnected."""


class TrivialStratumError(OrigamiError):
    """The branching profile has genus < 2 (nothing to study)."""


@dataclass(frozen=True)
class StratumSignature:
    """Zero multiplicities (m_1,...,m_k), descending, with sum 2g-2."""

    mu: tuple[int, ...]

    def __post_init__(self):
        if not self.mu:
            raise TrivialStratumError("empty zero profile (genus 1)")
        if any(m < 1 for m in self.mu):
            raise ValueError(f"zero orders must be positive: {self.mu}")
        if list(self.mu) != sorted(self.mu, reverse=True):
            raise ValueError(f"mu must be descending: {self.mu}")
        if sum(self.mu) % 2:
            raise ValueError(f"sum of mu must be even: {self.mu}")

    @classmethod
    def from_parts(cls, parts) -> StratumSignature:
        return cls(tuple(sorted(parts, reverse=True)))

    @property
    def genus(self) -> int:
        return sum(self.mu) // 2 + 1

    @property
    def kappa(self) -> Fraction:
        """The stratum constant (2g-2 + sum m/(m+1)) / 12."""
        total = Fraction(2 * self.genus - 2)
        for m in self.mu:
            total += Fraction(m, m + 1)
        return total / 12

    def all_even(self) -> bool:
        return all(m % 2 == 0 for m in self.mu)

    def __str__(self) -> str:
        return "(" + ",".join(str(m) for m in self.mu) + ")"


def stratum_of(commutator_type: CycleType) -> StratumSignature:
    """Zero profile read off the commutator: parts c >= 2 give zeros c-1."""
    mu = tuple(c - 1 for c in commutator_type.parts if c >= 2)
    if not mu:
        raise TrivialStratumError(
            "commutator is trivial: the cover is unramified (genus 1)"
        )
    return StratumSignature(mu)


@dataclass(frozen=True)
class Origami:
    """A validated transitive pair with its derived invariants."""

    alpha: Perm
    beta: Perm
    commutator_type: CycleType
    stratum: StratumSignature

    @property
    def degree(self) -> int:
        return self.alpha.degree

    @property
    def genus(self) -> int:
        return self.stratum.genus

    @property
    def weight(self) -> Fraction:
        return weight_of(self.alpha)

    def __str__(self) -> str:
        return f"{self.alpha}\n{self.beta}"


def make_origami(alpha: Perm, beta: Perm) -> Origami:
    """Validate a monodromy pair and derive its stratum data."""
    if alpha.degree != beta.degree:
        raise DegreeMismatchError(
            f"degree mismatch: {alpha.degree} vs {beta.degree}"
        )
    if not words_transitive(alpha.word, beta.word):
        raise DisconnectedCoverError(
            "disconnected cover: <alpha, beta> is not transitive"
        )
    ctype = CycleType(
        alpha.degree, cycle_lengths(commutator_word(alpha.word, beta.word))
    )
    stratum = stratum_of(ctype)
    return Origami(alpha, beta, ctype, stratum)


def horizontal_cylinders(o: Origami) -> list[tuple[int, int]]:
    """(width, height) of each maximal horizontal cylinder.

    Every cycle C of alpha is a horizontal strip of height 1.  C
    continues into the strip above it when beta(alpha(x)) ==
    alpha(beta(x)) for every square x in C: then no zero lies on its
    top edge and beta maps C onto one cycle of alpha, of the same
    length.  Stacked strips make one cylinder.  Cylinders are listed
    in the order of the least square of their bottom strip; the sum of
    width * height is the degree.
    """
    aw = o.alpha.word
    bw = o.beta.word
    strips = word_cycles(aw)
    strip_of = [0] * len(aw)
    for k, cyc in enumerate(strips):
        for x in cyc:
            strip_of[x] = k
    above = [
        strip_of[bw[cyc[0]]]
        if all(bw[aw[x]] == aw[bw[x]] for x in cyc) else None
        for cyc in strips
    ]
    # A stack cannot close up on itself: its strips would then be the
    # whole (connected) surface with a trivial commutator, a torus.
    bottoms = set(range(len(strips))) - set(above)
    out = []
    for k in sorted(bottoms):
        width = len(strips[k])
        height = 1
        while above[k] is not None:
            k = above[k]
            height += 1
        out.append((width, height))
    return out


def weight_of(alpha: Perm) -> Fraction:
    """Sum of 1/width over the cycles of alpha: the sum of height/width
    over the maximal horizontal cylinders."""
    return weight_of_parts(cycle_lengths(alpha.word))


def weight_of_parts(parts: tuple[int, ...]) -> Fraction:
    """:func:`weight_of` for an alpha of cycle type ``parts``."""
    lcm = math.lcm(*parts)
    return Fraction(sum(lcm // n for n in parts), lcm)


def canonical_form(
    aw: tuple[int, ...], bw: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Least relabeling of a transitive pair of 0-based words.

    For every start square s, relabel squares in first-discovery order
    of a breadth-first walk that follows alpha then beta from each
    square, and keep the lexicographically least relabeled pair.  The
    result is a class invariant: conjugate pairs give equal forms,
    distinct classes give distinct forms.

    The k-th letter of the relabeled alpha is known at step k of the
    walk, so a start is dropped as soon as its alpha prefix exceeds
    the best one; beta is compared only when the alphas tie.
    """
    d = len(aw)
    best_a: tuple[int, ...] = ()
    best_b: tuple[int, ...] = ()
    for start in range(d):
        relabel = [-1] * d
        relabel[start] = 0
        order = [start]
        na: list[int] = []
        n_seen = 1
        tie = start > 0  # the first start has no best to compare with
        for x in order:
            y = aw[x]
            ry = relabel[y]
            if ry < 0:
                ry = relabel[y] = n_seen
                n_seen += 1
                order.append(y)
            if tie:
                b = best_a[len(na)]
                if ry != b:
                    if ry > b:
                        break
                    tie = False
            na.append(ry)
            y = bw[x]
            if relabel[y] < 0:
                relabel[y] = n_seen
                n_seen += 1
                order.append(y)
        else:
            if n_seen != d:
                raise DisconnectedCoverError(
                    "disconnected cover: breadth-first walk did not reach "
                    "every square"
                )
            nb = tuple([relabel[bw[x]] for x in order])
            if not tie or nb < best_b:
                best_a, best_b = tuple(na), nb
    return best_a, best_b


def encode_pair(aw: tuple[int, ...], bw: tuple[int, ...]) -> bytes:
    """Raw byte encoding of a pair of words (no relabeling)."""
    if len(aw) < 256:
        return bytes(aw) + bytes(bw)
    out = bytearray()
    for x in aw + bw:
        out += x.to_bytes(4, "big")
    return bytes(out)


def decode_pair(
    key: bytes, degree: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The pair of words that :func:`encode_pair` turned into ``key``."""
    if degree < 256:
        return tuple(key[:degree]), tuple(key[degree:])
    word = tuple(
        int.from_bytes(key[i:i + 4], "big") for i in range(0, len(key), 4)
    )
    return word[:degree], word[degree:]


def canonical_key(alpha: Perm, beta: Perm) -> bytes:
    """Byte key identifying the simultaneous-conjugation class."""
    return encode_pair(*canonical_form(alpha.word, beta.word))


def words_record(aw: tuple[int, ...], bw: tuple[int, ...]) -> dict:
    """JSON-able record with 1-based cycles in canonical cycle order."""
    return {
        "degree": len(aw),
        "alpha": [[x + 1 for x in c] for c in word_cycles(aw)],
        "beta": [[x + 1 for x in c] for c in word_cycles(bw)],
    }


def record_words(rec: dict) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The 0-based words of a record's alpha and beta.

    Each field must hold ``degree`` letters, which
    :func:`word_from_cycles` checks; raises ValueError otherwise, and
    KeyError or TypeError on a record of the wrong shape.
    """
    d = rec["degree"]
    words = []
    for field in ("alpha", "beta"):
        if sum(len(cyc) for cyc in rec[field]) != d:
            raise ValueError(f"{field} cycles do not cover 1..{d}: {rec!r}")
        words.append(word_from_cycles(rec[field], d))
    return words[0], words[1]


def from_record(rec: dict) -> Origami:
    """Inverse of :func:`words_record`; validates the pair."""
    aw, bw = record_words(rec)
    return make_origami(Perm(aw), Perm(bw))


