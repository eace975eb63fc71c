"""Square-tiled surfaces as monodromy pairs.

A surface is built from d unit squares: the right edge of square i is
glued to the left edge of square alpha(i), the top edge of square i to
the bottom edge of square beta(i).  The pair (alpha, beta) determines
the surface up to simultaneous relabeling of the squares, which is the
equivalence realized by :func:`canonical_key`.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .perm import (
    DegreeMismatchError,
    Perm,
    Value,
    commutator_bytes,
    cycle_lengths,
    is_word,
    word_cycles,
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


class StratumSignature(Value):
    """Zero multiplicities (m_1,...,m_k), descending, with sum 2g-2."""

    __slots__ = ("mu",)

    def __init__(self, mu: tuple[int, ...]):
        self._set(mu)
        if not self.mu:
            raise TrivialStratumError("empty zero profile (genus 1)")
        if any(type(m) is not int for m in self.mu):
            raise ValueError(f"zero orders must be integers: {self.mu}")
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

    @property
    def hyperelliptic_zeros(self) -> int | None:
        """The number of zeros, 1 on H(2g-2) and 2 on H(g-1, g-1): the
        strata with a hyperelliptic component.  None on every other."""
        mu = self.mu
        return len(mu) if len(mu) <= 2 and mu[0] == mu[-1] else None

    def __str__(self) -> str:
        return "(" + ",".join(str(m) for m in self.mu) + ")"


def stratum_of(parts: tuple[int, ...]) -> StratumSignature:
    """Zero profile read off the commutator's cycle type, its parts in
    any order: parts c >= 2 give zeros c-1."""
    mu = [c - 1 for c in parts if c >= 2]
    if not mu:
        raise TrivialStratumError(
            "commutator is trivial: the cover is unramified (genus 1)"
        )
    return StratumSignature.from_parts(mu)


class Origami(Value):
    """A validated transitive pair and its stratum.

    ``words`` is alpha's 0-based word then beta's, the format of a
    census key.  ``alpha`` and ``beta`` are :class:`Perm` views of its
    halves, built and checked each time one is read, so code that reads
    the words builds no ``Perm``.
    """

    __slots__ = ("words", "stratum")

    def __init__(self, words: bytes, stratum: StratumSignature):
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "stratum", stratum)

    @property
    def degree(self) -> int:
        return len(self.words) // 2

    @property
    def alpha(self) -> Perm:
        return Perm(self.words[:self.degree])

    @property
    def beta(self) -> Perm:
        return Perm(self.words[self.degree:])

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
    d = alpha.degree
    if d != beta.degree:
        raise DegreeMismatchError(f"degree mismatch: {d} vs {beta.degree}")
    if not words_transitive(alpha.word, beta.word):
        raise DisconnectedCoverError(
            "disconnected cover: <alpha, beta> is not transitive"
        )
    ctype = cycle_lengths(commutator_bytes(alpha.word, beta.word))
    return Origami(alpha.word + beta.word, stratum_of(ctype))


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
    d = o.degree
    aw, bw = o.words[:d], o.words[d:]
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


def canonical_form(aw: bytes, bw: bytes) -> bytes:
    """Canonical key of a transitive pair of 0-based words: its least
    relabeling, alpha's word then beta's.

    For every start square s, relabel squares in first-discovery order
    of a breadth-first walk that follows alpha then beta from each
    square, and keep the lexicographically least relabeled pair.  The
    result is a class invariant: conjugate pairs give equal keys,
    distinct classes give distinct keys, and the order of keys is the
    order of the relabeled pairs.

    Only the starts that can give the least relabeled alpha are walked.
    Its first letter is 0 exactly when the start is a fixed point of
    alpha.  With no fixed point, its second letter is 0 exactly when the
    start lies on a 2-cycle of alpha.  With neither, it is 2 exactly
    when beta(s) is s, alpha(s) or alpha(alpha(s)), and 3 otherwise.
    So the starts are alpha's fixed points, failing those the squares
    on its 2-cycles (with no fixed point, alpha(alpha(s)) = s exactly
    there), failing those the squares s with such a beta(s), failing
    all three every square.  The first of them is walked in full, so a
    disconnected pair still raises :class:`DisconnectedCoverError`.

    The k-th letter of the relabeled alpha is known at step k of the
    walk, so a start is dropped as soon as its alpha prefix exceeds
    the best one; beta is compared only when the alphas tie.
    """
    # The walk indexes letters one at a time, which is faster on lists
    # than on bytes: 0.095 s against 0.101 s over the 19,600 twist
    # images of (8,(6)), copies included.
    aw, bw = list(aw), list(bw)
    d = len(aw)
    squares = range(d)
    starts = (
        [x for x in squares if aw[x] == x]
        or [x for x in squares if aw[aw[x]] == x]
        or [x for x in squares if bw[x] in (x, aw[x], aw[aw[x]])]
        or squares
    )
    best_a: list[int] = []
    best_b: list[int] = []
    for start in starts:
        relabel = [-1] * d
        relabel[start] = 0
        order = [start]
        na: list[int] = []
        n_seen = 1
        tie = start != starts[0]  # the first start has no best to compare with
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
            nb = [relabel[bw[x]] for x in order]
            if not tie or nb < best_b:
                best_a, best_b = na, nb
    return bytes(best_a + best_b)


def canonical_key(alpha: Perm, beta: Perm) -> bytes:
    """Byte key identifying the simultaneous-conjugation class."""
    return canonical_form(alpha.word, beta.word)


def record_words(rec: dict, degree: int) -> tuple[bytes, bytes]:
    """The 0-based words of a census record ``{"key": "<hex>"}``: the
    two halves of its key, in hex, of ``degree`` letters each.

    Raises ValueError unless the key has 2 * degree letters and each
    word is a permutation of 0..degree-1, and KeyError or TypeError on
    a record of the wrong shape.
    """
    key = bytes.fromhex(rec["key"])
    aw, bw = key[:degree], key[degree:]
    if len(key) != 2 * degree or not (is_word(aw) and is_word(bw)):
        raise ValueError(f"key is not two words on 0..{degree - 1}")
    return aw, bw


def from_record(rec: dict, degree: int) -> Origami:
    """The validated :class:`Origami` of a census record of this
    degree."""
    aw, bw = record_words(rec, degree)
    return make_origami(Perm(aw), Perm(bw))
