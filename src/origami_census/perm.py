"""Permutations on the letters 1..d and conjugacy-class utilities.

Internally a permutation is a word: a tuple ``w`` of length d with
``w[i]`` the 0-based image of the 0-based letter ``i``.  All I/O
(cycle strings, JSON records) is 1-based.

Composition convention: ``compose(p, q)`` applies ``q`` first, then
``p``.  Everything downstream (commutators, twist actions) relies on
this convention, so do not change it.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import permutations, product
from math import factorial
from typing import Iterable, Iterator, Sequence


class DegreeMismatchError(ValueError):
    """Raised when combining permutations of different degrees."""


@dataclass(frozen=True)
class Perm:
    """A permutation of {1..d}, stored as a 0-based word."""

    word: tuple[int, ...]

    def __post_init__(self):
        w = self.word
        if sorted(w) != list(range(len(w))):
            raise ValueError(f"not a permutation word: {w!r}")

    @property
    def degree(self) -> int:
        return len(self.word)

    @classmethod
    def identity(cls, degree: int) -> Perm:
        return cls(tuple(range(degree)))

    def __call__(self, letter: int) -> int:
        """Image of a 1-based letter."""
        return self.word[letter - 1] + 1

    def __mul__(self, other: Perm) -> Perm:
        return compose(self, other)

    def inverse(self) -> Perm:
        return Perm(inverse_word(self.word))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.word))

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles as 1-based tuples, fixed points included.

        Cycles are sorted by minimal element and rotated to start at it.
        """
        # A list, not a generator: tuple(generator) resizes its result and
        # strands free-list tuples, +0.5 MB peak when a census is saved.
        return [tuple([x + 1 for x in c]) for c in word_cycles(self.word)]

    def cycle_type(self) -> CycleType:
        return CycleType(len(self.word), cycle_lengths(self.word))

    def __str__(self) -> str:
        return cycles_to_str(self.cycles())

    def __repr__(self) -> str:
        return f"Perm({str(self)!r})"


@dataclass(frozen=True)
class CycleType:
    """Multiset of cycle lengths of a degree-d permutation, descending."""

    degree: int
    parts: tuple[int, ...]

    def __post_init__(self):
        if sum(self.parts) != self.degree:
            raise ValueError(
                f"parts {self.parts} do not sum to degree {self.degree}"
            )
        if any(p < 1 for p in self.parts):
            raise ValueError(f"non-positive part in {self.parts}")
        if list(self.parts) != sorted(self.parts, reverse=True):
            raise ValueError(f"parts not descending: {self.parts}")

    @classmethod
    def from_parts(cls, degree: int, parts: Iterable[int]) -> CycleType:
        return cls(degree, tuple(sorted(parts, reverse=True)))

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self.parts) + "]"


def inverse_word(w: Sequence[int]) -> tuple[int, ...]:
    """Inverse of a 0-based word."""
    inv = [0] * len(w)
    for i, j in enumerate(w):
        inv[j] = i
    return tuple(inv)


def word_cycles(w: Sequence[int]) -> list[tuple[int, ...]]:
    """0-based cycles of a word, fixed points included, ordered by least
    letter and each starting at it."""
    seen = [False] * len(w)
    out = []
    for i in range(len(w)):
        if seen[i]:
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = w[j]
        out.append(tuple(cyc))
    return out


def cycle_lengths(w: Sequence[int]) -> tuple[int, ...]:
    """Cycle lengths of a 0-based word, descending, fixed points included.

    Not built on :func:`word_cycles`: its hot caller,
    ``census._commutators``, filters every swept commutator or delta
    word by cycle type, and lengths read off ``word_cycles`` take 1.5x
    as long on random 8-letter words.
    """
    seen = [False] * len(w)
    parts = []
    for i in range(len(w)):
        if seen[i]:
            continue
        n = 0
        j = i
        while not seen[j]:
            seen[j] = True
            n += 1
            j = w[j]
        parts.append(n)
    parts.sort(reverse=True)
    return tuple(parts)


def commutator_word(aw: Sequence[int], bw: Sequence[int]) -> tuple[int, ...]:
    """Word of beta^-1 alpha^-1 beta alpha (rightmost factor acts first).

    Built as (alpha beta)^-1 (beta alpha), with one inverse word.
    """
    abi = inverse_word([aw[y] for y in bw])
    return tuple([abi[bw[x]] for x in aw])


def words_transitive(a: Sequence[int], b: Sequence[int]) -> bool:
    """True iff two 0-based words of one degree generate a transitive group.

    Walks forward images from letter 0: for permutations, the forward
    images of a set already span its orbit.
    """
    d = len(a)
    if d == 0:
        return True
    seen = [False] * d
    seen[0] = True
    stack = [0]
    n_seen = 1
    while stack:
        x = stack.pop()
        y = a[x]
        if not seen[y]:
            seen[y] = True
            n_seen += 1
            stack.append(y)
        y = b[x]
        if not seen[y]:
            seen[y] = True
            n_seen += 1
            stack.append(y)
    return n_seen == d


def class_words(
    parts: Sequence[int], degree: int
) -> Iterator[tuple[int, ...]]:
    """Every 0-based word of cycle type ``parts``, each exactly once.

    The cycle through the least letter not yet placed is chosen first:
    its length, then its other letters in order.  There are
    :func:`class_size` of them.
    """
    if sum(parts) != degree or any(p < 1 for p in parts):
        raise ValueError(f"parts {tuple(parts)} do not partition {degree}")
    left = {}
    for p in parts:
        left[p] = left.get(p, 0) + 1
    lengths = sorted(left)
    word = list(range(degree))

    def place(free: list[int]) -> Iterator[tuple[int, ...]]:
        # On entry word[y] == y for every free letter y, and so on return.
        if len(free) == left.get(1, 0):
            yield tuple(word)  # only fixed points remain
            return
        x, rest = free[0], free[1:]
        for length in lengths:
            if not left[length]:
                continue
            left[length] -= 1
            for others in permutations(rest, length - 1):
                prev = x
                for y in others:
                    word[prev] = y
                    prev = y
                word[prev] = x
                yield from place([y for y in rest if y not in others])
                word[x] = x
                for y in others:
                    word[y] = y
            left[length] += 1

    yield from place(list(range(degree)))


def class_size(parts: Sequence[int]) -> int:
    """Number of words of cycle type ``parts``: d!/z, z the order of the
    centralizer of one, the product of length^m m! over the lengths
    that occur m times."""
    z = 1
    for length, m in Counter(parts).items():
        z *= length**m * factorial(m)
    return factorial(sum(parts)) // z


def cycle_rotations(
    w: Sequence[int],
) -> dict[int, list[list[tuple[int, ...]]]]:
    """The cycles of a word by length, each with all its rotations.

    Lengths and cycles come in the order of :func:`word_cycles`.
    """
    rotations: dict[int, list[list[tuple[int, ...]]]] = {}
    for c in word_cycles(w):
        rotations.setdefault(len(c), []).append(
            [c[r:] + c[:r] for r in range(len(c))]
        )
    return rotations


def conjugators_onto(
    xw: Sequence[int], y_rotations: dict[int, list[list[tuple[int, ...]]]]
) -> Iterator[tuple[int, ...]]:
    """Every word b with b x b^-1 == y, that is b[x[i]] == y[b[i]], with
    y given as ``cycle_rotations(y)``.

    Each such b maps every cycle (c, x c, ...) of x onto a cycle
    (e, y e, ...) of y of the same length, with b[x^k c] == y^k e.
    Every matching of equal-length cycles, each with every rotation,
    gives one b: there are |Z(x)| of them, or none when x and y have
    different cycle types.  A caller that solves against one y for
    many x builds y's cycles once.
    """
    xcycles: dict[int, list[tuple[int, ...]]] = {}
    for c in word_cycles(xw):
        xcycles.setdefault(len(c), []).append(c)
    if {n: len(cs) for n, cs in xcycles.items()} != {
        n: len(cs) for n, cs in y_rotations.items()
    }:
        return
    groups = [(xcycles[n], y_rotations[n]) for n in sorted(xcycles)]
    b = [0] * len(xw)

    def fill(g: int) -> Iterator[tuple[int, ...]]:
        if g == len(groups):
            yield tuple(b)
            return
        xcycles, rotations = groups[g]
        for order in permutations(rotations):
            for rots in product(range(len(xcycles[0])), repeat=len(xcycles)):
                for xc, yrots, r in zip(xcycles, order, rots):
                    for x, y in zip(xc, yrots[r]):
                        b[x] = y
                yield from fill(g + 1)

    yield from fill(0)


def word_from_cycles(
    cycles: Iterable[Sequence[int]], degree: int
) -> tuple[int, ...]:
    """0-based word of disjoint 1-based cycles; unlisted letters are fixed.

    Raises ValueError unless every letter is an int in 1..degree that
    appears once.  Each letter is checked before it is used.
    """
    word = list(range(degree))
    seen = [False] * degree
    for cyc in cycles:
        for k, x in enumerate(cyc):
            if not isinstance(x, int) or not 0 < x <= degree:
                raise ValueError(f"letter {x!r} is not an int in 1..{degree}")
            if seen[x - 1]:
                raise ValueError(f"letter {x} repeated in 1..{degree}")
            seen[x - 1] = True
            if k:
                word[cyc[k - 1] - 1] = x - 1
        if cyc:
            word[cyc[-1] - 1] = cyc[0] - 1
    return tuple(word)


def compose(p: Perm, q: Perm) -> Perm:
    """p after q: the result maps i to p(q(i))."""
    if p.degree != q.degree:
        raise DegreeMismatchError(
            f"degree mismatch: {p.degree} vs {q.degree}"
        )
    qw = q.word
    pw = p.word
    return Perm(tuple(pw[qw[i]] for i in range(len(pw))))


def commutator(alpha: Perm, beta: Perm) -> Perm:
    """beta^-1 * alpha^-1 * beta * alpha (rightmost factor acts first)."""
    if alpha.degree != beta.degree:
        raise DegreeMismatchError(
            f"degree mismatch: {alpha.degree} vs {beta.degree}"
        )
    return Perm(commutator_word(alpha.word, beta.word))


def class_representative(t: CycleType) -> Perm:
    """Canonical member of a conjugacy class: consecutive letter blocks.

    [4,1] -> (1,2,3,4)(5), [3,2] -> (1,2,3)(4,5).
    """
    word = list(range(t.degree))
    start = 0
    for p in t.parts:
        for k in range(p - 1):
            word[start + k] = start + k + 1
        word[start + p - 1] = start
        start += p
    return Perm(tuple(word))


def centralizer_generators(p: Perm) -> list[Perm]:
    """A generating set of the centralizer of p in S_d.

    One rotation per cycle (the cycle itself) plus a pointwise swap of
    each adjacent pair of equal-length cycles.
    """
    d = p.degree
    by_length: dict[int, list[tuple[int, ...]]] = {}
    for cyc in p.cycles():
        by_length.setdefault(len(cyc), []).append(cyc)

    gens: list[Perm] = []
    for length in sorted(by_length):
        cycs = sorted(by_length[length])
        if length > 1:
            for cyc in cycs:
                gens.append(Perm(word_from_cycles([cyc], d)))
        for c1, c2 in zip(cycs, cycs[1:]):
            gens.append(Perm(word_from_cycles(zip(c1, c2), d)))
    return gens


def conjugate(p: Perm, tau: Perm) -> Perm:
    """tau * p * tau^-1."""
    if p.degree != tau.degree:
        raise DegreeMismatchError(
            f"degree mismatch: {p.degree} vs {tau.degree}"
        )
    tw = tau.word
    pw = p.word
    word = [0] * len(pw)
    for i in range(len(pw)):
        word[tw[i]] = tw[pw[i]]
    return Perm(tuple(word))


def cycles_to_str(cycles: Iterable[tuple[int, ...]]) -> str:
    return "".join("(" + ",".join(str(x) for x in c) + ")" for c in cycles)


def perm_from_cycles(text: str) -> Perm:
    """Parse cycle notation like "(1,2,3,4)(5)".

    Every letter 1..d must appear exactly once; fixed points are
    written as singleton cycles.  Round-trips with str(Perm).
    """
    text = text.strip().replace(" ", "")
    if not text:
        raise ValueError("empty cycle string")
    cycles: list[list[int]] = []
    pos = 0
    while pos < len(text):
        if text[pos] != "(":
            raise ValueError(f"expected '(' at position {pos} in {text!r}")
        end = text.find(")", pos)
        if end < 0:
            raise ValueError(f"unclosed cycle in {text!r}")
        body = text[pos + 1:end]
        if not body:
            raise ValueError(f"empty cycle in {text!r}")
        try:
            letters = [int(x) for x in body.split(",")]
        except ValueError:
            raise ValueError(f"bad letter in cycle {body!r}") from None
        cycles.append(letters)
        pos = end + 1
    seen = {x for c in cycles for x in c}
    degree = max(seen)
    if len(seen) < degree:
        # Checked before any word is built.  Only the first five missing
        # letters are named, and they lie in 1..len(seen) + 5, so the
        # work grows with the text, not with the largest letter.
        count = degree - sum(x > 0 for x in seen)
        missing = [
            x for x in range(1, min(degree, len(seen) + 5) + 1)
            if x not in seen
        ][:5]
        more = f" and {count - 5} more" if count > 5 else ""
        raise ValueError(
            f"letters {missing}{more} missing; write fixed points as (i)"
        )
    return Perm(word_from_cycles(cycles, degree))
