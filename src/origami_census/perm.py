"""Permutations on the letters 1..d and conjugacy-class utilities.

Internally a permutation is a word: a ``bytes`` ``w`` of length d with
``w[i]`` the 0-based image of the 0-based letter ``i``, so a degree is
at most :data:`MAX_DEGREE`.  Cycle strings are 1-based; a census key,
printed and cached in hex, is the two 0-based words of a pair joined.

Composition convention: ``compose(p, q)`` applies ``q`` first, then
``p``.  Everything downstream (commutators, twist actions) relies on
this convention, so do not change it.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from itertools import pairwise, permutations, product
from math import factorial


class DegreeMismatchError(ValueError):
    """Raised when combining permutations of different degrees."""


class Value:
    """Base of the package's immutable value types.

    A subclass names its fields in ``__slots__``, in order, and its
    ``__init__`` sets them with ``object.__setattr__``, or with
    :meth:`_set` where speed does not matter.  Two values are equal
    when they are of one class with equal fields; a value hashes as the
    tuple of its fields and prints as ``Name(field=value, ...)``.
    Assigning or deleting an attribute raises AttributeError.
    """

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Copies and pickles are rebuilt by the constructor.
        return self.__class__, self._fields()


# Letter i of a word is byte i.  ``LETTERS[d:]`` pads a word of degree
# d to a 256-byte table for ``bytes.translate``, and ``LETTERS[:d]`` is
# the identity word.
LETTERS = bytes(range(256))
MAX_DEGREE = len(LETTERS) - 1


def check_degree(d: int) -> None:
    """Raise ValueError if a word of d letters does not fit one byte per
    letter."""
    if d > MAX_DEGREE:
        raise ValueError(
            f"degree {d} is over {MAX_DEGREE}: words hold one byte per letter"
        )


def is_word(w: bytes) -> bool:
    """True when ``w`` is a permutation of 0..len(w)-1: its letters are
    distinct and, deleted in C, none of them is len(w) or more."""
    d = len(w)
    return len(set(w)) == d and not w.translate(None, LETTERS[:d])


class Perm(Value):
    """A permutation of {1..d}, stored as a 0-based ``bytes`` word.

    Built from any sequence of ints; a sequence that is not a
    permutation of 0..d-1, or of more than ``MAX_DEGREE`` letters,
    raises ValueError.
    """

    __slots__ = ("word",)

    def __init__(self, word: Sequence[int]):
        object.__setattr__(self, "word", word)
        self.__post_init__()

    def __post_init__(self):
        # Apart from __init__: perfbench/tracer.py counts constructions
        # by wrapping this method.
        w = self.word
        check_degree(len(w))
        try:
            word = bytes(w)  # refuses a letter that is not an int in 0..255
            ok = is_word(word)
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise ValueError(f"not a permutation word: {w!r}")
        object.__setattr__(self, "word", word)

    @property
    def degree(self) -> int:
        return len(self.word)

    def __call__(self, letter: int) -> int:
        """Image of a 1-based letter."""
        return self.word[letter - 1] + 1

    def inverse(self) -> Perm:
        return Perm(inverse_word(self.word))

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles as 1-based tuples, fixed points included.

        Cycles are sorted by minimal element and rotated to start at it.
        """
        # A list, not a generator: tuple(generator) resizes its result and
        # strands free-list tuples, +0.5 MB peak when a census is saved.
        return [tuple([x + 1 for x in c]) for c in word_cycles(self.word)]

    def __str__(self) -> str:
        return cycles_to_str(self.cycles())

    def __repr__(self) -> str:
        return f"Perm({str(self)!r})"


def inverse_word(w: bytes) -> bytes:
    """Inverse of a 0-based word, in C: the translate table that maps
    each letter w[i] back to i, cut to the word's length."""
    d = len(w)
    return bytes.maketrans(w, LETTERS[:d])[:d]


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


def commutator_bytes(aw: bytes, bw: bytes) -> bytes:
    """Word of beta^-1 alpha^-1 beta alpha (rightmost factor acts first),
    for two ``bytes`` words, in C.

    It is (alpha beta)^-1 (beta alpha), from three ``bytes.translate``
    calls: ``bw.translate(aw + pad)`` is the word of alpha beta, and
    ``bytes.maketrans(w, identity)`` is the table of w's inverse.
    """
    d = len(aw)
    identity = LETTERS[:d]
    return (
        aw.translate(bw + LETTERS[d:])
        .translate(bytes.maketrans(aw, identity))
        .translate(bytes.maketrans(bw, identity))
    )


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


def parts_degree(parts: Sequence[int]) -> int:
    """The degree of cycle type ``parts``, their sum.  A part below 1,
    or a sum over ``MAX_DEGREE``, raises ValueError."""
    if any(p < 1 for p in parts):
        raise ValueError(f"non-positive part in {tuple(parts)}")
    d = sum(parts)
    check_degree(d)
    return d


def class_words(parts: Sequence[int], degree: int) -> Iterator[bytes]:
    """Every 0-based word of cycle type ``parts``, each exactly once.

    The cycle through the least letter not yet placed is chosen first:
    its length, then its other letters in order.  There are
    :func:`class_size` of them.
    """
    if parts_degree(parts) != degree:
        raise ValueError(f"parts {tuple(parts)} do not partition {degree}")
    left = {}
    for p in parts:
        left[p] = left.get(p, 0) + 1
    lengths = sorted(left)
    word = list(range(degree))

    def place(free: list[int]) -> Iterator[bytes]:
        # On entry word[y] == y for every free letter y, and so on return.
        if len(free) == left.get(1, 0):
            yield bytes(word)  # only fixed points remain
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
    xw: bytes,
    y_rotations: dict[int, list[list[tuple[int, ...]]]],
    fixed_images: Iterable[Sequence[int]],
) -> Iterator[bytes]:
    """The words b with b x b^-1 == y, that is b[x[i]] == y[b[i]], with
    y given as ``cycle_rotations(y)``, that map x's fixed points as
    one entry of ``fixed_images``.

    Each such b maps every cycle (c, x c, ...) of x onto a cycle
    (e, y e, ...) of y of the same length, with b[x^k c] == y^k e.
    Every matching of equal-length cycles, each with every rotation,
    gives one b, or none when x and y have different cycle types.  A
    caller that solves against one y for many x builds y's cycles once.

    Each entry of ``fixed_images`` lists the images of x's fixed
    points, in increasing order, and must be a bijection onto y's fixed
    points.  With ``permutations`` of y's fixed points, in increasing
    order, every b is walked: there are |Z(x)| of them.
    """
    xcycles: dict[int, list[tuple[int, ...]]] = {}
    for c in word_cycles(xw):
        xcycles.setdefault(len(c), []).append(c)
    if {n: len(cs) for n, cs in xcycles.items()} != {
        n: len(cs) for n, cs in y_rotations.items()
    }:
        return
    fixed = [c for c, in xcycles.pop(1, ())]
    groups = [(xcycles[n], y_rotations[n]) for n in sorted(xcycles)]
    b = [0] * len(xw)

    def fill(g: int) -> Iterator[bytes]:
        if g == len(groups):
            yield bytes(b)
            return
        xcycles, rotations = groups[g]
        for order in permutations(rotations):
            for rots in product(range(len(xcycles[0])), repeat=len(xcycles)):
                for xc, yrots, r in zip(xcycles, order, rots):
                    for x, y in zip(xc, yrots[r]):
                        b[x] = y
                yield from fill(g + 1)

    for images in fixed_images:
        for x, y in zip(fixed, images):
            b[x] = y
        yield from fill(0)


def compose(p: Perm, q: Perm) -> Perm:
    """p after q: the result maps i to p(q(i)), one ``translate``."""
    if p.degree != q.degree:
        raise DegreeMismatchError(
            f"degree mismatch: {p.degree} vs {q.degree}"
        )
    return Perm(q.word.translate(p.word + LETTERS[p.degree:]))


def class_representative(parts: Sequence[int]) -> bytes:
    """Canonical word of a cycle type: consecutive letter blocks.

    (4,1) -> (1,2,3,4)(5), (3,2) -> (1,2,3)(4,5).
    """
    word = list(range(parts_degree(parts)))
    start = 0
    for p in parts:
        for k in range(p - 1):
            word[start + k] = start + k + 1
        word[start + p - 1] = start
        start += p
    return bytes(word)


def centralizer_generators(w: bytes) -> list[bytes]:
    """Words generating the centralizer of the word w in S_d.

    One rotation per cycle (the cycle itself) plus a pointwise swap of
    each adjacent pair of equal-length cycles, read off
    :func:`cycle_rotations`: lengths ascending, cycles in the order of
    :func:`word_cycles`.
    """
    rotations = cycle_rotations(w)
    gens = []
    for length in sorted(rotations):
        cycles = rotations[length]
        moves = [zip(c[0], c[1]) for c in cycles] if length > 1 else []
        moves += [zip(c[0] + e[0], e[0] + c[0]) for c, e in pairwise(cycles)]
        for move in map(dict, moves):
            gens.append(bytes([move.get(x, x) for x in range(len(w))]))
    return gens


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
    # Each letter is checked before it is used; Perm converts the word
    # and refuses one of more than MAX_DEGREE letters.
    word = list(range(degree))
    placed = [False] * degree
    for cyc in cycles:
        for k, x in enumerate(cyc):
            if not 0 < x <= degree:
                raise ValueError(f"letter {x} is not in 1..{degree}")
            if placed[x - 1]:
                raise ValueError(f"letter {x} repeated in 1..{degree}")
            placed[x - 1] = True
            if k:
                word[cyc[k - 1] - 1] = x - 1
        word[cyc[-1] - 1] = cyc[0] - 1
    return Perm(word)
