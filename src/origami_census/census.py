"""Exhaustive census of degree-d covers with a prescribed zero profile.

A census collects every equivalence class of transitive pairs
(alpha, beta) whose commutator lies in the conjugacy class with one
cycle of length m+1 per zero of order m (and fixed points elsewhere).
It carries the exact class count N and the exact total weight M.
"""
from __future__ import annotations

import json
import os
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, pairwise, permutations, repeat
from math import lcm
from pathlib import Path

from .perm import (
    LETTERS,
    centralizer_generators,
    check_degree,
    class_representative,
    class_size,
    class_words,
    commutator_bytes,
    conjugators_onto,
    cycle_lengths,
    cycle_rotations,
    inverse_word,
    words_transitive,
)
from .surface import (
    InvariantError,
    Origami,
    StratumSignature,
    canonical_form,
    record_words,
    weight_of_parts,
)

SCHEMA_VERSION = 2


class ResourceBudgetError(RuntimeError):
    """The enumeration exceeded the configured member budget."""


class CensusFileError(Exception):
    """Base class for unreadable census files."""


class CensusVersionError(CensusFileError):
    """The file was written with a different schema version."""


class CensusCorruptError(CensusFileError):
    """The file is truncated or not valid JSON lines."""


class CensusSchemaError(CensusFileError):
    """The file parses but violates the census schema."""


class Census(Mapping):
    """All classes for one (degree, stratum): a read-only mapping from
    canonical key to member, in key order.

    A key is the class's :func:`canonical_form`, alpha's word then
    beta's, so it holds the member's words; the stratum is shared by
    every member and stored once.  A member is the :class:`Origami` of
    its key and the stratum, built when it is read and not kept.  The
    keys are sorted once; a key given twice raises
    :class:`InvariantError`.
    """

    def __init__(self, degree: int, stratum: StratumSignature,
                 keys: Iterable[bytes]):
        target_class(degree, stratum)  # refuses a degree over MAX_DEGREE
        self.degree = degree
        self.stratum = stratum
        self._keys = sorted(keys)
        for a, b in pairwise(self._keys):
            if a == b:
                raise InvariantError(f"canonical key {a.hex()} found twice")
        self.n_classes = len(self._keys)
        self.total_weight = weight_of_keys(self._keys)

    def __getitem__(self, key: bytes) -> Origami:
        if key not in self:
            raise KeyError(key)
        return self.member(key)

    def member(self, key: bytes) -> Origami:
        """The member of ``key``, which must be one of the census's keys:
        unlike ``census[key]``, it does not look the key up, and it
        builds no ``Perm``: the key is the member's words."""
        return Origami(key, self.stratum)

    def __contains__(self, key) -> bool:
        if not isinstance(key, bytes):
            return False
        keys = self._keys
        i = bisect_left(keys, key)
        return i < len(keys) and keys[i] == key

    def __iter__(self) -> Iterator[bytes]:
        return iter(self._keys)

    def __len__(self) -> int:
        return self.n_classes

    def __eq__(self, other) -> bool:
        # Compares the keys; Mapping's __eq__ would build every member.
        if not isinstance(other, Census):
            return NotImplemented
        return (
            self.degree == other.degree
            and self.stratum == other.stratum
            and self._keys == other._keys
        )

    def __repr__(self) -> str:
        return (
            f"Census(d={self.degree}, mu={self.stratum}, "
            f"N={self.n_classes}, M={self.total_weight})"
        )


def weight_of_keys(keys: Iterable[bytes]) -> Fraction:
    """Total weight of the members with these keys.

    A member's weight depends only on the cycle type of its alpha, so
    one weight is computed per type.  Many members share an alpha word,
    the first half of the key, so each distinct alpha is walked once,
    on its bytes.
    """
    counts: Counter[tuple[int, ...]] = Counter()
    for half, n in Counter(k[:len(k) // 2] for k in keys).items():
        counts[cycle_lengths(half)] += n
    return sum(
        (n * weight_of_parts(parts) for parts, n in counts.items()), Fraction(0)
    )


def target_class(
    degree: int, stratum: StratumSignature
) -> tuple[int, ...] | None:
    """Cycle type of the commutator class for the stratum at this
    degree, descending: one part m+1 per zero, then fixed points.  None
    if d is too small to fit them.

    A word holds one byte per letter, so a degree over ``MAX_DEGREE``
    raises ValueError.
    """
    check_degree(degree)
    rest = degree - sum(stratum.mu) - len(stratum.mu)
    if rest < 0:
        return None
    return tuple(m + 1 for m in stratum.mu) + (1,) * rest


def partitions_desc(n: int, largest: int | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions of n in descending lexicographic order."""
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions_desc(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=1)
def _class_bytes(parts: tuple[int, ...], degree: int) -> bytes:
    """Every word of cycle type ``parts``, d bytes each, in the order of
    :func:`class_words`.

    A census has one target class, so a process builds it once per
    census; held as one ``bytes``, not as tuples, it costs d bytes per
    word.  It is filled in place at its known size: joining the words
    instead left ``orbits --degree 10 --mu 6`` peaking 9 MB higher.
    """
    words = bytearray(class_size(parts) * degree)
    k = 0
    for w in class_words(parts, degree):
        words[k:k + degree] = w
        k += degree
    return bytes(words)


def _power_is_identity(w: bytes, n: int, pad: bytes) -> bool:
    """True when the word ``w`` raised to the n-th power is the identity,
    that is when every cycle length of w divides n.

    With n the lcm of some parts, this is a necessary condition for w
    to have cycle type ``parts``, tested in C: the power is built by
    square-and-multiply, each product one ``bytes.translate`` with
    ``pad`` the letters from len(w) to 255.
    """
    power = None
    while True:
        if n & 1:
            power = w if power is None else power.translate(w + pad)
        n >>= 1
        if not n:
            return power == LETTERS[:len(w)]
        w = w.translate(w + pad)


def _commutators(
    degree: int,
    alpha_parts: tuple[int, ...],
    target_parts: tuple[int, ...],
    aw: bytes,
    ai: bytes,
    seen: set[bytes],
) -> Iterator[tuple[bytes, bytes]]:
    """Each gamma of the target class not in ``seen`` whose delta =
    gamma alpha^-1 has alpha's cycle type, with that delta.

    gamma and delta = gamma alpha^-1 determine each other, so the
    smaller of the two classes is walked: deltas of alpha's class,
    keeping gamma = delta alpha when it has the target type, or gammas
    of the target class, keeping those whose delta has alpha's type.
    Each product is one ``bytes.translate``, and a word whose power to
    the lcm of the wanted parts is not the identity is dropped before
    its cycles are walked.  ``seen`` is read as the caller grows it,
    before each filter.
    """
    pad = LETTERS[degree:]
    if class_size(alpha_parts) < class_size(target_parts):
        order = lcm(*target_parts)
        for dw in class_words(alpha_parts, degree):
            gw = aw.translate(dw + pad)
            if gw in seen or not _power_is_identity(gw, order, pad):
                continue
            if cycle_lengths(gw) == target_parts:
                yield gw, dw
    else:
        order = lcm(*alpha_parts)
        words = _class_bytes(target_parts, degree)
        for k in range(0, len(words), degree):
            gw = words[k:k + degree]
            if gw in seen:
                continue
            dw = ai.translate(gw + pad)
            if not _power_is_identity(dw, order, pad):
                continue
            if cycle_lengths(dw) == alpha_parts:
                yield gw, dw


def _path_matchings(
    dw: bytes, alpha_fixed: list[int]
) -> Iterator[tuple[int, ...]]:
    """Images of delta's fixed points, in increasing order, for one
    beta of each Sym(F)-orbit of a coset that can give a transitive
    pair, F being the letters that alpha and gamma fix.

    A beta of the coset maps the fixed points D of delta = gamma
    alpha^-1 onto those of alpha, ``alpha_fixed`` or A, and F = D n A.
    Draw an arrow from each x in D to beta(x).  The k sources D \\ F
    have no arrow in, the k targets A \\ F none out, and each letter of
    F one of each, so the arrows form k paths from sources to targets
    through letters of F, and cycles inside F.

    - A cycle inside F is a set of letters that alpha fixes and beta
      permutes, so it is closed under both.  It is not every letter,
      since gamma moves some, so the pair is not transitive: betas
      with such a cycle are not walked.
    - z in Sym(F) commutes with alpha and gamma, so z beta z^-1 lies
      in the same coset and the same class.  It agrees with beta off
      D and relabels the letters of F on the arrows.  With no cycle,
      walking the paths from the sources in increasing order lists
      each letter of F once, and exactly one z turns that list into F
      in increasing order.  So the rule "F is met in increasing order"
      keeps exactly one beta of each orbit.

    Such a beta is set by the number of letters of F on each path, a
    composition of |F| into k parts, and by the target each path ends
    at: k! C(|F|+k-1, k-1) of the |D|! matchings.  With F empty that
    is every matching, in the order of ``permutations(alpha_fixed)``,
    as :func:`conjugators_onto` walks them by default; with k = 0 it
    is none, unless D is empty and the one empty matching is yielded.
    The caller's per-coset dict drops the betas that the rest of the
    stabilizer of gamma in Z makes conjugate.
    """
    fixed = [x for x in range(len(dw)) if dw[x] == x]
    shared = [x for x in alpha_fixed if dw[x] == x]
    sources = [x for x in fixed if x not in shared]
    targets = [x for x in alpha_fixed if x not in shared]
    if not sources:
        if not fixed:
            yield ()
        return
    slot = {x: i for i, x in enumerate(fixed)}
    m = len(shared)
    images = [0] * len(fixed)
    for cuts in combinations_with_replacement(range(m + 1), len(sources) - 1):
        bounds = (0, *cuts, m)
        for ends in permutations(targets):
            for s, lo, hi, t in zip(sources, bounds, bounds[1:], ends):
                for v in shared[lo:hi]:
                    images[slot[s]] = v
                    s = v
                images[slot[s]] = t
            yield tuple(images)


def _enumerate_alpha_class(
    degree: int,
    alpha_parts: tuple[int, ...],
    target_parts: tuple[int, ...],
) -> list[bytes]:
    """The canonical key of every class whose alpha lies in one
    conjugacy class.

    Fixing alpha to the class representative, classes correspond to
    orbits of valid betas under conjugation by the centralizer Z of
    alpha.  Betas are solved for, not swept: gamma = beta^-1 alpha^-1
    beta alpha runs over the target class, and the betas with that
    commutator are those conjugating delta = gamma alpha^-1 to
    alpha^-1, one coset of the centralizer.  Conjugating by z in Z
    sends beta to z beta z^-1 and gamma to z gamma z^-1, and keeps
    delta's cycle type, so one gamma per Z-orbit is solved.  Within
    its coset, two betas are one class exactly when an element of Z
    fixing gamma conjugates one to the other, that is when their
    canonical keys are equal; betas of different cosets never share
    a key.  Of each coset, only the betas :func:`_path_matchings`
    picks on the fixed points are walked.
    """
    aw = class_representative(alpha_parts)
    ai = inverse_word(aw)
    pad = LETTERS[degree:]
    # z gamma z^-1 maps each letter through z^-1, gamma, then z
    ztables = [(z + pad, inverse_word(z)) for z in centralizer_generators(aw)]
    ai_rotations = cycle_rotations(ai)
    alpha_fixed = [x for x in range(degree) if aw[x] == x]

    out = []
    seen: set[bytes] = set()  # gammas of the orbits solved
    for gw, dw in _commutators(
        degree, alpha_parts, target_parts, aw, ai, seen
    ):
        # sweep the whole centralizer orbit of this gamma
        orbit = [gw]
        seen.add(gw)
        for cur in orbit:
            for zt, zi in ztables:
                t = zi.translate(cur.translate(zt) + pad)
                if t not in seen:
                    seen.add(t)
                    orbit.append(t)
        images = _path_matchings(dw, alpha_fixed)
        out.extend(dict.fromkeys(
            canonical_form(aw, bw)
            for bw in conjugators_onto(dw, ai_rotations, images)
            if words_transitive(aw, bw)
        ))
    return out


def enumerate_census(
    degree: int,
    stratum: StratumSignature,
    workers: int = 1,
    budget: int | None = None,
) -> Census:
    """Complete, duplicate-free census of Cov(degree, stratum).

    The degree being too small for the profile gives an empty census,
    not an error.  Exceeding ``budget`` members raises
    :class:`ResourceBudgetError` as soon as the alpha class that holds
    the extra member is read; alpha classes not yet started are then
    cancelled.  ``workers`` is clamped to the number of alpha classes
    and of CPUs.  Every member is checked to be a transitive pair whose
    commutator has the stratum's type.  A degree over ``MAX_DEGREE``
    raises ValueError from :func:`target_class` before any work.
    """
    if degree < 1:
        raise ValueError(f"degree must be positive, got {degree}")
    target = target_class(degree, stratum)
    if target is None:
        return Census(degree, stratum, ())

    alpha_classes = list(partitions_desc(degree))
    workers = min(workers, len(alpha_classes), os.cpu_count() or 1)
    pool = None
    if workers > 1:
        # Imported here: the import alone costs a one-worker run about
        # 30 ms and 2.6 MB.
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
    keys: list[bytes] = []
    try:
        mapper = pool.map if pool is not None else map
        for chunk in mapper(_enumerate_alpha_class, repeat(degree),
                            alpha_classes, repeat(target)):
            for key in chunk:
                aw, bw = key[:degree], key[degree:]
                if not words_transitive(aw, bw):
                    raise InvariantError(
                        f"key {key.hex()} is not a transitive pair"
                    )
                ctype = cycle_lengths(commutator_bytes(aw, bw))
                if ctype != target:
                    got, want = (",".join(map(str, t)) for t in (ctype, target))
                    raise InvariantError(
                        f"key {key.hex()} has commutator type [{got}], "
                        f"expected [{want}]"
                    )
            keys.extend(chunk)
            if budget is not None and len(keys) > budget:
                raise ResourceBudgetError(
                    f"census exceeds budget of {budget} members"
                )
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        # Each census builds its target class once and keeps it no
        # longer, so its cost does not hang on what the process ran
        # before.
        _class_bytes.cache_clear()
    return Census(degree, stratum, keys)


def _json_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def save_census(census: Census, path: str | Path) -> None:
    """Write JSON lines: header, one record ``{"key": "<hex>"}`` per
    member in key order, totals trailer."""
    m = census.total_weight
    d = census.degree
    with open(path, "w", encoding="ascii") as f:
        f.write(_json_line(
            {"schema": SCHEMA_VERSION, "degree": d, "mu": list(census.stratum.mu)}
        ))
        for key in census:
            f.write(_json_line({"key": key.hex()}))
        f.write(_json_line(
            {"n": census.n_classes, "m": f"{m.numerator}/{m.denominator}"}
        ))


def load_census(
    path: str | Path,
    budget: int | None = None,
    *,
    expect: tuple[int, StratumSignature] | None = None,
) -> Census:
    """Read a census file back, checking each record once, on its words.

    A record's hex key must decode to two permutations of the header's
    degree that make a transitive pair of the header's commutator type,
    are their own canonical pair and come after the previous record in
    key order.  No ``Perm`` or ``Origami`` is built.  The class count
    and total weight must match the trailer.
    Lines are read one at a time, with one line of lookahead to tell
    the trailer from the records, so the file is never held whole.
    Holding more than ``budget`` records raises
    :class:`ResourceBudgetError` at once, as in :func:`enumerate_census`.
    A header other than ``expect``, a ``(degree, stratum)`` pair, or of
    degree over ``MAX_DEGREE`` raises :class:`CensusSchemaError` before
    any record is read.  A path that cannot be opened or read, or whose
    bytes are not ASCII, raises :class:`CensusCorruptError` ("cannot
    read ...").
    """
    path = Path(path)

    def parse(line: str, what: str) -> dict:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CensusCorruptError(f"{path}: bad {what} line") from exc
        if not isinstance(obj, dict):
            raise CensusSchemaError(f"{path}: {what} line is not an object")
        return obj

    try:
        with open(path, encoding="ascii") as f:
            first = next(f, None)
            last = next(f, None)
            if last is None:
                raise CensusCorruptError(f"{path}: truncated census file")

            header = parse(first, "header")
            if "schema" not in header:
                raise CensusSchemaError(f"{path}: header missing schema field")
            if header["schema"] != SCHEMA_VERSION:
                raise CensusVersionError(
                    f"{path}: schema {header['schema']} unsupported "
                    f"(expected {SCHEMA_VERSION})"
                )
            try:
                degree = header["degree"]
                stratum = StratumSignature.from_parts(header["mu"])
                if type(degree) is not int or degree < 1:
                    raise ValueError(
                        f"degree {degree!r} is not a positive integer"
                    )
                target = target_class(degree, stratum)
            except (KeyError, TypeError, ValueError) as exc:
                raise CensusSchemaError(f"{path}: bad header: {exc}") from exc
            if expect is not None and (degree, stratum) != expect:
                raise CensusSchemaError(
                    f"{path} holds the census of d={degree} mu={stratum}"
                )

            keys: list[bytes] = []
            for line in f:
                rec = parse(last, "record")
                last = line
                try:
                    aw, bw = record_words(rec, degree)
                    key = aw + bw
                    # canonical_form raises DisconnectedCoverError, a
                    # ValueError, unless the pair is transitive.
                    canonical = canonical_form(aw, bw) == key
                except (KeyError, TypeError, ValueError) as exc:
                    raise CensusSchemaError(f"{path}: bad record: {exc}") from exc
                gw = commutator_bytes(aw, bw)
                if target is None or cycle_lengths(gw) != target:
                    raise CensusSchemaError(
                        f"{path}: record does not match header degree/mu"
                    )
                if not canonical:
                    raise CensusSchemaError(
                        f"{path}: record is not its own canonical pair"
                    )
                if keys and key <= keys[-1]:
                    raise CensusSchemaError(
                        f"{path}: records out of canonical-key order"
                    )
                keys.append(key)
                if budget is not None and len(keys) > budget:
                    raise ResourceBudgetError(
                        f"census exceeds budget of {budget} members"
                    )
    except (OSError, UnicodeDecodeError) as exc:
        raise CensusCorruptError(f"cannot read {path}: {exc}") from exc

    trailer = parse(last, "trailer")
    if set(trailer) != {"n", "m"}:
        raise CensusCorruptError(f"{path}: missing totals trailer")

    census = Census(degree, stratum, keys)
    m = census.total_weight
    if (
        type(trailer["n"]) is not int
        or trailer["n"] != census.n_classes
        or trailer["m"] != f"{m.numerator}/{m.denominator}"
    ):
        raise CensusCorruptError(
            f"{path}: totals trailer does not match records"
        )
    return census
