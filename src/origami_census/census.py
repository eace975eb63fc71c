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
from collections.abc import Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import pairwise, permutations, repeat
from pathlib import Path

from .perm import (
    CycleType,
    Perm,
    centralizer_generators,
    class_representative,
    class_size,
    class_words,
    commutator_word,
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
    decode_pair,
    encode_pair,
    record_words,
    weight_of_parts,
    words_record,
)

SCHEMA_VERSION = 1

BRUTE_FORCE_MAX_DEGREE = 6


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

    A key is ``encode_pair`` of the class's canonical pair, so it holds
    the member's words; the commutator type and the stratum are shared
    by every member and stored once.  A member is built as an
    :class:`Origami` when it is read and is not kept.  The keys are
    sorted once; a key given twice raises :class:`InvariantError`.
    """

    def __init__(self, degree: int, stratum: StratumSignature,
                 keys: Iterable[bytes]):
        self.degree = degree
        self.stratum = stratum
        self.commutator_type = target_class(degree, stratum)
        self._keys = sorted(keys)
        for a, b in pairwise(self._keys):
            if a == b:
                raise InvariantError(f"canonical key {a.hex()} found twice")
        self.n_classes = len(self._keys)
        self.total_weight = weight_of_keys(self._keys, degree)

    def __getitem__(self, key: bytes) -> Origami:
        if key not in self:
            raise KeyError(key)
        aw, bw = decode_pair(key, self.degree)
        return Origami(Perm(aw), Perm(bw), self.commutator_type, self.stratum)

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


def weight_of_keys(keys: Iterable[bytes], degree: int) -> Fraction:
    """Total weight of the members with these keys.

    A member's weight depends only on the cycle type of its alpha, so
    one weight is computed per type.
    """
    counts = Counter(cycle_lengths(decode_pair(k, degree)[0]) for k in keys)
    return sum(
        (n * weight_of_parts(parts) for parts, n in counts.items()), Fraction(0)
    )


def target_class(degree: int, stratum: StratumSignature) -> CycleType | None:
    """Commutator class for the stratum at this degree, or None if d is
    too small to fit one cycle of length m+1 per zero."""
    heavy = [m + 1 for m in stratum.mu]
    if sum(heavy) > degree:
        return None
    return CycleType.from_parts(
        degree, heavy + [1] * (degree - sum(heavy))
    )


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


def _commutators(
    degree: int,
    alpha_parts: tuple[int, ...],
    target_parts: tuple[int, ...],
    aw: tuple[int, ...],
    ai: tuple[int, ...],
    seen: set[bytes],
) -> Iterator[tuple[bytes, Sequence[int]]]:
    """Each gamma of the target class not in ``seen`` whose delta =
    gamma alpha^-1 has alpha's cycle type, with that delta.

    gamma and delta = gamma alpha^-1 determine each other, so the
    smaller of the two classes is walked: deltas of alpha's class,
    keeping gamma = delta alpha when it has the target type, or gammas
    of the target class, keeping those whose delta has alpha's type.
    ``seen`` is read as the caller grows it, before each filter.
    """
    if class_size(alpha_parts) < class_size(target_parts):
        for dw in class_words(alpha_parts, degree):
            gw = bytes([dw[x] for x in aw])
            if gw not in seen and cycle_lengths(gw) == target_parts:
                yield gw, dw
    else:
        words = _class_bytes(target_parts, degree)
        for k in range(0, len(words), degree):
            gw = words[k:k + degree]
            if gw in seen:
                continue
            dw = [gw[x] for x in ai]
            if cycle_lengths(dw) == alpha_parts:
                yield gw, dw


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
    a key.
    """
    alpha = class_representative(CycleType(degree, alpha_parts))
    aw = alpha.word
    ai = inverse_word(aw)
    zgens = [g.word for g in centralizer_generators(alpha)]
    ai_rotations = cycle_rotations(ai)

    out = []
    seen: set[bytes] = set()  # gammas of the orbits solved
    for gw, dw in _commutators(
        degree, alpha_parts, target_parts, aw, ai, seen
    ):
        # sweep the whole centralizer orbit of this gamma
        orbit = [gw]
        seen.add(gw)
        for cur in orbit:
            for z in zgens:
                img = [0] * degree
                for i in range(degree):
                    img[z[i]] = z[cur[i]]
                t = bytes(img)
                if t not in seen:
                    seen.add(t)
                    orbit.append(t)
        out.extend(dict.fromkeys(
            encode_pair(*canonical_form(aw, bw))
            for bw in conjugators_onto(dw, ai_rotations)
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
    commutator has the stratum's type.
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
                            alpha_classes, repeat(target.parts)):
            for key in chunk:
                aw, bw = decode_pair(key, degree)
                if not words_transitive(aw, bw):
                    raise InvariantError(
                        f"key {key.hex()} is not a transitive pair"
                    )
                ctype = cycle_lengths(commutator_word(aw, bw))
                if ctype != target.parts:
                    raise InvariantError(
                        f"key {key.hex()} has commutator type "
                        f"{CycleType(degree, ctype)}, expected {target}"
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


def brute_force_census(degree: int, stratum: StratumSignature) -> Census:
    """Reference enumeration over all of S_d x S_d (test oracle), up to
    degree 6."""
    if degree > BRUTE_FORCE_MAX_DEGREE:
        raise ValueError(
            f"brute force stops at degree {BRUTE_FORCE_MAX_DEGREE}"
        )
    target = target_class(degree, stratum)
    if target is None:
        return Census(degree, stratum, ())

    keys: set[bytes] = set()
    words = list(permutations(range(degree)))
    for aw in words:
        ai = inverse_word(aw)
        for bw in words:
            bi = inverse_word(bw)
            gamma = tuple(bi[ai[bw[aw[i]]]] for i in range(degree))
            if cycle_lengths(gamma) != target.parts:
                continue
            if not words_transitive(aw, bw):
                continue
            keys.add(encode_pair(*canonical_form(aw, bw)))
    return Census(degree, stratum, keys)


def _json_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def save_census(census: Census, path: str | Path) -> None:
    """Write JSON lines: header, one record per member, totals trailer."""
    m = census.total_weight
    d = census.degree
    with open(path, "w", encoding="ascii") as f:
        f.write(_json_line(
            {"schema": SCHEMA_VERSION, "degree": d, "mu": list(census.stratum.mu)}
        ))
        for key in census:
            f.write(_json_line(words_record(*decode_pair(key, d))))
        f.write(_json_line(
            {"n": census.n_classes, "m": f"{m.numerator}/{m.denominator}"}
        ))


def _file_lines(f, path: Path) -> Iterator[str]:
    """The lines of an open census file, a read or decode failure
    raised as :class:`CensusCorruptError`."""
    try:
        yield from f
    except (OSError, UnicodeDecodeError) as exc:
        raise CensusCorruptError(f"cannot read {path}: {exc}") from exc


def load_census(
    path: str | Path,
    budget: int | None = None,
    *,
    expect: tuple[int, StratumSignature] | None = None,
) -> Census:
    """Read a census file back, checking each record once, on its words.

    A record's cycles must give a transitive pair of the header's
    degree and commutator type that is its own canonical pair and comes
    after the previous record in key order.  No ``Perm`` or ``Origami``
    is built.  The class count and total weight must match the trailer.
    Lines are read one at a time, with one line of lookahead to tell
    the trailer from the records, so the file is never held whole.
    Holding more than ``budget`` records raises
    :class:`ResourceBudgetError` at once, as in :func:`enumerate_census`.
    A header other than ``expect``, a ``(degree, stratum)`` pair, raises
    :class:`CensusSchemaError` before any record is read.
    """
    path = Path(path)
    try:
        f = open(path, encoding="ascii")
    except OSError as exc:
        raise CensusCorruptError(f"cannot read {path}: {exc}") from exc

    def parse(line: str, what: str) -> dict:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CensusCorruptError(f"{path}: bad {what} line") from exc
        if not isinstance(obj, dict):
            raise CensusSchemaError(f"{path}: {what} line is not an object")
        return obj

    with f:
        lines = _file_lines(f, path)
        first = next(lines, None)
        last = next(lines, None)
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
        except (KeyError, TypeError, ValueError) as exc:
            raise CensusSchemaError(f"{path}: bad header: {exc}") from exc
        if type(degree) is not int or degree < 1:
            raise CensusSchemaError(
                f"{path}: bad header: degree {degree!r} is not a positive "
                "integer"
            )
        if expect is not None and (degree, stratum) != expect:
            raise CensusSchemaError(
                f"{path} holds the census of d={degree} mu={stratum}"
            )

        target = target_class(degree, stratum)
        keys: list[bytes] = []
        for line in lines:
            rec = parse(last, "record")
            last = line
            try:
                aw, bw = record_words(rec)
                # canonical_form raises DisconnectedCoverError, a
                # ValueError, unless the pair is transitive.
                canonical = canonical_form(aw, bw) == (aw, bw)
            except (KeyError, TypeError, ValueError) as exc:
                raise CensusSchemaError(f"{path}: bad record: {exc}") from exc
            if (
                len(aw) != degree
                or target is None
                or cycle_lengths(commutator_word(aw, bw)) != target.parts
            ):
                raise CensusSchemaError(
                    f"{path}: record does not match header degree/mu"
                )
            if not canonical:
                raise CensusSchemaError(
                    f"{path}: record is not its own canonical pair"
                )
            key = encode_pair(aw, bw)
            if keys and key <= keys[-1]:
                raise CensusSchemaError(
                    f"{path}: records out of canonical-key order"
                )
            keys.append(key)
            if budget is not None and len(keys) > budget:
                raise ResourceBudgetError(
                    f"census exceeds budget of {budget} members"
                )

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
