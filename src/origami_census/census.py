"""Exhaustive census of degree-d covers with a prescribed zero profile.

A census collects every equivalence class of transitive pairs
(alpha, beta) whose commutator lies in the conjugacy class with one
cycle of length m+1 per zero of order m (and fixed points elsewhere).
It carries the exact class count N and the exact total weight M.
"""
from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from itertools import permutations
from pathlib import Path
from typing import Iterator

from .perm import (
    CycleType,
    Perm,
    centralizer_generators,
    class_representative,
    class_words,
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
    canonical_key,
    encode_pair,
    make_origami,
    to_record,
    from_record,
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


class Census:
    """All classes for one (degree, stratum), keyed by canonical key."""

    def __init__(self, degree: int, stratum: StratumSignature,
                 members: dict[bytes, Origami]):
        self.degree = degree
        self.stratum = stratum
        self.members = dict(sorted(members.items()))
        self.n_classes = len(self.members)
        self.total_weight = sum(
            (o.weight for o in self.members.values()), Fraction(0)
        )

    def __len__(self) -> int:
        return self.n_classes

    def __iter__(self) -> Iterator[Origami]:
        return iter(self.members.values())

    def keys(self) -> list[bytes]:
        return list(self.members)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Census):
            return NotImplemented
        return (
            self.degree == other.degree
            and self.stratum == other.stratum
            and self.keys() == other.keys()
        )

    def __repr__(self) -> str:
        return (
            f"Census(d={self.degree}, mu={self.stratum}, "
            f"N={self.n_classes}, M={self.total_weight})"
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


def _enumerate_alpha_class(
    degree: int,
    alpha_parts: tuple[int, ...],
    target_parts: tuple[int, ...],
) -> list[tuple[bytes, tuple[int, ...], tuple[int, ...]]]:
    """All classes whose alpha lies in one conjugacy class.

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
    a key.  Returns (canonical key, canonical pair) triples.
    """
    alpha = class_representative(CycleType(degree, alpha_parts))
    aw = alpha.word
    ai = inverse_word(aw)
    zgens = [g.word for g in centralizer_generators(alpha)]
    ai_rotations = cycle_rotations(ai)

    out = []
    seen: set[tuple[int, ...]] = set()  # gammas of the orbits solved
    for gw in class_words(target_parts, degree):
        if gw in seen:
            continue
        dw = [gw[ai[i]] for i in range(degree)]  # delta = gamma alpha^-1
        if cycle_lengths(dw) != alpha_parts:
            continue
        # sweep the whole centralizer orbit of this gamma
        orbit = [gw]
        seen.add(gw)
        for cur in orbit:
            for z in zgens:
                img = [0] * degree
                for i in range(degree):
                    img[z[i]] = z[cur[i]]
                t = tuple(img)
                if t not in seen:
                    seen.add(t)
                    orbit.append(t)
        coset = {}
        for bw in conjugators_onto(dw, ai_rotations):
            if words_transitive(aw, bw):
                ca, cb = canonical_form(aw, bw)
                key = encode_pair(ca, cb)
                coset[key] = (key, ca, cb)
        out.extend(coset.values())
    return out


def _class_task(args) -> list[tuple[bytes, tuple[int, ...], tuple[int, ...]]]:
    return _enumerate_alpha_class(*args)


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
    and of CPUs.
    """
    if degree < 1:
        raise ValueError(f"degree must be positive, got {degree}")
    target = target_class(degree, stratum)
    if target is None:
        return Census(degree, stratum, {})

    tasks = [
        (degree, parts, target.parts) for parts in partitions_desc(degree)
    ]
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    members: dict[bytes, Origami] = {}
    try:
        mapper = pool.map if pool is not None else map
        for chunk in mapper(_class_task, tasks):
            for key, aw, bw in chunk:
                if key in members:
                    raise InvariantError(
                        f"canonical key {key.hex()} found twice"
                    )
                o = make_origami(Perm(aw), Perm(bw))
                if o.commutator_type != target or o.stratum != stratum:
                    raise InvariantError(
                        f"key {key.hex()} has commutator type "
                        f"{o.commutator_type} and stratum {o.stratum}, "
                        f"expected {target} and {stratum}"
                    )
                members[key] = o
                if budget is not None and len(members) > budget:
                    raise ResourceBudgetError(
                        f"census exceeds budget of {budget} members"
                    )
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return Census(degree, stratum, members)


def brute_force_census(
    degree: int,
    stratum: StratumSignature,
    force: bool = False,
) -> Census:
    """Reference enumeration over all of S_d x S_d (test oracle).

    Guarded to degree <= 6; pass force=True to override.
    """
    if degree > BRUTE_FORCE_MAX_DEGREE and not force:
        raise ValueError(
            f"brute force beyond degree {BRUTE_FORCE_MAX_DEGREE} "
            "requires force=True"
        )
    target = target_class(degree, stratum)
    if target is None:
        return Census(degree, stratum, {})

    members: dict[bytes, Origami] = {}
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
            ca, cb = canonical_form(aw, bw)
            key = encode_pair(ca, cb)
            if key not in members:
                members[key] = make_origami(Perm(ca), Perm(cb))
    return Census(degree, stratum, members)


def save_census(census: Census, path: str | Path) -> None:
    """Write JSON lines: header, one record per member, totals trailer."""
    path = Path(path)
    lines = [
        json.dumps(
            {
                "schema": SCHEMA_VERSION,
                "degree": census.degree,
                "mu": list(census.stratum.mu),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
    ]
    for o in census:
        lines.append(
            json.dumps(to_record(o), sort_keys=True, separators=(",", ":"))
        )
    m = census.total_weight
    lines.append(
        json.dumps(
            {"n": census.n_classes, "m": f"{m.numerator}/{m.denominator}"},
            sort_keys=True,
            separators=(",", ":"),
        )
    )
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def load_census(path: str | Path) -> Census:
    """Read a census file back, verifying totals against the trailer."""
    path = Path(path)
    try:
        text = path.read_text(encoding="ascii")
    except OSError as exc:
        raise CensusCorruptError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    if len(lines) < 2:
        raise CensusCorruptError(f"{path}: truncated census file")

    def parse(line: str, what: str) -> dict:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CensusCorruptError(f"{path}: bad {what} line") from exc
        if not isinstance(obj, dict):
            raise CensusSchemaError(f"{path}: {what} line is not an object")
        return obj

    header = parse(lines[0], "header")
    if "schema" not in header:
        raise CensusSchemaError(f"{path}: header missing schema field")
    if header["schema"] != SCHEMA_VERSION:
        raise CensusVersionError(
            f"{path}: schema {header['schema']} unsupported "
            f"(expected {SCHEMA_VERSION})"
        )
    try:
        degree = int(header["degree"])
        stratum = StratumSignature.from_parts(header["mu"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CensusSchemaError(f"{path}: bad header: {exc}") from exc

    trailer = parse(lines[-1], "trailer")
    if set(trailer) != {"n", "m"}:
        raise CensusCorruptError(f"{path}: missing totals trailer")

    members: dict[bytes, Origami] = {}
    prev_key: bytes | None = None
    for line in lines[1:-1]:
        rec = parse(line, "record")
        try:
            o = from_record(rec)
        except (KeyError, TypeError, ValueError) as exc:
            raise CensusSchemaError(f"{path}: bad record: {exc}") from exc
        if o.degree != degree or o.stratum != stratum:
            raise CensusSchemaError(
                f"{path}: record does not match header degree/mu"
            )
        key = canonical_key(o.alpha, o.beta)
        if prev_key is not None and key <= prev_key:
            raise CensusSchemaError(
                f"{path}: records out of canonical-key order"
            )
        prev_key = key
        members[key] = o

    census = Census(degree, stratum, members)
    m = census.total_weight
    if (
        trailer["n"] != census.n_classes
        or trailer["m"] != f"{m.numerator}/{m.denominator}"
    ):
        raise CensusCorruptError(
            f"{path}: totals trailer does not match records"
        )
    return census
