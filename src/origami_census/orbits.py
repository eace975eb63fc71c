"""Orbit decomposition of a census under the two shearing twists.

The horizontal twist sends (alpha, beta) to (alpha, alpha beta), the
vertical one to (beta alpha, beta); together they generate the full
integer shearing action on a census.  Orbits are the irreducible
families of covers; each gets exact per-orbit counts, weight, slope
and classification flags.
"""
from __future__ import annotations

from array import array
from bisect import bisect_left
from fractions import Fraction

from .census import Census, InvariantError
from .involutions import is_hyperelliptic
from .perm import LETTERS, Perm, Value, commutator_bytes, compose, cycle_lengths
from .spin import spin_parity
from .surface import (
    Origami,
    StratumSignature,
    canonical_form,
    make_origami,
    weight_of_parts,
)


class ComponentSummary(Value):
    """One orbit: exact counts, slope and classification labels.

    ``cusps`` are the orbits of the horizontal twist on the orbit's
    members, each with its size and alpha's cycle type.  They are the
    cusps of the orbit's Teichmueller curve only when -I, (alpha, beta)
    -> (alpha^-1, beta^-1), fixes the members; otherwise -I pairs them
    or maps one to itself, and ``cusp_count`` is twice the curve's
    cusps minus the self-paired ones (``tests/test_veech_genus.py``).
    ``hyperelliptic`` is True when the orbit lies in the stratum's
    hyperelliptic component, so its slope is 8 + 4/g; it is False on a
    stratum with no such component, even where members have an
    involution with 2g+2 fixed points.
    """

    __slots__ = (
        "component_id", "member_keys", "n_classes", "total_weight", "slope",
        "hyperelliptic", "parity", "cusps",
    )

    def __init__(self, component_id: int, member_keys: tuple[bytes, ...],
                 n_classes: int, total_weight: Fraction, slope: Fraction,
                 hyperelliptic: bool, parity: int | None,
                 cusps: tuple[tuple[int, tuple[int, ...]], ...]):
        self._set(component_id, member_keys, n_classes, total_weight, slope,
                  hyperelliptic, parity, cusps)

    @property
    def cusp_count(self) -> int:
        return len(self.cusps)


def twist_words(aw: bytes, bw: bytes) -> tuple[tuple[bytes, bytes], ...]:
    """Words of the horizontal and vertical twist images of (aw, bw).

    Returns ((alpha, alpha beta), (beta alpha, beta)).  A word is
    ``bytes``, one letter per byte, and each product is one
    ``bytes.translate``: ``bw.translate(aw + pad)``, with ``pad`` the
    letters from the degree to 255, maps each letter y of beta to
    alpha's image of it.
    """
    pad = LETTERS[len(aw):]
    return (aw, bw.translate(aw + pad)), (aw.translate(bw + pad), bw)


def _keeps_commutator(ta: bytes, tb: bytes, gw: bytes) -> bool:
    """True when the commutator word of the pair (ta, tb) is ``gw``.

    That is tb ta == ta tb gw, a test that needs no inverse word.
    """
    pad = LETTERS[len(ta):]
    return ta.translate(tb + pad) == gw.translate(tb + pad).translate(ta + pad)


def act_h_alpha(o: Origami) -> Origami:
    """Horizontal twist: (alpha, beta) -> (alpha, alpha beta).

    The image is not checked here: :func:`decompose` checks the
    commutator word of every twist image it builds.
    """
    aw, bw = twist_words(o.words[:o.degree], o.words[o.degree:])[0]
    return make_origami(Perm(aw), Perm(bw))


def act_h_beta(o: Origami) -> Origami:
    """Vertical twist: (alpha, beta) -> (beta alpha, beta).

    The image is not checked here: :func:`decompose` checks the
    commutator word of every twist image it builds.
    """
    aw, bw = twist_words(o.words[:o.degree], o.words[o.degree:])[1]
    return make_origami(Perm(aw), Perm(bw))


def act_h_alpha_inverse(o: Origami) -> Origami:
    return make_origami(o.alpha, compose(o.alpha.inverse(), o.beta))


def act_h_beta_inverse(o: Origami) -> Origami:
    return make_origami(compose(o.beta.inverse(), o.alpha), o.beta)


def component_slope(
    n_classes: int, total_weight: Fraction, stratum: StratumSignature
) -> Fraction:
    """Exact slope 12 / (1 + kappa N / M)."""
    if total_weight <= 0:
        raise ValueError("slope undefined: total weight must be positive")
    return 12 / (1 + stratum.kappa * n_classes / total_weight)


def decompose(census: Census) -> list[ComponentSummary]:
    """Split a census into twist orbits, ordered by least member key.

    A member is its position in the census's sorted keys.  One pass, in
    key order, slices each key into its two words and builds both twist
    images with :func:`twist_words`, checks that each keeps the
    member's commutator word exactly, and records
    the position of its canonical key, found by bisection, in one flat
    array per twist.  Each array is then walked once to check that no
    position is reached twice: each twist is then a bijection of the
    finite census, and its inverse is one of its powers.  Each orbit
    is walked over those arrays with the two forward twists only, so it
    is closed under both twists and their inverses, and the orbits
    partition the census.
    :func:`cusp_data` reads the cusps and their alpha cycle types off
    the horizontal array, and from those the orbit's weight.  Each
    member is then built once from its key, in key order, for its
    hyperelliptic flag (and spin parity, on even strata), which must
    equal that of the orbit's least member.  A failed check, or an
    image outside the census, raises :class:`InvariantError`.
    """
    d = census.degree
    keys = list(census)  # in key order; a member is its position here
    h_next, v_next = array("i"), array("i")
    for key in keys:
        aw, bw = key[:d], key[d:]
        gw = commutator_bytes(aw, bw)
        for twist, (ta, tb), positions in zip(
            ("horizontal", "vertical"), twist_words(aw, bw), (h_next, v_next)
        ):
            if not _keeps_commutator(ta, tb, gw):
                raise InvariantError(
                    f"{twist} twist of {key.hex()} changed the "
                    "commutator word"
                )
            image_key = canonical_form(ta, tb)
            i = bisect_left(keys, image_key)
            if i == len(keys) or keys[i] != image_key:
                raise InvariantError(
                    f"{twist} twist of {key.hex()} gives {image_key.hex()} "
                    "(not in the census)"
                )
            positions.append(i)
    # Each array holds one census position per member, so a twist
    # permutes the census exactly when no position is reached twice.
    for twist, images in (("horizontal", h_next), ("vertical", v_next)):
        reached = bytearray(len(keys))
        for i, j in enumerate(images):
            if reached[j]:
                raise InvariantError(
                    f"{twist} twist of {keys[i].hex()} gives "
                    f"{keys[j].hex()}, the image of an earlier member"
                )
            reached[j] = 1
    even = census.stratum.all_even()
    seen = bytearray(len(keys))
    out = []
    # Orbits start in key order, so each starts at its least member and
    # they come out already ordered.
    for start in range(len(keys)):
        if seen[start]:
            continue
        seen[start] = 1
        members = [start]
        for i in members:  # grows as it is walked
            for j in (h_next[i], v_next[i]):
                if not seen[j]:
                    seen[j] = 1
                    members.append(j)
        members.sort()
        first = None
        for i in members:
            o = census.member(keys[i])
            labels = (is_hyperelliptic(o), spin_parity(o) if even else None)
            first = first or labels  # the least member's labels
            for name, want, got in zip(
                ("hyperelliptic flag", "spin parity"), first, labels
            ):
                if got != want:
                    raise InvariantError(
                        f"{name} is not orbit-constant: {keys[start].hex()} "
                        f"gives {want!r}, {keys[i].hex()} gives {got!r}"
                    )
        hyperelliptic, parity = first
        cusps = cusp_data(members, keys, h_next)
        weight = sum(
            (n * weight_of_parts(parts) for n, parts in cusps), Fraction(0)
        )
        out.append(
            ComponentSummary(
                component_id=len(out) + 1,
                member_keys=tuple([keys[i] for i in members]),
                n_classes=len(members),
                total_weight=weight,
                slope=component_slope(len(members), weight, census.stratum),
                hyperelliptic=hyperelliptic,
                parity=parity,
                cusps=cusps,
            )
        )
    return out


def cusp_data(
    members: list[int], keys: list[bytes], h_next: array
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Orbits of the horizontal twist alone within one component.

    ``members`` are the component's positions in the sorted census
    ``keys``, in increasing order, and ``h_next[i]`` is the position of
    the horizontal-twist image of ``keys[i]``.  The twist must permute
    the members, as it does on every orbit that :func:`decompose` has
    checked: it permutes the census and the orbit is closed under it.
    A walked member is marked at its census position, so a cycle stops
    where it comes back to its start.  Each cycle is one cusp, in the
    order of its least member; the cycle type of alpha is constant
    along it (the twist fixes alpha) and is reported per cusp.  Many
    members share an alpha word, the first half of the key, so each
    distinct one is walked once, on its bytes.
    """
    walked = bytearray(len(keys))
    parts_of: dict[bytes, tuple[int, ...]] = {}  # alpha's cycle type by word
    cusps = []
    for start in members:
        if walked[start]:
            continue
        alpha_parts = None
        size, i = 0, start
        while not walked[i]:
            walked[i] = 1
            size += 1
            key = keys[i]
            alpha = key[:len(key) // 2]
            parts = parts_of.get(alpha)
            if parts is None:
                parts = parts_of[alpha] = cycle_lengths(alpha)
            if alpha_parts is None:
                alpha_parts = parts
            elif parts != alpha_parts:
                raise InvariantError(
                    f"alpha's cycle type is not constant on the cusp of "
                    f"{keys[start].hex()}: {key.hex()} differs"
                )
            i = h_next[i]
        cusps.append((size, alpha_parts))
    return tuple(cusps)
