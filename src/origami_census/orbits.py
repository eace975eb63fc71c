"""Orbit decomposition of a census under the two shearing twists.

The horizontal twist sends (alpha, beta) to (alpha, alpha beta), the
vertical one to (beta alpha, beta); together they generate the full
integer shearing action on a census.  Orbits are the irreducible
families of covers; each gets exact per-orbit counts, weight, slope
and classification flags.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .census import Census, InvariantError
from .involutions import is_hyperelliptic
from .perm import Perm, commutator_word, compose, cycle_lengths
from .spin import spin_parity
from .surface import (
    Origami,
    StratumSignature,
    canonical_form,
    canonical_key,
    decode_pair,
    encode_pair,
    make_origami,
    weight_of_parts,
)


@dataclass(frozen=True)
class ComponentSummary:
    """One orbit: exact counts, slope and classification labels.

    ``cusps`` are the orbits of the horizontal twist on the orbit's
    members, each with its size and alpha's cycle type.  They are the
    cusps of the orbit's Teichmueller curve only when -I, (alpha, beta)
    -> (alpha^-1, beta^-1), fixes the members; otherwise -I pairs them
    or maps one to itself, and ``cusp_count`` is twice the curve's
    cusps minus the self-paired ones (``tests/test_veech_genus.py``).
    """

    component_id: int
    member_keys: tuple[bytes, ...]
    n_classes: int
    total_weight: Fraction
    slope: Fraction
    hyperelliptic: bool
    parity: int | None
    cusps: tuple[tuple[int, tuple[int, ...]], ...]

    @property
    def cusp_count(self) -> int:
        return len(self.cusps)


def twist_words(
    aw: tuple[int, ...], bw: tuple[int, ...]
) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Words of the horizontal and vertical twist images of (aw, bw).

    Returns ((alpha, alpha beta), (beta alpha, beta)) as 0-based words.
    """
    return (
        (aw, tuple([aw[y] for y in bw])),
        (tuple([bw[x] for x in aw]), bw),
    )


def act_h_alpha(o: Origami) -> Origami:
    """Horizontal twist: (alpha, beta) -> (alpha, alpha beta)."""
    aw, bw = twist_words(o.alpha.word, o.beta.word)[0]
    image = make_origami(Perm(aw), Perm(bw))
    return _same_commutator("horizontal", o, image)


def act_h_beta(o: Origami) -> Origami:
    """Vertical twist: (alpha, beta) -> (beta alpha, beta)."""
    aw, bw = twist_words(o.alpha.word, o.beta.word)[1]
    image = make_origami(Perm(aw), Perm(bw))
    return _same_commutator("vertical", o, image)


def _same_commutator(twist: str, o: Origami, image: Origami) -> Origami:
    """``image``, after checking the twist kept the commutator type."""
    if image.commutator_type != o.commutator_type:
        raise InvariantError(
            f"{twist} twist of {canonical_key(o.alpha, o.beta).hex()} "
            f"changed the commutator type from {o.commutator_type} to "
            f"{image.commutator_type}"
        )
    return image


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

    Orbits are closed with the two forward twists only: each is a
    bijection of the finite census, so its inverse is one of its
    powers.  The walk runs on the members' keys and words: the twist
    images are built and canonicalized as words, and each must keep
    the member's commutator word exactly.  Once an orbit's walk ends,
    each twist must permute its members: the images of the members
    under either twist must be the members themselves.  So each orbit
    is closed under both twists and their inverses, and the orbits
    partition the census.  :func:`cusp_data` reads the cusps and their
    alpha cycle types off the recorded horizontal-twist images, and
    from those the orbit's weight.  Each member is then built once, in
    key order, for its hyperelliptic flag (and spin parity, on even
    strata), which must equal that of the orbit's least member.  A
    failed check raises :class:`InvariantError`.
    """
    d = census.degree
    unvisited = set(census)
    even = census.stratum.all_even()
    out = []
    # Start keys come in sorted order, so each orbit starts at its
    # least key and the orbits come out already ordered.
    for start_key in census:
        if start_key not in unvisited:
            continue
        unvisited.remove(start_key)
        keys = [start_key]
        h_images: list[bytes] = []
        v_images: list[bytes] = []
        # keys grows as it is walked, and h_images[i] and v_images[i]
        # are the twist images of keys[i] until keys is sorted.
        for key in keys:
            aw, bw = decode_pair(key, d)
            gw = commutator_word(aw, bw)
            for twist, (ta, tb), images in zip(
                ("horizontal", "vertical"), twist_words(aw, bw),
                (h_images, v_images),
            ):
                # The image's commutator word is gw iff tb ta == ta tb gw,
                # a test that needs no inverse word.
                if [tb[x] for x in ta] != [ta[tb[y]] for y in gw]:
                    raise InvariantError(
                        f"{twist} twist of {key.hex()} changed the "
                        "commutator word"
                    )
                image_key = encode_pair(*canonical_form(ta, tb))
                images.append(image_key)
                if image_key in unvisited:
                    unvisited.remove(image_key)
                    keys.append(image_key)
        h_alpha_next = dict(zip(keys, h_images))
        keys.sort()
        for twist, images in (("horizontal", h_images), ("vertical", v_images)):
            # Compared sorted, in place: sets of the images would add
            # 4 MB to the peak of decompose at (10,(6)).
            images.sort()
            if images != keys:
                stray = set(images).symmetric_difference(keys)
                raise InvariantError(
                    f"{twist} twist does not permute the orbit of "
                    f"{keys[0].hex()}; member or image but not both: "
                    + ", ".join(
                        k.hex() + ("" if k in census else " (not in the census)")
                        for k in sorted(stray)
                    )
                )
        first = None
        for key in keys:
            o = census[key]
            labels = (is_hyperelliptic(o), spin_parity(o) if even else None)
            first = first or labels  # the least member's labels
            for name, want, got in zip(
                ("hyperelliptic flag", "spin parity"), first, labels
            ):
                if got != want:
                    raise InvariantError(
                        f"{name} is not orbit-constant: {keys[0].hex()} "
                        f"gives {want!r}, {key.hex()} gives {got!r}"
                    )
        hyperelliptic, parity = first
        cusps = cusp_data(keys, census, h_alpha_next)
        weight = sum(
            (n * weight_of_parts(parts) for n, parts in cusps), Fraction(0)
        )
        out.append(
            ComponentSummary(
                component_id=len(out) + 1,
                member_keys=tuple(keys),
                n_classes=len(keys),
                total_weight=weight,
                slope=component_slope(len(keys), weight, census.stratum),
                hyperelliptic=hyperelliptic,
                parity=parity,
                cusps=cusps,
            )
        )
    return out


def cusp_data(
    component_keys, census: Census, h_alpha_next: dict[bytes, bytes]
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Orbits of the horizontal twist alone within one component.

    ``component_keys`` are the member keys in sorted order, and
    ``h_alpha_next`` maps each of them to the key of its
    horizontal-twist image.  Each cycle of that map is one cusp, in the
    order of its least key; the cycle type of alpha is constant along
    it (the twist fixes alpha) and is reported per cusp.
    """
    d = census.degree
    remaining = set(component_keys)
    cusps = []
    for key in component_keys:
        if key not in remaining:
            continue
        orbit_size = 0
        alpha_parts = cycle_lengths(decode_pair(key, d)[0])
        cur_key = key
        while cur_key in remaining:
            remaining.remove(cur_key)
            orbit_size += 1
            if cycle_lengths(decode_pair(cur_key, d)[0]) != alpha_parts:
                raise InvariantError(
                    f"alpha's cycle type is not constant on the cusp of "
                    f"{key.hex()}: {cur_key.hex()} differs"
                )
            cur_key = h_alpha_next[cur_key]
        cusps.append((orbit_size, alpha_parts))
    return tuple(cusps)
