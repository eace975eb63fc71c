"""Spin-structure parity of a square-tiled surface (all zeros even).

The parity is the Arf invariant of the quadratic form q(c) = index(c)+1
on first homology over GF(2), where index is the turning number of a
smooth closed curve avoiding the zeros.  The computation runs on the
graph through square centers: one node per square, one edge per glued
square side.

* Homology generators are the fundamental cycles of a spanning tree.
  Such a cycle visits each square at most once, so its center path is
  embedded and q = turning/4 + 1 needs no self-crossing correction.
* The intersection number of two classes pairs the edge crossings of
  one center path against a homologous copy of the other pushed onto
  the square sides (a center step and the matching boundary step
  cobound a strip of half-squares).  Crossings then happen only at
  edge midpoints, one per shared coordinate.
* The pairing is held as one int bitset per fundamental cycle: bit j
  of row i is the intersection number of cycles i and j.  A greedy
  symplectic reduction over GF(2) on these rows extracts g hyperbolic
  pairs; the form values follow the quadratic law q(x+y)=q(x)+q(y)+x.y
  along the way.  Face boundaries are checked to lie in the radical
  with q = 0, which is exactly the condition for q to descend to
  homology.  The vertices of the surface, one face each, are the cycles
  of the commutator beta^-1 alpha^-1 beta alpha.
"""
from __future__ import annotations

from .perm import commutator_word, inverse_word, word_cycles
from .surface import InvariantError, Origami, canonical_key

R, U, L, D = 0, 1, 2, 3
_OPPOSITE = {R: L, L: R, U: D, D: U}


class ParityUndefinedError(ValueError):
    """Spin parity is only defined when every zero has even order."""


def spin_parity(o: Origami) -> int:
    """Arf invariant of the surface: 0 = even, 1 = odd.

    Raises :class:`ParityUndefinedError` on strata with an odd zero,
    and :class:`InvariantError` naming the member's key in hex when one
    of its consistency checks fails.
    """
    if not o.stratum.all_even():
        raise ParityUndefinedError(
            f"parity undefined for this stratum: mu = {o.stratum} has an odd zero"
        )
    try:
        return _parity(o)
    except InvariantError as exc:
        key = canonical_key(o.alpha, o.beta).hex()
        raise InvariantError(f"spin parity of {key}: {exc}") from None


def _parity(o: Origami) -> int:
    d = o.degree
    ai, bi = inverse_word(o.alpha.word), inverse_word(o.beta.word)
    cotree, walks = _center_walks(o, ai, bi)
    q, cross = [], []
    for walk in walks:
        q_w, cross_w = _walk_q_and_cross(walk)
        q.append(q_w)
        cross.append(cross_w)
    # The skeleton copy of a step right from square x runs along the
    # bottom side of x, of a step up along the left side of x; a step
    # back along the same edge runs along the same side.
    skel_side = [d + bi[x] for x in range(d)] + [ai[x] for x in range(d)]
    rows = _pairing_rows(walks, skel_side)
    for i, row in enumerate(rows):
        if row >> i & 1:
            raise InvariantError("self-pairing must vanish on a surface")
        for j in range(i):
            if (row >> j ^ rows[j] >> i) & 1:
                raise InvariantError("pairing must be symmetric")

    _check_descends(o, cotree, cross, rows, q)
    return _arf(rows, q, genus=o.genus)


def _center_walks(
    o: Origami, ai, bi
) -> tuple[list[int], list[list[tuple[int, int]]]]:
    """Fundamental cycles of a breadth-first spanning tree.

    Returns the cotree edge ids and, for each, its closed walk: a list
    of (edge id, move) steps through pairwise distinct squares.  An
    edge's id is the bit of the side it crosses: bit i is the glued
    vertical side between i and alpha(i), bit d+i the glued
    horizontal side between i and beta(i).  ``ai`` and ``bi`` are the
    inverse words of alpha and beta.
    """
    d = o.degree
    aw, bw = o.alpha.word, o.beta.word

    parent = [-1] * d
    parent_step = [(-1, -1)] * d  # (edge id, move) from the parent
    depth = [0] * d
    tree_edges: set[int] = set()
    seen = [False] * d
    seen[0] = True
    queue = [0]
    for x in queue:
        # (move, target, edge id) of the four sides of x
        for move, y, edge in (
            (R, aw[x], x),
            (U, bw[x], d + x),
            (L, ai[x], ai[x]),
            (D, bi[x], d + bi[x]),
        ):
            if not seen[y]:
                seen[y] = True
                parent[y] = x
                parent_step[y] = (edge, move)
                depth[y] = depth[x] + 1
                tree_edges.add(edge)
                queue.append(y)
    if not all(seen):
        raise InvariantError("pair is not transitive")

    def tree_path(src: int, dst: int) -> list[tuple[int, int]]:
        """Steps walking from src to dst inside the tree."""
        up_src: list[tuple[int, int]] = []
        down_dst: list[tuple[int, int]] = []
        x, y = src, dst
        while depth[x] > depth[y]:
            edge, move = parent_step[x]
            up_src.append((edge, _OPPOSITE[move]))
            x = parent[x]
        while depth[y] > depth[x]:
            down_dst.append(parent_step[y])
            y = parent[y]
        while x != y:
            edge, move = parent_step[x]
            up_src.append((edge, _OPPOSITE[move]))
            x = parent[x]
            down_dst.append(parent_step[y])
            y = parent[y]
        return up_src + down_dst[::-1]

    cotree = [e for e in range(2 * d) if e not in tree_edges]
    if len(cotree) != d + 1:
        raise InvariantError(
            f"{len(cotree)} fundamental cycles, expected {d + 1}"
        )
    walks = []
    for e in cotree:
        if e < d:
            first, near, far = (e, R), e, aw[e]
        else:
            first, near, far = (e, U), e - d, bw[e - d]
        walks.append([first] + tree_path(far, near))
    return cotree, walks


def _walk_q_and_cross(walk: list[tuple[int, int]]) -> tuple[int, int]:
    """q and crossing mask of a closed center walk.

    q of an embedded closed center path is turning/4 + 1 mod 2.  The
    crossing mask holds, mod 2, the sides the path crosses.
    """
    turn = 0
    cross = 0
    prev = walk[-1][1]
    for edge, move in walk:
        delta = (move - prev) % 4
        if delta == 2:
            raise InvariantError("backtracking step in a fundamental cycle")
        if delta == 1:
            turn += 1
        elif delta == 3:
            turn -= 1
        prev = move
        cross ^= 1 << edge
    if turn % 4:
        raise InvariantError(
            f"turning {turn} of a closed path not divisible by 4"
        )
    return (turn // 4 + 1) % 2, cross


def _pairing_rows(
    walks: list[list[tuple[int, int]]], skel_side: list[int]
) -> list[int]:
    """The intersection pairing of the walks as int rows over GF(2).

    Bit j of row i is cross[i] . skel[j]: the parity of the sides that
    walk i crosses and that the skeleton copy of walk j runs along.
    The copy is the homologous path pushed onto the square sides, with
    its endpoints pinned at lower-left vertices; ``skel_side`` maps
    each edge id to the side its copy runs along.  Each side's column
    (the walks whose copy runs along it) is built once, and row i is
    the sum of the columns of the sides walk i crosses.
    """
    column = [0] * len(skel_side)
    for j, walk in enumerate(walks):
        for edge, _ in walk:
            column[skel_side[edge]] ^= 1 << j
    rows = []
    for walk in walks:
        row = 0
        for edge, _ in walk:
            row ^= column[edge]
        rows.append(row)
    return rows


def _face_masks(o: Origami) -> list[int]:
    """Boundary of the disk around each vertex, in crossing coordinates.

    The upper-right corner of square i lies on the vertex of the
    commutator cycle through i.  A side whose two ends lie on one
    vertex enters its mask twice and cancels.
    """
    d = o.degree
    aw, bw = o.alpha.word, o.beta.word
    cycles = word_cycles(commutator_word(aw, bw))
    vertex = [0] * d
    for v, cyc in enumerate(cycles):
        for i in cyc:
            vertex[i] = v
    masks = [0] * len(cycles)
    for i in range(d):
        # the sides between i and alpha(i) (bit i) and between i and
        # beta(i) (bit d+i) both end at the upper-right corner of i;
        # the side between beta(i) and alpha(beta(i)) starts there, as
        # does the one between alpha(i) and beta(alpha(i))
        masks[vertex[i]] ^= (
            (1 << i) ^ (1 << (d + i)) ^ (1 << bw[i]) ^ (1 << (d + aw[i]))
        )
    return masks


def _check_descends(o, cotree, cross, rows, q) -> None:
    """Verify the form is well-defined on homology.

    Every vertex-face boundary must decompose over the fundamental
    cycles with induced q = 0 and zero pairing against everything;
    this pins the quadratic law q(x+y) = q(x)+q(y)+x.y on the quotient.
    ``cotree`` holds each fundamental cycle's edge id, the one side it
    crosses that no other fundamental cycle crosses.  ``rows`` is the
    pairing (see :func:`_pairing_rows`), already checked symmetric.
    """
    n = len(cotree)
    for face in _face_masks(o):
        coeffs = 0  # bit j: fundamental cycle j is in the face
        combo = 0
        for j in range(n):
            if face >> cotree[j] & 1:
                coeffs |= 1 << j
                combo ^= cross[j]
        if combo != face:
            raise InvariantError("face boundary must be a cycle combination")
        q_face = 0
        paired = 0  # the face's own pairing row
        for j in range(n):
            if coeffs >> j & 1:
                # q of a sum: each cycle's q plus its pairing with the
                # cycles of the face that come after it
                q_face ^= q[j] ^ ((rows[j] & coeffs) >> (j + 1)).bit_count()
                paired ^= rows[j]
        if q_face & 1:
            raise InvariantError("face boundary must have q = 0 (even zeros)")
        if paired:
            raise InvariantError("face boundary must pair to zero")


def _arf(rows: list[int], q: list[int], genus: int) -> int:
    """Greedy symplectic reduction; returns sum of q(a_i) q(b_i) mod 2.

    ``rows`` is a symmetric pairing with zero diagonal as int rows.
    Adding cycle src to cycle dst adds row src to row dst; columns are
    not updated, so row i pairs the current cycle i with the original
    cycles j.  That is still the pairing with the current cycle j
    wherever it is read: every read is of an active row at a column
    that is active or in the current pair, such a cycle j differs from
    the original only by cycles of earlier pairs, and active rows end
    each step orthogonal to the pair just taken, and so to every
    earlier pair.  The diagonal stays zero too, whether z gets x, y or
    both added.
    """
    n = len(q)
    b = rows[:]
    qv = q[:]
    active = list(range(n))
    arf = 0
    pairs = 0

    def add(dst: int, src: int) -> None:
        qv[dst] ^= qv[src] ^ (b[dst] >> src & 1)
        b[dst] ^= b[src]

    live = (1 << n) - 1  # the bits of ``active``
    while True:
        hit = None
        for x in active:
            later = b[x] & live & ~((2 << x) - 1)
            if later:
                hit = (x, (later & -later).bit_length() - 1)
                break
        if hit is None:
            break
        x, y = hit
        arf ^= qv[x] & qv[y]
        pairs += 1
        active = [z for z in active if z not in (x, y)]
        live &= ~(1 << x | 1 << y)
        for z in active:
            if b[z] >> y & 1:
                add(z, x)
            if b[z] >> x & 1:
                add(z, y)

    if pairs != genus:
        raise InvariantError(
            f"found {pairs} hyperbolic pairs, expected {genus}"
        )
    for z in active:
        if b[z]:
            raise InvariantError("radical must pair to zero")
    return arf
