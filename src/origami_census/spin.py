"""Spin-structure parity of a square-tiled surface (all zeros even).

The parity is the Arf invariant of the quadratic form q(c) = index(c)+1
on first homology over GF(2), where index is the turning number of a
smooth closed curve avoiding the zeros.  The computation runs on the
graph through square centers: one node per square, one edge per glued
square side.

* Homology generators are the fundamental cycles of the breadth-first
  spanning tree: cotree edge e from near to far, then the tree path
  back to near.  Such a cycle visits each square at most once, so its
  center path is embedded and q = turning/4 + 1 needs no self-crossing
  correction.  One pass down the tree gives each square the crossing
  mask R and the turning sum of its root path; a cycle's crossing mask
  is e ^ R[far] ^ R[near], its turning a difference of those sums plus
  the turns where its pieces meet.
* The intersection number of two classes pairs the edge crossings of
  one center path against a homologous copy of the other pushed onto
  the square sides (a center step and the matching boundary step
  cobound a strip of half-squares); sigma maps each edge to the side
  its copy runs along.  Bit j of pairing row i is the intersection
  number of cycles i and j.  One pass up the tree gives each side the
  cycles crossing it; row i is a root-path prefix XOR of those sets
  read through sigma^-1, transposed row i the same read through sigma,
  so the pairing is symmetric exactly when each row equals its
  transposed row.
* A greedy symplectic reduction over GF(2) on the rows extracts g
  hyperbolic pairs; the form values follow the quadratic law
  q(x+y)=q(x)+q(y)+x.y along the way.  Face boundaries are checked to
  lie in the radical with q = 0, which is exactly the condition for q
  to descend to homology.  The vertices of the surface, one face each,
  are the cycles of the commutator beta^-1 alpha^-1 beta alpha.
"""
from __future__ import annotations

from .perm import commutator_bytes, inverse_word, word_cycles
from .surface import InvariantError, Origami, canonical_form

R, U, L, D = 0, 1, 2, 3


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
    aw, bw = o.words[:o.degree], o.words[o.degree:]
    ai, bi = inverse_word(aw), inverse_word(bw)
    try:
        cotree, q, cross, rows = _cycle_data(aw, bw, ai, bi)
        _check_descends(_face_masks(aw, bw), cotree, cross, rows, q)
        return _arf(rows, q, genus=o.genus)
    except InvariantError as exc:
        key = canonical_form(aw, bw).hex()
        raise InvariantError(f"spin parity of {key}: {exc}") from None


def _cycle_data(
    aw: bytes, bw: bytes, ai: bytes, bi: bytes
) -> tuple[list[int], list[int], list[int], list[int]]:
    """Cotree edge ids, q, crossing masks and pairing rows of the cycles.

    ``aw`` and ``bw`` are the words of alpha and beta, ``ai`` and
    ``bi`` their inverse words.

    The tree grows from square 0 with neighbours in the order R, U, L,
    D.  An edge's id is the bit of the side it crosses: bit i is the
    glued vertical side between i and alpha(i), bit d+i the glued
    horizontal side between i and beta(i).
    """
    d = len(aw)

    # Per square: parent, move and edge id from the parent, the mask of
    # its ancestors and itself by position in ``order``, and the
    # crossing mask and turning sum of the path down from the root.
    # The root is its own parent, and its move is arbitrary: a turning
    # sum is only read as a difference along the path from some child
    # of the root.
    parent = [-1] * d
    parent[0] = 0
    move = [R] * d
    edge = [-1] * d
    anc = [1] * d
    cross_to = [0] * d
    turn_to = [0] * d
    order = [0]
    for x in order:
        mx, ax, cx, tx = move[x], anc[x], cross_to[x], turn_to[x]
        y = aw[x]
        if parent[y] < 0:
            parent[y], move[y], edge[y] = x, R, x
            anc[y] = ax | 1 << len(order)
            cross_to[y] = cx ^ 1 << x
            turn_to[y] = tx + _TURN[-mx & 3]
            order.append(y)
        y = bw[x]
        if parent[y] < 0:
            parent[y], move[y], edge[y] = x, U, d + x
            anc[y] = ax | 1 << len(order)
            cross_to[y] = cx ^ 1 << (d + x)
            turn_to[y] = tx + _TURN[(U - mx) & 3]
            order.append(y)
        y = ai[x]
        if parent[y] < 0:
            parent[y], move[y], edge[y] = x, L, y
            anc[y] = ax | 1 << len(order)
            cross_to[y] = cx ^ 1 << y
            turn_to[y] = tx + _TURN[(L - mx) & 3]
            order.append(y)
        y = bi[x]
        if parent[y] < 0:
            parent[y], move[y], edge[y] = x, D, d + y
            anc[y] = ax | 1 << len(order)
            cross_to[y] = cx ^ 1 << (d + y)
            turn_to[y] = tx + _TURN[(D - mx) & 3]
            order.append(y)
    if len(order) != d:
        raise InvariantError("pair is not transitive")
    tree = set(edge)
    cotree = [e for e in range(2 * d) if e not in tree]
    if len(cotree) != d + 1:
        raise InvariantError(
            f"{len(cotree)} fundamental cycles, expected {d + 1}"
        )

    # Cycle i steps across cotree[i] from near to far, climbs the tree
    # from far to the lowest common ancestor and descends to near.  The
    # ancestor's children towards far and near, where those are not the
    # ancestor itself, are the least positions in which the ancestor
    # masks of far and near differ from their common part.
    q, cross, ends = [], [], []
    cycles_at = [0] * d  # bit i: the square is an end of cycle i
    crossing = [0] * (2 * d)  # bit i: cycle i crosses the side
    for i, e in enumerate(cotree):
        if e < d:
            first, near, far = R, e, aw[e]
        else:
            first, near, far = U, e - d, bw[e - d]
        common = anc[far] & anc[near]
        up, down = anc[far] ^ common, anc[near] ^ common
        # Climbing reverses each move (m ^ 2) and so negates each turn.
        # Bit k of bends: a junction turns by k quarters (2: a step back).
        turn, last, bends = 0, first, 0
        if up:
            cx = order[(up & -up).bit_length() - 1]
            k = ((move[far] ^ 2) - last) & 3
            turn += turn_to[cx] - turn_to[far] + _TURN[k]
            bends |= 1 << k
            last = move[cx] ^ 2
        if down:
            cy = order[(down & -down).bit_length() - 1]
            k = (move[cy] - last) & 3
            turn += turn_to[near] - turn_to[cy] + _TURN[k]
            bends |= 1 << k
            last = move[near]
        k = (first - last) & 3
        turn += _TURN[k]
        if (bends | 1 << k) & 4:
            raise InvariantError("backtracking step in a fundamental cycle")
        if turn % 4:
            raise InvariantError(
                f"turning {turn} of a closed path not divisible by 4"
            )
        q.append((turn // 4 + 1) % 2)
        cross.append(1 << e ^ cross_to[far] ^ cross_to[near])
        ends.append((near, far))
        cycles_at[near] ^= 1 << i
        cycles_at[far] ^= 1 << i
        crossing[e] = 1 << i

    # A cycle crosses the tree edge above y when one of its ends lies
    # below y: subtree XORs, children before parents.
    for y in reversed(order[1:]):
        crossing[edge[y]] = cycles_at[y]
        cycles_at[parent[y]] ^= cycles_at[y]

    # Bit j of row i is the parity of the sides cycle i crosses that the
    # skeleton copy of cycle j runs along; ``along`` reads ``crossing``
    # through sigma^-1 and gives the rows, ``crossing`` through sigma
    # gives the transposed rows.  Both are root-path prefix XORs.
    sigma = _skeleton_sides(d, ai, bi)
    along = [0] * (2 * d)  # bit j: the copy of cycle j runs along the side
    for e in range(2 * d):
        along[sigma[e]] = crossing[e]
    row_to, col_to = [0] * d, [0] * d
    for y in order[1:]:
        e, p = edge[y], parent[y]
        row_to[y] = row_to[p] ^ along[e]
        col_to[y] = col_to[p] ^ crossing[sigma[e]]
    rows = []
    for i, (e, (near, far)) in enumerate(zip(cotree, ends)):
        row = along[e] ^ row_to[far] ^ row_to[near]
        if row >> i & 1:
            raise InvariantError("self-pairing must vanish on a surface")
        if row != crossing[sigma[e]] ^ col_to[far] ^ col_to[near]:
            raise InvariantError("pairing must be symmetric")
        rows.append(row)
    return cotree, q, cross, rows


# Turn from move a to move b, indexed by (b - a) & 3: +1 left, -1 right,
# 0 straight; 2 is a step back, which no fundamental cycle takes.
_TURN = (0, 1, 0, -1)


def _skeleton_sides(d: int, ai, bi) -> list[int]:
    """sigma: each edge id to the side its skeleton copy runs along.

    A step right from square x runs along the bottom side of x, a step
    up along the left side of x, a step back along the same side.
    """
    return [d + b for b in bi] + list(ai)


def _face_masks(aw: bytes, bw: bytes) -> list[int]:
    """Boundary of the disk around each vertex, in crossing coordinates.

    The upper-right corner of square i lies on the vertex of the
    commutator cycle through i.  A side whose two ends lie on one
    vertex enters its mask twice and cancels.
    """
    d = len(aw)
    masks = []
    for cyc in word_cycles(commutator_bytes(aw, bw)):
        mask = 0
        for i in cyc:
            # the sides between i and alpha(i) (bit i) and between i and
            # beta(i) (bit d+i) both end at the upper-right corner of i;
            # the side between beta(i) and alpha(beta(i)) starts there,
            # as does the one between alpha(i) and beta(alpha(i))
            mask ^= (1 << i) ^ (1 << (d + i)) ^ (1 << bw[i]) ^ (1 << (d + aw[i]))
        masks.append(mask)
    return masks


def _check_descends(faces, cotree, cross, rows, q) -> None:
    """Verify the form is well-defined on homology.

    Every vertex-face boundary in ``faces`` (see :func:`_face_masks`)
    must decompose over the fundamental cycles with induced q = 0 and
    zero pairing against everything; this pins the quadratic law
    q(x+y) = q(x)+q(y)+x.y on the quotient.
    ``cotree`` holds each fundamental cycle's edge id, the one side it
    crosses that no other fundamental cycle crosses.  ``rows`` is the
    pairing (see :func:`_cycle_data`), already checked symmetric.
    """
    for face in faces:
        coeffs = 0  # bit j: fundamental cycle j is in the face
        combo = 0
        for j, e in enumerate(cotree):
            if face >> e & 1:
                coeffs |= 1 << j
                combo ^= cross[j]
        if combo != face:
            raise InvariantError("face boundary must be a cycle combination")
        q_face = 0
        paired = 0  # the face's own pairing row
        rest = coeffs
        while rest:
            j = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            # q of a sum: each cycle's q plus its pairing with the
            # cycles of the face that come after it
            q_face ^= q[j] ^ (rows[j] & rest).bit_count()
            paired ^= rows[j]
        if q_face & 1:
            raise InvariantError("face boundary must have q = 0 (even zeros)")
        if paired:
            raise InvariantError("face boundary must pair to zero")


def _arf(rows: list[int], q: list[int], genus: int) -> int:
    """Greedy symplectic reduction; returns sum of q(a_i) q(b_i) mod 2.

    ``rows`` is a symmetric pairing with zero diagonal as int rows.
    The cycles not yet in a pair are the bits of ``live``; each step
    pairs the least live x that has a live partner y > x with the
    least such y, then adds x and y to the live cycles z that pair with
    y and x.  Adding cycle src to cycle dst adds row src to row dst;
    columns are not updated, so row z pairs the current cycle z with
    the original cycles j.  That is still the pairing with the current
    cycle j wherever it is read: every read is of a live row at a
    column that is live or in the current pair, such a cycle j differs
    from the original only by cycles of earlier pairs, and live rows
    end each step orthogonal to the pair just taken, and so to every
    earlier pair.  The diagonal stays zero too, whether z gets x, y or
    both added.
    """
    b = rows[:]
    qv = q[:]
    live = (1 << len(q)) - 1
    arf = 0
    pairs = 0
    while True:
        rest = live
        while rest:
            x = (rest & -rest).bit_length() - 1
            later = b[x] & live & ~((2 << x) - 1)
            if later:
                break
            rest &= rest - 1
        if not rest:
            break
        y = (later & -later).bit_length() - 1
        arf ^= qv[x] & qv[y]
        pairs += 1
        live &= ~(1 << x | 1 << y)
        rest = live
        while rest:
            z = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if b[z] >> y & 1:
                qv[z] ^= qv[x] ^ (b[z] >> x & 1)
                b[z] ^= b[x]
            if b[z] >> x & 1:
                qv[z] ^= qv[y] ^ (b[z] >> y & 1)
                b[z] ^= b[y]

    if pairs != genus:
        raise InvariantError(
            f"found {pairs} hyperbolic pairs, expected {genus}"
        )
    while live:
        if b[(live & -live).bit_length() - 1]:
            raise InvariantError("radical must pair to zero")
        live &= live - 1
    return arf
