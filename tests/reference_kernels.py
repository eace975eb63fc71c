"""Reference kernels: earlier, simpler versions of rewritten hot paths.

``full_scan_canonical_form`` relabels the pair from every start square
and compares whole relabeled pairs.  ``matrix_spin_parity`` computes
the spin parity with the intersection pairing as a list-of-lists
matrix over GF(2), one popcount per entry, and walks that list their
squares.  ``walk_cycle_data`` builds each fundamental cycle of the
spin computation as a list of steps and walks it for q, its crossing
mask and its pairing row.  ``seen_sweep_enumerate_alpha_class``
dedups the betas of an alpha class by sweeping each transitive beta's
whole centralizer orbit into one set held for the whole class.  The
package's versions must agree with them exactly.

``commutator_word`` is ``commutator_bytes`` built by Python loops.
``commutator`` and ``conjugate`` are the ``Perm``-level products,
``has_order_two_automorphism`` searches for a non-identity involution
commuting with both generators, and ``brute_force_anti_involutions``
tests every involution of S_d against the relations that
``find_anti_involutions`` solves.  The package never calls them; the
tests check the raw-word primitives and the labels against them.

``brute_force_censuses`` sweeps all of S_d x S_d once and files each
transitive pair's canonical key under its commutator's cycle type, so
one sweep gives every census of a degree.  ``words_record`` and
``schema1_file`` render a census as schema 1 of the census file wrote
it, with each member as its degree and 1-based cycles, so the census
digests recorded under schema 1 still check the keys read back from a
schema-2 file.
"""
from __future__ import annotations

from collections import defaultdict
from itertools import permutations

from origami_census.census import Census, _json_line
from origami_census.involutions import _propagate
from origami_census.perm import (
    DegreeMismatchError,
    Perm,
    centralizer_generators,
    class_representative,
    class_words,
    conjugators_onto,
    cycle_lengths,
    cycle_rotations,
    inverse_word,
    word_cycles,
    words_transitive,
)
from origami_census.surface import (
    DisconnectedCoverError,
    InvariantError,
    Origami,
    canonical_form,
)

R, U, L, D = 0, 1, 2, 3
_OPPOSITE = {R: L, L: R, U: D, D: U}


def full_scan_canonical_form(aw, bw) -> bytes:
    """Least relabeling of a transitive pair of 0-based words, as the
    key ``canonical_form`` gives: alpha's word then beta's.

    For every start square s, relabel squares in first-discovery order
    of a breadth-first walk that follows alpha then beta from each
    square, and keep the lexicographically least relabeled pair.  The
    result is a class invariant: conjugate pairs give equal forms,
    distinct classes give distinct forms.
    """
    d = len(aw)
    if d == 0:
        return b""
    best: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    for start in range(d):
        relabel = [-1] * d
        relabel[start] = 0
        order = [start]
        n_seen = 1
        for x in order:
            for y in (aw[x], bw[x]):
                if relabel[y] < 0:
                    relabel[y] = n_seen
                    n_seen += 1
                    order.append(y)
        if n_seen != d:
            raise DisconnectedCoverError(
                "disconnected cover: breadth-first walk did not reach "
                "every square"
            )
        na = [0] * d
        nb = [0] * d
        for x in range(d):
            na[relabel[x]] = relabel[aw[x]]
            nb[relabel[x]] = relabel[bw[x]]
        cand = (tuple(na), tuple(nb))
        if best is None or cand < best:
            best = cand
    return bytes(best[0] + best[1])


def matrix_spin_parity(o) -> int:
    """Arf invariant of the surface from the matrix pipeline."""
    d = o.degree
    ai, bi = inverse_word(o.alpha.word), inverse_word(o.beta.word)
    cotree, walks = _center_walks(o, ai, bi)
    q = [_walk_turning_q(w) for w in walks]
    cross = [_walk_cross(w, d, ai, bi) for w in walks]
    skel = [_walk_skeleton_copy(w, d, ai, bi) for w in walks]

    n = len(walks)
    pairing = [[_dot(cross[i], skel[j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        if pairing[i][i]:
            raise InvariantError("self-pairing must vanish on a surface")
        for j in range(i):
            if pairing[i][j] != pairing[j][i]:
                raise InvariantError("pairing must be symmetric")

    matrix_check_descends(o, cotree, cross, pairing, q)
    return matrix_arf(pairing, q, genus=o.genus)


def _center_walks(
    o, ai, bi
) -> tuple[list[int], list[list[tuple[int, int]]]]:
    """Fundamental cycles of a breadth-first spanning tree.

    Returns the cotree edge ids and, for each, its closed walk: a list
    of (square, move) steps whose squares are pairwise distinct.  An
    edge's id is the bit of the side it crosses (see
    :func:`_walk_cross`).  ``ai`` and ``bi`` are the inverse words of
    alpha and beta.
    """
    d = o.degree
    aw, bw = o.alpha.word, o.beta.word

    def neighbors(x: int):
        # (move, target, edge id)
        yield R, aw[x], x
        yield U, bw[x], d + x
        yield L, ai[x], ai[x]
        yield D, bi[x], d + bi[x]

    parent = [-1] * d
    parent_move = [-1] * d
    depth = [0] * d
    tree_edges: set[int] = set()
    seen = [False] * d
    seen[0] = True
    queue = [0]
    for x in queue:
        for move, y, edge in neighbors(x):
            if not seen[y]:
                seen[y] = True
                parent[y] = x
                parent_move[y] = move
                depth[y] = depth[x] + 1
                tree_edges.add(edge)
                queue.append(y)
    if not all(seen):
        raise InvariantError("pair is not transitive")

    def tree_path(src: int, dst: int) -> list[tuple[int, int]]:
        """Moves walking from src to dst inside the tree."""
        up_src: list[tuple[int, int]] = []
        down_dst: list[tuple[int, int]] = []
        x, y = src, dst
        while depth[x] > depth[y]:
            up_src.append((x, _OPPOSITE[parent_move[x]]))
            x = parent[x]
        while depth[y] > depth[x]:
            down_dst.append((parent[y], parent_move[y]))
            y = parent[y]
        while x != y:
            up_src.append((x, _OPPOSITE[parent_move[x]]))
            x = parent[x]
            down_dst.append((parent[y], parent_move[y]))
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
            first, far = (e, R), aw[e]
        else:
            first, far = (e - d, U), bw[e - d]
        walks.append([first] + tree_path(far, first[0]))
    return cotree, walks


def walk_cycle_data(o) -> tuple[list[int], list[int], list[int], list[int]]:
    """Cotree edge ids, q, crossing masks and pairing rows from walks.

    Each fundamental cycle of the breadth-first spanning tree is built
    as a closed walk of (edge id, move) steps: across its cotree edge
    e from ``near`` to ``far``, then inside the tree from far back to
    near.  q and the crossing mask come from one walk over the steps.
    Bit j of row i is the parity of the sides that walk i crosses and
    that the skeleton copy of walk j runs along; each side's column
    (the walks whose copy runs along it) is built once, and row i is
    the sum of the columns of the sides walk i crosses.  The pairing
    is checked symmetric with zero diagonal bit by bit.
    """
    d = o.degree
    aw, bw = o.alpha.word, o.beta.word
    ai, bi = inverse_word(aw), inverse_word(bw)

    parent = [-1] * d
    parent_step = [(-1, -1)] * d  # (edge id, move) from the parent
    depth = [0] * d
    tree_edges: set[int] = set()
    seen = [False] * d
    seen[0] = True
    queue = [0]
    for x in queue:
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

    q, cross = [], []
    for walk in walks:
        turn = 0
        mask = 0
        prev = walk[-1][1]
        for edge, move in walk:
            delta = (move - prev) % 4
            if delta == 2:
                raise InvariantError("backtracking step in a fundamental cycle")
            turn += 1 if delta == 1 else (-1 if delta == 3 else 0)
            prev = move
            mask ^= 1 << edge
        if turn % 4:
            raise InvariantError(
                f"turning {turn} of a closed path not divisible by 4"
            )
        q.append((turn // 4 + 1) % 2)
        cross.append(mask)

    # The skeleton copy of a step right from square x runs along the
    # bottom side of x, of a step up along the left side of x; a step
    # back along the same edge runs along the same side.
    skel_side = [d + bi[x] for x in range(d)] + [ai[x] for x in range(d)]
    column = [0] * (2 * d)
    for j, walk in enumerate(walks):
        for edge, _ in walk:
            column[skel_side[edge]] ^= 1 << j
    rows = []
    for walk in walks:
        row = 0
        for edge, _ in walk:
            row ^= column[edge]
        rows.append(row)
    for i, row in enumerate(rows):
        if row >> i & 1:
            raise InvariantError("self-pairing must vanish on a surface")
        for j in range(i):
            if (row >> j ^ rows[j] >> i) & 1:
                raise InvariantError("pairing must be symmetric")
    return cotree, q, cross, rows


def _walk_turning_q(walk: list[tuple[int, int]]) -> int:
    """q of an embedded closed center path: turning/4 + 1 mod 2."""
    turn = 0
    for (_, m1), (_, m2) in zip(walk, walk[1:] + walk[:1]):
        delta = (m2 - m1) % 4
        if delta == 2:
            raise InvariantError("backtracking step in a fundamental cycle")
        turn += 1 if delta == 1 else (-1 if delta == 3 else 0)
    if turn % 4:
        raise InvariantError(
            f"turning {turn} of a closed path not divisible by 4"
        )
    return (turn // 4 + 1) % 2


def _walk_cross(walk: list[tuple[int, int]], d: int, ai, bi) -> int:
    """Bitmask of square sides the center path crosses, mod 2.

    Bit i is the glued vertical side between i and alpha(i); bit d+i
    the glued horizontal side between i and beta(i).
    """
    mask = 0
    for x, move in walk:
        if move == R:
            mask ^= 1 << x
        elif move == L:
            mask ^= 1 << ai[x]
        elif move == U:
            mask ^= 1 << (d + x)
        else:
            mask ^= 1 << (d + bi[x])
    return mask


def _walk_skeleton_copy(walk: list[tuple[int, int]], d: int, ai, bi) -> int:
    """Sides traversed by the homologous copy pushed onto the skeleton.

    A step right from square x slides to the bottom side of x; a step
    up slides to the left side of x (and symmetrically for the inverse
    steps), keeping the endpoints pinned at lower-left vertices.
    """
    mask = 0
    for x, move in walk:
        if move == R:
            mask ^= 1 << (d + bi[x])
        elif move == L:
            mask ^= 1 << (d + bi[ai[x]])
        elif move == U:
            mask ^= 1 << ai[x]
        else:
            mask ^= 1 << ai[bi[x]]
    return mask


def _dot(mask_a: int, mask_b: int) -> int:
    return (mask_a & mask_b).bit_count() & 1


def _face_masks(o) -> list[int]:
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
    ai, bi = inverse_word(aw), inverse_word(bw)
    masks = [0] * len(cycles)
    for i in range(d):
        # the sides between i and alpha(i) (bit i) and between i and
        # beta(i) (bit d+i) both end at the upper-right corner of i
        masks[vertex[i]] ^= (1 << i) | (1 << (d + i))
        # the first starts at the upper-right corner of beta^-1(i),
        # the second at that of alpha^-1(i)
        masks[vertex[bi[i]]] ^= 1 << i
        masks[vertex[ai[i]]] ^= 1 << (d + i)
    return masks


def matrix_check_descends(o, cotree, cross, pairing, q) -> None:
    """Verify the form is well-defined on homology.

    Every vertex-face boundary must decompose over the fundamental
    cycles with induced q = 0 and zero pairing against everything;
    this pins the quadratic law q(x+y) = q(x)+q(y)+x.y on the quotient.
    ``cotree`` holds each fundamental cycle's edge id, the one side it
    crosses that no other fundamental cycle crosses.
    """
    n = len(cotree)
    for face in _face_masks(o):
        coeffs = [(face >> e) & 1 for e in cotree]
        combo = 0
        for j in range(n):
            if coeffs[j]:
                combo ^= cross[j]
        if combo != face:
            raise InvariantError("face boundary must be a cycle combination")
        q_face = sum(q[j] for j in range(n) if coeffs[j]) % 2
        for j in range(n):
            if not coeffs[j]:
                continue
            for k in range(j + 1, n):
                if coeffs[k]:
                    q_face = (q_face + pairing[j][k]) % 2
        if q_face:
            raise InvariantError("face boundary must have q = 0 (even zeros)")
        for i in range(n):
            dot = sum(pairing[i][j] for j in range(n) if coeffs[j]) % 2
            if dot:
                raise InvariantError("face boundary must pair to zero")


def matrix_arf(pairing: list[list[int]], q: list[int], genus: int) -> int:
    """Greedy symplectic reduction; returns sum of q(a_i) q(b_i) mod 2."""
    n = len(q)
    b = [row[:] for row in pairing]
    qv = q[:]
    active = list(range(n))
    arf = 0
    pairs = 0

    def add(dst: int, src: int) -> None:
        qv[dst] ^= qv[src] ^ b[dst][src]
        for m in range(n):
            b[dst][m] ^= b[src][m]
        b[dst][dst] = 0  # the form is alternating
        for m in range(n):
            b[m][dst] = b[dst][m]

    while True:
        hit = None
        for ii, x in enumerate(active):
            for y in active[ii + 1:]:
                if b[x][y]:
                    hit = (x, y)
                    break
            if hit:
                break
        if hit is None:
            break
        x, y = hit
        arf ^= qv[x] & qv[y]
        pairs += 1
        active = [z for z in active if z not in (x, y)]
        for z in active:
            if b[z][y]:
                add(z, x)
            if b[z][x]:
                add(z, y)

    if pairs != genus:
        raise InvariantError(
            f"found {pairs} hyperbolic pairs, expected {genus}"
        )
    for z in active:
        if any(b[z][m] for m in range(n)):
            raise InvariantError("radical must pair to zero")
    return arf


def seen_sweep_enumerate_alpha_class(
    degree: int,
    alpha_parts: tuple[int, ...],
    target_parts: tuple[int, ...],
) -> list[tuple[bytes, tuple[int, ...], tuple[int, ...]]]:
    """All classes whose alpha lies in one conjugacy class.

    Fixing alpha to the class representative, classes correspond to
    orbits of valid betas under conjugation by the centralizer of
    alpha.  For each gamma in the target class, the betas with
    commutator gamma are those conjugating delta = gamma alpha^-1 to
    alpha^-1.  Each transitive beta not seen yet is canonicalized, and
    its whole centralizer orbit goes into ``seen``.  Each class is
    returned as its key and the two words of its full-scan form.
    """
    aw = class_representative(alpha_parts)
    ai = inverse_word(aw)
    zgens = centralizer_generators(aw)
    ai_rotations = cycle_rotations(ai)
    ai_fixed = [x for x in range(degree) if ai[x] == x]

    out = []
    seen: set[bytes] = set()
    for gw in class_words(target_parts, degree):
        dw = [gw[ai[i]] for i in range(degree)]  # delta = gamma alpha^-1
        if cycle_lengths(dw) != alpha_parts:
            continue
        for bw in conjugators_onto(dw, ai_rotations, permutations(ai_fixed)):
            if bw in seen or not words_transitive(aw, bw):
                continue
            orbit = [bw]
            seen.add(bw)
            for cur in orbit:
                for z in zgens:
                    img = [0] * degree
                    for i in range(degree):
                        img[z[i]] = z[cur[i]]
                    t = bytes(img)
                    if t not in seen:
                        seen.add(t)
                        orbit.append(t)
            form = full_scan_canonical_form(aw, bw)
            out.append((canonical_form(aw, bw), form[:degree], form[degree:]))
    return out


def commutator_word(aw, bw) -> bytes:
    """Word of beta^-1 alpha^-1 beta alpha (rightmost factor acts first).

    Built as (alpha beta)^-1 (beta alpha), with one inverse word.
    """
    abi = [0] * len(aw)
    for x, y in enumerate(bw):
        abi[aw[y]] = x
    return bytes([abi[bw[x]] for x in aw])


def commutator(alpha: Perm, beta: Perm) -> Perm:
    """beta^-1 * alpha^-1 * beta * alpha (rightmost factor acts first)."""
    if alpha.degree != beta.degree:
        raise DegreeMismatchError(
            f"degree mismatch: {alpha.degree} vs {beta.degree}"
        )
    return Perm(commutator_word(alpha.word, beta.word))


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
    return Perm(word)


def has_order_two_automorphism(o: Origami) -> bool:
    """True iff a non-identity involution commutes with both alpha and beta.

    Target 0 can only extend to the identity, so it is skipped.
    """
    aw, bw = o.alpha.word, o.beta.word
    return any(
        _propagate(aw, bw, target, aw, bw) is not None
        for target in range(1, o.degree)
    )


def brute_force_anti_involutions(o: Origami) -> list[bytes]:
    """Every involution tau of S_d with tau alpha tau = alpha^-1 and
    tau beta tau = beta^-1, as 0-based words in word order.

    Tests each involution of S_d against both relations, with no
    pruning of the candidates.
    """
    aw, bw = o.alpha.word, o.beta.word
    ai, bi = inverse_word(aw), inverse_word(bw)
    return [
        bytes(tau) for tau in permutations(range(o.degree))
        if all(tau[t] == x for x, t in enumerate(tau))
        and all(
            tau[w[tau[x]]] == wi[x]
            for w, wi in ((aw, ai), (bw, bi))
            for x in range(o.degree)
        )
    ]


def brute_force_censuses(degree: int) -> dict[tuple[int, ...], set[bytes]]:
    """The canonical key of every transitive pair of S_d x S_d, one key
    set per commutator cycle type (as ``cycle_lengths`` gives it)."""
    keys: dict[tuple[int, ...], set[bytes]] = defaultdict(set)
    words = list(permutations(range(degree)))
    for aw in words:
        for bw in words:
            if words_transitive(aw, bw):
                ctype = cycle_lengths(commutator_word(aw, bw))
                keys[ctype].add(canonical_form(aw, bw))
    return dict(keys)


def words_record(aw: bytes, bw: bytes) -> dict:
    """JSON-able record with 1-based cycles in canonical cycle order."""
    return {
        "degree": len(aw),
        "alpha": [[x + 1 for x in c] for c in word_cycles(aw)],
        "beta": [[x + 1 for x in c] for c in word_cycles(bw)],
    }


def schema1_file(census: Census) -> bytes:
    """The bytes schema 1 of the census file held for ``census``: the
    header, one :func:`words_record` per member in key order, and the
    totals trailer, each written by ``census._json_line``."""
    m = census.total_weight
    d = census.degree
    lines = [{"schema": 1, "degree": d, "mu": list(census.stratum.mu)}]
    lines += [words_record(key[:d], key[d:]) for key in census]
    lines.append({"n": census.n_classes, "m": f"{m.numerator}/{m.denominator}"})
    return "".join(map(_json_line, lines)).encode("ascii")
