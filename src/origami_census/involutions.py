"""Involutions of a square-tiled surface compatible with the base torus.

The point symmetry of the torus lifts to the cover exactly when some
tau in S_d conjugates (alpha, beta) to (alpha^-1, beta^-1) with
tau^2 = id.  The lifted involution acts on the surface square by
square; its fixed points sit at 2-torsion points of the flat metric:
square centers, edge midpoints and vertices.  An involution with 2g+2
fixed points makes the surface hyperelliptic.  :func:`is_hyperelliptic`
asks for more, the stratum's hyperelliptic component, which only
H(2g-2) and H(g-1, g-1) have; :func:`find_anti_involutions` reports
every compatible involution on any stratum.
"""
from __future__ import annotations

from .perm import Value, commutator_bytes, inverse_word, word_cycles
from .surface import Origami


class InvolutionReport(Value):
    """Fixed-point census of one compatible involution.

    ``tau`` is the involution's 0-based word, as in a census key.
    ``square_centers`` counts fixed squares (the center of each is a
    fixed point); ``vertical_edges`` / ``horizontal_edges`` count fixed
    edge midpoints; ``regular_vertices`` counts fixed unramified
    vertices; ``fixed_zeros`` counts zeros (ramification vertices)
    preserved by the involution.  For a single-zero surface
    ``fixed_zeros`` is always 1, so ``total_fixed`` reduces to the
    four letter counts plus one.
    """

    __slots__ = (
        "tau", "square_centers", "vertical_edges", "horizontal_edges",
        "regular_vertices", "fixed_zeros",
    )

    def __init__(self, tau: bytes, square_centers: int, vertical_edges: int,
                 horizontal_edges: int, regular_vertices: int,
                 fixed_zeros: int):
        self._set(tau, square_centers, vertical_edges, horizontal_edges,
                  regular_vertices, fixed_zeros)

    @property
    def total_fixed(self) -> int:
        return (
            self.square_centers
            + self.vertical_edges
            + self.horizontal_edges
            + self.regular_vertices
            + self.fixed_zeros
        )


def _propagate(aw, bw, target: int, ea, eb) -> list[int] | None:
    """Extend tau(square 1) = target to all squares, or return None.

    The intertwining relation determines tau along every alpha/beta
    edge: tau(alpha(x)) = ea(tau(x)) and tau(beta(x)) = eb(tau(x)).
    The target words (ea, eb) are the inverses of alpha and beta for
    an anti-involution, alpha and beta themselves for a plain
    automorphism.  The pair is transitive, so the walk reaches every
    square and tests both of its out-edges; the extension is then
    checked for tau^2 = id.
    """
    tau = [-1] * len(aw)
    tau[0] = target
    stack = [0]
    while stack:
        x = stack.pop()
        t = tau[x]
        y, img = aw[x], ea[t]
        if tau[y] < 0:
            tau[y] = img
            stack.append(y)
        elif tau[y] != img:
            return None
        y, img = bw[x], eb[t]
        if tau[y] < 0:
            tau[y] = img
            stack.append(y)
        elif tau[y] != img:
            return None
    if any(tau[t] != x for x, t in enumerate(tau)):
        return None
    return tau


def find_anti_involutions(o: Origami) -> list[InvolutionReport]:
    """All tau with tau^2 = id and tau (alpha,beta) tau^-1 = inverses.

    Returns one report per involution, ordered by tau's word.

    Each tau is fixed by tau(square 1) = t, so each target t is
    propagated once, and only where it can succeed: t must be a fixed
    point of alpha exactly when square 1 is, and likewise of beta.  Tau
    conjugates alpha to alpha^-1 and beta to beta^-1, so it maps each
    cycle of either onto a cycle of the same length, and fixed points
    to fixed points.
    """
    d = o.degree
    aw, bw = o.words[:d], o.words[d:]
    ai, bi = inverse_word(aw), inverse_word(bw)
    fixed_a, fixed_b = aw[0] == 0, bw[0] == 0
    taus = [
        _propagate(aw, bw, t, ai, bi) for t in range(d)
        if (aw[t] == t) == fixed_a and (bw[t] == t) == fixed_b
    ]
    taus = [tw for tw in taus if tw is not None]
    if not taus:
        return []
    # The surface's vertices are the cycles of the commutator.
    gamma_cycles = word_cycles(commutator_bytes(aw, bw))
    cycle_of = [0] * d
    for idx, cyc in enumerate(gamma_cycles):
        for x in cyc:
            cycle_of[x] = idx
    reports = []
    for tw in taus:
        centers = sum(1 for i in range(d) if tw[i] == i)
        vert = sum(1 for i in range(d) if tw[aw[i]] == i)
        horiz = sum(1 for i in range(d) if tw[bw[i]] == i)
        # The involution sends the vertex through the lower-left corner
        # of square i to the one through the lower-left corner of
        # sigma(i), where sigma = (beta alpha)^-1 tau = alpha^-1 beta^-1 tau.
        sigma = [ai[bi[tw[i]]] for i in range(d)]
        regular = sum(
            1 for cyc in gamma_cycles
            if len(cyc) == 1 and sigma[cyc[0]] == cyc[0]
        )
        zeros = sum(
            1 for cyc in gamma_cycles
            if len(cyc) >= 2 and cycle_of[sigma[cyc[0]]] == cycle_of[cyc[0]]
        )
        reports.append(InvolutionReport(
            bytes(tw), centers, vert, horiz, regular, zeros
        ))
    return reports


def is_hyperelliptic(o: Origami) -> bool:
    """Does the surface lie in its stratum's hyperelliptic component?

    Only H(2g-2) and H(g-1, g-1) have one; on any other stratum this is
    False, whatever involutions the surface has.  There the component
    is where some involution has 2g+2 fixed points, a genus-0 quotient,
    and on H(g-1, g-1) it must swap the two zeros: one that fixes both
    lies off the component.
    """
    zeros = o.stratum.hyperelliptic_zeros
    if zeros is None:
        return False
    target = 2 * o.genus + 2
    return any(
        rep.total_fixed == target and (zeros == 1 or rep.fixed_zeros == 0)
        for rep in find_anti_involutions(o)
    )
