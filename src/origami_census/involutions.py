"""Involutions of a square-tiled surface compatible with the base torus.

The point symmetry of the torus lifts to the cover exactly when some
tau in S_d conjugates (alpha, beta) to (alpha^-1, beta^-1) with
tau^2 = id.  The lifted involution acts on the surface square by
square; its fixed points sit at 2-torsion points of the flat metric:
square centers, edge midpoints and vertices.  The surface is
hyperelliptic precisely when some compatible involution has 2g+2
fixed points.
"""
from __future__ import annotations

from dataclasses import dataclass

from .perm import Perm, commutator_word, inverse_word, word_cycles
from .surface import Origami


@dataclass(frozen=True)
class InvolutionReport:
    """Fixed-point census of one compatible involution.

    ``square_centers`` counts fixed squares (the center of each is a
    fixed point); ``vertical_edges`` / ``horizontal_edges`` count fixed
    edge midpoints; ``regular_vertices`` counts fixed unramified
    vertices; ``fixed_zeros`` counts zeros (ramification vertices)
    preserved by the involution.  For a single-zero surface
    ``fixed_zeros`` is always 1, so ``total_fixed`` reduces to the
    four letter counts plus one.
    """

    tau: Perm
    square_centers: int
    vertical_edges: int
    horizontal_edges: int
    regular_vertices: int
    fixed_zeros: int

    @property
    def total_fixed(self) -> int:
        return (
            self.square_centers
            + self.vertical_edges
            + self.horizontal_edges
            + self.regular_vertices
            + self.fixed_zeros
        )


def _propagate(o: Origami, target: int, ea, eb) -> Perm | None:
    """Extend tau(square 1) = target to all squares, or return None.

    The intertwining relation determines tau along every alpha/beta
    edge: tau(alpha(x)) = ea(tau(x)) and tau(beta(x)) = eb(tau(x)).
    The target words (ea, eb) are the inverses of alpha and beta for
    an anti-involution, alpha and beta themselves for a plain
    automorphism.  Transitivity makes the extension total; the
    candidate is then checked for consistency and tau^2 = id.
    """
    d = o.degree
    aw = o.alpha.word
    bw = o.beta.word

    tau = [-1] * d
    tau[0] = target
    stack = [0]
    while stack:
        x = stack.pop()
        for w, e in ((aw, ea), (bw, eb)):
            y = w[x]
            img = e[tau[x]]
            if tau[y] < 0:
                tau[y] = img
                stack.append(y)
            elif tau[y] != img:
                return None
    # consistency on every edge, not only the spanning ones
    for x in range(d):
        if tau[aw[x]] != ea[tau[x]] or tau[bw[x]] != eb[tau[x]]:
            return None
        if tau[tau[x]] != x:
            return None
    return Perm(tuple(tau))


def find_anti_involutions(o: Origami) -> list[InvolutionReport]:
    """All tau with tau^2 = id and tau (alpha,beta) tau^-1 = inverses.

    Returns one report per involution, ordered by tau's word.
    """
    aw, bw = o.alpha.word, o.beta.word
    gamma_cycles = word_cycles(commutator_word(aw, bw))
    ai, bi = inverse_word(aw), inverse_word(bw)
    reports = []
    for target in range(o.degree):
        tau = _propagate(o, target, ai, bi)
        if tau is not None:
            reports.append(_report(o, tau, gamma_cycles, ai, bi))
    return reports


def has_order_two_automorphism(o: Origami) -> bool:
    """True iff a non-identity involution commutes with both alpha and beta."""
    for target in range(o.degree):
        tau = _propagate(o, target, o.alpha.word, o.beta.word)
        if tau is not None and not tau.is_identity():
            return True
    return False


def _report(
    o: Origami, tau: Perm, gamma_cycles: list[tuple[int, ...]], ai, bi
) -> InvolutionReport:
    """Fixed points of tau; ``ai`` and ``bi`` are the inverse words of
    alpha and beta."""
    d = o.degree
    aw = o.alpha.word
    bw = o.beta.word
    tw = tau.word

    centers = sum(1 for i in range(d) if tw[i] == i)
    vert = sum(1 for i in range(d) if tw[aw[i]] == i)
    horiz = sum(1 for i in range(d) if tw[bw[i]] == i)

    # The involution sends the vertex through the lower-left corner of
    # square i to the one through the lower-left corner of sigma(i),
    # where sigma = (beta alpha)^-1 tau = alpha^-1 beta^-1 tau.
    sigma = [ai[bi[tw[i]]] for i in range(d)]

    cycle_of = [0] * d
    for idx, cyc in enumerate(gamma_cycles):
        for x in cyc:
            cycle_of[x] = idx

    regular = sum(
        1 for cyc in gamma_cycles if len(cyc) == 1 and sigma[cyc[0]] == cyc[0]
    )
    zeros = sum(
        1
        for cyc in gamma_cycles
        if len(cyc) >= 2 and cycle_of[sigma[cyc[0]]] == cycle_of[cyc[0]]
    )
    return InvolutionReport(tau, centers, vert, horiz, regular, zeros)


def is_hyperelliptic(o: Origami) -> bool:
    """Does some compatible involution realize the surface as hyperelliptic?

    An involution with 2g+2 fixed points gives a genus-0 quotient.  On
    a stratum with two zeros of equal order the hyperelliptic locus is
    the one where the involution swaps the zeros, so fixed zeros are
    additionally required to be 0 there.
    """
    target = 2 * o.genus + 2
    swap_required = len(o.stratum.mu) == 2 and o.stratum.mu[0] == o.stratum.mu[1]
    for rep in find_anti_involutions(o):
        if rep.total_fixed != target:
            continue
        if swap_required and rep.fixed_zeros != 0:
            continue
        return True
    return False
