"""Compatible involutions, checked against a brute-force search."""
import pytest

from origami_census.involutions import (
    InvolutionReport,
    find_anti_involutions,
    has_order_two_automorphism,
    is_hyperelliptic,
)
from origami_census.perm import Perm, commutator, compose, conjugate
from origami_census.surface import Origami
from conftest import all_perms, origami


def brute_force_anti_involutions(o: Origami) -> list[Perm]:
    """Every involution conjugating the pair to its inverses."""
    out = []
    ainv, binv = o.alpha.inverse(), o.beta.inverse()
    for tau in all_perms(o.degree):
        if compose(tau, tau).is_identity():
            if (
                conjugate(o.alpha, tau) == ainv
                and conjugate(o.beta, tau) == binv
            ):
                out.append(tau)
    return out


def brute_force_automorphisms(o: Origami) -> list[Perm]:
    out = []
    for tau in all_perms(o.degree):
        if tau.is_identity() or not compose(tau, tau).is_identity():
            continue
        if conjugate(o.alpha, tau) == o.alpha and conjugate(o.beta, tau) == o.beta:
            out.append(tau)
    return out


def counts(r: InvolutionReport) -> tuple[int, int, int, int]:
    return (
        r.square_centers,
        r.vertical_edges,
        r.horizontal_edges,
        r.regular_vertices,
    )


class TestReferenceExamples:
    def test_genus2_octagon(self):
        o = origami("(1,2,3,4)(5)", "(1,5)(2)(3)(4)")
        reports = find_anti_involutions(o)
        assert len(reports) == 1
        (r,) = reports
        assert str(r.tau) == "(1)(2,4)(3)(5)"
        assert counts(r) == (3, 1, 1, 0)
        assert r.fixed_zeros == 1
        assert r.total_fixed == 6 == 2 * o.genus + 2
        assert is_hyperelliptic(o)

    def test_case13_degree5(self):
        o = origami("(1,2,3,5,4)", "(1,2)(3,4)(5)")
        reports = find_anti_involutions(o)
        taus = {str(r.tau): r for r in reports}
        r = taus["(1,2)(3,4)(5)"]
        assert counts(r) == (1, 1, 5, 0)
        assert r.total_fixed == 8 == 2 * o.genus + 2
        assert is_hyperelliptic(o)

    def test_case8_degree5(self):
        o = origami("(1,2,4,3,5)", "(1,2,3)(4)(5)")
        reports = find_anti_involutions(o)
        assert len(reports) == 1
        (r,) = reports
        assert str(r.tau) == "(1,2)(3)(4,5)"
        assert counts(r) == (1, 1, 1, 0)
        assert r.total_fixed == 4
        assert not is_hyperelliptic(o)

    def test_case39_degree5(self):
        o = origami("(1,3,5,4)(2)", "(1,2)(3,4)(5)")
        assert any(
            r.total_fixed == 2 * o.genus + 2 for r in find_anti_involutions(o)
        )
        assert is_hyperelliptic(o)

    def test_case8_has_no_order_two_automorphism(self):
        # the involution of this pair satisfies the inverted relation
        # only: as a plain automorphism relation it has no solution
        o = origami("(1,2,4,3,5)", "(1,2,3)(4)(5)")
        assert not has_order_two_automorphism(o)


class TestAgainstBruteForce:
    @pytest.mark.parametrize(
        "pairs",
        [
            [(5, (4,))],
            [(4, (2,))],
            [(5, (2,))],
            [(6, (2, 2))],
        ],
    )
    def test_search_matches_brute_force(self, pairs, census_of):
        for d, mu in pairs:
            for o in census_of(d, mu):
                found = {str(r.tau) for r in find_anti_involutions(o)}
                expected = {str(t) for t in brute_force_anti_involutions(o)}
                assert found == expected

    def test_automorphism_search_matches_brute_force(self, census_of):
        for d, mu in [(4, (2,)), (5, (4,)), (6, (2, 2))]:
            for o in census_of(d, mu):
                assert has_order_two_automorphism(o) == bool(
                    brute_force_automorphisms(o)
                )

    def test_fixed_point_counts_brute_force(self, census_of):
        """Count fixed 2-torsion points directly from the definitions."""
        for o in census_of(5, (4,)):
            gamma = commutator(o.alpha, o.beta)
            for r in find_anti_involutions(o):
                tau = r.tau
                d = o.degree
                assert r.square_centers == sum(
                    1 for i in range(1, d + 1) if tau(i) == i
                )
                assert r.vertical_edges == sum(
                    1 for i in range(1, d + 1) if tau(o.alpha(i)) == i
                )
                assert r.horizontal_edges == sum(
                    1 for i in range(1, d + 1) if tau(o.beta(i)) == i
                )
                assert r.regular_vertices == sum(
                    1
                    for i in range(1, d + 1)
                    if gamma(i) == i and tau(o.beta(o.alpha(i))) == i
                )


class TestNoOrderTwoAutomorphismsSingleZero:
    @pytest.mark.parametrize("d,mu", [(3, (2,)), (4, (2,)), (5, (2,)), (5, (4,))])
    def test_single_zero_census(self, d, mu, census_of):
        for o in census_of(d, mu):
            assert not has_order_two_automorphism(o)


class TestGenusTwoAlwaysHyperelliptic:
    """Genus-2 curves are hyperelliptic without exception, so the flag
    must come back true on every genus-2 census member.  For the
    two-zero shape the involution swaps the zeros, which exercises the
    fixed-zero accounting."""

    @pytest.mark.parametrize("d,mu", [(4, (2,)), (5, (2,)), (4, (1, 1)), (5, (1, 1))])
    def test_all_flagged(self, d, mu, census_of):
        for o in census_of(d, mu):
            assert is_hyperelliptic(o)

    def test_two_zero_involutions_swap_the_zeros(self, census_of):
        for o in census_of(4, (1, 1)):
            hits = [
                r
                for r in find_anti_involutions(o)
                if r.total_fixed == 2 * o.genus + 2
            ]
            assert hits
            assert all(r.fixed_zeros == 0 for r in hits)
