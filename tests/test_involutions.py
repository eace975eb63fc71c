"""Compatible involutions, checked against a brute-force search."""
import pytest

from origami_census.cli import main
from origami_census.involutions import (
    InvolutionReport,
    find_anti_involutions,
    is_hyperelliptic,
)
from origami_census.perm import Perm, compose
from origami_census.surface import Origami
from conftest import all_perms, origami, strata_at
from reference_kernels import (
    brute_force_anti_involutions,
    commutator,
    conjugate,
    has_order_two_automorphism,
)


def brute_force_automorphisms(o: Origami) -> list[Perm]:
    out = []
    identity = Perm(tuple(range(o.degree)))
    for tau in all_perms(o.degree):
        if tau == identity or compose(tau, tau) != identity:
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
        assert str(Perm(r.tau)) == "(1)(2,4)(3)(5)"
        assert counts(r) == (3, 1, 1, 0)
        assert r.fixed_zeros == 1
        assert r.total_fixed == 6 == 2 * o.genus + 2
        assert is_hyperelliptic(o)

    def test_case13_degree5(self):
        o = origami("(1,2,3,5,4)", "(1,2)(3,4)(5)")
        reports = find_anti_involutions(o)
        taus = {str(Perm(r.tau)): r for r in reports}
        r = taus["(1,2)(3,4)(5)"]
        assert counts(r) == (1, 1, 5, 0)
        assert r.total_fixed == 8 == 2 * o.genus + 2
        assert is_hyperelliptic(o)

    def test_case8_degree5(self):
        o = origami("(1,2,4,3,5)", "(1,2,3)(4)(5)")
        reports = find_anti_involutions(o)
        assert len(reports) == 1
        (r,) = reports
        assert str(Perm(r.tau)) == "(1,2)(3)(4,5)"
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


# Every census of degree 3 to 6.
CENSUSES_TO_6 = [(d, mu) for d in range(3, 7) for mu in strata_at(d)]


class TestAgainstBruteForce:
    @pytest.mark.parametrize(
        "pairs",
        [
            [(5, (4,))],
            [(4, (2,))],
            [(5, (2,))],
            [(6, (2, 2))],
            CENSUSES_TO_6,
        ],
    )
    def test_search_matches_brute_force(self, pairs, census_of):
        # the same tau words in the same order: the search propagates
        # only the targets its fixed-point rule keeps, while every
        # involution of S_d is tested here
        for d, mu in pairs:
            census = census_of(d, mu)
            assert census.n_classes > 0
            for o in census.values():
                found = [r.tau for r in find_anti_involutions(o)]
                assert found == brute_force_anti_involutions(o)

    def test_automorphism_search_matches_brute_force(self, census_of):
        for d, mu in [(4, (2,)), (5, (4,)), (6, (2, 2))]:
            for o in census_of(d, mu).values():
                assert has_order_two_automorphism(o) == bool(
                    brute_force_automorphisms(o)
                )

    def test_fixed_point_counts_brute_force(self, census_of):
        """Count fixed 2-torsion points directly from the definitions."""
        for o in census_of(5, (4,)).values():
            gamma = commutator(o.alpha, o.beta)
            for r in find_anti_involutions(o):
                tau = Perm(r.tau)
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
        for o in census_of(d, mu).values():
            assert not has_order_two_automorphism(o)


class TestGenusTwoAlwaysHyperelliptic:
    """Genus-2 curves are hyperelliptic without exception, so the flag
    must come back true on every genus-2 census member.  For the
    two-zero shape the involution swaps the zeros, which exercises the
    fixed-zero accounting."""

    @pytest.mark.parametrize("d,mu", [(4, (2,)), (5, (2,)), (4, (1, 1)), (5, (1, 1))])
    def test_all_flagged(self, d, mu, census_of):
        for o in census_of(d, mu).values():
            assert is_hyperelliptic(o)

    def test_two_zero_involutions_swap_the_zeros(self, census_of):
        for o in census_of(4, (1, 1)).values():
            hits = [
                r
                for r in find_anti_involutions(o)
                if r.total_fixed == 2 * o.genus + 2
            ]
            assert hits
            assert all(r.fixed_zeros == 0 for r in hits)


class TestSwapRule:
    """On H(g-1, g-1) the hyperelliptic component is where the involution
    swaps the zeros.  A member whose only involutions with 2g+2 fixed
    points fix both zeros lies off that component and is not flagged."""

    @pytest.mark.parametrize("d,n_fixing,n_classes", [(6, 39, 126), (7, 66, 486)])
    def test_zero_fixing_involutions_are_not_flagged(
        self, census_of, d, n_fixing, n_classes
    ):
        census = census_of(d, (2, 2))
        assert census.n_classes == n_classes
        fixing = [
            o for o in census.values()
            if any(
                r.total_fixed == 2 * o.genus + 2 and r.fixed_zeros == 2
                for r in find_anti_involutions(o)
            )
        ]
        assert len(fixing) == n_fixing
        assert not any(is_hyperelliptic(o) for o in fixing)


class TestOffTheHyperellipticComponent:
    """H(2,1,1) has no hyperelliptic component, so no member is flagged,
    although 132 of the 360 members at degree 7 have an involution with
    2g+2 = 8 fixed points, which ``find_anti_involutions`` and
    ``classify`` still report."""

    @staticmethod
    def with_eight_fixed_points(census):
        return [
            o for o in census.values()
            if any(r.total_fixed == 8 for r in find_anti_involutions(o))
        ]

    def test_involutions_with_2g_plus_2_fixed_points_are_not_flagged(
        self, census_of
    ):
        census = census_of(7, (2, 1, 1))
        assert census.n_classes == 360
        hits = self.with_eight_fixed_points(census)
        assert len(hits) == 132
        assert not any(is_hyperelliptic(o) for o in hits)

    def test_classify_prints_the_involution_but_no_flag(
        self, census_of, capsys, tmp_path
    ):
        o = self.with_eight_fixed_points(census_of(7, (2, 1, 1)))[0]
        code = main([
            "classify", "--alpha", str(o.alpha), "--beta", str(o.beta),
            "--cache-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert "hyperelliptic = no" in out
        assert any(
            line.startswith("involution ") and line.endswith(" total=8")
            for line in out
        )
