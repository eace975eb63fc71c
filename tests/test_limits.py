from fractions import Fraction

import pytest

from origami_census import limits
from origami_census.census import enumerate_census
from origami_census.limits import (
    hyperelliptic_constants,
    l_from_s_kappa,
    load_reference_table,
    reference_rows,
    s_from_c_l,
    stratum_constants,
    sweep,
)
from origami_census.surface import InvariantError, StratumSignature


class TestKappa:
    @pytest.mark.parametrize(
        "mu,expected",
        [
            ((4,), Fraction(2, 5)),
            ((2,), Fraction(2, 9)),
            ((1, 1), Fraction(1, 4)),
        ],
    )
    def test_values(self, mu, expected):
        assert StratumSignature(mu).kappa == expected


class TestHyperellipticConstants:
    def test_genus2_single(self):
        c, big_l, s = hyperelliptic_constants(2, zeros=1)
        assert (c, big_l, s) == (Fraction(10, 9), Fraction(4, 3), 10)

    def test_genus3_single(self):
        assert hyperelliptic_constants(3, zeros=1)[2] == Fraction(28, 3)

    def test_genus5_double(self):
        c, big_l, s = hyperelliptic_constants(5, zeros=2)
        assert big_l == 3
        assert s == Fraction(44, 5)

    @pytest.mark.parametrize("g", range(2, 13))
    @pytest.mark.parametrize("zeros", [1, 2])
    def test_slope_is_always_8_plus_4_over_g(self, g, zeros):
        c, big_l, s = hyperelliptic_constants(g, zeros)
        assert s == 8 + Fraction(4, g)
        assert s == s_from_c_l(c, big_l)
        assert big_l == kappa_of_shape(g, zeros) + c

    def test_rejects_small_genus(self):
        with pytest.raises(ValueError):
            hyperelliptic_constants(1)

    def test_failed_self_check_raises(self, monkeypatch):
        monkeypatch.setattr(limits, "s_from_c_l", lambda c, big_l: Fraction(9))
        with pytest.raises(InvariantError, match="genus 3"):
            hyperelliptic_constants(3)


def kappa_of_shape(g: int, zeros: int) -> Fraction:
    mu = (2 * g - 2,) if zeros == 1 else (g - 1, g - 1)
    return StratumSignature(mu).kappa


class TestSlopeAlgebra:
    @pytest.mark.parametrize("g", range(2, 13))
    @pytest.mark.parametrize("zeros", [1, 2])
    def test_exact_round_trips(self, g, zeros):
        c, big_l, s = hyperelliptic_constants(g, zeros)
        kap = kappa_of_shape(g, zeros)
        assert s_from_c_l(c, big_l) == 12 - 12 * kap / big_l
        assert l_from_s_kappa(s, kap) == big_l

    def test_table_inversion_example(self):
        # reference slope 9 at kappa 2/5 forces L = 8/5, c = 6/5
        big_l = l_from_s_kappa(Fraction(9), Fraction(2, 5))
        assert big_l == Fraction(8, 5)
        assert big_l - Fraction(2, 5) == Fraction(6, 5)

    def test_degenerate_guards(self):
        with pytest.raises(ValueError):
            s_from_c_l(Fraction(1), Fraction(0))
        with pytest.raises(ValueError):
            l_from_s_kappa(Fraction(12), Fraction(1, 4))
        with pytest.raises(ValueError):
            l_from_s_kappa(Fraction(0), Fraction(0))


class TestStratumConstants:
    def test_single_zero_shape(self):
        stratum = StratumSignature((4,))
        exact_c, exact_l, exact_s = stratum_constants(stratum)
        assert exact_s == Fraction(28, 3)
        assert exact_l == stratum.kappa + exact_c

    def test_no_closed_form(self):
        assert stratum_constants(StratumSignature((3, 1))) is None


class TestReferenceTable:
    def test_all_rows_parse_exactly(self):
        rows = load_reference_table()
        assert len(rows) >= 80
        for r in rows:
            assert isinstance(r.slope, Fraction)
            assert 3 <= r.genus <= 6
            assert sum(r.mu) == 2 * r.genus - 2

    def test_genus3_block(self):
        got = [r.slope for r in reference_rows(3)]
        assert got == [
            Fraction(28, 3),
            Fraction(9),
            Fraction(28, 3),
            Fraction(44, 5),
            Fraction(9),
            Fraction(98, 11),
            Fraction(468, 53),
        ]

    @pytest.mark.parametrize("g", [3, 4, 5, 6])
    def test_hyperelliptic_rows_match_closed_form(self, g):
        for r in reference_rows(g):
            if r.label == "hyp":
                assert r.slope == 8 + Fraction(4, g)

    def test_labels_follow_the_stratum_shape(self):
        # hyp rows exactly on the hyperelliptic shapes, at their closed
        # form; nonhyp on H(g-1, g-1) with g-1 odd; spin rows only on
        # all-even strata; all exactly where neither rule applies
        table: dict[tuple[int, ...], dict[str, Fraction]] = {}
        for r in load_reference_table():
            table.setdefault(r.mu, {})[r.label] = r.slope
        assert len(table) == 80
        for mu, rows in table.items():
            stratum = StratumSignature(mu)
            zeros = stratum.hyperelliptic_zeros
            even = stratum.all_even()
            assert ("hyp" in rows) == (zeros is not None), mu
            if zeros is not None:
                assert stratum_constants(stratum)[2] == rows["hyp"], mu
            assert ("nonhyp" in rows) == (zeros == 2 and not even), mu
            assert even or not {"even", "odd"} & rows.keys(), mu
            assert ("all" in rows) == (zeros is None and not even), mu

    def test_outside_range(self):
        with pytest.raises(ValueError):
            reference_rows(9)
        with pytest.raises(ValueError):
            reference_rows(2)


@pytest.fixture
def cached_provider(census_of):
    """A sweep provider that reads the session's memoized censuses."""
    return lambda d, s: census_of(d, s.mu)


class TestSweep:
    def test_genus2_whole_stratum(self, cached_provider):
        report = sweep(
            StratumSignature((2,)), 6, scope="stratum", provider=cached_provider
        )
        assert [r.degree for r in report.rows] == [3, 4, 5, 6]
        for r in report.rows:
            assert r.ratio == Fraction(10, 9)
            assert r.slope == 10

    def test_hyperelliptic_scope(self, cached_provider):
        report = sweep(
            StratumSignature((4,)),
            5,
            scope="hyperelliptic",
            provider=cached_provider,
        )
        (row,) = report.rows
        assert row.n_classes == 18
        assert row.slope == Fraction(28, 3)

    def test_class_scope_totals_match_whole(self, cached_provider):
        stratum = StratumSignature((4,))
        whole = sweep(stratum, 5, scope="stratum", provider=cached_provider)
        classes = sweep(stratum, 5, scope="classes", provider=cached_provider)
        assert sum(r.n_classes for r in classes.rows) == whole.rows[0].n_classes
        assert sum(
            (r.total_weight for r in classes.rows), Fraction(0)
        ) == whole.rows[0].total_weight
        labels = {r.label: r for r in classes.rows}
        assert labels["hyp"].slope == Fraction(28, 3)
        assert labels["odd"].slope == 9

    @pytest.mark.parametrize(
        "d,mu",
        [(6, (3, 1)), (7, (2, 1, 1)), (8, (4, 2)), (8, (3, 3)), (7, (6,)),
         (6, (2, 2))],
    )
    def test_class_rows_are_reference_components(self, census_of, d, mu):
        # each class row joins a `table` row of its stratum by label, and
        # the rows split the census
        stratum = StratumSignature(mu)
        report = sweep(
            stratum, d, scope="classes",
            provider=lambda degree, s: census_of(degree, s.mu),
        )
        census = census_of(d, mu)
        labels = {r.label for r in reference_rows(stratum.genus) if r.mu == mu}
        assert census.n_classes > 0
        assert {r.degree for r in report.rows} == {d}
        assert {r.label for r in report.rows} <= labels
        assert sum(r.n_classes for r in report.rows) == census.n_classes
        assert sum(
            (r.total_weight for r in report.rows), Fraction(0)
        ) == census.total_weight

    def test_hyperelliptic_scope_can_be_empty(self, cached_provider):
        # the mixed-zero stratum has no hyperelliptic members at all
        report = sweep(
            StratumSignature((3, 1)), 6, scope="hyperelliptic",
            provider=cached_provider,
        )
        (row,) = report.rows
        assert row.n_classes == 0
        assert row.ratio is None
        assert row.slope is None

    @pytest.mark.parametrize(
        "mu,d_max",
        [((2,), 8), ((1, 1), 8), ((4,), 7), ((2, 2), 7), ((3, 1), 7),
         ((4, 2), 8), ((2, 1, 1), 7)],
    )
    def test_both_hyperelliptic_paths_agree_at_slope_8_plus_4_over_g(
        self, cached_provider, mu, d_max
    ):
        # member-wise flags against orbit labels; every hyperelliptic
        # row has the limiting slope already at finite degree
        stratum = StratumSignature(mu)
        flagged = sweep(stratum, d_max, scope="hyperelliptic", provider=cached_provider)
        classes = sweep(stratum, d_max, scope="classes", provider=cached_provider)
        hyp = {r.degree: r for r in classes.rows if r.label == "hyp"}
        assert [r.degree for r in flagged.rows] == sorted(
            {r.degree for r in classes.rows}
        )
        exact = stratum_constants(stratum)
        assert (exact is None) == (not hyp)
        for r in flagged.rows:
            if r.degree not in hyp:
                assert (r.n_classes, r.total_weight, r.slope) == (0, 0, None)
                continue
            want = hyp[r.degree]
            assert (r.n_classes, r.total_weight, r.slope) == (
                want.n_classes, want.total_weight, want.slope
            )
            assert r.slope == exact[2] == 8 + Fraction(4, stratum.genus)
        sizes = {(2,): [3, 9, 27, 45, 90, 135], (4,): [18, 70, 255]}
        if mu in sizes:
            assert [r.n_classes for r in flagged.rows] == sizes[mu]

    def test_budget_truncation(self):
        def tight_provider(d, stratum):
            return enumerate_census(d, stratum, budget=5)

        report = sweep(
            StratumSignature((2,)), 5, scope="stratum", provider=tight_provider
        )
        assert report.truncated_at == 4
        assert [r.degree for r in report.rows] == [3]

    def test_unknown_scope(self):
        with pytest.raises(ValueError):
            sweep(StratumSignature((2,)), 4, scope="everything")

