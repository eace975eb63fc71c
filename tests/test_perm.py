import tracemalloc
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from origami_census.perm import (
    CycleType,
    DegreeMismatchError,
    Perm,
    centralizer_generators,
    class_representative,
    class_size,
    class_words,
    commutator,
    commutator_word,
    compose,
    conjugate,
    conjugators_onto,
    cycle_lengths,
    cycle_rotations,
    perm_from_cycles,
    word_cycles,
    words_transitive,
)
from conftest import all_perms


def perms(min_degree=1, max_degree=8):
    return st.integers(min_degree, max_degree).flatmap(
        lambda d: st.permutations(list(range(d))).map(lambda w: Perm(tuple(w)))
    )


def perm_pairs(min_degree=1, max_degree=8):
    return st.integers(min_degree, max_degree).flatmap(
        lambda d: st.tuples(
            st.permutations(list(range(d))).map(lambda w: Perm(tuple(w))),
            st.permutations(list(range(d))).map(lambda w: Perm(tuple(w))),
        )
    )


class TestCompose:
    def test_identity_is_unit(self):
        p = perm_from_cycles("(1,3,2)(4)")
        e = Perm.identity(4)
        assert compose(e, p) == p
        assert compose(p, e) == p

    def test_inverse_cancels(self):
        p = perm_from_cycles("(1,2,3,4)(5)")
        assert compose(p, p.inverse()) == Perm.identity(5)

    def test_right_factor_acts_first(self):
        # (12) after (23) sends 1->2, 2->3, 3->1
        p = perm_from_cycles("(1,2)(3)")
        q = perm_from_cycles("(2,3)(1)")
        assert compose(p, q) == perm_from_cycles("(1,2,3)")

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            compose(Perm.identity(3), Perm.identity(4))

    @given(st.integers(1, 8).flatmap(
        lambda d: st.tuples(*[
            st.permutations(list(range(d))).map(lambda w: Perm(tuple(w)))
            for _ in range(3)
        ])
    ))
    def test_associative(self, triple):
        p, q, r = triple
        assert compose(compose(p, q), r) == compose(p, compose(q, r))


class TestInverse:
    def test_identity(self):
        assert Perm.identity(4).inverse() == Perm.identity(4)

    def test_three_cycle(self):
        assert perm_from_cycles("(1,2,3)").inverse() == perm_from_cycles("(1,3,2)")

    @given(perms())
    def test_involution_of_op(self, p):
        assert p.inverse().inverse() == p


class TestCommutator:
    def test_degree5_ground_truth(self):
        alpha = perm_from_cycles("(1,2,3,4)(5)")
        beta = perm_from_cycles("(1,5)(2)(3)(4)")
        assert commutator(alpha, beta) == perm_from_cycles("(1,5,4)(2)(3)")

    def test_commuting_elements(self):
        p = perm_from_cycles("(1,2,3)")
        assert commutator(p, p) == Perm.identity(3)

    def test_two_transpositions(self):
        # frozen from evaluating beta^-1 alpha^-1 beta alpha by hand
        alpha = perm_from_cycles("(1,2)(3)")
        beta = perm_from_cycles("(1,3)(2)")
        assert commutator(alpha, beta) == perm_from_cycles("(1,3,2)")

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            commutator(Perm.identity(2), Perm.identity(3))


class TestWordPrimitives:
    def test_word_cycles_match_perm_cycles(self):
        for p in all_perms(4):
            cycles = word_cycles(p.word)
            assert [tuple(x + 1 for x in c) for c in cycles] == p.cycles()
            # each cycle follows the word, starts at its least letter,
            # and the cycles partition the letters in order of that letter
            for c in cycles:
                assert c[0] == min(c)
                assert all(p.word[c[k]] == c[(k + 1) % len(c)]
                           for k in range(len(c)))
            assert [c[0] for c in cycles] == sorted(c[0] for c in cycles)
            assert sorted(x for c in cycles for x in c) == list(range(4))

    def test_commutator_word_matches_commutator(self):
        ps = list(all_perms(4))
        for a in ps:
            for b in ps:
                w = commutator_word(a.word, b.word)
                assert w == commutator(a, b).word
                assert w == compose(
                    compose(b.inverse(), a.inverse()), compose(b, a)
                ).word


class TestCycleType:
    def test_four_one(self):
        assert perm_from_cycles("(1,2,3,4)(5)").cycle_type().parts == (4, 1)

    def test_identity(self):
        assert Perm.identity(6).cycle_type().parts == (1,) * 6

    def test_commutator_example(self):
        assert perm_from_cycles("(1,5,4)(2)(3)").cycle_type().parts == (3, 1, 1)

    @given(perm_pairs())
    def test_conjugation_invariance(self, pair):
        p, tau = pair
        assert conjugate(p, tau).cycle_type() == p.cycle_type()

    def test_rejects_bad_parts(self):
        with pytest.raises(ValueError):
            CycleType(4, (2, 1))
        with pytest.raises(ValueError):
            CycleType(3, (1, 2))


class TestTransitivity:
    def test_two_blocks(self):
        a = perm_from_cycles("(1,2)(3)(4)")
        b = perm_from_cycles("(3,4)(1)(2)")
        assert not words_transitive(a.word, b.word)

    def test_degree5_cover_pair(self):
        a = perm_from_cycles("(1,2,3,4)(5)")
        b = perm_from_cycles("(1,5)(2)(3)(4)")
        assert words_transitive(a.word, b.word)

    def test_full_cycle(self):
        d = 6
        assert words_transitive(Perm.identity(d).word, class_representative(
            CycleType(d, (d,))).word)

    @staticmethod
    def _orbit_of_one(a: Perm, b: Perm) -> set[int]:
        gens = [a.word, b.word, a.inverse().word, b.inverse().word]
        seen = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for w in gens:
                if w[x] not in seen:
                    seen.add(w[x])
                    frontier.append(w[x])
        return seen

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_agrees_with_group_orbit_all_pairs(self, d):
        ps = list(all_perms(d))
        for a in ps:
            for b in ps:
                expected = len(self._orbit_of_one(a, b)) == d
                assert words_transitive(a.word, b.word) == expected

    @staticmethod
    def _union_find_transitive(a, b) -> bool:
        parent = list(range(len(a)))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for w in (a, b):
            for i, j in enumerate(w):
                parent[find(i)] = find(j)
        return len({find(i) for i in range(len(a))}) == 1

    @pytest.mark.parametrize("d", [1, 4])
    def test_words_transitive_agrees_with_union_find(self, d):
        words = [p.word for p in all_perms(d)]
        for a in words:
            for b in words:
                assert words_transitive(a, b) == self._union_find_transitive(
                    a, b
                )

    def test_words_transitive_degree0(self):
        assert words_transitive((), ())


class TestClassRepresentative:
    def test_blocks(self):
        assert class_representative(CycleType(5, (4, 1))) == perm_from_cycles(
            "(1,2,3,4)(5)"
        )
        assert class_representative(CycleType(3, (1, 1, 1))) == Perm.identity(3)
        assert class_representative(CycleType(5, (3, 2))) == perm_from_cycles(
            "(1,2,3)(4,5)"
        )

    def test_has_requested_type(self):
        from origami_census.census import partitions_desc

        for d in range(1, 9):
            for parts in partitions_desc(d):
                t = CycleType(d, parts)
                assert class_representative(t).cycle_type() == t


def _closure(gens: list[Perm], degree: int) -> set[tuple[int, ...]]:
    group = {Perm.identity(degree).word}
    frontier = list(group)
    while frontier:
        w = frontier.pop()
        for g in gens:
            nw = compose(g, Perm(w)).word
            if nw not in group:
                group.add(nw)
                frontier.append(nw)
    return group


def _true_centralizer(p: Perm) -> set[tuple[int, ...]]:
    return {
        q.word
        for q in all_perms(p.degree)
        if compose(q, p) == compose(p, q)
    }


class TestCentralizer:
    def test_identity_gives_symmetric_group(self):
        d = 4
        gens = centralizer_generators(Perm.identity(d))
        # the generating set itself is the adjacent transpositions
        assert gens == [
            perm_from_cycles("(1,2)(3)(4)"),
            perm_from_cycles("(2,3)(1)(4)"),
            perm_from_cycles("(3,4)(1)(2)"),
        ]
        assert _closure(gens, d) == {q.word for q in all_perms(d)}

    def test_single_cycle_is_cyclic(self):
        p = class_representative(CycleType(5, (5,)))
        group = _closure(centralizer_generators(p), 5)
        assert group == _closure([p], 5)
        assert len(group) == 5

    def test_two_two_cycles(self):
        # brute-force centralizer of (12)(34) in S_4 has order 8
        p = perm_from_cycles("(1,2)(3,4)")
        gens = centralizer_generators(p)
        assert _closure(gens, 4) == _true_centralizer(p)

    @given(perms(max_degree=6))
    @settings(max_examples=40, deadline=None)
    def test_generators_commute_with_p(self, p):
        for g in centralizer_generators(p):
            assert compose(g, p) == compose(p, g)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_brute_force_equality_exhaustive(self, d):
        for p in all_perms(d):
            gens = centralizer_generators(p)
            assert _closure(gens, d) == _true_centralizer(p)

    def test_brute_force_equality_degree6_class_reps(self):
        from origami_census.census import partitions_desc

        for parts in partitions_desc(6):
            p = class_representative(CycleType(6, parts))
            assert _closure(centralizer_generators(p), 6) == _true_centralizer(p)


def _centralizer_order(parts) -> int:
    order = 1
    for length in set(parts):
        m = parts.count(length)
        order *= length**m * factorial(m)
    return order


class TestClassWords:
    @pytest.mark.parametrize("d", [0, 1, 2, 3, 4, 5, 6])
    def test_classes_partition_the_symmetric_group(self, d):
        from origami_census.census import partitions_desc

        union = set()
        for parts in partitions_desc(d):
            words = list(class_words(parts, d))
            assert len(set(words)) == len(words)
            assert len(words) == factorial(d) // _centralizer_order(parts)
            assert all(cycle_lengths(w) == parts for w in words)
            union.update(words)
        assert union == {p.word for p in all_perms(d)}

    @pytest.mark.parametrize("d", range(1, 8))
    def test_class_size_counts_the_class(self, d):
        from origami_census.census import partitions_desc

        for parts in partitions_desc(d):
            assert class_size(parts) == len(list(class_words(parts, d))), parts

    @pytest.mark.parametrize("parts", [(3, 1, 1, 1, 1, 1), (4, 2, 1, 1), (8,)])
    def test_degree8_class_sizes(self, parts):
        words = set(class_words(parts, 8))
        assert len(words) == factorial(8) // _centralizer_order(parts)
        assert all(cycle_lengths(w) == parts for w in words)

    @pytest.mark.parametrize("parts", [(2, 2), (0, 3), (4, -1)])
    def test_rejects_non_partitions(self, parts):
        with pytest.raises(ValueError):
            list(class_words(parts, 3))


class TestConjugatorWords:
    def test_all_solutions_over_s4(self):
        ps = list(all_perms(4))
        for x in ps:
            for y in ps:
                got = list(conjugators_onto(x.word, cycle_rotations(y.word)))
                want = {b.word for b in ps if compose(b, x) == compose(y, b)}
                assert len(got) == len(set(got))
                assert set(got) == want
                if x.cycle_type() == y.cycle_type():
                    assert len(got) == _centralizer_order(
                        x.cycle_type().parts
                    )
                else:
                    assert got == []

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_self_conjugators_are_the_centralizer(self, d):
        for p in all_perms(d):
            got = set(conjugators_onto(p.word, cycle_rotations(p.word)))
            assert got == _closure(centralizer_generators(p), d)

    def test_solves_for_beta_from_its_commutator(self):
        # beta^-1 alpha^-1 beta alpha = gamma iff beta conjugates
        # delta = gamma alpha^-1 to alpha^-1
        a = perm_from_cycles("(1,2,3,4)(5)")
        b = perm_from_cycles("(1,5)(2)(3)(4)")
        gamma = commutator(a, b)
        delta = compose(gamma, a.inverse())
        betas = {
            Perm(w)
            for w in conjugators_onto(delta.word, cycle_rotations(a.inverse().word))
        }
        assert b in betas
        assert len(betas) == 4
        assert all(commutator(a, beta) == gamma for beta in betas)


class TestCycleStrings:
    def test_printer_format(self):
        p = perm_from_cycles("(1,2,3,4)(5)")
        assert str(p) == "(1,2,3,4)(5)"

    def test_fixed_points_materialized(self):
        assert str(Perm.identity(3)) == "(1)(2)(3)"

    @given(perms())
    def test_round_trip(self, p):
        assert perm_from_cycles(str(p)) == p

    @pytest.mark.parametrize(
        "bad",
        ["", "(1,2", "(1,2)(2,3)", "(1,3)", "(0,1)", "(1,x)", "1,2"],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(ValueError):
            perm_from_cycles(bad)

    def test_missing_letters_named(self):
        with pytest.raises(ValueError) as err:
            perm_from_cycles("(1,2)(4)")
        assert str(err.value) == (
            "letters [3] missing; write fixed points as (i)"
        )

    def test_missing_letters_checked_before_any_word(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as err:
                perm_from_cycles("(200000)")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Building the word and listing every missing letter first
        # peaked at 46 MB and gave a 1.5 MB message.
        assert len(str(err.value)) < 200
        assert "[1, 2, 3, 4, 5] and 199994 more missing" in str(err.value)
        assert peak < 1_000_000

    def test_cycles_sorted_and_rotated(self):
        p = compose(
            perm_from_cycles("(2,5)(1)(3)(4)"), perm_from_cycles("(3,4)(1)(2)(5)")
        )
        assert str(p) == "(1)(2,5)(3,4)"
