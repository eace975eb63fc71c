import json
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from origami_census import census as census_mod
from origami_census.census import partitions_desc, save_census
from origami_census.perm import (
    Perm,
    class_representative,
    commutator_bytes,
    compose,
    cycle_lengths,
    perm_from_cycles,
    words_transitive,
)
from origami_census.surface import (
    DisconnectedCoverError,
    InvariantError,
    StratumSignature,
    TrivialStratumError,
    canonical_form,
    canonical_key,
    from_record,
    horizontal_cylinders,
    make_origami,
    stratum_of,
    weight_of,
)
from conftest import DEGREE5_PAIRS, all_perms, origami, strata_at
from reference_kernels import conjugate, full_scan_canonical_form, words_record


class TestStratumSignature:
    def test_genus(self):
        assert StratumSignature((2,)).genus == 2
        assert StratumSignature((4,)).genus == 3
        assert StratumSignature((2, 2)).genus == 3

    def test_rejects_odd_sum(self):
        with pytest.raises(ValueError):
            StratumSignature((3,))

    def test_rejects_nonpositive_and_unsorted(self):
        with pytest.raises(ValueError):
            StratumSignature((2, 0))
        with pytest.raises(ValueError):
            StratumSignature((1, 3))

    def test_empty_profile_is_trivial(self):
        with pytest.raises(TrivialStratumError):
            StratumSignature(())

    @pytest.mark.parametrize("mu", [(4.0,), ("4",), (True, True)])
    def test_rejects_orders_that_are_not_ints(self, mu):
        with pytest.raises(ValueError, match="must be integers"):
            StratumSignature(mu)

    @pytest.mark.parametrize(
        "mu,zeros",
        [((2,), 1), ((8,), 1), ((1, 1), 2), ((2, 2), 2), ((3, 3), 2),
         ((3, 1), None), ((4, 2), None), ((2, 1, 1), None), ((2, 2, 2), None),
         ((1, 1, 1, 1), None)],
    )
    def test_hyperelliptic_zeros(self, mu, zeros):
        # H(2g-2) and H(g-1, g-1) have a hyperelliptic component
        assert StratumSignature(mu).hyperelliptic_zeros == zeros


class TestMakeOrigami:
    def test_genus2_octagon_cover(self):
        o = origami("(1,2,3,4)(5)", "(1,5)(2)(3)(4)")
        assert o.stratum.mu == (2,)
        assert o.genus == 2
        assert cycle_lengths(commutator_bytes(o.words[:5], o.words[5:])) == (
            3, 1, 1
        )

    def test_disconnected(self):
        with pytest.raises(DisconnectedCoverError):
            origami("(1,2)(3)(4)", "(3,4)(1)(2)")

    def test_trivial_stratum(self):
        with pytest.raises(TrivialStratumError):
            make_origami(Perm((0,)), Perm((0,)))

    @pytest.mark.parametrize("d", [255, 256, 300])
    def test_over_255_squares_is_refused(self, d):
        # A word holds one byte per letter.  The n-cycle with one
        # transposition of neighbours is transitive and lies in H(2),
        # so only the degree can be at fault.
        alpha = tuple(range(1, d)) + (0,)
        beta = (1, 0) + tuple(range(2, d))
        if d == 255:
            assert make_origami(Perm(alpha), Perm(beta)).stratum.mu == (2,)
            return
        with pytest.raises(ValueError, match=f"^degree {d} is over 255: "):
            make_origami(Perm(alpha), Perm(beta))


class TestGenus:
    def test_examples(self):
        assert stratum_of((3, 1, 1)).genus == 2
        assert stratum_of((5,)).genus == 3
        with pytest.raises(TrivialStratumError):
            stratum_of((1, 1, 1, 1))
        # the parts may come in any order
        assert stratum_of((1, 3, 1)) == StratumSignature((2,))

    def test_matches_stratum_sum(self, census_of):
        for o in census_of(5, (4,)).values():
            parts = cycle_lengths(commutator_bytes(o.words[:5], o.words[5:]))
            assert stratum_of(parts).genus == sum(o.stratum.mu) // 2 + 1

    def test_census_raises_the_surface_invariant_error(self):
        assert InvariantError is census_mod.InvariantError


class TestCylindersAndWeight:
    def test_cylinders_of_octagon(self):
        o = origami("(1,2,3,4)(5)", "(1,5)(2)(3)(4)")
        assert horizontal_cylinders(o) == [(4, 1), (1, 1)]
        assert sum(w for w, _ in horizontal_cylinders(o)) == o.degree

    def test_single_cylinder(self):
        assert horizontal_cylinders(
            origami("(1,2,3,4,5)", "(1,2)(3,4)(5)")
        ) == [(5, 1)]

    def test_fixed_points_give_unit_cylinders(self):
        o = origami("(1,2)(3,5)(4)", "(1,2,3,4,5)")
        assert horizontal_cylinders(o) == [(2, 1), (2, 1), (1, 1)]

    def test_stacked_strips_merge(self):
        # No zero lies on the top edge of (1,2,4): beta carries it onto
        # (3,5,6), so the two strips are one cylinder of height 2.
        o = origami("(1,2,4)(3,5,6)", "(1,3)(2,5,4,6)")
        assert horizontal_cylinders(o) == [(3, 2)]

    @pytest.mark.parametrize(
        "d,mu", [(5, (2,)), (5, (4,)), (5, (1, 1)), (6, (2,)), (6, (4,)),
                 (6, (2, 2)), (6, (3, 1))],
    )
    def test_cylinders_tile_and_give_weight(self, d, mu, census_of):
        for o in census_of(d, mu).values():
            cyls = horizontal_cylinders(o)
            assert sum(w * h for w, h in cyls) == d
            assert sum(Fraction(h, w) for w, h in cyls) == o.weight

    def test_classes_with_stacked_strips(self, census_of):
        stacked = [
            o for o in census_of(6, (2,)).values()
            if any(h > 1 for _, h in horizontal_cylinders(o))
        ]
        assert len(stacked) == 12

    def test_weight_examples(self):
        assert weight_of(perm_from_cycles("(1,2,3,4)(5)")) == Fraction(5, 4)
        assert weight_of(perm_from_cycles("(1,2,3,5,4)")) == Fraction(1, 5)
        assert weight_of(Perm(tuple(range(7)))) == 7

    @pytest.mark.parametrize("d", range(1, 11))
    def test_weight_equals_sum_of_unit_fractions(self, d):
        for parts in partitions_desc(d):
            alpha = Perm(class_representative(parts))
            want = sum((Fraction(1, n) for n in parts), Fraction(0))
            assert weight_of(alpha) == want

    @given(st.integers(2, 7).flatmap(
        lambda d: st.tuples(
            st.permutations(list(range(d))).map(lambda w: Perm(tuple(w))),
            st.permutations(list(range(d))).map(lambda w: Perm(tuple(w))),
        )
    ))
    @settings(max_examples=60)
    def test_weight_conjugation_invariant(self, pair):
        p, tau = pair
        assert weight_of(conjugate(p, tau)) == weight_of(p)


class TestCanonicalKey:
    def test_invariant_under_conjugation(self):
        rng = random.Random(7)
        for sa, sb in [
            ("(1,2,3,4)(5)", "(1,5)(2)(3)(4)"),
            ("(1,2,3,5,4)", "(1,2)(3,4)(5)"),
            ("(1,2,4,3,5)", "(1,2,3)(4)(5)"),
        ]:
            a, b = perm_from_cycles(sa), perm_from_cycles(sb)
            key = canonical_key(a, b)
            taus = list(all_perms(5))
            for _ in range(100):
                tau = taus[rng.randrange(len(taus))]
                assert canonical_key(conjugate(a, tau), conjugate(b, tau)) == key

    def test_forty_reference_pairs_distinct(self):
        keys = {
            n: canonical_key(perm_from_cycles(sa), perm_from_cycles(sb))
            for n, (sa, sb) in DEGREE5_PAIRS.items()
        }
        assert len(set(keys.values())) == 40
        assert keys[1] != keys[2]

    def test_canonical_form_is_equivalent_pair(self):
        a = perm_from_cycles("(1,2,3,4)(5)")
        b = perm_from_cycles("(1,5)(2)(3)(4)")
        key = canonical_form(a.word, b.word)
        ca, cb = Perm(key[:5]), Perm(key[5:])
        # same class: key agrees and invariants agree
        assert canonical_key(ca, cb) == canonical_key(a, b)
        assert cycle_lengths(ca.word) == cycle_lengths(a.word)
        assert cycle_lengths(cb.word) == cycle_lengths(b.word)

    def test_degree_zero(self):
        # the empty pair is transitive, so it has a (trivial) class
        assert canonical_form(b"", b"") == b""
        assert canonical_key(Perm(()), Perm(())) == b""


# Every census of degree 5 to 7, on which canonical forms are checked
# against the full-scan reference.
REFERENCE_CENSUSES = [(d, mu) for d in (5, 6, 7) for mu in strata_at(d)]


def assert_matches_full_scan(a, b):
    """canonical_form agrees with the full scan on a transitive pair and
    raises on a disconnected one."""
    if words_transitive(a, b):
        assert canonical_form(a, b) == full_scan_canonical_form(a, b)
    else:
        with pytest.raises(DisconnectedCoverError):
            canonical_form(a, b)


def start_branch(a, b):
    """The tier of canonical_form's start rule that a pair takes."""
    squares = range(len(a))
    if any(a[x] == x for x in squares):
        return "fixed points"
    if any(a[a[x]] == x for x in squares):
        return "2-cycles"
    if any(b[x] in (x, a[x], a[a[x]]) for x in squares):
        return "beta-adjacent"
    return "every square"


class TestCanonicalFormReference:
    @pytest.mark.parametrize("d,mu", REFERENCE_CENSUSES)
    def test_members_and_twist_images_match_full_scan(self, d, mu, census_of):
        census = census_of(d, mu)
        assert census.n_classes > 0
        for o in census.values():
            for a, b in (
                (o.alpha, o.beta),
                (o.alpha, compose(o.alpha, o.beta)),
                (compose(o.beta, o.alpha), o.beta),
            ):
                want = full_scan_canonical_form(a.word, b.word)
                assert canonical_form(a.word, b.word) == want

    @pytest.mark.parametrize("d,mu", REFERENCE_CENSUSES)
    def test_random_relabelings_match_full_scan(self, d, mu, census_of):
        rng = random.Random(d * 100 + sum(mu))
        taus = list(all_perms(d))
        for o in list(census_of(d, mu).values())[::7]:
            form = canonical_form(o.alpha.word, o.beta.word)
            for _ in range(5):
                tau = taus[rng.randrange(len(taus))]
                a, b = conjugate(o.alpha, tau).word, conjugate(o.beta, tau).word
                assert canonical_form(a, b) == form
                assert full_scan_canonical_form(a, b) == form

    def test_every_pair_to_degree_5_matches_full_scan(self):
        # all of S_d x S_d: every cycle type of alpha, so each branch of
        # the start rule (fixed points, 2-cycles, beta-adjacent starts,
        # every square) is taken
        branches = set()
        for d in range(1, 6):
            words = list(permutations(range(d)))
            for a in words:
                for b in words:
                    branches.add(start_branch(a, b))
                    assert_matches_full_scan(a, b)
        assert branches == {
            "fixed points", "2-cycles", "beta-adjacent", "every square"
        }

    def test_random_pairs_match_full_scan(self):
        rng = random.Random(6)
        for d in range(1, 10):
            for _ in range(300):
                a = list(range(d))
                b = list(range(d))
                rng.shuffle(a)
                rng.shuffle(b)
                assert_matches_full_scan(tuple(a), tuple(b))


    def test_random_pairs_with_long_alpha_cycles_match_full_scan(self):
        # alpha has no fixed point and no 2-cycle, so the start rule
        # reads beta; half the betas keep alpha's first cycle, which
        # makes the pair disconnected when alpha has another cycle
        rng = random.Random(12)
        seen = set()
        for d in range(6, 13):
            for _ in range(200):
                letters = list(range(d))
                rng.shuffle(letters)
                a = [0] * d
                cycles, left = [], letters
                while left:
                    # a cycle of at least 3 letters, leaving 0 or 3 or more
                    short = len(left) < 6 or rng.random() < 0.2
                    n = len(left) if short else rng.randint(3, len(left) - 3)
                    cyc, left = left[:n], left[n:]
                    cycles.append(cyc)
                    for x, y in zip(cyc, cyc[1:] + cyc[:1]):
                        a[x] = y
                b = [0] * d
                blocks = (
                    [cycles[0], letters[len(cycles[0]):]]
                    if len(cycles) > 1 and rng.random() < 0.5 else [letters]
                )
                for block in blocks:
                    for x, y in zip(block, rng.sample(block, len(block))):
                        b[x] = y
                a, b = tuple(a), tuple(b)
                seen.add((start_branch(a, b), words_transitive(a, b)))
                assert_matches_full_scan(a, b)
        assert {branch for branch, _ in seen} == {
            "beta-adjacent", "every square"
        }
        assert ("beta-adjacent", False) in seen
        assert ("beta-adjacent", True) in seen


class TestKeyCodec:
    """A key is two words joined, alpha's then beta's, and its halves
    are the words again."""

    @pytest.mark.parametrize("d", [1, 5, 255])
    def test_decode_inverts_encode(self, d):
        rng = random.Random(d)
        a, b = list(range(d)), list(range(d))
        rng.shuffle(a)
        rng.shuffle(b)
        a, b = Perm(a).word, Perm(b).word
        key = a + b
        assert len(key) == 2 * d
        assert (key[:d], key[d:]) == (a, b)

    @pytest.mark.parametrize("d", [255])
    def test_key_order_is_word_order(self, d):
        # census members are sorted by key, so the byte order of keys
        # must be the order of their word pairs
        rng = random.Random(d)
        pairs = []
        for _ in range(20):
            a, b = list(range(d)), list(range(d))
            rng.shuffle(a)
            rng.shuffle(b)
            pairs.append((tuple(a), tuple(b)))
        by_key = sorted(pairs, key=lambda p: Perm(p[0]).word + Perm(p[1]).word)
        assert by_key == sorted(pairs)

    def test_key_of_every_member_decodes_to_its_pair(self, census_of):
        census = census_of(6, (2, 2))
        for key, o in census.items():
            assert (key[:6], key[6:]) == (o.alpha.word, o.beta.word)
            assert canonical_key(o.alpha, o.beta) == key


class TestRecords:
    def test_round_trip(self, census_of):
        for key, o in census_of(5, (4,)).items():
            text = json.dumps({"key": key.hex()})
            back = from_record(json.loads(text), 5)
            assert back.alpha == o.alpha and back.beta == o.beta

    def test_record_shape(self, census_of, tmp_path):
        # save_census writes each member as its key in hex.  The
        # reference words_record renders schema 1's record, which the
        # golden census digests hash.
        o = origami("(1,2,3,4)(5)", "(1,5)(2)(3)(4)")
        key = canonical_key(o.alpha, o.beta)
        assert key.hex() == "00020304010100020304"
        path = tmp_path / "c.jsonl"
        save_census(census_of(5, (2,)), path)
        records = path.read_text().splitlines()[1:-1]
        assert records == [
            f'{{"key":"{k.hex()}"}}' for k in census_of(5, (2,))
        ]
        assert '{"key":"00020304010100020304"}' in records
        rec = words_record(o.alpha.word, o.beta.word)
        assert rec == {
            "degree": 5,
            "alpha": [[1, 2, 3, 4], [5]],
            "beta": [[1, 5], [2], [3], [4]],
        }

    # Keys of degree 3 next to the valid "010002010200": one byte
    # short, a repeated letter, a letter equal to the degree, one byte
    # long, a letter that is not hex, an odd number of hex digits.
    @pytest.mark.parametrize(
        "bad",
        [
            {"key": "0100020102"},
            {"key": "010102010200"},
            {"key": "010003010200"},
            {"key": "01000201020000"},
            {"key": "01000g010200"},
            {"key": "01000201020"},
        ],
    )
    def test_bad_records_rejected(self, bad):
        assert from_record({"key": "010002010200"}, 3).degree == 3
        with pytest.raises(ValueError):
            from_record(bad, 3)
