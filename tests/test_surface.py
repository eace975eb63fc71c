import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from origami_census import census as census_mod
from origami_census.census import partitions_desc
from origami_census.perm import (
    CycleType,
    Perm,
    class_representative,
    compose,
    conjugate,
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
    decode_pair,
    encode_pair,
    from_record,
    horizontal_cylinders,
    make_origami,
    stratum_of,
    weight_of,
    words_record,
)
from conftest import DEGREE5_PAIRS, all_perms, origami, strata_at
from reference_kernels import full_scan_canonical_form


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


class TestMakeOrigami:
    def test_genus2_octagon_cover(self):
        o = origami("(1,2,3,4)(5)", "(1,5)(2)(3)(4)")
        assert o.stratum.mu == (2,)
        assert o.genus == 2
        assert o.commutator_type.parts == (3, 1, 1)

    def test_disconnected(self):
        with pytest.raises(DisconnectedCoverError):
            origami("(1,2)(3)(4)", "(3,4)(1)(2)")

    def test_trivial_stratum(self):
        with pytest.raises(TrivialStratumError):
            make_origami(Perm.identity(1), Perm.identity(1))


class TestGenus:
    def test_examples(self):
        assert stratum_of(CycleType(5, (3, 1, 1))).genus == 2
        assert stratum_of(CycleType(5, (5,))).genus == 3
        with pytest.raises(TrivialStratumError):
            stratum_of(CycleType(4, (1, 1, 1, 1)))

    def test_matches_stratum_sum(self, census_of):
        for o in census_of(5, (4,)):
            assert stratum_of(o.commutator_type).genus == (
                sum(o.stratum.mu) // 2 + 1
            )

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
        for o in census_of(d, mu):
            cyls = horizontal_cylinders(o)
            assert sum(w * h for w, h in cyls) == d
            assert sum(Fraction(h, w) for w, h in cyls) == o.weight

    def test_classes_with_stacked_strips(self, census_of):
        stacked = [
            o for o in census_of(6, (2,))
            if any(h > 1 for _, h in horizontal_cylinders(o))
        ]
        assert len(stacked) == 12

    def test_weight_examples(self):
        assert weight_of(perm_from_cycles("(1,2,3,4)(5)")) == Fraction(5, 4)
        assert weight_of(perm_from_cycles("(1,2,3,5,4)")) == Fraction(1, 5)
        assert weight_of(Perm.identity(7)) == 7

    @pytest.mark.parametrize("d", range(1, 11))
    def test_weight_equals_sum_of_unit_fractions(self, d):
        for parts in partitions_desc(d):
            alpha = class_representative(CycleType(d, parts))
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
        ca, cb = map(Perm, canonical_form(a.word, b.word))
        # same class: key agrees and invariants agree
        assert canonical_key(ca, cb) == canonical_key(a, b)
        assert ca.cycle_type() == a.cycle_type()
        assert cb.cycle_type() == b.cycle_type()

    def test_degree_zero(self):
        # the empty pair is transitive, so it has a (trivial) class
        assert canonical_form((), ()) == ((), ())
        assert canonical_key(Perm(()), Perm(())) == b""


# Every census of degree 5 to 7, on which canonical forms are checked
# against the full-scan reference.
REFERENCE_CENSUSES = [(d, mu) for d in (5, 6, 7) for mu in strata_at(d)]


class TestCanonicalFormReference:
    @pytest.mark.parametrize("d,mu", REFERENCE_CENSUSES)
    def test_members_and_twist_images_match_full_scan(self, d, mu, census_of):
        census = census_of(d, mu)
        assert census.n_classes > 0
        for o in census:
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
        for o in list(census_of(d, mu))[::7]:
            form = canonical_form(o.alpha.word, o.beta.word)
            for _ in range(5):
                tau = taus[rng.randrange(len(taus))]
                a, b = conjugate(o.alpha, tau).word, conjugate(o.beta, tau).word
                assert canonical_form(a, b) == form
                assert full_scan_canonical_form(a, b) == form

    def test_random_pairs_match_full_scan(self):
        rng = random.Random(6)
        for d in range(1, 10):
            for _ in range(300):
                a = list(range(d))
                b = list(range(d))
                rng.shuffle(a)
                rng.shuffle(b)
                a, b = tuple(a), tuple(b)
                if words_transitive(a, b):
                    assert canonical_form(a, b) == full_scan_canonical_form(a, b)
                else:
                    with pytest.raises(DisconnectedCoverError):
                        canonical_form(a, b)


class TestKeyCodec:
    @pytest.mark.parametrize("d", [1, 5, 255, 256, 300])
    def test_decode_inverts_encode(self, d):
        rng = random.Random(d)
        a, b = list(range(d)), list(range(d))
        rng.shuffle(a)
        rng.shuffle(b)
        a, b = tuple(a), tuple(b)
        key = encode_pair(a, b)
        assert len(key) == (2 * d if d < 256 else 8 * d)
        assert decode_pair(key, d) == (a, b)

    def test_key_of_every_member_decodes_to_its_pair(self, census_of):
        census = census_of(6, (2, 2))
        for key, o in census.members.items():
            assert decode_pair(key, 6) == (o.alpha.word, o.beta.word)
            assert canonical_key(o.alpha, o.beta) == key


class TestRecords:
    def test_round_trip(self, census_of):
        for o in census_of(5, (4,)):
            rec = words_record(o.alpha.word, o.beta.word)
            text = json.dumps(rec)
            back = from_record(json.loads(text))
            assert back.alpha == o.alpha and back.beta == o.beta

    def test_record_shape(self):
        o = origami("(1,2,3,4)(5)", "(1,5)(2)(3)(4)")
        rec = words_record(o.alpha.word, o.beta.word)
        assert rec == {
            "degree": 5,
            "alpha": [[1, 2, 3, 4], [5]],
            "beta": [[1, 5], [2], [3], [4]],
        }

    @pytest.mark.parametrize(
        "bad",
        [
            {"degree": 3, "alpha": [[1, 2]], "beta": [[1, 2, 3]]},
            {"degree": 3, "alpha": [[1, 2, 2]], "beta": [[1, 2, 3]]},
            {"degree": 3, "alpha": [[1, 2, 4]], "beta": [[1, 2, 3]]},
        ],
    )
    def test_bad_records_rejected(self, bad):
        with pytest.raises(ValueError):
            from_record(bad)
