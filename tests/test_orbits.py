import random
import tracemalloc
from array import array
from fractions import Fraction
from itertools import permutations

import pytest

from origami_census import orbits
from origami_census.census import Census, InvariantError, enumerate_census
from origami_census.involutions import find_anti_involutions
from origami_census.orbits import (
    act_h_alpha,
    act_h_alpha_inverse,
    act_h_beta,
    act_h_beta_inverse,
    component_slope,
    cusp_data,
    decompose,
    twist_words,
)
from origami_census.perm import (
    Perm,
    commutator_bytes,
    compose,
    cycle_lengths,
    inverse_word,
    perm_from_cycles,
)
from origami_census.surface import (
    StratumSignature,
    canonical_key,
    make_origami,
)
from conftest import (
    DEGREE5_ORBIT_FACTS,
    DEGREE5_ORBITS,
    DEGREE5_PAIRS,
    all_perms,
    origami,
    strata_at,
)
from reference_kernels import commutator, commutator_word, conjugate


class TestTwists:
    def test_horizontal_twist_keeps_commutator(self):
        o = origami("(1,2,3,4)(5)", "(1,5)(2)(3)(4)")
        image = act_h_alpha(o)
        assert image.alpha == o.alpha
        assert cycle_lengths(
            commutator_bytes(image.words[:5], image.words[5:])
        ) == (3, 1, 1)
        # beta becomes alpha*beta under the fixed composition convention
        assert image.beta == perm_from_cycles("(1,5,2,3,4)")

    def test_twists_invert(self):
        o = origami("(1,2,3,5,4)", "(1,2)(3,4)(5)")
        key = canonical_key(o.alpha, o.beta)
        for act, inv in [
            (act_h_alpha, act_h_alpha_inverse),
            (act_h_beta, act_h_beta_inverse),
        ]:
            image = inv(act(o))
            assert canonical_key(image.alpha, image.beta) == key

    def test_action_commutes_with_conjugation(self):
        rng = random.Random(11)
        taus = list(all_perms(5))
        o = origami("(1,2,3,4)(5)", "(1,5)(2)(3)(4)")
        for act in (act_h_alpha, act_h_beta):
            image = act(o)
            image_key = canonical_key(image.alpha, image.beta)
            for _ in range(100):
                tau = taus[rng.randrange(len(taus))]
                other = make_origami(
                    conjugate(o.alpha, tau), conjugate(o.beta, tau)
                )
                img = act(other)
                assert canonical_key(img.alpha, img.beta) == image_key


class TestTwistWords:
    @pytest.mark.parametrize(
        "d,mu", [(d, mu) for d in (5, 6, 7) for mu in strata_at(d)]
    )
    def test_images_keep_the_commutator_word(self, d, mu, census_of):
        census = census_of(d, mu)
        assert census.n_classes > 0
        for o in census.values():
            aw, bw = o.alpha.word, o.beta.word
            images = twist_words(aw, bw)
            assert images == (
                (aw, compose(o.alpha, o.beta).word),
                (compose(o.beta, o.alpha).word, bw),
            )
            for ta, tb in images:
                assert commutator_word(ta, tb) == commutator_word(aw, bw)


# Letter i is byte i; LETTERS[d:] pads a degree-d word to a translate
# table, and LETTERS[:d] is the identity word.
LETTERS = bytes(range(256))


def random_word(rng, d):
    word = list(range(d))
    rng.shuffle(word)
    return bytes(word)


def list_form_keeps(ta, tb, gw):
    """The twist check on index lists: tb ta == ta tb gw."""
    return [tb[x] for x in ta] == [ta[tb[y]] for y in gw]


class TestByteWords:
    """The translate kernels of ``decompose`` against ``compose`` and the
    loop-built commutator."""

    DEGREES = list(range(1, 13)) + [255]

    @pytest.mark.parametrize("d", DEGREES)
    def test_kernels_match_tuple_definitions(self, d):
        rng = random.Random(d)
        pad, identity = LETTERS[d:], LETTERS[:d]
        for _ in range(40):
            aw, bw = random_word(rng, d), random_word(rng, d)
            alpha, beta = Perm(aw), Perm(bw)
            # alpha o beta, beta applied first
            assert bw.translate(aw + pad) == compose(alpha, beta).word
            # maketrans(aw, identity) is alpha's inverse as a whole table
            inverse = bytes.maketrans(aw, identity)
            assert inverse == inverse_word(aw) + pad
            assert aw.translate(inverse) == identity
            assert commutator_bytes(aw, bw) == commutator_word(aw, bw)
            assert twist_words(aw, bw) == (
                (aw, compose(alpha, beta).word),
                (compose(beta, alpha).word, bw),
            )

    @pytest.mark.parametrize("d", DEGREES)
    def test_byte_twist_check_accepts_what_the_list_check_accepts(self, d):
        rng = random.Random(100 + d)
        verdicts = set()
        for _ in range(40):
            aw, bw = random_word(rng, d), random_word(rng, d)
            gw = commutator_word(aw, bw)
            for ta, tb in twist_words(aw, bw):
                candidates = [(ta, tb), (tb, ta), (ta, random_word(rng, d))]
                if d > 1:  # follow tb with a transposition
                    x, y = rng.sample(range(d), 2)
                    swapped = bytearray(tb)
                    swapped[x], swapped[y] = tb[y], tb[x]
                    candidates.append((ta, bytes(swapped)))
                for pair in candidates:
                    want = list_form_keeps(*pair, gw)
                    assert orbits._keeps_commutator(*pair, gw) == want
                    verdicts.add(want)
        # S_1 and S_2 are abelian: every pair keeps the identity.
        assert verdicts == ({True} if d <= 2 else {True, False})

    def test_degree_over_255_is_rejected(self):
        # decompose never sees a degree over 255: neither a member nor
        # a census of that degree can be built.  The n-cycle with one
        # transposition of neighbours would lie in H(2).
        d = 256
        alpha = tuple(range(1, d)) + (0,)
        beta = (1, 0) + tuple(range(2, d))
        with pytest.raises(ValueError, match="over 255"):
            make_origami(Perm(alpha), Perm(beta))
        with pytest.raises(ValueError, match="over 255"):
            Census(d, StratumSignature((2,)), [bytes(alpha + beta)])


class TestDegree5Decomposition:
    def test_four_components_with_reference_membership(self, census_of):
        census = census_of(5, (4,))
        comps = decompose(census)
        assert len(comps) == 4
        assert sorted(c.n_classes for c in comps) == [3, 10, 12, 15]

        key_to_cid = {}
        for c in comps:
            for k in c.member_keys:
                key_to_cid[k] = c.component_id
        partition: dict[int, set[int]] = {}
        for n, (sa, sb) in DEGREE5_PAIRS.items():
            k = canonical_key(perm_from_cycles(sa), perm_from_cycles(sb))
            partition.setdefault(key_to_cid[k], set()).add(n)
        assert sorted(map(frozenset, partition.values()), key=sorted) == sorted(
            DEGREE5_ORBITS, key=sorted
        )

    def test_reference_slopes_and_flags(self, census_of):
        comps = decompose(census_of(5, (4,)))
        by_members = {}
        for c in comps:
            match = next(
                i
                for i, orbit in enumerate(DEGREE5_ORBITS)
                if len(orbit) == c.n_classes
            )
            by_members[match] = c
        for idx, (slope_str, hyp) in DEGREE5_ORBIT_FACTS.items():
            c = by_members[idx]
            num, _, den = slope_str.partition("/")
            assert c.slope == Fraction(int(num), int(den or 1))
            assert c.hyperelliptic == hyp


class TestSlopeFormula:
    def test_component_one_by_hand(self):
        # weights 2 + 2 + 1/5 over three classes, kappa = 2/5
        stratum = StratumSignature((4,))
        assert stratum.kappa == Fraction(2, 5)
        slope = component_slope(3, Fraction(21, 5), stratum)
        assert slope == Fraction(28, 3)

    def test_monotone_toward_twelve(self):
        stratum = StratumSignature((4,))
        prev = Fraction(0)
        for m in range(1, 40):
            s = component_slope(1, Fraction(m), stratum)
            assert prev < s < 12
            prev = s

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            component_slope(1, Fraction(0), StratumSignature((4,)))


def brute_force_orbit_count(degree: int, mu: tuple[int, ...]) -> int:
    """Independent count: orbits of raw pairs under twists and relabeling."""
    stratum = StratumSignature(mu)
    from origami_census.census import target_class

    target = target_class(degree, stratum)
    words = [Perm(w) for w in permutations(range(degree))]
    valid = set()
    from origami_census.perm import words_transitive

    for a in words:
        for b in words:
            if cycle_lengths(commutator(a, b).word) == target and words_transitive(
                a.word, b.word
            ):
                valid.add((a.word, b.word))
    seen = set()
    orbits = 0
    from origami_census.perm import compose

    for pair in valid:
        if pair in seen:
            continue
        orbits += 1
        frontier = [pair]
        seen.add(pair)
        while frontier:
            aw, bw = frontier.pop()
            a, b = Perm(aw), Perm(bw)
            nbrs = [
                (a, compose(a, b)),
                (compose(b, a), b),
                (a, compose(a.inverse(), b)),
                (compose(b.inverse(), a), b),
            ]
            nbrs += [
                (conjugate(a, t), conjugate(b, t)) for t in words
            ]
            for na, nb in nbrs:
                np_ = (na.word, nb.word)
                if np_ not in seen:
                    seen.add(np_)
                    frontier.append(np_)
    return orbits


class TestAgainstRawPairOrbits:
    @pytest.mark.parametrize("d,mu", [(3, (2,)), (4, (2,)), (4, (1, 1))])
    def test_component_count_matches(self, d, mu, census_of):
        census = census_of(d, mu)
        assert len(decompose(census)) == brute_force_orbit_count(d, mu)


class TestHyperellipticSlopes:
    @pytest.mark.parametrize("mu", [(2,), (1, 1)])
    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_genus2_everything_hyperelliptic(self, d, mu, census_of):
        census = census_of(d, mu)
        for comp in decompose(census) if census.n_classes else []:
            assert comp.hyperelliptic
            assert comp.slope == 10

    def test_genus3_two_zero_components(self, census_of):
        # the two-equal-zeros stratum at degree 6 splits into orbits
        # that are either hyperelliptic with slope exactly 28/3 or odd
        comps = decompose(census_of(6, (2, 2)))
        assert len(comps) == 10
        for comp in comps:
            if comp.hyperelliptic:
                assert comp.slope == Fraction(28, 3)
                assert comp.parity == 0
            else:
                assert comp.parity == 1

    @pytest.mark.parametrize("d", [5, 6, 7])
    def test_single_zero_genus3_flagged_slopes(self, d, census_of):
        for comp in decompose(census_of(d, (4,))):
            if comp.hyperelliptic:
                assert comp.slope == Fraction(28, 3)
                assert comp.parity == 0
            else:
                assert comp.parity == 1

    def test_degree7_genus3_orbit_count(self, census_of):
        # regression baselines for the first degree past the ground truth
        comps = decompose(census_of(7, (4,)))
        assert census_of(7, (4,)).n_classes == 775
        assert sorted(c.n_classes for c in comps) == [30, 40, 105, 120, 120, 360]


# Censuses of degree 5 to 7 on which orbits and cusps are checked
# against the inverse twists and a direct horizontal-twist walk.
ORBIT_CHECK_CENSUSES = [
    (5, (4,)), (5, (2,)), (6, (2, 2)), (6, (3, 1)), (7, (4,)), (7, (1, 1)),
]


def direct_cusp_walk(component_keys, census):
    """Cusps by twisting and relabeling each member again."""
    remaining = set(component_keys)
    cusps = []
    for key in sorted(component_keys):
        if key not in remaining:
            continue
        size = 0
        alpha_parts = cycle_lengths(census[key].alpha.word)
        cur, cur_key = census[key], key
        while cur_key in remaining:
            remaining.remove(cur_key)
            size += 1
            cur = act_h_alpha(cur)
            cur_key = canonical_key(cur.alpha, cur.beta)
        cusps.append((size, alpha_parts))
    return tuple(cusps)


class TestCusps:
    def test_component_one_cusp_count(self, census_of):
        # regression baseline: twist orbits {(2),(10)} and {(13)} split
        # the size-3 component into 2 cusps
        comps = decompose(census_of(5, (4,)))
        smallest = min(comps, key=lambda c: c.n_classes)
        assert smallest.n_classes == 3
        assert smallest.cusp_count == 2
        assert sorted(size for size, _ in smallest.cusps) == [1, 2]

    def test_cusps_partition_component(self, census_of):
        census = census_of(5, (4,))
        for c in decompose(census):
            assert sum(size for size, _ in c.cusps) == c.n_classes

    def test_single_cusp_component(self):
        # degree 3: every component of the genus-2 census is one twist
        # orbit per alpha class or larger; verify partition property
        census = enumerate_census(3, StratumSignature((2,)))
        for c in decompose(census):
            assert sum(size for size, _ in c.cusps) == c.n_classes
            assert c.cusps == direct_cusp_walk(c.member_keys, census)

    @pytest.mark.parametrize("d,mu", ORBIT_CHECK_CENSUSES)
    def test_cusps_match_direct_twist_walk(self, d, mu, census_of):
        census = census_of(d, mu)
        for c in decompose(census):
            assert c.cusps == direct_cusp_walk(c.member_keys, census)


class TestForwardClosure:
    @pytest.mark.parametrize("d,mu", ORBIT_CHECK_CENSUSES)
    def test_partition_reproduces_census(self, d, mu, census_of):
        census = census_of(d, mu)
        comps = decompose(census)
        keys = sorted(k for c in comps for k in c.member_keys)
        assert keys == list(census)
        assert sum((c.total_weight for c in comps), Fraction(0)) == census.total_weight

    @pytest.mark.parametrize("d,mu", ORBIT_CHECK_CENSUSES)
    def test_inverse_twists_stay_in_component(self, d, mu, census_of):
        census = census_of(d, mu)
        for c in decompose(census):
            keys = set(c.member_keys)
            for k in c.member_keys:
                o = census[k]
                for inv in (act_h_alpha_inverse, act_h_beta_inverse):
                    image = inv(o)
                    assert canonical_key(image.alpha, image.beta) in keys


class TestSharedKeys:
    """decompose indexes the census's own keys instead of copying them."""

    @pytest.mark.parametrize("d,mu", ORBIT_CHECK_CENSUSES)
    def test_member_keys_are_the_census_key_objects(self, d, mu, census_of):
        census = census_of(d, mu)
        own = {id(k) for k in census}
        for c in decompose(census):
            assert all(id(k) in own for k in c.member_keys)

    def test_peak_memory_per_member(self, census_of):
        census = census_of(7, (4,))
        tracemalloc.start()
        try:
            comps = decompose(census)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(c.n_classes for c in comps) == 775
        # 190 bytes per member when each orbit kept lists of image keys
        assert peak / len(census) < 100


class TestLabelCalls:
    def test_each_member_labelled_once(self, monkeypatch, census_of):
        # The benchmark's per-layer counts (spin.spin_parity_calls and
        # involutions.is_hyperelliptic_calls) read one call per member.
        calls = {}

        def counted(name):
            real = getattr(orbits, name)

            def wrapper(o):
                calls[name] = calls.get(name, 0) + 1
                return real(o)

            monkeypatch.setattr(orbits, name, wrapper)

        counted("spin_parity")
        counted("is_hyperelliptic")
        even = census_of(6, (4,))
        decompose(even)
        n = even.n_classes
        assert calls == {"spin_parity": n, "is_hyperelliptic": n}
        calls.clear()
        odd = census_of(6, (3, 1))
        decompose(odd)
        assert calls == {"is_hyperelliptic": odd.n_classes}


class TestDecomposeBuildsNoPerm:
    def test_odd_stratum(self, census_of, perm_builds):
        # On H(3,1) is_hyperelliptic returns before it reads a word and
        # spin_parity is not called, so the members' own words are all
        # decompose reads: 256 Perms were built here, two per member,
        # when a member held Perms.
        census = census_of(6, (3, 1))
        perm_builds.clear()
        assert len(decompose(census)) > 0
        assert perm_builds == []

    def test_even_hyperelliptic_stratum(self, census_of, perm_builds):
        # On H(4) both labels run on every member: the involution search
        # reports each tau as a word, and the spin helpers take the
        # member's words.  85 Perms were built here, one per reported
        # tau, when a report held a Perm.
        census = census_of(6, (4,))
        perm_builds.clear()
        components = decompose(census)
        assert any(c.hyperelliptic for c in components)
        assert {c.parity for c in components} == {0, 1}
        assert perm_builds == []
        reports = [r for o in census.values() for r in find_anti_involutions(o)]
        assert reports and all(type(r.tau) is bytes for r in reports)
        assert perm_builds == []


def redirect_images(monkeypatch, redirect):
    """Make decompose take redirect(raw pair, key) as each image's key."""
    real = orbits.canonical_form

    def redirected(aw, bw):
        return redirect((aw, bw), real(aw, bw))

    monkeypatch.setattr(orbits, "canonical_form", redirected)


class TestInvariantErrors:
    def test_flag_not_orbit_constant_names_the_key(
        self, monkeypatch, census_of
    ):
        census = census_of(5, (4,))
        orbit = decompose(census)[-1].member_keys
        bad_key = orbit[len(orbit) // 2]
        real = orbits.is_hyperelliptic

        def flipped(o):
            flag = real(o)
            key = canonical_key(o.alpha, o.beta)
            return not flag if key == bad_key else flag

        monkeypatch.setattr(orbits, "is_hyperelliptic", flipped)
        with pytest.raises(InvariantError, match=bad_key.hex()) as err:
            decompose(census)
        assert "hyperelliptic" in str(err.value)
        assert isinstance(err.value, RuntimeError)

    def test_parity_not_orbit_constant_names_the_key(
        self, monkeypatch, census_of
    ):
        census = census_of(6, (4,))
        orbit = decompose(census)[-1].member_keys
        bad_key = orbit[len(orbit) // 2]
        real = orbits.spin_parity

        def flipped(o):
            parity = real(o)
            key = canonical_key(o.alpha, o.beta)
            return 1 - parity if key == bad_key else parity

        monkeypatch.setattr(orbits, "spin_parity", flipped)
        with pytest.raises(InvariantError, match=bad_key.hex()) as err:
            decompose(census)
        assert "spin parity" in str(err.value)

    @pytest.mark.parametrize("image,twist", [(0, "horizontal"), (1, "vertical")])
    def test_twist_changing_the_commutator_word_names_the_member(
        self, monkeypatch, census_of, image, twist
    ):
        census = census_of(5, (4,))
        real = orbits.twist_words

        def swap_01(word):
            # follow the word with the transposition of letters 0 and 1
            return bytes(1 - y if y < 2 else y for y in word)

        def bend(images):
            ta, tb = images[image]
            bent = (ta, swap_01(tb)) if image == 0 else (swap_01(ta), tb)
            return images[:image] + (bent,) + images[image + 1:]

        def bending_shows(o):
            aw, bw = o.alpha.word, o.beta.word
            bent = bend(real(aw, bw))[image]
            return commutator_word(*bent) != commutator_word(aw, bw)

        bad_key = next(
            k for k in list(census)[len(census) // 2:]
            if bending_shows(census[k])
        )
        bad = census[bad_key]

        def bent(aw, bw):
            images = real(aw, bw)
            if (aw, bw) == (bad.alpha.word, bad.beta.word):
                return bend(images)
            return images

        monkeypatch.setattr(orbits, "twist_words", bent)
        with pytest.raises(InvariantError, match=bad_key.hex()) as err:
            decompose(census)
        assert f"{twist} twist" in str(err.value)
        assert "commutator word" in str(err.value)

    def test_twist_image_outside_the_census_names_the_key(self, census_of):
        census = census_of(5, (4,))
        orbit = next(
            c.member_keys for c in decompose(census) if c.n_classes == 15
        )
        dropped = orbit[len(orbit) // 2]
        holed = Census(
            5, census.stratum, [k for k in census if k != dropped]
        )
        with pytest.raises(InvariantError, match=dropped.hex()) as err:
            decompose(holed)
        assert "not in the census" in str(err.value)

    def test_cusp_changing_alpha_type_names_the_keys(self, census_of):
        census = census_of(5, (4,))
        keys = list(census)
        first = keys[0]
        parts = cycle_lengths(census[first].alpha.word)
        i = next(
            i for i, k in enumerate(keys)
            if cycle_lengths(census[k].alpha.word) != parts
        )
        other = keys[i]
        bad_next = array("i", range(len(keys)))
        bad_next[0], bad_next[i] = i, 0
        with pytest.raises(InvariantError, match=other.hex()) as err:
            cusp_data([0, i], keys, bad_next)
        assert first.hex() in str(err.value)

    def test_image_into_an_earlier_orbit_names_the_keys(
        self, monkeypatch, census_of
    ):
        # Unchecked, the last orbit splits: sizes [3, 15, 12, 9, 1].
        census = census_of(5, (4,))
        comps = decompose(census)
        src, dst = comps[-1].member_keys[-1], comps[0].member_keys[0]
        redirect_images(
            monkeypatch, lambda raw, key: dst if key == src else key
        )
        with pytest.raises(InvariantError, match=dst.hex()) as err:
            decompose(census)
        assert "twist of" in str(err.value)
        assert "the image of an earlier member" in str(err.value)

    def test_image_into_a_later_orbit_names_the_orbit(
        self, monkeypatch, census_of
    ):
        # Unchecked, the first orbit swallows a later one.  The target
        # keeps alpha's cycle type, so the cusps do not catch it.
        census = census_of(5, (4,))
        comps = decompose(census)
        src = comps[0].member_keys[-1]
        parts = cycle_lengths(census[src].alpha.word)
        dst = next(
            k for c in comps[1:] for k in c.member_keys
            if cycle_lengths(census[k].alpha.word) == parts
        )
        redirect_images(
            monkeypatch, lambda raw, key: dst if key == src else key
        )
        with pytest.raises(InvariantError, match=dst.hex()) as err:
            decompose(census)
        assert "twist of" in str(err.value)
        assert "the image of an earlier member" in str(err.value)

    def test_horizontal_image_not_injective_names_the_missed_key(
        self, monkeypatch, census_of
    ):
        # Unchecked, the orbit is right but its cusps are wrong: x's
        # horizontal image is replaced by y's, and alpha's type is kept.
        census = census_of(5, (4,))
        orbit = decompose(census)[-1].member_keys
        x = orbit[0]
        parts = cycle_lengths(census[x].alpha.word)
        y = next(
            k for k in orbit[1:]
            if cycle_lengths(census[k].alpha.word) == parts
        )

        def h_image(key):
            o = act_h_alpha(census[key])
            return canonical_key(o.alpha, o.beta)

        y_image = h_image(y)
        x_raw = twist_words(census[x].alpha.word, census[x].beta.word)[0]
        redirect_images(
            monkeypatch, lambda raw, key: y_image if raw == x_raw else key
        )
        with pytest.raises(InvariantError, match=y_image.hex()) as err:
            decompose(census)
        assert "horizontal twist of" in str(err.value)
        assert "the image of an earlier member" in str(err.value)
        # x comes first in key order, so y is the member named.
        assert f"twist of {y.hex()}" in str(err.value)
