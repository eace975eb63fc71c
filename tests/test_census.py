import gc
import hashlib
import json
import math
import random
import tracemalloc
from collections.abc import Mapping
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from origami_census import census as census_mod
from origami_census.census import (
    Census,
    CensusCorruptError,
    CensusFileError,
    CensusSchemaError,
    CensusVersionError,
    ResourceBudgetError,
    enumerate_census,
    load_census,
    partitions_desc,
    save_census,
    target_class,
)
from origami_census.perm import (
    Perm,
    class_representative,
    class_size,
    class_words,
    commutator_bytes,
    conjugators_onto,
    cycle_lengths,
    cycle_rotations,
    inverse_word,
)
from origami_census.surface import Origami, StratumSignature, make_origami
from conftest import all_perms, strata_at
from reference_kernels import (
    brute_force_censuses,
    schema1_file,
    seen_sweep_enumerate_alpha_class,
    words_record,
)


class TestTargetClass:
    def test_padding(self):
        t = target_class(5, StratumSignature((4,)))
        assert t == (5,)
        t = target_class(6, StratumSignature((2,)))
        assert t == (3, 1, 1, 1)

    def test_too_small(self):
        assert target_class(2, StratumSignature((2,))) is None
        assert target_class(5, StratumSignature((2, 2))) is None


class TestPartitions:
    def test_descending_lex_order(self):
        got = list(partitions_desc(5))
        assert got == [
            (5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1),
            (1, 1, 1, 1, 1),
        ]


class TestEnumerate:
    def test_degree5_single4_has_forty_classes(self, census_of):
        census = census_of(5, (4,))
        assert census.n_classes == 40
        assert census.total_weight == Fraction(258, 5)

    def test_empty_census_is_not_an_error(self):
        census = enumerate_census(2, StratumSignature((2,)))
        assert census.n_classes == 0
        assert census.total_weight == 0

    def test_commutator_class_exhaustively_checked(self, census_of):
        target = target_class(5, StratumSignature((4,)))
        for o in census_of(5, (4,)).values():
            assert cycle_lengths(
                commutator_bytes(o.words[:5], o.words[5:])
            ) == target

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_genus2_ratio_identity(self, d, census_of):
        census = census_of(d, (2,))
        assert census.total_weight / census.n_classes == Fraction(10, 9)

    def test_target_class_built_once_per_census(self, monkeypatch):
        built = []
        real = census_mod.class_words

        def counted(parts, degree):
            built.append(tuple(parts))
            return real(parts, degree)

        monkeypatch.setattr(census_mod, "class_words", counted)
        for _ in range(2):
            built.clear()
            enumerate_census(6, StratumSignature((2,)))
            # Alpha class (3,1,1,1) ties with the target class, so it
            # walks the target class too and draws no words of its own.
            assert built.count((3, 1, 1, 1)) == 1
            assert census_mod._class_bytes.cache_info().currsize == 0

    def test_enumeration_builds_no_perm(self, perm_builds):
        # The enumeration runs on words from the class representative
        # on: a Perm is built, and checked, only at the API boundary.
        for d, mu in [(7, (4,)), (6, (3, 1))]:
            assert enumerate_census(d, StratumSignature(mu)).n_classes
        assert perm_builds == []

    def test_budget_exceeded(self):
        with pytest.raises(ResourceBudgetError):
            enumerate_census(5, StratumSignature((4,)), budget=10)

    def test_degree_over_255_is_refused_before_any_work(self, monkeypatch):
        # A word holds one byte per letter, so target_class refuses a
        # degree from 256 on.  At 255 the profile is too large for the
        # degree, so that census is empty.
        calls = []
        monkeypatch.setattr(
            census_mod, "_enumerate_alpha_class",
            lambda *args: calls.append(args) or [],
        )
        monkeypatch.setattr(
            census_mod, "partitions_desc", lambda n: calls.append(n) or ()
        )
        huge = StratumSignature((256,))
        assert enumerate_census(255, huge).n_classes == 0
        for d, mu in ((256, huge), (300, StratumSignature((2,)))):
            with pytest.raises(
                ValueError,
                match=f"^degree {d} is over 255: words hold one byte per "
                "letter$",
            ):
                enumerate_census(d, mu)
        assert calls == []

    @pytest.mark.parametrize("d", [256, 300])
    def test_census_of_degree_over_255_is_refused(self, d):
        stratum = StratumSignature((2,))
        for build in (
            lambda: target_class(d, stratum),
            lambda: Census(d, stratum, ()),
        ):
            with pytest.raises(ValueError, match=f"^degree {d} is over 255: "):
                build()

    def test_serial_budget_stops_during_the_sweep(self, monkeypatch):
        calls = []
        real = census_mod._enumerate_alpha_class

        def counting(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(census_mod, "_enumerate_alpha_class", counting)
        with pytest.raises(ResourceBudgetError):
            enumerate_census(5, StratumSignature((4,)), budget=1)
        assert 0 < len(calls) < len(list(partitions_desc(5)))

    def test_workers_clamped_and_pending_classes_cancelled(
        self, monkeypatch
    ):
        pools = []

        class SerialPool:
            """Maps lazily in this process; records how it was used."""

            def __init__(self, max_workers):
                self.max_workers = max_workers
                self.mapped = 0
                self.cancel_futures = None
                pools.append(self)

            def map(self, fn, *iterables):
                for args in zip(*iterables):
                    self.mapped += 1
                    yield fn(*args)

            def shutdown(self, wait=True, cancel_futures=False):
                self.cancel_futures = cancel_futures

        # enumerate_census imports the pool only when it uses one.
        monkeypatch.setattr(
            "concurrent.futures.ProcessPoolExecutor", SerialPool
        )
        monkeypatch.setattr(census_mod.os, "cpu_count", lambda: 4)
        n_alpha = len(list(partitions_desc(5)))  # 7 alpha classes
        stratum = StratumSignature((4,))

        assert len(enumerate_census(5, stratum, workers=64)) == 40
        assert pools[-1].max_workers == 4
        assert pools[-1].mapped == n_alpha
        monkeypatch.setattr(census_mod.os, "cpu_count", lambda: 64)
        enumerate_census(5, stratum, workers=64)
        assert pools[-1].max_workers == n_alpha
        monkeypatch.setattr(census_mod.os, "cpu_count", lambda: None)
        enumerate_census(5, stratum, workers=64)
        assert len(pools) == 2  # one CPU: no pool at all

        monkeypatch.setattr(census_mod.os, "cpu_count", lambda: 4)
        with pytest.raises(ResourceBudgetError):
            enumerate_census(5, stratum, workers=3, budget=1)
        assert pools[-1].max_workers == 3
        assert pools[-1].mapped < n_alpha
        assert pools[-1].cancel_futures is True

    def test_key_collision_names_the_key(self, monkeypatch):
        real = census_mod._enumerate_alpha_class
        # duplicates show once the keys are sorted, so the least is named
        least = min(enumerate_census(5, StratumSignature((4,))))

        def twice(*args):
            return real(*args) * 2

        monkeypatch.setattr(census_mod, "_enumerate_alpha_class", twice)
        with pytest.raises(census_mod.InvariantError, match=least.hex()):
            enumerate_census(5, StratumSignature((4,)))

    def test_pair_of_another_stratum_names_the_key(self, monkeypatch):
        real = census_mod._enumerate_alpha_class
        stray = real(5, (5,), (3, 1, 1))[0]  # a (5,(2)) class

        def with_stray(*args):
            return real(*args) + [stray]

        monkeypatch.setattr(census_mod, "_enumerate_alpha_class", with_stray)
        with pytest.raises(
            census_mod.InvariantError, match=stray.hex()
        ) as err:
            enumerate_census(5, StratumSignature((4,)))
        assert "commutator type [3,1,1]" in str(err.value)

    def test_key_found_twice_names_the_key(self, monkeypatch):
        real = census_mod._enumerate_alpha_class
        twice = {}

        def with_repeat(*args):
            chunk = real(*args)
            if chunk and not twice:
                twice["key"] = chunk[0]
                return chunk + chunk[:1]
            return chunk

        monkeypatch.setattr(census_mod, "_enumerate_alpha_class", with_repeat)
        with pytest.raises(census_mod.InvariantError) as err:
            enumerate_census(5, StratumSignature((4,)))
        assert str(err.value) == f"canonical key {twice['key'].hex()} found twice"

    def test_deterministic_across_workers(self, tmp_path):
        seq = enumerate_census(5, StratumSignature((4,)))
        par = enumerate_census(5, StratumSignature((4,)), workers=2)
        f1, f2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_census(seq, f1)
        save_census(par, f2)
        assert f1.read_bytes() == f2.read_bytes()


# sha256 of the save_census file, recorded with the sweep of beta over
# all of S_d that the enumeration used before it solved for beta, when
# a census file was schema 1: each member written as its degree and
# 1-based cycles (reference_kernels.schema1_file).
CENSUS_GOLDEN_SHA256 = {
    (7, (2,)): "9de9c7d0699db2e645d4dbeda002bfeca536f954caa308ee470949fd90b5ab69",
    (7, (1, 1)): "b7ab5f39506c6d482344ac6e1908e278d88c7936abc4ab2f61f519bef1cd8d1e",
    (7, (4,)): "e0b50f60fa12ebcae442f72594860998bfbee12c16b19b32de3737bf7dfc2246",
    (7, (3, 1)): "86e067637b6751447472c70c17977fda5b0ebf66a96060777db2a9e6dc4bec27",
    (7, (2, 2)): "60f276e8f7f1b18aa1a9d29b46e1b11d9cc7256da81c7e0de3ac4adb423024f3",
    (7, (2, 1, 1)): "4e747276fc325c6fe10a27445262eefffeda80a0e698ecb253dd835c530f773d",
    (7, (6,)): "2a775ff878a7dbff7e8c5f6289e9266e6626e0abd587db34a673fb5d45fa93ce",
    (8, (2,)): "8b3fe2b7f2fff819a2f55ba89898a5eeb35aec688a177700a42982947b123d79",
    (8, (1, 1, 1, 1)): "789257512afb876a7e631ab033dcc12cb47d3c28ba1658543302db63b7d6d602",
    (9, (4,)): "dc2c715154fdf14073ff3d5211d30d50df1223a58c0bb0bc79e49e2a77b358a6",
}

# sha256 of the schema-2 save_census file of the same censuses: each
# member written as its canonical key in hex.
CENSUS_FILE_SHA256 = {
    (7, (2,)): "f23f7ecc21297bb04fcfe9cbcc0e1979e71c47c1e35a0229d8bdebe113608077",
    (7, (1, 1)): "8014f694e324593728667abffdae75bec30a311fb1936301d13027aca2dff0bb",
    (7, (4,)): "804bff353eb9915e5e757f9334dda1b70090ca7cef0649e8dae98e4fe129d5b8",
    (7, (3, 1)): "78fa27699866eca80298975e11a84909981e04abe98ace68ec35efbcb339d079",
    (7, (2, 2)): "0593e058609fd768ed76c105014342c6df3653ff1cca8ac30660396354b3667e",
    (7, (2, 1, 1)): "157b35898c258191e431512ded2d3eeae6def7d63e5dcc089f2c5d83e86fc51e",
    (7, (6,)): "4984e60ccd52d40c187942fb1585ac83c93416047693e81513379e506353465f",
    (8, (2,)): "1faf5c484db674dc3c34215b8093e243aef6bfa749a7ca605bd37b10adbc26d8",
    (8, (1, 1, 1, 1)): "281a85b347e7e8f2f41179d9e9fd442ee58c8524962ef12a0d0490f9635028e1",
    (9, (4,)): "fe1872012f421da5c2bad4423de214705fe6ac37c6711c77aba9ceb59ebdd716",
}


@pytest.mark.parametrize("degree,mu", sorted(CENSUS_GOLDEN_SHA256))
def test_census_bytes_match_golden(degree, mu, census_of, tmp_path):
    # The keys read back from the schema-2 file, rendered as schema 1
    # wrote them, give the digest recorded then.
    path = tmp_path / "c.jsonl"
    save_census(census_of(degree, mu), path)
    digest = hashlib.sha256(schema1_file(load_census(path))).hexdigest()
    assert digest == CENSUS_GOLDEN_SHA256[(degree, mu)]


@pytest.mark.parametrize("degree,mu", sorted(CENSUS_FILE_SHA256))
def test_census_file_matches_golden(degree, mu, census_of, tmp_path):
    path = tmp_path / "c.jsonl"
    save_census(census_of(degree, mu), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == CENSUS_FILE_SHA256[(degree, mu)]


class TestRawPairAccounting:
    """Classes, weighted by conjugation-orbit size, must add back up to
    the raw transitive pair count: an independent check that canonical
    keys neither merge distinct classes nor split one class."""

    @staticmethod
    def _raw_count(d, mu):
        from origami_census.census import target_class
        from origami_census.perm import words_transitive
        from reference_kernels import commutator

        target = target_class(d, StratumSignature(mu))
        perms = list(all_perms(d))
        return sum(
            1
            for a in perms
            for b in perms
            if cycle_lengths(commutator(a, b).word) == target
            and words_transitive(a.word, b.word)
        )

    @staticmethod
    def _stabilizer_order(o):
        from reference_kernels import conjugate

        return sum(
            1
            for t in all_perms(o.degree)
            if conjugate(o.alpha, t) == o.alpha
            and conjugate(o.beta, t) == o.beta
        )

    @pytest.mark.parametrize("d,mu", [(4, (2,)), (5, (4,))])
    def test_orbit_sizes_sum_to_raw_count(self, d, mu, census_of):
        import math

        total = sum(
            math.factorial(d) // self._stabilizer_order(o)
            for o in census_of(d, mu).values()
        )
        assert total == self._raw_count(d, mu)

    def test_single_zero_pairs_have_trivial_stabilizer(self, census_of):
        # deck transformations of a one-zero cover have odd order
        # dividing 2g-1; at degree 5 that forces triviality
        for o in census_of(5, (4,)).values():
            assert self._stabilizer_order(o) == 1


REFERENCE_CENSUSES = [
    (d, mu) for d in range(3, 8) for mu in strata_at(d)
] + [(8, (2,)), (8, (3, 1)), (9, (2,))]


@pytest.mark.parametrize("d,mu", REFERENCE_CENSUSES)
def test_alpha_classes_match_seen_sweep_reference(d, mu):
    # (8,(2)) has many commutators with a nontrivial stabilizer in the
    # centralizer of alpha, so one coset holds conjugate betas.  In
    # (9,(2)) the classes (2,1^7), (3,1^6) and (2,2,1^5) share many
    # fixed points with gamma, so the enumeration walks few of each
    # coset's fixed-point matchings; the reference walks all of them.
    target = target_class(d, StratumSignature(mu))
    for parts in partitions_desc(d):
        got = census_mod._enumerate_alpha_class(d, parts, target)
        want = seen_sweep_enumerate_alpha_class(d, parts, target)
        for key, ca, cb in want:
            assert key == ca + cb
        assert sorted(got) == sorted(key for key, _, _ in want), parts


@pytest.mark.parametrize("d", [5, 6, 7, 8])
def test_reference_comparison_covers_both_walks(d, census_of):
    # An alpha class walks its own class when that is smaller than the
    # target class, and the target class otherwise.  At every degree
    # the comparison above checks classes with members taken each way.
    walks = set()
    for dd, mu in REFERENCE_CENSUSES:
        if dd != d:
            continue
        target = target_class(d, StratumSignature(mu))
        for parts in {
            cycle_lengths(k[:d]) for k in census_of(d, mu)
        }:
            walks.add(class_size(parts) < class_size(target))
    assert walks == {True, False}


def word_order_divides(w, n):
    return all(n % c == 0 for c in cycle_lengths(w))


class TestOrderPrefilter:
    """census._power_is_identity, the test run before each walk of a
    candidate word's cycles, keeps every word of the wanted type."""

    @pytest.mark.parametrize("d", range(1, 8))
    def test_every_word_against_every_partition(self, d):
        pad = bytes(range(d, 256))
        orders = sorted({math.lcm(*parts) for parts in partitions_desc(d)})
        for w in permutations(range(d)):
            for n in orders:
                assert census_mod._power_is_identity(
                    bytes(w), n, pad
                ) == word_order_divides(w, n)

    def test_random_words_to_degree_12(self):
        rng = random.Random(12)
        for d in range(8, 13):
            pad = bytes(range(d, 256))
            parts_list = list(partitions_desc(d))
            for _ in range(400):
                w = list(range(d))
                rng.shuffle(w)
                parts = cycle_lengths(w)
                # the word's own type, and a few others
                for other in [parts] + rng.sample(parts_list, 4):
                    n = math.lcm(*other)
                    got = census_mod._power_is_identity(bytes(w), n, pad)
                    assert got == word_order_divides(w, n)
                    if other == parts:
                        assert got


class TestPathMatchings:
    """census._path_matchings picks the images of delta's fixed points
    for one beta of each Sym(F)-orbit of a coset, F being the letters
    that alpha and delta both fix."""

    @pytest.mark.parametrize("d", range(2, 7))
    def test_no_fixed_point_gives_the_empty_matching(self, d):
        for w in permutations(range(d)):
            if all(w[x] != x for x in range(d)):
                assert list(census_mod._path_matchings(bytes(w), [])) == [()]

    @pytest.mark.parametrize("d", range(1, 7))
    def test_without_shared_fixed_points_every_matching_in_order(self, d):
        # Every matching, in the order of permutations, so a coset with
        # F empty yields every beta of the coset: |Z(alpha)| of them.
        for parts in partitions_desc(d):
            aw = class_representative(parts)
            ai_rotations = cycle_rotations(inverse_word(aw))
            alpha_fixed = [x for x in range(d) if aw[x] == x]
            for dw in class_words(parts, d):
                if any(dw[x] == x for x in alpha_fixed):
                    continue
                got = list(census_mod._path_matchings(dw, alpha_fixed))
                assert got == list(permutations(alpha_fixed))
                betas = list(conjugators_onto(dw, ai_rotations, got))
                assert len(set(betas)) == len(betas)
                assert len(betas) == math.factorial(d) // class_size(parts)

    @pytest.mark.parametrize("d", range(1, 7))
    def test_one_acyclic_matching_per_orbit(self, d):
        # The function reads only alpha's fixed points, and every set of
        # |D| letters is the fixed-point set of some alpha of delta's type.
        for dw in map(bytes, permutations(range(d))):
            fixed = [x for x in range(d) if dw[x] == x]
            for alpha_fixed in map(list, combinations(range(d), len(fixed))):
                shared = [x for x in fixed if x in alpha_fixed]
                k = len(fixed) - len(shared)
                got = list(census_mod._path_matchings(dw, alpha_fixed))
                assert len(set(got)) == len(got)
                if k == 0:
                    assert got == ([()] if not fixed else [])
                    continue
                assert len(got) == math.factorial(k) * math.comb(
                    len(shared) + k - 1, k - 1
                )
                for images in got:
                    beta = dict(zip(fixed, images))
                    assert sorted(images) == alpha_fixed
                    # Walked from the sources up, the paths meet every
                    # letter of D, so none lies on a cycle inside F, and
                    # they meet F in increasing order.
                    met = []
                    for s in fixed:
                        if s in shared:
                            continue
                        met.append(s)
                        while beta[met[-1]] in beta:
                            met.append(beta[met[-1]])
                    assert sorted(met) == fixed
                    assert [x for x in met if x in shared] == shared


class TestBruteForceOracle:
    @pytest.mark.parametrize(
        "d,mu",
        [
            (3, (2,)), (4, (2,)), (4, (1, 1)), (5, (4,)), (5, (3, 1)),
            # degree 6 reaches the multi-zero strata, where pairs can
            # have nontrivial stabilizers and dedupe is hardest
            (6, (4,)), (6, (2, 2)), (6, (1, 1)), (6, (3, 1)),
        ],
    )
    def test_enumerate_equals_brute_force(self, d, mu, brute_force_of):
        fast = enumerate_census(d, StratumSignature(mu))
        slow = brute_force_of(d, mu)
        assert fast == slow
        assert fast.total_weight == slow.total_weight

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_one_sweep_equals_the_census_oracle(self, d):
        # Every stratum the sweep files a key under is one of strata_at,
        # so brute_force_of reads each census oracle off the sweep.
        sweep = brute_force_censuses(d)
        nontrivial = {parts for parts in sweep if parts[0] > 1}
        assert nontrivial == {
            target_class(d, StratumSignature(mu)) for mu in strata_at(d)
        }


class TestSaveLoad:
    def test_round_trip(self, census_of, tmp_path):
        census = census_of(5, (4,))
        path = tmp_path / "c.jsonl"
        save_census(census, path)
        back = load_census(path)
        assert back == census
        assert back.total_weight == census.total_weight
        assert back.n_classes == 40

    def test_budget_bounds_the_load(self, census_of, tmp_path):
        path = tmp_path / "c.jsonl"
        save_census(census_of(5, (4,)), path)
        assert load_census(path, budget=40) == census_of(5, (4,))
        with pytest.raises(
            ResourceBudgetError, match="^census exceeds budget of 39 members$"
        ):
            load_census(path, budget=39)

    def test_another_census_fails_before_any_record(
        self, census_of, tmp_path, monkeypatch
    ):
        path = tmp_path / "c.jsonl"
        save_census(census_of(6, (4,)), path)
        calls = []
        record_words = census_mod.record_words

        def spy(rec, degree):
            calls.append(rec)
            return record_words(rec, degree)

        monkeypatch.setattr(census_mod, "record_words", spy)
        with pytest.raises(
            CensusSchemaError, match=r"holds the census of d=6 mu=\(4\)$"
        ):
            load_census(path, expect=(5, StratumSignature((4,))))
        assert calls == []
        back = load_census(path, expect=(6, StratumSignature((4,))))
        assert back == census_of(6, (4,))

    def test_empty_census_round_trip(self, tmp_path):
        empty = enumerate_census(2, StratumSignature((2,)))
        path = tmp_path / "e.jsonl"
        save_census(empty, path)
        back = load_census(path)
        assert back == empty
        assert back.n_classes == 0

    def test_truncated_file(self, census_of, tmp_path):
        path = tmp_path / "c.jsonl"
        save_census(census_of(5, (4,)), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:10]) + "\n")
        with pytest.raises(CensusCorruptError):
            load_census(path)

    def test_future_schema(self, census_of, tmp_path):
        path = tmp_path / "c.jsonl"
        save_census(census_of(5, (4,)), path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["schema"] = 99
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CensusVersionError):
            load_census(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("this is not a census\nat all\n")
        with pytest.raises(CensusCorruptError):
            load_census(path)

    def test_schema_violation_in_record(self, census_of, tmp_path):
        path = tmp_path / "c.jsonl"
        save_census(census_of(5, (4,)), path)
        saved = path.read_text().splitlines()
        bw = list(census_of(5, (4,)))[0][5:]
        # too few letters, then five letters with one repeated
        for aw in ((1, 0), (1, 2, 3, 4, 4)):
            lines = list(saved)
            lines[1] = json.dumps({"key": (bytes(aw) + bw).hex()})
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(CensusSchemaError, match="bad record"):
                load_census(path)

    @pytest.mark.parametrize("hostile", [
        lambda key: {"key": "zz" + key[2:]},
        lambda key: {"key": key[:-1]},
        lambda key: {"key": key[:-2]},
        lambda key: {"key": key + "00"},
        lambda key: {"key": key[2:4] + key[2:]},
        lambda key: {"key": "05" + key[2:]},
        lambda key: {"key": int(key, 16)},
        lambda key: words_record(bytes.fromhex(key)[:5], bytes.fromhex(key)[5:]),
    ], ids=[
        "not-hex", "odd-length", "byte-short", "byte-long",
        "repeated-letter", "letter-of-degree", "not-a-string",
        "schema-1-record",
    ])
    def test_hostile_record(self, census_of, tmp_path, hostile):
        # The schema-1 record, cycles and a degree, has no "key".
        path = tmp_path / "c.jsonl"
        save_census(census_of(5, (4,)), path)
        key = list(census_of(5, (4,)))[0].hex()
        self._replace_record(path, 1, hostile(key))
        with pytest.raises(CensusSchemaError, match="bad record"):
            load_census(path)

    @staticmethod
    def _replace_record(path, index, rec):
        lines = path.read_text().splitlines()
        lines[index] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")

    def test_relabeled_record(self, census_of, tmp_path):
        path = tmp_path / "c.jsonl"
        save_census(census_of(5, (4,)), path)
        key = list(census_of(5, (4,)))[0]
        aw, bw = key[:5], key[5:]
        swap = (1, 0, 2, 3, 4)  # relabel squares 1 and 2
        ra = bytes([swap[aw[swap[i]]] for i in range(5)])
        rb = bytes([swap[bw[swap[i]]] for i in range(5)])
        assert (ra, rb) != (aw, bw)
        self._replace_record(path, 1, {"key": (ra + rb).hex()})
        with pytest.raises(CensusSchemaError, match="own canonical pair"):
            load_census(path)

    @pytest.mark.parametrize("other", [(5, (2,)), (4, (2,))])
    def test_record_of_another_census(self, census_of, tmp_path, other):
        # a record of another stratum, then of another degree, whose
        # key is too short for two words of the header's degree
        path = tmp_path / "c.jsonl"
        save_census(census_of(5, (4,)), path)
        stray = list(census_of(*other))[0]
        self._replace_record(path, 1, {"key": stray.hex()})
        match = "header degree/mu" if other[0] == 5 else "bad record"
        with pytest.raises(CensusSchemaError, match=match):
            load_census(path)

    def test_disconnected_record(self, census_of, tmp_path):
        path = tmp_path / "c.jsonl"
        save_census(census_of(5, (4,)), path)
        # alpha (1,2)(3,4,5), beta (1)(2)(3,4,5)
        key = bytes((1, 0, 3, 4, 2, 0, 1, 3, 4, 2))
        self._replace_record(path, 1, {"key": key.hex()})
        with pytest.raises(CensusSchemaError, match="disconnected"):
            load_census(path)

    def test_records_out_of_order(self, census_of, tmp_path):
        path = tmp_path / "c.jsonl"
        save_census(census_of(5, (4,)), path)
        lines = path.read_text().splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CensusSchemaError, match="key order"):
            load_census(path)

    def test_non_ascii_byte(self, census_of, tmp_path):
        path = tmp_path / "c.jsonl"
        save_census(census_of(5, (4,)), path)
        path.write_bytes(
            path.read_bytes().replace(b"key", "k\u00e9y".encode(), 1)
        )
        with pytest.raises(CensusCorruptError):
            load_census(path)

    @pytest.mark.parametrize(
        "name", ["missing.jsonl", ""], ids=["missing", "directory"]
    )
    def test_path_that_cannot_be_opened(self, tmp_path, name):
        path = tmp_path / name  # a missing file, or the directory itself
        with pytest.raises(CensusCorruptError) as err:
            load_census(path)
        assert str(err.value).startswith(f"cannot read {path}: ")

    @pytest.mark.parametrize("line,field,value", [
        (0, "mu", [4.0]),
        (0, "degree", 5.9),
        (0, "degree", "5"),
        (-1, "n", 40.0),
    ])
    def test_number_that_is_not_an_integer(
        self, census_of, tmp_path, line, field, value
    ):
        path = tmp_path / "c.jsonl"
        save_census(census_of(5, (4,)), path)
        lines = path.read_text().splitlines()
        obj = json.loads(lines[line])
        obj[field] = value
        lines[line] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CensusFileError):
            load_census(path, expect=(5, StratumSignature((4,))))

    @pytest.mark.parametrize("degree", [-3, 0])
    def test_header_degree_below_one(self, census_of, tmp_path, degree):
        # an empty census file is a header and a trailer, no records
        path = tmp_path / "c.jsonl"
        save_census(census_of(2, (2,)), path)
        header, trailer = path.read_text().splitlines()
        obj = json.loads(header)
        obj["degree"] = degree
        path.write_text(json.dumps(obj) + "\n" + trailer + "\n")
        with pytest.raises(CensusSchemaError, match="positive integer"):
            load_census(path)

    def test_header_degree_over_255(self, census_of, tmp_path, monkeypatch):
        # a census of degree 255 still loads; from 256 target_class
        # refuses the header before any record is read
        path = tmp_path / "c.jsonl"
        save_census(census_of(5, (4,)), path)
        header, *records = path.read_text().splitlines()
        calls = []
        record_words = census_mod.record_words

        def spy(rec, degree):
            calls.append(rec)
            return record_words(rec, degree)

        monkeypatch.setattr(census_mod, "record_words", spy)
        for degree, mu in ((255, [256]), (256, [4]), (300, [4])):
            obj = json.loads(header)
            obj["degree"], obj["mu"] = degree, mu
            body = records if degree > 255 else ['{"m":"0/1","n":0}']
            path.write_text("\n".join([json.dumps(obj), *body]) + "\n")
            if degree == 255:
                assert load_census(path).n_classes == 0
                continue
            with pytest.raises(
                CensusSchemaError, match=f"degree {degree} is over 255"
            ):
                load_census(path)
        assert calls == []

    def test_tampered_totals(self, census_of, tmp_path):
        path = tmp_path / "c.jsonl"
        save_census(census_of(5, (4,)), path)
        lines = path.read_text().splitlines()
        lines[-1] = json.dumps({"n": 39, "m": "258/5"})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CensusCorruptError):
            load_census(path)


class TestCompactMembers:
    """A census holds its members as canonical keys, not as objects."""

    def test_loaded_census_holds_no_member_objects(self, census_of, tmp_path):
        path = tmp_path / "c.jsonl"
        save_census(census_of(7, (4,)), path)

        def n_objects():
            gc.collect()
            return sum(type(o) in (Origami, Perm) for o in gc.get_objects())

        before = n_objects()
        tracemalloc.start()
        try:
            census = load_census(path)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert n_objects() == before
        assert len(census) == 775
        # a member held as an Origami took about 800 bytes
        assert held / len(census) < 200

    @pytest.mark.parametrize(
        "d,mu", [(d, mu) for d in (5, 6, 7) for mu in strata_at(d)]
    )
    def test_weight_by_alpha_type_is_the_sum_of_member_weights(
        self, d, mu, census_of
    ):
        census = census_of(d, mu)
        assert census.total_weight == sum(
            (o.weight for o in census.values()), Fraction(0)
        )

    def test_census_is_a_read_only_mapping(self, census_of):
        census = census_of(5, (4,))
        assert isinstance(census, Mapping)
        keys = list(census)
        assert list(census.keys()) == keys == sorted(keys)
        assert len(census) == 40
        o = census[keys[3]]
        assert (o.alpha.word, o.beta.word) == (keys[3][:5], keys[3][5:])
        assert cycle_lengths(
            commutator_bytes(o.words[:5], o.words[5:])
        ) == target_class(5, census.stratum)
        assert o.stratum == census.stratum
        assert [m.alpha for m in census.values()] == [
            census[k].alpha for k in keys
        ]
        absent = keys[0][:-1] + bytes([keys[0][-1] ^ 1])
        assert absent not in census
        assert bytearray(keys[0]) not in census
        with pytest.raises(KeyError):
            census[absent]
        with pytest.raises(TypeError):
            census[keys[0]] = o

    def test_member_is_the_pair_its_key_holds(self, census_of):
        census = census_of(5, (4,))
        for k in census:
            o = census.member(k)
            alpha, beta = Perm(k[:5]), Perm(k[5:])
            made = make_origami(alpha, beta)
            assert o.words == k
            assert o == made and hash(o) == hash(made)
            assert (o.alpha, o.beta) == (alpha, beta)

    def test_members_build_no_perm(self, census_of, perm_builds):
        # The loader or the enumeration has checked every key, and a
        # member holds its key as its words: 80 Perms were built here
        # when a member held two.
        census = census_of(5, (4,))
        perm_builds.clear()
        members = [census.member(k) for k in census]
        assert len(members) == 40
        assert perm_builds == []

    def test_census_refuses_a_key_given_twice(self, census_of):
        census = census_of(5, (4,))
        keys = list(census)
        # Accepted, the repeat gave N=41 and M=268/5 for 40 and 258/5.
        with pytest.raises(census_mod.InvariantError) as err:
            Census(5, census.stratum, keys + [keys[0]])
        assert str(err.value) == f"canonical key {keys[0].hex()} found twice"
