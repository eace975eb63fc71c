import gc
import hashlib
import json
import tracemalloc
from collections.abc import Mapping
from fractions import Fraction

import pytest

from origami_census import census as census_mod
from origami_census.census import (
    Census,
    CensusCorruptError,
    CensusFileError,
    CensusSchemaError,
    CensusVersionError,
    ResourceBudgetError,
    brute_force_census,
    enumerate_census,
    load_census,
    partitions_desc,
    save_census,
    target_class,
)
from origami_census.perm import Perm, class_size, cycle_lengths
from origami_census.surface import (
    Origami,
    StratumSignature,
    decode_pair,
    encode_pair,
    words_record,
)
from conftest import all_perms, strata_at
from reference_kernels import seen_sweep_enumerate_alpha_class


class TestTargetClass:
    def test_padding(self):
        t = target_class(5, StratumSignature((4,)))
        assert t.parts == (5,)
        t = target_class(6, StratumSignature((2,)))
        assert t.parts == (3, 1, 1, 1)

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
            assert o.commutator_type == target

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

    def test_budget_exceeded(self):
        with pytest.raises(ResourceBudgetError):
            enumerate_census(5, StratumSignature((4,)), budget=10)

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
# all of S_d that the enumeration used before it solved for beta.
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


@pytest.mark.parametrize("degree,mu", sorted(CENSUS_GOLDEN_SHA256))
def test_census_bytes_match_golden(degree, mu, census_of, tmp_path):
    path = tmp_path / "c.jsonl"
    save_census(census_of(degree, mu), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == CENSUS_GOLDEN_SHA256[(degree, mu)]


class TestRawPairAccounting:
    """Classes, weighted by conjugation-orbit size, must add back up to
    the raw transitive pair count: an independent check that canonical
    keys neither merge distinct classes nor split one class."""

    @staticmethod
    def _raw_count(d, mu):
        from origami_census.census import target_class
        from origami_census.perm import commutator, words_transitive

        target = target_class(d, StratumSignature(mu))
        perms = list(all_perms(d))
        return sum(
            1
            for a in perms
            for b in perms
            if commutator(a, b).cycle_type() == target
            and words_transitive(a.word, b.word)
        )

    @staticmethod
    def _stabilizer_order(o):
        from origami_census.perm import conjugate

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
] + [(8, (2,)), (8, (3, 1))]


@pytest.mark.parametrize("d,mu", REFERENCE_CENSUSES)
def test_alpha_classes_match_seen_sweep_reference(d, mu):
    # (8,(2)) has many commutators with a nontrivial stabilizer in the
    # centralizer of alpha, so one coset holds conjugate betas.
    target = target_class(d, StratumSignature(mu)).parts
    for parts in partitions_desc(d):
        got = census_mod._enumerate_alpha_class(d, parts, target)
        want = seen_sweep_enumerate_alpha_class(d, parts, target)
        for key, ca, cb in want:
            assert key == encode_pair(ca, cb)
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
        target = target_class(d, StratumSignature(mu)).parts
        for parts in {
            cycle_lengths(decode_pair(k, d)[0]) for k in census_of(d, mu)
        }:
            walks.add(class_size(parts) < class_size(target))
    assert walks == {True, False}


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
    def test_enumerate_equals_brute_force(self, d, mu):
        fast = enumerate_census(d, StratumSignature(mu))
        slow = brute_force_census(d, StratumSignature(mu))
        assert fast == slow
        assert fast.total_weight == slow.total_weight

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            brute_force_census(7, StratumSignature((2,)))


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

        def spy(rec):
            calls.append(rec)
            return record_words(rec)

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
        # too few letters, then five letters with one repeated
        for alpha in ([[1, 2]], [[1, 2, 3, 4, 4]]):
            lines = list(saved)
            rec = json.loads(lines[1])
            rec["alpha"] = alpha
            lines[1] = json.dumps(rec)
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(CensusSchemaError):
                load_census(path)

    @staticmethod
    def _replace_record(path, index, rec):
        lines = path.read_text().splitlines()
        lines[index] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")

    def test_relabeled_record(self, census_of, tmp_path):
        path = tmp_path / "c.jsonl"
        save_census(census_of(5, (4,)), path)
        aw, bw = decode_pair(list(census_of(5, (4,)))[0], 5)
        swap = (1, 0, 2, 3, 4)  # relabel squares 1 and 2
        ra = tuple(swap[aw[swap[i]]] for i in range(5))
        rb = tuple(swap[bw[swap[i]]] for i in range(5))
        assert (ra, rb) != (aw, bw)
        self._replace_record(path, 1, words_record(ra, rb))
        with pytest.raises(CensusSchemaError, match="own canonical pair"):
            load_census(path)

    @pytest.mark.parametrize("other", [(5, (2,)), (4, (2,))])
    def test_record_of_another_census(self, census_of, tmp_path, other):
        # a record of another stratum, then of another degree
        path = tmp_path / "c.jsonl"
        save_census(census_of(5, (4,)), path)
        stray = list(census_of(*other))[0]
        self._replace_record(
            path, 1, words_record(*decode_pair(stray, other[0]))
        )
        with pytest.raises(CensusSchemaError, match="header degree/mu"):
            load_census(path)

    def test_disconnected_record(self, census_of, tmp_path):
        path = tmp_path / "c.jsonl"
        save_census(census_of(5, (4,)), path)
        rec = {"degree": 5, "alpha": [[1, 2], [3, 4, 5]], "beta": [[1], [2], [3, 4, 5]]}
        self._replace_record(path, 1, rec)
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
            path.read_bytes().replace(b"alpha", "alph\u00e9".encode(), 1)
        )
        with pytest.raises(CensusCorruptError):
            load_census(path)

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
        assert (o.alpha.word, o.beta.word) == decode_pair(keys[3], 5)
        assert o.commutator_type == census.commutator_type
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

    def test_census_refuses_a_key_given_twice(self, census_of):
        census = census_of(5, (4,))
        keys = list(census)
        # Accepted, the repeat gave N=41 and M=268/5 for 40 and 258/5.
        with pytest.raises(census_mod.InvariantError) as err:
            Census(5, census.stratum, keys + [keys[0]])
        assert str(err.value) == f"canonical key {keys[0].hex()} found twice"
