import errno
import hashlib
import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import origami_census
from origami_census import census as census_mod
from origami_census import cli
from origami_census.cli import main
from reference_kernels import schema1_file


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCensusCommand:
    def test_degree5_prints_forty(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "census", "--degree", "5", "--mu", "4",
            "--cache-dir", str(tmp_path),
        )
        assert code == 0
        assert "N=40" in out

    def test_empty_census_succeeds(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "census", "--degree", "2", "--mu", "2",
            "--cache-dir", str(tmp_path),
        )
        assert code == 0
        assert "N=0" in out

    def test_invalid_mu_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "census", "--degree", "5", "--mu", "0",
            "--cache-dir", str(tmp_path),
        )
        assert code == 2
        assert "invalid mu" in err

    def test_json_format(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "census", "--degree", "5", "--mu", "4",
            "--cache-dir", str(tmp_path), "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {
            "degree": 5, "mu": [4], "n": 40, "m": "258/5",
        }

    @pytest.mark.parametrize("command", ["census", "orbits"])
    @pytest.mark.parametrize("degree", ["0", "-3"])
    def test_nonpositive_degree_is_usage_error(
        self, capsys, tmp_path, command, degree
    ):
        code, out, err = run(
            capsys, command, "--degree", degree, "--mu", "2",
            "--cache-dir", str(tmp_path),
        )
        assert code == 2
        assert out == ""
        assert err == "error: degree must be positive\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["census", "orbits"])
    @pytest.mark.parametrize("degree", ["256", "300"])
    def test_degree_over_255_is_usage_error(
        self, capsys, tmp_path, command, degree
    ):
        # Words are bytes, one byte per letter.
        code, out, err = run(
            capsys, command, "--degree", degree, "--mu", "2",
            "--cache-dir", str(tmp_path),
        )
        assert code == 2
        assert out == ""
        assert err == "error: degree must be at most 255\n"
        assert not list(tmp_path.iterdir())

    def test_budget_exceeded_exits_one_without_partial_file(
        self, capsys, tmp_path
    ):
        code, _, err = run(
            capsys, "census", "--degree", "5", "--mu", "4",
            "--cache-dir", str(tmp_path), "--budget", "10",
        )
        assert code == 1
        assert "budget" in err
        assert not list(tmp_path.rglob("*.jsonl"))
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("command", ["census", "orbits"])
    def test_cache_dir_under_a_file_still_prints_the_result(
        self, capsys, tmp_path, command
    ):
        args = (command, "--degree", "5", "--mu", "4", "--cache-dir")
        code, want, _ = run(capsys, *args, str(tmp_path / "ok"))
        assert code == 0
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, out, err = run(capsys, *args, str(blocker / "sub"))
        assert code == 0
        assert out == want
        assert "cache write failed" in err and "not cached" in err
        assert "cache write:" not in err
        assert blocker.read_text() == ""

    def test_failed_cache_write_leaves_no_temp_file(
        self, capsys, tmp_path, monkeypatch
    ):
        args = ("census", "--degree", "5", "--mu", "4", "--cache-dir")
        code, want, _ = run(capsys, *args, str(tmp_path / "ok"))
        assert code == 0

        def disk_full(census, path):
            with open(path, "w") as f:
                f.write("partial")
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, "save_census", disk_full)
        code, out, err = run(capsys, *args, str(tmp_path / "full"))
        assert code == 0
        assert out == want
        assert "cache write failed" in err and "No space left" in err
        assert not list((tmp_path / "full").rglob("*.tmp"))
        assert not list((tmp_path / "full").rglob("*.jsonl"))

    @pytest.mark.parametrize("workers", ["0", "-7"])
    def test_nonpositive_workers_is_usage_error(self, capsys, tmp_path, workers):
        code, out, err = run(
            capsys, "census", "--degree", "4", "--mu", "2",
            "--cache-dir", str(tmp_path), "--workers", workers,
        )
        assert code == 2
        assert out == ""
        assert err == "error: --workers must be positive\n"
        assert not list(tmp_path.iterdir())

    def test_non_ascii_cache_is_recomputed_and_rewritten(
        self, capsys, tmp_path
    ):
        args = ("census", "--degree", "8", "--mu", "2", "--cache-dir", str(tmp_path))
        code, out, _ = run(capsys, *args)
        assert code == 0
        path = tmp_path / "v2" / "census-d8-mu2.jsonl"
        good = path.read_bytes()
        path.write_bytes(good.replace(b"schema", "sch\u00e9ma".encode(), 1))
        code, again, err = run(capsys, *args)
        assert code == 0
        assert again == out
        assert "cache invalid" in err and "recomputing" in err
        assert "cache write" in err
        assert path.read_bytes() == good

    def test_schema_1_cache_is_recomputed_and_v1_is_left_alone(
        self, capsys, tmp_path, monkeypatch
    ):
        # A schema-1 file at the v2 path is invalid.  The v1 directory
        # that schema 1 wrote to is never read, nor changed.
        args = ("census", "--degree", "5", "--mu", "4", "--cache-dir", str(tmp_path))
        code, out, _ = run(capsys, *args)
        assert code == 0
        path = tmp_path / "v2" / "census-d5-mu4.jsonl"
        good = path.read_bytes()
        old = schema1_file(census_mod.load_census(path))
        path.write_bytes(old)
        v1 = tmp_path / "v1" / path.name
        v1.parent.mkdir()
        v1.write_bytes(old)
        v1_mtime = v1.stat().st_mtime_ns
        loaded = []
        load_census = cli.load_census

        def spy(p, *rest, **kw):
            loaded.append(p)
            return load_census(p, *rest, **kw)

        monkeypatch.setattr(cli, "load_census", spy)
        code, again, err = run(capsys, *args)
        assert code == 0
        assert again == out
        assert "cache invalid" in err and "schema 1 unsupported" in err
        assert "cache write" in err
        assert path.read_bytes() == good
        assert loaded == [path]
        assert v1.read_bytes() == old
        assert v1.stat().st_mtime_ns == v1_mtime
        assert sorted(tmp_path.rglob("*")) == [v1.parent, v1, path.parent, path]

    @pytest.mark.parametrize(
        "command,degree,mu", [("census", "6", "4"), ("orbits", "5", "2")]
    )
    def test_cache_file_of_another_census_is_recomputed(
        self, capsys, tmp_path, command, degree, mu
    ):
        run(capsys, "census", "--degree", "5", "--mu", "4",
            "--cache-dir", str(tmp_path / "a"))
        fresh_args = (command, "--degree", degree, "--mu", mu, "--cache-dir")
        code, want, _ = run(capsys, *fresh_args, str(tmp_path / "b"))
        assert code == 0
        cache = tmp_path / "a" / "v2"
        path = cache / f"census-d{degree}-mu{mu}.jsonl"
        path.write_bytes((cache / "census-d5-mu4.jsonl").read_bytes())
        code, out, err = run(capsys, *fresh_args, str(tmp_path / "a"))
        assert code == 0
        assert out == want
        assert "holds the census of d=5 mu=(4)" in err
        assert "cache hit" not in err and "cache write" in err
        assert path.read_bytes() == (
            tmp_path / "b" / "v2" / path.name
        ).read_bytes()

    def test_budget_does_not_read_another_census_as_a_cache_hit(
        self, capsys, tmp_path
    ):
        args = ("census", "--degree", "5", "--mu", "4", "--budget", "100",
                "--cache-dir")
        code, want, _ = run(capsys, *args, str(tmp_path / "b"))
        assert code == 0
        run(capsys, "census", "--degree", "6", "--mu", "4",
            "--cache-dir", str(tmp_path / "a"))
        cache = tmp_path / "a" / "v2"
        path = cache / "census-d5-mu4.jsonl"
        path.write_bytes((cache / "census-d6-mu4.jsonl").read_bytes())
        code, out, err = run(capsys, *args, str(tmp_path / "a"))
        assert code == 0
        assert out == want
        assert "holds the census of d=6 mu=(4)" in err
        assert "cache hit" not in err and "cache write" in err
        assert path.read_bytes() == (
            tmp_path / "b" / "v2" / path.name
        ).read_bytes()

    def test_cache_header_of_float_orders_is_recomputed(
        self, capsys, tmp_path
    ):
        args = ("census", "--degree", "5", "--mu", "4", "--cache-dir")
        code, want, _ = run(capsys, *args, str(tmp_path / "b"))
        assert code == 0
        run(capsys, *args, str(tmp_path / "a"))
        path = tmp_path / "a" / "v2" / "census-d5-mu4.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        header = json.loads(lines[0])
        header["mu"] = [4.0]
        lines[0] = json.dumps(header) + "\n"
        path.write_text("".join(lines))
        code, out, err = run(capsys, *args, str(tmp_path / "a"))
        assert code == 0
        assert out == want
        assert "cache invalid" in err and "cache write" in err
        assert path.read_bytes() == (
            tmp_path / "b" / "v2" / path.name
        ).read_bytes()

    def test_budget_bounds_a_cache_hit(self, capsys, tmp_path):
        args = ("census", "--degree", "5", "--mu", "4", "--cache-dir", str(tmp_path))
        assert run(capsys, *args)[0] == 0
        code, out, err = run(capsys, *args, "--budget", "10")
        assert code == 1
        assert out == ""
        assert "cache hit" in err
        assert err.endswith("error: census exceeds budget of 10 members\n")
        code, out, _ = run(capsys, *args, "--budget", "40")
        assert code == 0
        assert "N=40" in out

    def test_budget_stops_a_cache_hit_at_the_first_record_past_it(
        self, capsys, tmp_path, monkeypatch
    ):
        args = ("census", "--degree", "5", "--mu", "4", "--cache-dir", str(tmp_path))
        assert run(capsys, *args)[0] == 0
        path = tmp_path / "v2" / "census-d5-mu4.jsonl"
        cached = path.read_bytes()
        assert cached.count(b"\n") == 42  # header, 40 records, trailer
        calls = []
        record_words = census_mod.record_words

        def spy(rec, degree):
            calls.append(rec)
            return record_words(rec, degree)

        monkeypatch.setattr(census_mod, "record_words", spy)
        code, out, err = run(capsys, *args, "--budget", "10")
        assert code == 1
        assert out == ""
        assert err.endswith("error: census exceeds budget of 10 members\n")
        assert 0 < len(calls) <= 11
        assert path.read_bytes() == cached


class TestOrbitsCommand:
    def test_four_components(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "orbits", "--degree", "5", "--mu", "4",
            "--cache-dir", str(tmp_path), "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        comps = doc["components"]
        assert sorted(c["size"] for c in comps) == [3, 10, 12, 15]
        slopes = sorted(c["slope"] for c in comps)
        assert slopes == ["28/3", "28/3", "9/1", "9/1"]
        for c in comps:
            assert set(c) == {
                "component_id", "size", "n", "m", "slope", "hyperelliptic",
                "parity", "cusp_count", "member_keys",
            }
            assert len(c["member_keys"]) == c["size"]

    def test_cache_records_are_the_member_keys_json_prints(
        self, capsys, tmp_path
    ):
        code, out, _ = run(
            capsys, "orbits", "--degree", "5", "--mu", "4",
            "--cache-dir", str(tmp_path), "--format", "json",
        )
        assert code == 0
        keys = sorted(
            key for c in json.loads(out)["components"] for key in c["member_keys"]
        )
        lines = (tmp_path / "v2" / "census-d5-mu4.jsonl").read_text().splitlines()
        assert [json.loads(line) for line in lines[1:-1]] == [
            {"key": key} for key in keys
        ]

    def test_csv_format(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "orbits", "--degree", "3", "--mu", "2",
            "--cache-dir", str(tmp_path), "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("component_id,size,n,m_num")
        assert len(lines) >= 2

    def test_warm_cache_identical_bytes(self, capsys, tmp_path):
        args = (
            "orbits", "--degree", "5", "--mu", "4",
            "--cache-dir", str(tmp_path),
        )
        code1, out1, err1 = run(capsys, *args)
        code2, out2, err2 = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "cache write" in err1
        assert "cache hit" in err2

    def test_worker_count_does_not_change_output(self, capsys, tmp_path):
        _, out1, _ = run(
            capsys, "orbits", "--degree", "5", "--mu", "4",
            "--cache-dir", str(tmp_path / "a"), "--workers", "1",
        )
        _, out2, _ = run(
            capsys, "orbits", "--degree", "5", "--mu", "4",
            "--cache-dir", str(tmp_path / "b"), "--workers", "2",
        )
        assert out1 == out2
        cache_a = (tmp_path / "a" / "v2" / "census-d5-mu4.jsonl").read_bytes()
        cache_b = (tmp_path / "b" / "v2" / "census-d5-mu4.jsonl").read_bytes()
        assert cache_a == cache_b


# sha256 of the stdout of `orbits --format json --workers 1` on a fresh
# cache: member keys, sizes, weights, slopes, flags, parity and cusps.
ORBIT_GOLDEN_SHA256 = {
    (6, "4"): "8d914a4f03ecfcb7ef0ee3207683e90834ec16a33cc393267570955ffee1c159",
    (6, "2,2"): "f8c7e1419027588658081727c4bda3b66d9e03011416c093391ba2ac9056bf13",
    (6, "3,1"): "83d1a8180d416fd56c766a466207a7e8d1879faf95c18cfd14f9862f5d3510a3",
    (6, "1,1,1,1"): "c06cc82dfed31b251f43a7cced6be59f8921ca80d8744336a8ef832c84727f6b",
    (7, "2"): "60f8f09dfaa306aee24f8ea3c02e4619cdcf5910aab12f88d84c5e72049037b3",
    (7, "4"): "49f820afcbeb33e1d27864a26196c179fddf64d7c357abb7e0930dfda518cf24",
    (7, "2,2"): "02625c547732e8ea9bcafe1b4dd6c5b1e68bf941b17e25a8cbf1295881eb4a51",
    (7, "3,1"): "d820aebb0d57a90b8dc10ec67f07b0d30302422d11487674f8452803f8f598b4",
    (7, "1,1"): "f9b94f425138130340759e92ee0157e88cca1b602b8f30268d9216312e4aa31c",
    (7, "6"): "78972bfd30a21e7dc07426999250ce869b90e43892433594a451ad51ed2db37d",
}


@pytest.mark.parametrize("degree,mu", sorted(ORBIT_GOLDEN_SHA256))
def test_orbits_json_golden_output(capsys, tmp_path, degree, mu):
    code, out, err = run(
        capsys, "orbits", "--degree", str(degree), "--mu", mu,
        "--format", "json", "--workers", "1", "--cache-dir", str(tmp_path),
    )
    assert code == 0
    assert "cache write" in err
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == ORBIT_GOLDEN_SHA256[(degree, mu)]


@pytest.mark.parametrize("fmt,builds", [("text", 0), ("csv", 0), ("json", 1)])
def test_orbits_builds_member_keys_only_for_json(
    monkeypatch, capsys, tmp_path, fmt, builds
):
    # Only JSON prints the member keys; text and CSV never build the
    # document that holds them as hex strings.
    calls = []
    real = cli.emit

    def spy(cfg, doc, *rest):
        def counted():
            calls.append(fmt)
            return doc()

        real(cfg, counted, *rest)

    monkeypatch.setattr(cli, "emit", spy)
    code, _, _ = run(
        capsys, "orbits", "--degree", "5", "--mu", "4", "--format", fmt,
        "--cache-dir", str(tmp_path),
    )
    assert code == 0
    assert len(calls) == builds


def test_orbits_golden_output_without_asserts(tmp_path):
    # The invariant checks must not depend on assert statements.
    proc = subprocess.run(
        [
            sys.executable, "-O", "-m", "origami_census", "orbits",
            "--degree", "6", "--mu", "4", "--format", "json",
            "--workers", "1", "--cache-dir", str(tmp_path),
        ],
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert b"cache write" in proc.stderr
    digest = hashlib.sha256(proc.stdout).hexdigest()
    assert digest == ORBIT_GOLDEN_SHA256[(6, "4")]


# sha256 of stdout for every command and format, fresh cache, one
# worker.  Covers an empty census, undefined parity, a surface with no
# compatible involution, a 3x2 cylinder, every `limits` scope, a row
# whose slope is n/a and a sweep cut short by --budget.  `classify`
# has no CSV form and prints its text for --format csv.
CLI_GOLDEN_SHA256 = {
    ("census --degree 5 --mu 4", "text"): "91f82f88c15b54ba417fb755cb86fcff68d216c799be2171206cb0a68c8907bc",
    ("census --degree 5 --mu 4", "json"): "68d7ef9a71a51cace914d992ea23e035372a9ee2a235792c7a89002dd4aeeb98",
    ("census --degree 5 --mu 4", "csv"): "062dfe45f0403b351ede32186d55d8267220384a576f58fc04e3437e709a5bfd",
    ("census --degree 6 --mu 3,1", "text"): "f463686adc43bd8d01f0efc14fbd8a8c1900ee4369946e06d8756d783c5aeace",
    ("census --degree 6 --mu 3,1", "json"): "1f9225522536589e0ef312637f78d3cf453e986d593990f4e233e3f5a36c76e9",
    ("census --degree 6 --mu 3,1", "csv"): "c57a1d4a8c8bf0e10bf1954f6f10c4d00fc9cdf9c0c68c30ed896087b042f680",
    ("census --degree 2 --mu 2", "text"): "379eacbd3de583360411b411799dfc939f5d3d51f2653e72efa4e556784dfb91",
    ("census --degree 2 --mu 2", "json"): "89aeca28dd7a3725ec1ba38d1f0ec335e6fedfc77fea550bfce67352fc73d171",
    ("census --degree 2 --mu 2", "csv"): "42a477be6b1304e9ba87312bb0eab70c658c1089463eb9f2507c45fef4c738aa",
    ("orbits --degree 5 --mu 4", "text"): "879d46eb75ccabc1bebba99818b875cd001afeec3d8002bc74af61ee878341b6",
    ("orbits --degree 5 --mu 4", "json"): "6d2bab62d4da1c22c33acd77bb0aac6ce1ecb738d6fca4302fbe0868619fdf9f",
    ("orbits --degree 5 --mu 4", "csv"): "c00164f34c1d0099c5a4c97f400f02efd0f7885cc1868c753403e63264d8ec33",
    ("orbits --degree 6 --mu 3,1", "text"): "5613d4e71fa105f83380b143ec5d464804dfc3d9a88b2a05b36ffa1ddb81289e",
    ("orbits --degree 6 --mu 3,1", "json"): "83d1a8180d416fd56c766a466207a7e8d1879faf95c18cfd14f9862f5d3510a3",
    ("orbits --degree 6 --mu 3,1", "csv"): "36da3ecb9d4fd5d8a5107a8e39e4124791d29d5ae2c012fc4ffe450f765ba6ec",
    ("orbits --degree 2 --mu 2", "text"): "1ccdd65cbe57e0cbc0cdeccc773d9b3e068ba99a0f78a8fd308b7fde65afc093",
    ("orbits --degree 2 --mu 2", "json"): "979166d7892830974525aef94b6167674629e8ac6e3ca3f4581da904729c7484",
    ("orbits --degree 2 --mu 2", "csv"): "114539e66c9f9032e8cbe9f92bc4d8eb5af151502da3941a2f4bb006e2978d2d",
    ("orbits --degree 7 --mu 2,1,1", "text"): "baf90004fd51a50f4fd698efe7e3e635f57b8c29ae988695016d27c96d7d0904",
    ("orbits --degree 7 --mu 2,1,1", "json"): "0b28b7d174720515bd460d04f2238a2be1a2fcd17e3d7a190a0dbbc1376524d1",
    ("orbits --degree 7 --mu 2,1,1", "csv"): "6d28b40c2135957f8f5984983d4b4cfcd716b38569f963af434d27319fec75bd",
    ('classify --alpha "(1,2,3,4)(5)" --beta "(1,5)(2)(3)(4)"', "text"): "5c70d61eb7f7d711ec0d39be98b3441f89c31303512fad04f8317e4c48ae93c2",
    ('classify --alpha "(1,2,3,4)(5)" --beta "(1,5)(2)(3)(4)"', "json"): "735e7016a2cae9c4e0eb653b9a5e3aa54ac6bfa9a82c54af8cd21c16ca9b6b4e",
    ('classify --alpha "(1,2,3,4)(5)" --beta "(1,5)(2)(3)(4)"', "csv"): "5c70d61eb7f7d711ec0d39be98b3441f89c31303512fad04f8317e4c48ae93c2",
    ('classify --alpha "(1,2,4)(3,5,6)" --beta "(1,3)(2,5,4,6)"', "text"): "84634a9939e990f5944ce8a4079f784f8b8d05cc37357680aa025ad6d0dd45f8",
    ('classify --alpha "(1,2,4)(3,5,6)" --beta "(1,3)(2,5,4,6)"', "json"): "44743eb94eff45623fcd605a57ba1992890785747e75709f084a1985919b9abb",
    ('classify --alpha "(1,2,4)(3,5,6)" --beta "(1,3)(2,5,4,6)"', "csv"): "84634a9939e990f5944ce8a4079f784f8b8d05cc37357680aa025ad6d0dd45f8",
    ('classify --alpha "(1)(2,3)(4)(5,6)" --beta "(1,2)(3,4,5)(6)"', "text"): "c844f37b9004a6bbf0e682eb2af07a5d81aaaaccdb073bf647cf687dffd49a47",
    ('classify --alpha "(1)(2,3)(4)(5,6)" --beta "(1,2)(3,4,5)(6)"', "json"): "1ef06fe97b7ffebd031dff953305b5752edadc5a841590a36bed60751ac5d543",
    ('classify --alpha "(1)(2,3)(4)(5,6)" --beta "(1,2)(3,4,5)(6)"', "csv"): "c844f37b9004a6bbf0e682eb2af07a5d81aaaaccdb073bf647cf687dffd49a47",
    ("limits --mu 2 --dmax 5", "text"): "7dbd4ba988ceb04147ee013620236529f3cc2205ebbf0ecba597c62b3a655301",
    ("limits --mu 2 --dmax 5", "json"): "1ad14e3b6db5d9920e0065cbde88e02093252b1ea9f35bef1066274f89e47b2e",
    ("limits --mu 2 --dmax 5", "csv"): "6cd53a0ff44fbb9078e3cc51499c26f0be0b9df915d3c3fab2e2bb871cbbb12f",
    ("limits --mu 4 --dmax 6 --scope classes", "text"): "8d0da417cf47cbe7b9f51ef9b472ea76bc51e9a1bd95e8808d400381506c4259",
    ("limits --mu 4 --dmax 6 --scope classes", "json"): "e280fc6a807a9229ebe0a70f158c7e56189fff38b5b7909e4bc8c15031c55635",
    ("limits --mu 4 --dmax 6 --scope classes", "csv"): "c3ec701549609be193c2cbf8724fa21846591662e8681126e6d26e30cc80c359",
    ("limits --mu 4 --dmax 6 --scope hyperelliptic", "text"): "0e6c817450cfaf17acdeff279ee9d927029469cc6e77134bbf0b554900107c8a",
    ("limits --mu 4 --dmax 6 --scope hyperelliptic", "json"): "bde21701a21e084b0c3fb64cb42d63bf69b64bf1340b5a94676ebd871c9d9694",
    ("limits --mu 4 --dmax 6 --scope hyperelliptic", "csv"): "4566e63e5241cb714023a952a8b5e05bc8f1b32a7fdf842b4a6f49e19ed77580",
    ("limits --mu 3,1 --dmax 6 --scope classes", "text"): "cd2c08cf638c8c65b05d7309a06787059e117e7a5ca6deaed45c8a8e67a78dac",
    ("limits --mu 3,1 --dmax 6 --scope classes", "json"): "1a35ecc7669418be315a4e8a24cb171d68d199e8481d72e63f4185dc775bb036",
    ("limits --mu 3,1 --dmax 6 --scope classes", "csv"): "e55ee538bd0913794f913884773654ddb6f9fb2a041f0f219002c608bbdb756b",
    ("limits --mu 3,1 --dmax 6 --scope hyperelliptic", "text"): "4ee77976aad2d7596958b0111cc512e7e3b6b54b51fb6fafe0c07005bcfcd216",
    ("limits --mu 3,1 --dmax 6 --scope hyperelliptic", "json"): "c8c617090e70d0b02e162cd9f87c58eb22c96f565cd4e91bf8804adadcbf7343",
    ("limits --mu 3,1 --dmax 6 --scope hyperelliptic", "csv"): "86d66e2e9fb7dc2447ce3ee93a946b149f70631bd52dc40b5be825e390e47209",
    ("limits --mu 2 --dmax 6 --budget 20", "text"): "01399101e393e506ef68b1c1de7add26d0626cb02680b17f1af95c35cd70b05c",
    ("limits --mu 2 --dmax 6 --budget 20", "json"): "6a56d0d2712d2e23376da36ed096402efc3bc407b1d25c7196341aadaad0c279",
    ("limits --mu 2 --dmax 6 --budget 20", "csv"): "ca4cfbe19ba0be1e6652cbff5aa0a76620760947a23908a60d8d70c400f7251d",
    ("table --genus 3", "text"): "6098d45b181f8e4d21bd713f26ab502b93418c543427f4cdba93eaf2a732b15a",
    ("table --genus 3", "json"): "b1a6c211ba1b9c23d182fc495d5d923e313aaae1a24d524ad4839b4197b859ee",
    ("table --genus 3", "csv"): "8a3699a297b142018a7cf613e5753916da90331052eee2c49a38c08372eaf737",
    ("table --genus 4 --mu 6", "text"): "2f10d61e7bf1021cda3f9db5f6f2befcfacec07bc27dab73bf9d2be472f939d2",
    ("table --genus 4 --mu 6", "json"): "b24ed0e9a39c2101e4a7a3290e3fc8ec4bdb37cdf75dafcfdecd67d40674f0a8",
    ("table --genus 4 --mu 6", "csv"): "387ab91bed13415a3313b7bbd152f63c52438693c834439f2e170643abf860e8",
}


@pytest.mark.parametrize("command,fmt", sorted(CLI_GOLDEN_SHA256))
def test_cli_golden_output(capsys, tmp_path, command, fmt):
    code, out, _ = run(
        capsys, *shlex.split(command), "--format", fmt, "--workers", "1",
        "--cache-dir", str(tmp_path),
    )
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == CLI_GOLDEN_SHA256[(command, fmt)]


class TestClassifyCommand:
    def test_genus2_octagon(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "classify",
            "--alpha", "(1,2,3,4)(5)", "--beta", "(1,5)(2)(3)(4)",
            "--cache-dir", str(tmp_path), "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["mu"] == [2]
        assert doc["genus"] == 2
        assert doc["weight"] == "5/4"
        assert doc["hyperelliptic"] is True
        assert doc["parity"] == 1
        assert len(doc["involutions"]) == 1
        assert doc["involutions"][0]["total_fixed"] == 6

    def test_disconnected_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "classify",
            "--alpha", "(1,2)(3)(4)", "--beta", "(3,4)(1)(2)",
            "--cache-dir", str(tmp_path),
        )
        assert code == 2
        assert "disconnected" in err

    def test_huge_letter_is_one_short_usage_error(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "classify", "--alpha", "(1000000)", "--beta", "(1)",
            "--cache-dir", str(tmp_path),
        )
        assert code == 2
        assert out == ""
        assert err.endswith("\n") and err.count("\n") == 1
        assert len(err) < 200

    def test_degree_mismatch_is_usage_error(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "classify", "--alpha", "(1,2)", "--beta", "(1,2,3)",
            "--cache-dir", str(tmp_path),
        )
        assert code == 2
        assert out == ""
        assert err == "error: degree mismatch: 2 vs 3\n"

    @pytest.mark.parametrize("degree", [256, 300])
    def test_over_255_squares_is_usage_error(self, capsys, tmp_path, degree):
        # A word holds one byte per letter.  The n-cycle with one
        # transposition of neighbours is transitive and lies in H(2).
        letters = ",".join(str(x) for x in range(1, degree + 1))
        fixed = "".join(f"({x})" for x in range(3, degree + 1))
        code, out, err = run(
            capsys, "classify", "--alpha", f"({letters})",
            "--beta", f"(1,2){fixed}", "--cache-dir", str(tmp_path),
        )
        assert code == 2
        assert out == ""
        assert err == (
            f"error: bad permutation: degree {degree} is over 255: words "
            "hold one byte per letter\n"
        )
        assert not list(tmp_path.iterdir())


class TestLimitsCommand:
    def test_sweep_shows_forced_ratio(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "limits", "--mu", "2", "--dmax", "5",
            "--cache-dir", str(tmp_path), "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert [r["ratio"] for r in doc["rows"]] == ["10/9"] * 3
        assert [r["slope"] for r in doc["rows"]] == ["10/1"] * 3

    def test_reference_table_genus3(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "table", "--genus", "3",
            "--cache-dir", str(tmp_path), "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert [r["slope"] for r in rows] == [
            "28/3", "9/1", "28/3", "44/5", "9/1", "98/11", "468/53",
        ]

    def test_genus_outside_table(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "table", "--genus", "9",
            "--cache-dir", str(tmp_path),
        )
        assert code == 2
        assert "outside table range" in err

    @pytest.mark.parametrize("sweep_args", [(), ("--mu", "2", "--dmax", "5")])
    def test_table_options_are_gone(self, capsys, tmp_path, sweep_args):
        # `table --genus` is the one reference-table command.
        with pytest.raises(SystemExit) as exc:
            main([
                "limits", *sweep_args, "--genus", "3", "--table",
                "--cache-dir", str(tmp_path),
            ])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("dmax", ["0", "-2"])
    def test_nonpositive_dmax_is_usage_error(self, capsys, tmp_path, dmax):
        code, out, err = run(
            capsys, "limits", "--mu", "2", "--dmax", dmax,
            "--cache-dir", str(tmp_path),
        )
        assert code == 2
        assert out == ""
        assert err == "error: --dmax must be positive\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("dmax", ["256", "300"])
    def test_dmax_over_255_is_usage_error(self, capsys, tmp_path, dmax):
        # Refused before the sweep walks any degree: no census is cached.
        code, out, err = run(
            capsys, "limits", "--mu", "2", "--dmax", dmax,
            "--cache-dir", str(tmp_path),
        )
        assert code == 2
        assert out == ""
        assert err == "error: --dmax must be at most 255\n"
        assert not list(tmp_path.iterdir())

    def test_csv_columns(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "limits", "--mu", "2", "--dmax", "4",
            "--cache-dir", str(tmp_path), "--format", "csv",
        )
        assert code == 0
        header = out.splitlines()[0]
        assert header == "stratum,component_label,d,N,M_num,M_den,slope_num,slope_den"


class TestTableCommand:
    def test_genus4_filter(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "table", "--genus", "4", "--mu", "6",
            "--cache-dir", str(tmp_path), "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert [r["label"] for r in rows] == ["hyp", "even", "odd"]
        assert rows[0]["slope"] == "9/1"


    def test_stratum_of_another_genus_is_usage_error(self, capsys, tmp_path):
        # H(6) has genus 4, so no genus-3 row can match it.
        code, out, err = run(
            capsys, "table", "--genus", "3", "--mu", "6",
            "--cache-dir", str(tmp_path), "--format", "csv",
        )
        assert code == 2
        assert out == ""
        assert err == "error: mu (6) has genus 4, not 3\n"


class TestNoHomeDirectory:
    """No cache directory can be found: the environment names none and
    there is no home directory (HOME unset, a uid with no passwd
    entry)."""

    @pytest.fixture(autouse=True)
    def no_home(self, monkeypatch):
        for name in ("ORIGAMI_CACHE_DIR", "XDG_CACHE_HOME", "HOME"):
            monkeypatch.delenv(name, raising=False)

        def home():
            raise RuntimeError("Could not determine home directory.")

        monkeypatch.setattr(Path, "home", staticmethod(home))

    @pytest.mark.parametrize("command,fmt", [
        ("table --genus 3", "text"),
        ('classify --alpha "(1,2,3,4)(5)" --beta "(1,5)(2)(3)(4)"', "json"),
    ])
    def test_commands_without_a_census_run(self, capsys, command, fmt):
        code, out, _ = run(capsys, *shlex.split(command), "--format", fmt)
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == CLI_GOLDEN_SHA256[(command, fmt)]

    def test_census_without_cache_dir_is_one_error_line(self, capsys):
        code, out, err = run(capsys, "census", "--degree", "3", "--mu", "2")
        assert code == 1
        assert out == ""
        assert err == "error: Could not determine home directory.\n"


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [
                sys.executable, "-m", "origami_census", "census",
                "--degree", "4", "--mu", "2", "--cache-dir", str(tmp_path),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "N=9" in proc.stdout

    def test_import_leaves_the_process_pool_unloaded(self):
        # A one-worker run never pays for importing the process pool.
        proc = subprocess.run(
            [
                sys.executable, "-c",
                "import sys, origami_census.cli; "
                "print('concurrent.futures.process' in sys.modules)",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_import_leaves_dataclasses_inspect_and_csv_unloaded(self):
        # Start-up pays for none of them: the value types are slotted
        # classes and `table` imports csv when it reads the file.
        proc = subprocess.run(
            [
                sys.executable, "-c",
                "import sys, origami_census.cli; print(sorted(m for m in "
                "('dataclasses', 'inspect', 'csv') if m in sys.modules))",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_import_leaves_typing_and_tempfile_unloaded(self):
        # Under -S no site hook preloads them, so this sees what the
        # package itself imports: annotations are never evaluated, and
        # only a cache write needs tempfile.
        src = Path(origami_census.__file__).resolve().parents[1]
        proc = subprocess.run(
            [
                sys.executable, "-S", "-c",
                f"import sys; sys.path.insert(0, {str(src)!r}); "
                "import origami_census.cli; print(sorted(m for m in "
                "('typing', 'tempfile') if m in sys.modules))",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_table_reads_the_csv_in_a_fresh_process(self, tmp_path):
        proc = subprocess.run(
            [
                sys.executable, "-m", "origami_census", "table", "--genus", "3",
                "--cache-dir", str(tmp_path),
            ],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        digest = hashlib.sha256(proc.stdout).hexdigest()
        assert digest == CLI_GOLDEN_SHA256[("table --genus 3", "text")]

    def test_usage_error_from_argparse(self):
        proc = subprocess.run(
            [sys.executable, "-m", "origami_census", "nonsense"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
