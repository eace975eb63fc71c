import hashlib
import json
import subprocess
import sys

import pytest

from origami_census.cli import main


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
        cache_a = (tmp_path / "a" / "v1" / "census-d5-mu4.jsonl").read_bytes()
        cache_b = (tmp_path / "b" / "v1" / "census-d5-mu4.jsonl").read_bytes()
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
            capsys, "limits", "--genus", "3", "--table",
            "--cache-dir", str(tmp_path), "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert [r["slope"] for r in rows] == [
            "28/3", "9/1", "28/3", "44/5", "9/1", "98/11", "468/53",
        ]

    def test_genus_outside_table(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "limits", "--genus", "9", "--table",
            "--cache-dir", str(tmp_path),
        )
        assert code == 2
        assert "outside table range" in err

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

    def test_usage_error_from_argparse(self):
        proc = subprocess.run(
            [sys.executable, "-m", "origami_census", "nonsense"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
