"""Benchmark workloads: CLI arguments, cache state and pinned answers.

Every workload is deterministic; the benchmark seed only orders the
runs.  The pinned answers (N, M, component count and the sha256 of
stdout) were recorded from the unmodified CLI with ``--format json``.
A run whose output differs in any of them is a failed run.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# Runtime files (per-run caches, prefilled caches, traces, results).
# Listed in the repository's .gitignore.
WORK = ROOT / ".perfbench"

# Flags shared by every CLI call: JSON output and one worker, so one
# CLI run uses one core of the two this benchmark is sized for.
COMMON_FLAGS = ["--format", "json", "--workers", "1"]


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    # CLI arguments whose run fills the cache before a warm workload;
    # None for a workload that starts from an empty cache.
    prefill: tuple[str, ...] | None
    n: int
    m: str
    components: int | None
    stdout_sha256: str

    @property
    def cache_marker(self) -> str:
        """The stderr line prefix that proves the cache state."""
        return "cache hit:" if self.prefill else "cache write:"

    def cli_args(self, cache_dir: Path) -> list[str]:
        return [*self.argv, *COMMON_FLAGS, "--cache-dir", str(cache_dir)]


WORKLOADS = {
    w.name: w
    for w in (
        # The d! beta sweep is about 97% of the run: 22 alpha classes x
        # 40,320 betas.  No orbit code runs.
        Workload(
            name="census-cold-d8-mu2",
            argv=("census", "--degree", "8", "--mu", "2"),
            prefill=None,
            n=135,
            m="150/1",
            components=None,
            stdout_sha256=(
                "04e414483c41ffaf9750585045f2091a2c0fa8f89a5f4befa1b72028396eec57"
            ),
        ),
        # Cache read, then decomposition of an even stratum: spin parity,
        # twist BFS, hyperellipticity and cusps.  No sweep.
        Workload(
            name="orbits-warm-d8-mu6",
            argv=("orbits", "--degree", "8", "--mu", "6"),
            prefill=("census", "--degree", "8", "--mu", "6"),
            n=9800,
            m="13430/1",
            components=16,
            stdout_sha256=(
                "94969f565b9c03f3e25602a82df6ee668745b7bbb9933c07f834b3c7c9fd4c90"
            ),
        ),
        # Sweep, cache write, then decomposition of an odd stratum, where
        # spin parity never runs.
        Workload(
            name="orbits-cold-d8-mu3_1",
            argv=("orbits", "--degree", "8", "--mu", "3,1"),
            prefill=None,
            n=4032,
            m="5292/1",
            components=5,
            stdout_sha256=(
                "77263f30e47403b203492907cc62f3dcdae31227b6a1079812d7f9f50b6692d0"
            ),
        ),
    )
}


def check_output(w: Workload, returncode: int, stdout: bytes, stderr: str) -> str | None:
    """None when the run is correct, else the reason it failed."""
    if returncode != 0:
        return f"exit code {returncode}: {stderr.strip()[-300:]}"
    if not any(line.startswith(w.cache_marker) for line in stderr.splitlines()):
        return f"stderr lacks {w.cache_marker!r}: {stderr.strip()[-300:]}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if doc.get("n") != w.n or doc.get("m") != w.m:
        return f"N={doc.get('n')} M={doc.get('m')}, expected N={w.n} M={w.m}"
    if w.components is not None and len(doc.get("components", ())) != w.components:
        return f"{len(doc.get('components', ()))} components, expected {w.components}"
    digest = hashlib.sha256(stdout).hexdigest()
    if digest != w.stdout_sha256:
        return f"stdout sha256 {digest}, expected {w.stdout_sha256}"
    return None


def child_env() -> dict[str, str]:
    """Environment for CLI children: this checkout's sources, byte-compiled
    as an installed package is, and no variable that could point the CLI
    at the user's cache."""
    env = dict(os.environ)
    env.pop("ORIGAMI_CACHE_DIR", None)
    env.pop("XDG_CACHE_HOME", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def source_digest() -> str:
    """Hash of the package sources and the interpreter version; names the
    prefilled cache so that a cache is reused only by the code that wrote it."""
    h = hashlib.sha256(sys.version.encode())
    for path in sorted((SRC / "origami_census").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def prefilled_cache(w: Workload, timeout: float) -> Path:
    """A cache directory holding the census a warm workload reads.

    It is written once per source digest by the CLI itself, checked, and
    then only copied; the copy happens outside every timed region.
    """
    target = WORK / "prefill" / f"{w.name}-{source_digest()}"
    if target.is_dir():
        return target
    tmp = target.with_name(target.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    proc = subprocess.run(
        [sys.executable, "-m", "origami_census", *w.prefill, *COMMON_FLAGS,
         "--cache-dir", str(tmp)],
        cwd=ROOT, env=child_env(), capture_output=True, timeout=timeout,
    )
    stderr = proc.stderr.decode(errors="replace")
    if proc.returncode != 0 or "cache write:" not in stderr:
        raise RuntimeError(f"cache prefill failed: {stderr.strip()[-300:]}")
    doc = json.loads(proc.stdout)
    if doc.get("n") != w.n or doc.get("m") != w.m:
        raise RuntimeError(f"cache prefill gave N={doc.get('n')} M={doc.get('m')}")
    tmp.rename(target)
    return target


def fresh_cache_dir(prefill: Path | None, run_dir: Path, i: int) -> Path:
    """A cache directory no other run has used: empty for a cold
    workload, a copy of the prefilled cache for a warm one."""
    d = run_dir / f"cache-{i}"
    if prefill is not None:
        shutil.copytree(prefill, d)
    else:
        d.mkdir()
    return d
