"""Benchmark of the origami-census CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload census-cold-d8-mu2 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

With ``--trace 0`` the benchmark drives the unmodified CLI
(``python -m origami_census ... --format json --workers 1``) as one
child process at a time, a closed loop with one client, for
``--seconds`` seconds, and reports the end-to-end metrics:

- ``wall_s``: median wall time of one CLI run, spawn to exit, at
  reference speed (see below);
- ``peak_rss_mb``: median over runs of the child's peak resident memory,
  read per child with ``os.wait4``;
- ``setup_s``: median wall time of a fresh interpreter importing
  ``origami_census.cli``, at reference speed;
- ``ok_frac``: the share of attempted runs that exit 0, print the pinned
  answer and show the expected cache behaviour.

With ``--trace 1`` it calls ``cli.main(argv)`` in-process, alternating
untraced and traced calls, and reports the per-layer metrics of
``tracer.LAYER_METRICS`` plus ``proc.cpu_s``, ``cli.cache_bytes`` and
``trace.overhead_s``.  The spans of the last traced call go to
``.perfbench/traces/``.

Every time is scaled to reference speed (see ``refclock.py``), since
the speed of a core on a shared host drifts by up to 2x; the raw times
are recorded beside the scaled ones.  In-process calls cannot be
stopped, so traced times are scaled by the reference timed before and
after each call only.

Every workload is deterministic; the seed only orders the runs.  Each
run gets a fresh ``--cache-dir``.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the full record, with samples, quartiles and the machine
it ran on, goes to ``.perfbench/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

from refclock import ReferenceClock, pin_to_one_core
from workloads import ROOT, SRC, WORK, WORKLOADS, child_env, check_output
from workloads import fresh_cache_dir, prefilled_cache

# Every run ends well within 180 s: no CLI run starts after this many
# seconds from the start of the run, and none outlives it by more than
# CHILD_GRACE_S.
HARD_LIMIT_S = 140.0
CHILD_GRACE_S = 30.0
MIN_SAMPLES = 3
MIN_TRACED_PAIRS = 2
# Import probes taken before the timed loop; one more follows or
# precedes each CLI run, in an order drawn from the seed.
SETUP_PROBES = 7
IMPORT_CLI = ["-c", "import origami_census.cli"]
# How often a running CLI child is stopped to sample the reference speed.
SAMPLE_EVERY_S = 1.0


def spawn_timed(args: list[str], env, stdout, stderr, timeout: float,
                clock: ReferenceClock | None = None):
    """Run ``python args`` to completion; return (exit code, wall s, rusage).

    The wall time runs from spawn to exit.  With a clock, the child is
    stopped about once a second while the clock samples the reference
    kernel, and the time it spends stopped is not counted.  ``os.wait4``
    gives this child's own resource use, unlike RUSAGE_CHILDREN, whose
    maxrss is the largest over every child so far.
    """
    t0 = time.perf_counter()
    deadline = t0 + timeout
    stopped = 0.0
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=env, stdout=stdout, stderr=stderr
    )
    exited = None
    pidfd = os.pidfd_open(proc.pid)
    try:
        while True:
            left = deadline - time.perf_counter()
            if left <= 0:
                proc.kill()
                break
            wait = min(left, SAMPLE_EVERY_S) if clock else left
            if select.select([pidfd], [], [], wait)[0]:
                break
            if clock is None:
                continue
            os.kill(proc.pid, signal.SIGSTOP)
            _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
            if not os.WIFSTOPPED(status):
                exited = (status, usage, time.perf_counter())
                break
            t_stop = time.perf_counter()
            clock.sample()
            os.kill(proc.pid, signal.SIGCONT)
            stopped += time.perf_counter() - t_stop
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        os.close(pidfd)
    if exited is None:
        end = time.perf_counter()
        _, status, usage = os.wait4(proc.pid, 0)
    else:
        status, usage, end = exited
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, end - t0 - stopped, usage


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4)


def summary(values: list[float], unit: str, raw: list[float] | None = None) -> dict:
    """Median, quartiles and samples; ``raw`` are the unscaled times."""
    q1, med, q3 = quartiles(values)
    out = {"value": med, "unit": unit, "n": len(values), "q1": q1, "q3": q3,
           "samples": values}
    if raw is not None:
        out["raw_median"] = statistics.median(raw)
        out["raw_samples"] = raw
    return out


def env_stamp() -> dict:
    """Commit, interpreter, core count and CPU model of this run."""
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        commit = ref
    except OSError:
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


class Run:
    """One benchmark run of one workload: its scratch directory and clock."""

    def __init__(self, workload, seconds: float, seed: int):
        self.w = workload
        self.seconds = seconds
        self.seed = seed
        self.rng = random.Random(f"{seed}:{workload.name}")
        self.hard_deadline = time.perf_counter() + HARD_LIMIT_S
        self.deadline = self.hard_deadline
        self.dir = WORK / f"run-{os.getpid()}-{workload.name}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.env = child_env()
        self.n_caches = 0

    def child_timeout(self) -> float:
        return max(1.0, self.hard_deadline + CHILD_GRACE_S - time.perf_counter())

    def new_cache_dir(self, prefill):
        self.n_caches += 1
        return fresh_cache_dir(prefill, self.dir, self.n_caches)

    def probe(self) -> float:
        """Wall time of one fresh interpreter importing the CLI module."""
        rc, wall, _ = spawn_timed(IMPORT_CLI, self.env, subprocess.DEVNULL,
                                  subprocess.DEVNULL, self.child_timeout())
        if rc != 0:
            raise RuntimeError(f"importing origami_census.cli failed (exit {rc})")
        return wall

    def setup_probe(self, clock: ReferenceClock, setup: list, raw: list) -> None:
        raw.append(self.probe())
        setup.append(raw[-1] * clock.factor())

    def should_continue(self, count: int, minimum: int, typical: float) -> bool:
        now = time.perf_counter()
        if now + typical > self.hard_deadline:
            return False
        return count < minimum or now + typical <= self.deadline

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    # -- end-to-end

    def end_to_end(self) -> dict:
        w = self.w
        self.probe()  # byte-compiles the package; not a sample
        prefill = prefilled_cache(w, self.child_timeout()) if w.prefill else None
        clock = ReferenceClock()
        setup, setup_raw = [], []
        for _ in range(SETUP_PROBES):
            self.setup_probe(clock, setup, setup_raw)
        walls, walls_raw, rss, failures, windows = [], [], [], [], []
        self.deadline = time.perf_counter() + self.seconds
        attempted = 0
        while self.should_continue(attempted, MIN_SAMPLES,
                                   statistics.median(walls_raw) if walls_raw else 0.0):
            probe_first = self.rng.random() < 0.5
            if probe_first:
                self.setup_probe(clock, setup, setup_raw)
            cache_dir = self.new_cache_dir(prefill)
            out_path, err_path = self.dir / "stdout", self.dir / "stderr"
            with open(out_path, "wb") as out, open(err_path, "wb") as err:
                rc, wall, usage = spawn_timed(
                    ["-m", "origami_census", *w.cli_args(cache_dir)],
                    self.env, out, err, self.child_timeout(), clock,
                )
            scaled = wall * clock.factor()
            attempted += 1
            reason = check_output(
                w, rc, out_path.read_bytes(), err_path.read_text(errors="replace")
            )
            shutil.rmtree(cache_dir)
            if reason:
                failures.append(reason)
                print(f"{w.name}: run {attempted} failed: {reason}", file=sys.stderr)
            else:
                walls.append(scaled)
                walls_raw.append(wall)
                windows.append(clock.last_window)
                rss.append(usage.ru_maxrss / 1024)
            if not probe_first:
                self.setup_probe(clock, setup, setup_raw)
        ok = attempted - len(failures)
        metrics = {
            "setup_s": summary(setup, "s", setup_raw),
            "ok_frac": {"value": ok / attempted, "unit": "fraction", "n": attempted},
        }
        if walls:
            metrics["wall_s"] = summary(walls, "s", walls_raw)
            metrics["peak_rss_mb"] = summary(rss, "MB")
        return {"attempted": attempted, "failures": failures, "metrics": metrics,
                "sample_reference_s": windows}

    # -- traced

    def traced(self) -> dict:
        import tracer

        w = self.w
        cli = tracer.import_package()
        prefill = prefilled_cache(w, self.child_timeout()) if w.prefill else None
        clock = ReferenceClock()
        pairs, failures = [], []
        self.deadline = time.perf_counter() + self.seconds
        typical = 0.0
        while self.should_continue(len(pairs), MIN_TRACED_PAIRS, typical):
            t0 = time.perf_counter()
            pair = tracer.traced_pair(cli, w, lambda: self.new_cache_dir(prefill), clock,
                                      traced_first=self.rng.random() < 0.5)
            typical = time.perf_counter() - t0
            if pair.failure:
                failures.append(pair.failure)
                print(f"{w.name}: traced pair failed: {pair.failure}", file=sys.stderr)
            pairs.append(pair)
        good = [p for p in pairs if p.failure is None]
        metrics, reason = tracer.summarize_traced(good) if good else ({}, None)
        if reason:
            failures.append(reason)
        if good:
            trace_dir = WORK / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            doc = good[-1].tracer.trace_document()
            path = trace_dir / f"{w.name}-seed{self.seed}.json"
            path.write_text(json.dumps(doc, separators=(",", ":")))
            print(f"trace: {path}", file=sys.stderr)
            for hook in doc["missing_hooks"]:
                print(f"trace: no hook for {hook}; its metrics read 0", file=sys.stderr)
        units = declared_metrics(trace=True)
        return {
            "attempted": len(pairs),
            "failures": failures,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name: str, seconds: float, seed: int, trace: bool) -> dict:
    run = Run(WORKLOADS[name], seconds, seed)
    try:
        result = run.traced() if trace else run.end_to_end()
    finally:
        run.close()
    result["workload"] = name
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "origami_census" / "cli.py").is_file():
        print(f"error: no package sources at {SRC}", file=sys.stderr)
        return 2
    declared = declared_metrics(bool(args.trace))

    stamp = env_stamp()
    pin_to_one_core()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    random.Random(args.seed).shuffle(names)
    try:
        results = [run_workload(n, args.seconds, args.seed, bool(args.trace)) for n in names]
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    attempted = failed = 0
    metrics = {}
    for r in results:
        attempted += r["attempted"]
        failed += len(r["failures"])
        missing = set(declared) - set(r["metrics"])
        if missing and not r["failures"]:
            print(f"error: {r['workload']} did not measure {sorted(missing)}",
                  file=sys.stderr)
            return 1
        record = {"env": stamp, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, **r}
        (results_dir / f"{r['workload']}-seed{args.seed}-trace{args.trace}.json"
         ).write_text(json.dumps(record, indent=1))
        for name in declared:
            m = r["metrics"].get(name)
            if m is None:
                continue
            spread = f"  (n={m['n']}, q1={m['q1']:.4g}, q3={m['q3']:.4g})" if "q1" in m else ""
            if "raw_median" in m:
                spread += f"  raw median {m['raw_median']:.4g} {m['unit']}"
            print(f"{r['workload']:<22} {name:<36} {m['value']:.6g} {m['unit']}{spread}")
            key = name if len(results) == 1 else f"{r['workload']}.{name}"
            metrics[key] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({"env": stamp}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
