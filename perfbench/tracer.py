"""Traced in-process runs: spans and counters around each layer.

The package is left unmodified.  For a traced run, the public
functions at each layer boundary are replaced by wrappers that record
a span (name, start, end, parent) or bump a counter, and the originals
are put back afterwards.  Modules import functions by name, so a
wrapper is installed under every name, in every ``origami_census``
module, that refers to the original.

A layer's self time is its span time minus the time of its direct
child spans.  Counters and span counts are exact and must repeat from
one traced run to the next.
"""
from __future__ import annotations

import gc
import io
import resource
import statistics
import sys
import traceback
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from time import perf_counter, perf_counter_ns

from refclock import ReferenceClock
from workloads import SRC, Workload, check_output

# Span name -> (module, attribute) wrapped with a span.
SPANS = {
    "cli.get_census": ("cli", "get_census"),
    "census.enumerate": ("census", "enumerate_census"),
    "census.alpha_class": ("census", "_enumerate_alpha_class"),
    "census.save": ("census", "save_census"),
    "census.load": ("census", "load_census"),
    "surface.canonical_form": ("surface", "canonical_form"),
    "surface.make_origami": ("surface", "make_origami"),
    "surface.from_record": ("surface", "from_record"),
    "orbits.decompose": ("orbits", "decompose"),
    "orbits.cusp_data": ("orbits", "cusp_data"),
    "spin.spin_parity": ("spin", "spin_parity"),
    "involutions.is_hyperelliptic": ("involutions", "is_hyperelliptic"),
}

# Counter name -> functions whose calls it counts.
CALL_COUNTERS = {
    "perm.compose_calls": [("perm", "compose")],
    "orbits.twist_images": [
        ("orbits", "act_h_alpha"),
        ("orbits", "act_h_beta"),
        ("orbits", "act_h_alpha_inverse"),
        ("orbits", "act_h_beta_inverse"),
    ],
}

# Counter name -> Perm method whose calls it counts.
PERM_METHOD_COUNTERS = {
    "perm.perm_constructions": "__post_init__",
    "perm.inverse_calls": "inverse",
}

# Results a span reports into a counter: counter name -> (span, measure).
RESULT_COUNTERS = {
    "census.classes": ("census.alpha_class", len),
    "census.records_loaded": ("census.load", len),
    "cli.cache_hits": ("census.load", lambda _: 1),
    "orbits.components": ("orbits.decompose", len),
    "orbits.cusps": ("orbits.cusp_data", len),
}

NS = 1e-9

# Per-layer metric -> (unit, how it is read from a finished Tracer).
# cli.cache_bytes, proc.cpu_s and trace.overhead_s are measured around
# the traced call instead.
LAYER_METRICS = {
    "census.enumerate_s": ("s", lambda t: t.total_ns["census.enumerate"] * NS),
    "census.alpha_class_self_s": ("s", lambda t: t.self_ns["census.alpha_class"] * NS),
    "census.alpha_class_max_s": ("s", lambda t: t.max_ns["census.alpha_class"] * NS),
    "census.alpha_classes": ("count", lambda t: t.calls["census.alpha_class"]),
    "census.betas_tried": ("count", lambda t: t.counts["census.betas_tried"]),
    "census.classes": ("count", lambda t: t.counts["census.classes"]),
    "census.yield": (
        "ratio",
        lambda t: t.counts["census.classes"] / t.counts["census.betas_tried"]
        if t.counts["census.betas_tried"] else 0.0,
    ),
    "census.save_s": ("s", lambda t: t.total_ns["census.save"] * NS),
    "census.load_s": ("s", lambda t: t.total_ns["census.load"] * NS),
    "census.records_loaded": ("count", lambda t: t.counts["census.records_loaded"]),
    "surface.canonical_form_calls": ("count", lambda t: t.calls["surface.canonical_form"]),
    "surface.canonical_form_self_s": ("s", lambda t: t.self_ns["surface.canonical_form"] * NS),
    "surface.make_origami_calls": ("count", lambda t: t.calls["surface.make_origami"]),
    "surface.make_origami_self_s": ("s", lambda t: t.self_ns["surface.make_origami"] * NS),
    "surface.from_record_self_s": ("s", lambda t: t.self_ns["surface.from_record"] * NS),
    "perm.perm_constructions": ("count", lambda t: t.counts["perm.perm_constructions"]),
    "perm.inverse_calls": ("count", lambda t: t.counts["perm.inverse_calls"]),
    "perm.compose_calls": ("count", lambda t: t.counts["perm.compose_calls"]),
    "orbits.decompose_self_s": ("s", lambda t: t.self_ns["orbits.decompose"] * NS),
    "orbits.twist_images": ("count", lambda t: t.counts["orbits.twist_images"]),
    "orbits.components": ("count", lambda t: t.counts["orbits.components"]),
    "orbits.cusp_data_self_s": ("s", lambda t: t.self_ns["orbits.cusp_data"] * NS),
    "orbits.cusps": ("count", lambda t: t.counts["orbits.cusps"]),
    "spin.spin_parity_calls": ("count", lambda t: t.calls["spin.spin_parity"]),
    "spin.spin_parity_self_s": ("s", lambda t: t.self_ns["spin.spin_parity"] * NS),
    "involutions.is_hyperelliptic_calls": (
        "count", lambda t: t.calls["involutions.is_hyperelliptic"]),
    "involutions.is_hyperelliptic_self_s": (
        "s", lambda t: t.self_ns["involutions.is_hyperelliptic"] * NS),
    "cli.get_census_s": ("s", lambda t: t.total_ns["cli.get_census"] * NS),
    "cli.cache_hits": ("count", lambda t: t.counts["cli.cache_hits"]),
}


def import_package():
    """Import the package from this checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import origami_census.cli

    return origami_census.cli


def _package_modules() -> list:
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "origami_census" or name.startswith("origami_census."))
    ]


class Tracer:
    """Installs the wrappers for the duration of a ``with`` block."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int] | None] = []
        self.counts: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.self_ns: defaultdict[str, int] = defaultdict(int)
        self.total_ns: defaultdict[str, int] = defaultdict(int)
        self.max_ns: defaultdict[str, int] = defaultdict(int)
        self.missing_hooks: list[str] = []
        self._stack: list[list[int]] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers

    def _span(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        calls, self_ns, total_ns, max_ns = self.calls, self.self_ns, self.total_ns, self.max_ns
        reports = [(c, measure) for c, (s, measure) in RESULT_COUNTERS.items() if s == name]

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [idx, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                spans[idx] = (name, start, end, parent)
                calls[name] += 1
                total_ns[name] += dur
                self_ns[name] += dur - frame[1]
                if dur > max_ns[name]:
                    max_ns[name] = dur
                if stack:
                    stack[-1][1] += dur
            for counter, measure in reports:
                counts[counter] += measure(result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counted_permutations(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            n = 0
            try:
                for p in fn(*args, **kwargs):
                    n += 1
                    yield p
            finally:
                counts["census.betas_tried"] += n

        return wrapper

    # -- installation

    def _replace_everywhere(self, module: str, attr: str, make) -> None:
        owner = sys.modules.get(f"origami_census.{module}")
        original = getattr(owner, attr, None)
        if original is None:
            self.missing_hooks.append(f"{module}.{attr}")
            return
        wrapper = make(original)
        for m in _package_modules():
            for name, value in list(vars(m).items()):
                if value is original:
                    self._undo.append((m, name, value))
                    setattr(m, name, wrapper)

    def __enter__(self) -> Tracer:
        for name, (module, attr) in SPANS.items():
            self._replace_everywhere(module, attr, lambda f, n=name: self._span(n, f))
        for name, targets in CALL_COUNTERS.items():
            for module, attr in targets:
                self._replace_everywhere(module, attr, lambda f, n=name: self._counted(n, f))
        # The beta sweep iterates itertools.permutations imported by name;
        # no other CLI path iterates it.
        self._replace_everywhere("census", "permutations", self._counted_permutations)
        perm_cls = sys.modules["origami_census.perm"].Perm
        for name, attr in PERM_METHOD_COUNTERS.items():
            original = perm_cls.__dict__.get(attr)
            if original is None:
                self.missing_hooks.append(f"perm.Perm.{attr}")
                continue
            self._undo.append((perm_cls, attr, original))
            setattr(perm_cls, attr, self._counted(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    def layer_metrics(self) -> dict[str, float]:
        return {name: read(self) for name, (_, read) in LAYER_METRICS.items()}

    def trace_document(self) -> dict:
        """Spans as rows of (name index, start, end, parent index), with
        times in ns from the first span."""
        rows = self.spans  # every span has ended once the traced call returns
        names = sorted({s[0] for s in rows})
        index = {n: i for i, n in enumerate(names)}
        t0 = rows[0][1] if rows else 0
        return {
            "span_names": names,
            "span_columns": ["name", "start_ns", "end_ns", "parent"],
            "spans": [[index[n], s - t0, e - t0, p] for n, s, e, p in rows],
            "counters": dict(sorted(self.counts.items())),
            "missing_hooks": self.missing_hooks,
        }


def call_cli(cli, argv: list[str], tracer: Tracer | None = None):
    """Run ``cli.main(argv)`` in-process, capturing its output.

    Returns (exit code, stdout bytes, stderr text, wall s, cpu s).
    """
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            if tracer is None:
                rc = cli.main(argv)
            else:
                with tracer:
                    rc = cli.main(argv)
        except Exception:
            # A crash is a failed run, reported with its traceback.
            traceback.print_exc()
            rc = 1
    wall = perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
    return rc, out.getvalue().encode(), err.getvalue(), wall, cpu


def cache_bytes(cache_dir) -> int:
    return sum(p.stat().st_size for p in cache_dir.rglob("*.jsonl"))


def exact_metrics(metrics: dict[str, float]) -> dict[str, float]:
    """The metrics that must repeat exactly between traced runs."""
    return {
        k: v for k, v in metrics.items()
        if k == "cli.cache_bytes" or LAYER_METRICS[k][0] != "s"
    }


@dataclass
class TracedPair:
    """An untraced and a traced in-process run of one workload, with
    every time scaled to reference speed."""

    failure: str | None
    metrics: dict[str, float]  # per-layer metrics of the traced run
    tracer: Tracer
    traced_wall_s: float
    untraced_wall_s: float
    untraced_cpu_s: float


def traced_pair(cli, w: Workload, new_cache_dir, clock: ReferenceClock,
                traced_first: bool) -> TracedPair:
    runs = {}
    for traced in ((True, False) if traced_first else (False, True)):
        cache_dir = new_cache_dir()
        tracer = Tracer() if traced else None
        rc, out, err, wall, cpu = call_cli(cli, w.cli_args(cache_dir), tracer)
        runs[traced] = (check_output(w, rc, out, err), tracer, wall, cpu,
                        cache_dir, clock.factor())
    failure_t, tracer, wall_t, _, cache_dir, scale_t = runs[True]
    failure_u, _, wall_u, cpu_u, _, scale_u = runs[False]
    metrics = {
        k: v * scale_t if LAYER_METRICS[k][0] == "s" else v
        for k, v in tracer.layer_metrics().items()
    }
    metrics["cli.cache_bytes"] = cache_bytes(cache_dir)
    return TracedPair(failure_t or failure_u, metrics, tracer,
                      wall_t * scale_t, wall_u * scale_u, cpu_u * scale_u)


def summarize_traced(pairs: list[TracedPair]) -> tuple[dict[str, float], str | None]:
    """Per-layer metrics over several traced pairs.

    Times are medians; exact counts must agree across pairs, otherwise
    the second value is the reason the run is wrong.
    """
    first = exact_metrics(pairs[0].metrics)
    for p in pairs[1:]:
        again = exact_metrics(p.metrics)
        if again != first:
            diff = {k: (first[k], again[k]) for k in first if first[k] != again[k]}
            return {}, f"exact counts differ between traced runs: {diff}"
    out = {
        k: statistics.median(p.metrics[k] for p in pairs) if k not in first else first[k]
        for k in pairs[0].metrics
    }
    out["proc.cpu_s"] = statistics.median(p.untraced_cpu_s for p in pairs)
    out["trace.overhead_s"] = (
        statistics.median(p.traced_wall_s for p in pairs)
        - statistics.median(p.untraced_wall_s for p in pairs)
    )
    return out, None
