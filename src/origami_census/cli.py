"""Command-line front end: census, orbits, classify, limits, table.

Outputs are deterministic: identical bytes for identical (arguments,
cache state), regardless of worker count.  Exit codes: 0 success
(including empty results), 1 runtime or resource failure, 2 usage
error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .census import (
    Census,
    CensusFileError,
    ResourceBudgetError,
    SCHEMA_VERSION,
    enumerate_census,
    load_census,
    save_census,
)
from .involutions import find_anti_involutions, is_hyperelliptic
from .limits import (
    reference_rows,
    row_slope,
    stratum_constants,
    sweep,
)
from .orbits import ComponentSummary, decompose
from .perm import perm_from_cycles
from .spin import ParityUndefinedError, spin_parity
from .surface import (
    OrigamiError,
    StratumSignature,
    canonical_key,
    horizontal_cylinders,
    make_origami,
)


class UsageError(ValueError):
    """Bad arguments; mapped to exit code 2."""


@dataclass
class RunConfig:
    fmt: str
    cache_dir: Path
    workers: int
    budget: int | None


def parse_mu(text: str) -> StratumSignature:
    try:
        parts = [int(x) for x in text.split(",")]
    except ValueError:
        raise UsageError(f"cannot parse mu {text!r}: expected comma-separated integers")
    try:
        return StratumSignature.from_parts(parts)
    except (ValueError, OrigamiError) as exc:
        raise UsageError(f"invalid mu {text!r}: {exc}") from exc


def default_cache_dir() -> Path:
    env = os.environ.get("ORIGAMI_CACHE_DIR")
    if env:
        return Path(env)
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "origami-census"


def cache_path(cfg: RunConfig, degree: int, stratum: StratumSignature) -> Path:
    mu_tag = "-".join(str(m) for m in stratum.mu)
    return (
        cfg.cache_dir
        / f"v{SCHEMA_VERSION}"
        / f"census-d{degree}-mu{mu_tag}.jsonl"
    )


def log(message: str) -> None:
    print(message, file=sys.stderr)


def get_census(
    cfg: RunConfig, degree: int, stratum: StratumSignature
) -> Census:
    """Load from cache when possible, else enumerate and cache."""
    path = cache_path(cfg, degree, stratum)
    if path.exists():
        try:
            census = load_census(path)
            log(f"cache hit: {path}")
            return census
        except CensusFileError as exc:
            log(f"cache invalid ({exc}); recomputing")
    census = enumerate_census(
        degree, stratum, workers=cfg.workers, budget=cfg.budget
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    os.close(fd)
    try:
        save_census(census, tmp)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise
    log(f"cache write: {path}")
    return census


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def frac_text(x: Fraction) -> str:
    """Exact value plus a clearly approximate 6-place decimal."""
    return f"{frac_str(x)} (~{float(x):.6f})"


def emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


# ---------------------------------------------------------------- census


def cmd_census(args, cfg: RunConfig) -> int:
    stratum = parse_mu(args.mu)
    census = get_census(cfg, args.degree, stratum)
    m = census.total_weight
    if cfg.fmt == "json":
        emit(
            json.dumps(
                {
                    "degree": census.degree,
                    "mu": list(stratum.mu),
                    "n": census.n_classes,
                    "m": frac_str(m),
                },
                sort_keys=True,
            )
        )
    elif cfg.fmt == "csv":
        emit("degree,mu,n,m_num,m_den")
        mu_tag = " ".join(str(x) for x in stratum.mu)
        emit(
            f"{census.degree},{mu_tag},{census.n_classes},"
            f"{m.numerator},{m.denominator}"
        )
    else:
        emit(
            f"d={census.degree} mu={stratum} N={census.n_classes} "
            f"M={frac_text(m)}"
        )
    return 0


# ---------------------------------------------------------------- orbits


def _component_dict(comp: ComponentSummary) -> dict:
    return {
        "component_id": comp.component_id,
        "size": comp.n_classes,
        "n": comp.n_classes,
        "m": frac_str(comp.total_weight),
        "slope": frac_str(comp.slope),
        "hyperelliptic": comp.hyperelliptic,
        "parity": comp.parity,
        "cusp_count": comp.cusp_count,
        "member_keys": [k.hex() for k in comp.member_keys],
    }


def cmd_orbits(args, cfg: RunConfig) -> int:
    stratum = parse_mu(args.mu)
    census = get_census(cfg, args.degree, stratum)
    components = decompose(census) if census.n_classes else []
    if cfg.fmt == "json":
        emit(
            json.dumps(
                {
                    "degree": census.degree,
                    "mu": list(stratum.mu),
                    "n": census.n_classes,
                    "m": frac_str(census.total_weight),
                    "components": [_component_dict(c) for c in components],
                },
                sort_keys=True,
            )
        )
    elif cfg.fmt == "csv":
        emit(
            "component_id,size,n,m_num,m_den,slope_num,slope_den,"
            "hyperelliptic,parity,cusp_count"
        )
        for c in components:
            parity = "" if c.parity is None else c.parity
            emit(
                f"{c.component_id},{c.n_classes},{c.n_classes},"
                f"{c.total_weight.numerator},{c.total_weight.denominator},"
                f"{c.slope.numerator},{c.slope.denominator},"
                f"{str(c.hyperelliptic).lower()},{parity},{c.cusp_count}"
            )
    else:
        emit(
            f"d={census.degree} mu={stratum} N={census.n_classes} "
            f"M={frac_text(census.total_weight)} "
            f"components={len(components)}"
        )
        for c in components:
            parity = "-" if c.parity is None else ("odd" if c.parity else "even")
            emit(
                f"  component {c.component_id}: size={c.n_classes} "
                f"M={frac_text(c.total_weight)} slope={frac_text(c.slope)} "
                f"hyperelliptic={'yes' if c.hyperelliptic else 'no'} "
                f"parity={parity} cusps={c.cusp_count}"
            )
    return 0


# ---------------------------------------------------------------- classify


def cmd_classify(args, cfg: RunConfig) -> int:
    try:
        alpha = perm_from_cycles(args.alpha)
        beta = perm_from_cycles(args.beta)
    except ValueError as exc:
        raise UsageError(f"bad permutation: {exc}") from exc
    try:
        o = make_origami(alpha, beta)
    except OrigamiError as exc:
        raise UsageError(str(exc)) from exc

    try:
        parity = spin_parity(o)
    except ParityUndefinedError:
        parity = None
    involutions = [
        {
            "tau": str(r.tau),
            "square_centers": r.square_centers,
            "vertical_edges": r.vertical_edges,
            "horizontal_edges": r.horizontal_edges,
            "regular_vertices": r.regular_vertices,
            "fixed_zeros": r.fixed_zeros,
            "total_fixed": r.total_fixed,
        }
        for r in find_anti_involutions(o)
    ]
    report = {
        "degree": o.degree,
        "alpha": str(o.alpha),
        "beta": str(o.beta),
        "mu": list(o.stratum.mu),
        "genus": o.genus,
        "weight": frac_str(o.weight),
        "cylinders": horizontal_cylinders(o),
        "involutions": involutions,
        "hyperelliptic": is_hyperelliptic(o),
        "parity": parity,
        "key": canonical_key(alpha, beta).hex(),
    }
    if cfg.fmt == "json":
        emit(json.dumps(report, sort_keys=True))
    else:
        emit(f"alpha = {o.alpha}")
        emit(f"beta  = {o.beta}")
        emit(f"mu = {o.stratum}, genus {o.genus}")
        emit(f"weight = {frac_text(o.weight)}")
        emit(
            "cylinders = "
            + " ".join(f"{w}x{h}" for w, h in horizontal_cylinders(o))
        )
        for r in involutions:
            emit(
                f"involution tau={r['tau']} fixes: centers={r['square_centers']} "
                f"vertical={r['vertical_edges']} horizontal={r['horizontal_edges']} "
                f"vertices={r['regular_vertices']} zeros={r['fixed_zeros']} "
                f"total={r['total_fixed']}"
            )
        if not involutions:
            emit("no compatible involutions")
        emit(f"hyperelliptic = {'yes' if report['hyperelliptic'] else 'no'}")
        emit(
            "parity = "
            + ("undefined" if parity is None else ("odd" if parity else "even"))
        )
        emit(f"key = {report['key']}")
    return 0


# ---------------------------------------------------------------- limits


def _sweep_csv_rows(report, stratum) -> list[str]:
    lines = [
        "stratum,component_label,d,N,M_num,M_den,slope_num,slope_den"
    ]
    mu_tag = " ".join(str(x) for x in stratum.mu)
    for r in report.rows:
        slope = row_slope(r, stratum)
        s_num = slope.numerator if slope is not None else ""
        s_den = slope.denominator if slope is not None else ""
        lines.append(
            f"{mu_tag},{r.label},{r.degree},{r.n_classes},"
            f"{r.total_weight.numerator},{r.total_weight.denominator},"
            f"{s_num},{s_den}"
        )
    return lines


def cmd_limits(args, cfg: RunConfig) -> int:
    if args.table or args.genus is not None:
        if args.genus is None:
            raise UsageError("--table requires --genus")
        return _emit_table(args.genus, cfg, mu_filter=args.mu)
    if args.mu is None:
        raise UsageError("limits needs --mu with --dmax, or --genus --table")
    stratum = parse_mu(args.mu)
    if args.dmax is None:
        raise UsageError("limits --mu needs --dmax")
    report = sweep(
        stratum,
        args.dmax,
        scope=args.scope,
        provider=lambda d, s: get_census(cfg, d, s),
    )
    if cfg.fmt == "json":
        rows = [
            {
                "d": r.degree,
                "scope": r.scope,
                "label": r.label,
                "n": r.n_classes,
                "m": frac_str(r.total_weight),
                "ratio": frac_str(r.ratio) if r.ratio is not None else None,
                "slope": (
                    frac_str(row_slope(r, stratum))
                    if row_slope(r, stratum) is not None
                    else None
                ),
            }
            for r in report.rows
        ]
        emit(
            json.dumps(
                {
                    "mu": list(stratum.mu),
                    "scope": report.scope,
                    "rows": rows,
                    "truncated_at": report.truncated_at,
                },
                sort_keys=True,
            )
        )
    elif cfg.fmt == "csv":
        lines = _sweep_csv_rows(report, stratum)
        if report.truncated_at is not None:
            lines.append(f"# truncated at degree {report.truncated_at}")
        emit("\n".join(lines))
    else:
        emit(f"mu={stratum} scope={report.scope} kappa={frac_text(stratum.kappa)}")
        consts = stratum_constants(stratum)
        if consts.exact_s is not None:
            emit(
                f"exact hyperelliptic values: c={frac_text(consts.exact_c)} "
                f"L={frac_text(consts.exact_l)} s={frac_text(consts.exact_s)}"
            )
        for r in report.rows:
            slope = row_slope(r, stratum)
            ratio = frac_text(r.ratio) if r.ratio is not None else "n/a"
            emit(
                f"  d={r.degree} [{r.label}] N={r.n_classes} "
                f"M={frac_text(r.total_weight)} M/N={ratio} "
                f"slope={frac_text(slope) if slope is not None else 'n/a'}"
            )
        if report.truncated_at is not None:
            emit(f"  truncated at degree {report.truncated_at} (budget)")
    return 0


def _emit_table(genus: int, cfg: RunConfig, mu_filter: str | None = None) -> int:
    try:
        rows = reference_rows(genus)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if mu_filter is not None:
        mu = parse_mu(mu_filter).mu
        rows = [r for r in rows if r.mu == mu]
    if cfg.fmt == "json":
        emit(
            json.dumps(
                [
                    {
                        "genus": r.genus,
                        "mu": list(r.mu),
                        "label": r.label,
                        "slope": frac_str(r.slope),
                    }
                    for r in rows
                ],
                sort_keys=True,
            )
        )
    elif cfg.fmt == "csv":
        lines = ["genus,mu,label,s_num,s_den"]
        for r in rows:
            mu_tag = " ".join(str(x) for x in r.mu)
            lines.append(
                f"{r.genus},{mu_tag},{r.label},"
                f"{r.slope.numerator},{r.slope.denominator}"
            )
        emit("\n".join(lines))
    else:
        for r in rows:
            mu = "(" + ",".join(str(x) for x in r.mu) + ")"
            emit(f"genus {r.genus}  mu={mu:<20} {r.label:<7} s={frac_text(r.slope)}")
    return 0


def cmd_table(args, cfg: RunConfig) -> int:
    return _emit_table(args.genus, cfg, mu_filter=args.mu)


# ---------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="output format (default text)",
    )
    common.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="census cache directory (default $ORIGAMI_CACHE_DIR)",
    )
    common.add_argument(
        "--workers", type=int, default=1, help="parallel workers (default 1)"
    )
    common.add_argument(
        "--budget",
        type=int,
        default=None,
        help="maximum census members held in memory",
    )

    parser = argparse.ArgumentParser(
        prog="origami-census",
        description=(
            "Enumerate square-tiled surfaces, decompose them into twist "
            "orbits and compute exact slopes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("census", parents=[common], help="enumerate one census")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--mu", required=True, help="zero orders, comma separated")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("orbits", parents=[common], help="orbit decomposition")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--mu", required=True)
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("classify", parents=[common], help="report on one surface")
    p.add_argument("--alpha", required=True, help='cycles, e.g. "(1,2,3,4)(5)"')
    p.add_argument("--beta", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("limits", parents=[common], help="slope sweeps and limits")
    p.add_argument("--mu")
    p.add_argument("--dmax", type=int)
    p.add_argument(
        "--scope",
        choices=("stratum", "hyperelliptic", "classes"),
        default="stratum",
    )
    p.add_argument("--genus", type=int)
    p.add_argument("--table", action="store_true", help="print reference rows")
    p.set_defaults(func=cmd_limits)

    p = sub.add_parser("table", parents=[common], help="reference slope table")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--mu", help="restrict to one stratum")
    p.set_defaults(func=cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = RunConfig(
        fmt=args.format,
        cache_dir=args.cache_dir or default_cache_dir(),
        workers=max(1, args.workers),
        budget=args.budget,
    )
    if args.budget is not None and args.budget < 1:
        print("error: --budget must be positive", file=sys.stderr)
        return 2
    try:
        return args.func(args, cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OrigamiError, CensusFileError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
