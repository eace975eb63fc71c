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
from .limits import reference_rows, stratum_constants, sweep
from .orbits import decompose
from .perm import MAX_DEGREE, DegreeMismatchError, Perm, perm_from_cycles
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


def cache_path(cache_dir: Path, degree: int, stratum: StratumSignature) -> Path:
    mu_tag = "-".join(str(m) for m in stratum.mu)
    return (
        cache_dir
        / f"v{SCHEMA_VERSION}"
        / f"census-d{degree}-mu{mu_tag}.jsonl"
    )


def log(message: str) -> None:
    print(message, file=sys.stderr)


def get_census(args, degree: int, stratum: StratumSignature) -> Census:
    """Load from cache when possible, else enumerate and cache.

    A cache file that fails to load or holds another census is
    recomputed; ``--budget`` bounds a cache hit as it bounds the
    enumeration, stopping the read at the first record past it.  A
    cache that cannot be written is logged and the census returned.
    The default cache directory is found here, its only reader, so a
    command that reads no census runs where none can be found.
    """
    cache_dir = args.cache_dir or default_cache_dir()
    path = cache_path(cache_dir, degree, stratum)
    if path.exists():
        try:
            census = load_census(
                path, budget=args.budget, expect=(degree, stratum)
            )
        except CensusFileError as exc:
            log(f"cache invalid ({exc}); recomputing")
        except ResourceBudgetError:
            log(f"cache hit: {path}")
            raise
        else:
            log(f"cache hit: {path}")
            return census
    census = enumerate_census(
        degree, stratum, workers=args.workers, budget=args.budget
    )
    # Imported here: only a cache write needs it, and it costs every
    # other run about 8 ms of start-up.
    import tempfile

    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        os.close(fd)
        save_census(census, tmp)
        os.replace(tmp, path)
        tmp = None
    except OSError as exc:
        log(f"cache write failed ({exc}); not cached")
    else:
        log(f"cache write: {path}")
    finally:
        # Also on an interrupt: no partial file is left behind.
        if tmp is not None:
            Path(tmp).unlink(missing_ok=True)
    return census


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def frac_text(x: Fraction | None) -> str:
    """Exact value plus a clearly approximate 6-place decimal."""
    if x is None:
        return "n/a"
    return f"{frac_str(x)} (~{float(x):.6f})"


def num_den(x: Fraction | None) -> tuple:
    """The two CSV cells of a fraction; both empty when it is undefined."""
    return (None, None) if x is None else (x.numerator, x.denominator)


def emit(
    args, doc, text: list[str], csv_header: str | None = None, csv_rows=()
) -> None:
    """Write one result in the chosen format; the only reader of --format.

    JSON is ``doc`` with fractions as "p/q"; a callable ``doc`` is called
    for it, so a document only JSON prints is built only for JSON.  CSV
    is the header and one line per row of cells, None as an empty cell;
    a command without a CSV header prints its text.  Text is one line
    per item.
    """
    if args.format == "json":
        if callable(doc):
            doc = doc()
        # Streamed: an encoded copy of a large report beside doc adds to peak RSS.
        json.dump(doc, sys.stdout, sort_keys=True, default=frac_str)
        print()
        return
    if args.format == "csv" and csv_header is not None:
        text = [csv_header]
        text += [
            ",".join("" if c is None else str(c) for c in row) for row in csv_rows
        ]
    for line in text:
        print(line)


def census_from_args(args) -> Census:
    stratum = parse_mu(args.mu)
    if args.degree < 1:
        raise UsageError("degree must be positive")
    if args.degree > MAX_DEGREE:
        raise UsageError(f"degree must be at most {MAX_DEGREE}")
    return get_census(args, args.degree, stratum)


# ---------------------------------------------------------------- census


def cmd_census(args) -> None:
    c = census_from_args(args)
    m, mu = c.total_weight, c.stratum.mu
    emit(
        args,
        {"degree": c.degree, "mu": list(mu), "n": c.n_classes, "m": m},
        [f"d={c.degree} mu={c.stratum} N={c.n_classes} M={frac_text(m)}"],
        "degree,mu,n,m_num,m_den",
        [(c.degree, " ".join(map(str, mu)), c.n_classes, *num_den(m))],
    )


# ---------------------------------------------------------------- orbits


def cmd_orbits(args) -> None:
    census = census_from_args(args)
    components = decompose(census)

    def doc():
        # Built only for JSON, the one format that prints the member keys.
        return {
            "degree": census.degree,
            "mu": list(census.stratum.mu),
            "n": census.n_classes,
            "m": census.total_weight,
            "components": [
                {
                    "component_id": c.component_id,
                    "size": c.n_classes,
                    "n": c.n_classes,
                    "m": c.total_weight,
                    "slope": c.slope,
                    "hyperelliptic": c.hyperelliptic,
                    "parity": c.parity,
                    "cusp_count": c.cusp_count,
                    "member_keys": [k.hex() for k in c.member_keys],
                }
                for c in components
            ],
        }

    text = [
        f"d={census.degree} mu={census.stratum} N={census.n_classes} "
        f"M={frac_text(census.total_weight)} components={len(components)}"
    ]
    for c in components:
        parity = "-" if c.parity is None else ("odd" if c.parity else "even")
        text.append(
            f"  component {c.component_id}: size={c.n_classes} "
            f"M={frac_text(c.total_weight)} slope={frac_text(c.slope)} "
            f"hyperelliptic={'yes' if c.hyperelliptic else 'no'} "
            f"parity={parity} cusps={c.cusp_count}"
        )
    emit(
        args,
        doc,
        text,
        "component_id,size,n,m_num,m_den,slope_num,slope_den,"
        "hyperelliptic,parity,cusp_count",
        [
            (
                c.component_id, c.n_classes, c.n_classes,
                *num_den(c.total_weight), *num_den(c.slope),
                str(c.hyperelliptic).lower(), c.parity, c.cusp_count,
            )
            for c in components
        ],
    )


# ---------------------------------------------------------------- classify


def cmd_classify(args) -> None:
    try:
        alpha = perm_from_cycles(args.alpha)
        beta = perm_from_cycles(args.beta)
    except ValueError as exc:
        raise UsageError(f"bad permutation: {exc}") from exc
    try:
        o = make_origami(alpha, beta)
    except (OrigamiError, DegreeMismatchError) as exc:
        raise UsageError(str(exc)) from exc

    try:
        parity = spin_parity(o)
    except ParityUndefinedError:
        parity = None
    involutions = find_anti_involutions(o)
    doc = {
        "degree": o.degree,
        "alpha": str(o.alpha),
        "beta": str(o.beta),
        "mu": list(o.stratum.mu),
        "genus": o.genus,
        "weight": o.weight,
        "cylinders": horizontal_cylinders(o),
        "involutions": [
            {
                "tau": str(Perm(r.tau)),
                "square_centers": r.square_centers,
                "vertical_edges": r.vertical_edges,
                "horizontal_edges": r.horizontal_edges,
                "regular_vertices": r.regular_vertices,
                "fixed_zeros": r.fixed_zeros,
                "total_fixed": r.total_fixed,
            }
            for r in involutions
        ],
        "hyperelliptic": is_hyperelliptic(o),
        "parity": parity,
        "key": canonical_key(alpha, beta).hex(),
    }
    text = [
        f"alpha = {o.alpha}",
        f"beta  = {o.beta}",
        f"mu = {o.stratum}, genus {o.genus}",
        f"weight = {frac_text(o.weight)}",
        "cylinders = " + " ".join(f"{w}x{h}" for w, h in doc["cylinders"]),
    ]
    text += [
        f"involution tau={Perm(r.tau)} fixes: centers={r.square_centers} "
        f"vertical={r.vertical_edges} horizontal={r.horizontal_edges} "
        f"vertices={r.regular_vertices} zeros={r.fixed_zeros} "
        f"total={r.total_fixed}"
        for r in involutions
    ]
    if not involutions:
        text.append("no compatible involutions")
    text += [
        f"hyperelliptic = {'yes' if doc['hyperelliptic'] else 'no'}",
        "parity = "
        + ("undefined" if parity is None else ("odd" if parity else "even")),
        f"key = {doc['key']}",
    ]
    emit(args, doc, text)


# ---------------------------------------------------------------- limits


def cmd_limits(args) -> None:
    stratum = parse_mu(args.mu)
    if args.dmax < 1:
        raise UsageError("--dmax must be positive")
    if args.dmax > MAX_DEGREE:
        # Checked before the sweep, which would otherwise run every
        # lower degree first.
        raise UsageError(f"--dmax must be at most {MAX_DEGREE}")
    report = sweep(
        stratum,
        args.dmax,
        scope=args.scope,
        provider=lambda d, s: get_census(args, d, s),
    )
    doc = {
        "mu": list(stratum.mu),
        "scope": args.scope,
        "rows": [
            {
                "d": r.degree,
                "scope": args.scope,
                "label": r.label,
                "n": r.n_classes,
                "m": r.total_weight,
                "ratio": r.ratio,
                "slope": r.slope,
            }
            for r in report.rows
        ],
        "truncated_at": report.truncated_at,
    }
    text = [f"mu={stratum} scope={args.scope} kappa={frac_text(stratum.kappa)}"]
    exact = stratum_constants(stratum)
    if exact is not None:
        c, big_l, s = exact
        text.append(
            f"exact hyperelliptic values: c={frac_text(c)} "
            f"L={frac_text(big_l)} s={frac_text(s)}"
        )
    text += [
        f"  d={r.degree} [{r.label}] N={r.n_classes} "
        f"M={frac_text(r.total_weight)} M/N={frac_text(r.ratio)} "
        f"slope={frac_text(r.slope)}"
        for r in report.rows
    ]
    csv_rows = [
        (
            " ".join(map(str, stratum.mu)), r.label, r.degree, r.n_classes,
            *num_den(r.total_weight), *num_den(r.slope),
        )
        for r in report.rows
    ]
    if report.truncated_at is not None:
        text.append(f"  truncated at degree {report.truncated_at} (budget)")
        csv_rows.append((f"# truncated at degree {report.truncated_at}",))
    emit(
        args,
        doc,
        text,
        "stratum,component_label,d,N,M_num,M_den,slope_num,slope_den",
        csv_rows,
    )


# ---------------------------------------------------------------- table


def cmd_table(args) -> None:
    try:
        rows = reference_rows(args.genus)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.mu is not None:
        stratum = parse_mu(args.mu)
        if stratum.genus != args.genus:
            raise UsageError(
                f"mu {stratum} has genus {stratum.genus}, not {args.genus}"
            )
        rows = [r for r in rows if r.mu == stratum.mu]
    text = []
    for r in rows:
        mu = "(" + ",".join(str(x) for x in r.mu) + ")"
        text.append(
            f"genus {r.genus}  mu={mu:<20} {r.label:<7} s={frac_text(r.slope)}"
        )
    emit(
        args,
        [
            {"genus": r.genus, "mu": list(r.mu), "label": r.label, "slope": r.slope}
            for r in rows
        ],
        text,
        "genus,mu,label,s_num,s_den",
        [(r.genus, " ".join(map(str, r.mu)), r.label, *num_den(r.slope)) for r in rows],
    )


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
    p.add_argument("--mu", required=True)
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument(
        "--scope",
        choices=("stratum", "hyperelliptic", "classes"),
        default="stratum",
    )
    p.set_defaults(func=cmd_limits)

    p = sub.add_parser("table", parents=[common], help="reference slope table")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--mu", help="restrict to one stratum")
    p.set_defaults(func=cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.workers < 1:
            raise UsageError("--workers must be positive")
        if args.budget is not None and args.budget < 1:
            raise UsageError("--budget must be positive")
        args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        ResourceBudgetError, OrigamiError, CensusFileError, OSError, RuntimeError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
