"""Batch command line interface.

Subcommands: ``extract`` (fast or brute extraction over a batch), ``grid``
(dense objective matrix export for one cycle), ``compare`` (fast vs brute
agreement report), and ``generate`` (synthetic batch writer). Exit codes:
0 success, 1 fatal I/O or configuration error, 2 no valid input records.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .objective import DEFAULT_DOMAIN, Domain
from .pipeline import (
    IngestResult,
    NoValidRecordsError,
    generate,
    ingest,
    export_grid,
    run_batch,
    write_results,
)
from .search import COMPARE_THRESHOLD, MESH_UNITS, GridConfig, SearchConfig


def _parse_domain(text: str) -> Domain:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("domain needs u1min,u1max,u2min,u2max")
    return Domain(*parts)


def _parse_guess(text: str) -> tuple[float, float]:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("guess needs u1,u2")
    return parts[0], parts[1]


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    """Input, grid and domain flags shared by extract, grid and compare."""
    parser.add_argument("--input", required=True)
    parser.add_argument("--format", choices=["auto", "csv", "jsonl"], default="auto")
    parser.add_argument("--mesh", type=float, default=GridConfig.mesh)
    parser.add_argument("--mesh-unit", choices=MESH_UNITS, default=GridConfig.mesh_unit)
    parser.add_argument(
        "--domain", type=_parse_domain, default=DEFAULT_DOMAIN, metavar="U1MIN,U1MAX,U2MIN,U2MAX"
    )


def _add_search_flags(parser: argparse.ArgumentParser) -> None:
    default_guesses = " and ".join(f"{u1:g},{u2:g}" for u1, u2 in SearchConfig.guesses)
    parser.add_argument(
        "--tol",
        type=float,
        default=SearchConfig.delta_tol,
        help="compass step at which each start hands off to Newton (dimensionless)",
    )
    parser.add_argument(
        "--step0", type=float, default=SearchConfig.delta0, help="initial step (dimensionless)"
    )
    parser.add_argument(
        "--guess",
        type=_parse_guess,
        action="append",
        default=None,
        metavar="U1,U2",
        help=f"initial guess, repeatable (default: {default_guesses})",
    )
    parser.add_argument(
        "--random-guesses", type=int, default=SearchConfig.random_guesses, metavar="M"
    )
    parser.add_argument("--seed", type=int, default=SearchConfig.seed)


def _search_config(args: argparse.Namespace) -> SearchConfig:
    return SearchConfig(
        domain=args.domain,
        delta0=args.step0,
        delta_tol=args.tol,
        guesses=tuple(args.guess) if args.guess else SearchConfig.guesses,
        random_guesses=args.random_guesses,
        seed=args.seed,
    )


def _grid_config(args: argparse.Namespace) -> GridConfig:
    return GridConfig(domain=args.domain, mesh=args.mesh, mesh_unit=args.mesh_unit)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifreq", description="Intrinsic frequency extraction from pressure cycles"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    extract = sub.add_parser("extract", help="extract frequencies from a batch")
    _add_input_flags(extract)
    extract.add_argument("--mode", choices=["fast", "brute"], default="fast")
    extract.add_argument("--out", default="-", help="output path, - for stdout")
    _add_search_flags(extract)

    grid = sub.add_parser("grid", help="export the dense objective grid for one cycle")
    _add_input_flags(grid)
    grid.add_argument("--out", required=True)

    compare = sub.add_parser("compare", help="fast vs brute agreement report")
    _add_input_flags(compare)
    compare.add_argument("--threshold", type=float, default=COMPARE_THRESHOLD)
    compare.add_argument("--out", default="-")
    _add_search_flags(compare)
    compare.set_defaults(mode="compare")

    gen = sub.add_parser("generate", help="write a synthetic batch with ground truth")
    gen.add_argument("--spec", required=True, help="generator description (JSON file)")
    gen.add_argument("--count", type=int, default=10)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    return parser


def _read_input(args: argparse.Namespace) -> IngestResult:
    fmt = None if args.format == "auto" else args.format
    ingested = ingest(args.input, fmt)
    for rejection in ingested.rejected:
        print(f"rejected {rejection.source}: {rejection.reason}", file=sys.stderr)
    if not ingested.records:
        raise NoValidRecordsError("no valid records")
    return ingested


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in ("extract", "compare"):
            ingested = _read_input(args)
            compare_only = {"threshold": args.threshold} if args.mode == "compare" else {}
            batch = run_batch(
                list(ingested.records),
                mode=args.mode,
                search_config=_search_config(args),
                grid_config=_grid_config(args),
                input_checksum=ingested.checksum,
                rejected=ingested.rejected,
                **compare_only,
            )
            write_results(batch, args.out)
            summary = batch.summary
            if batch.report is None:
                print(f"{summary['results']} results, {summary['failures']} failures",
                      file=sys.stderr)
            else:
                print(
                    f"{'PASS' if summary['passed'] else 'FAIL'}: max mean |d omega| = "
                    f"{summary['max_mean_abs_domega']:.4g} rad/s (threshold {args.threshold}), "
                    f"median wall ratio {summary['median_wall_ratio']:.1f}x, "
                    f"{summary['failures']} failures",
                    file=sys.stderr,
                )
            return 0

        if args.command == "grid":
            ingested = _read_input(args)
            record = ingested.records[0]
            if len(ingested.records) > 1:
                print(f"multiple cycles in input; using {record.id}", file=sys.stderr)
            outcome = export_grid(record.cycle, _grid_config(args), args.out)
            u1, u2 = outcome.dimensionless(record.cycle)
            print(f"minimizer u1={u1:.6g} u2={u2:.6g} -> {args.out}", file=sys.stderr)
            return 0

        # argparse requires one of the four commands: the last is "generate"
        batch_path, truth_path = generate(Path(args.spec), args.count, args.seed, args.out)
        print(f"wrote {batch_path} and {truth_path}", file=sys.stderr)
        return 0
    except NoValidRecordsError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
