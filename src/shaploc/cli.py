"""Command-line front end: run config files, table presets, or the bench.

Exit codes: 0 on success, 1 on a config error or an output path that
cannot be written, 2 on a runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .suite import (
    ConfigError,
    bench,
    parse_config,
    preset_table1,
    preset_table2,
    render_bench,
    render_rows,
    run_suite,
)


def _build_parser() -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default=None, help="write output to this path")
    common = argparse.ArgumentParser(add_help=False, parents=[output])
    common.add_argument(
        "--format", choices=("csv", "markdown"), default=None,
        help="output format (default: csv, or the config file's choice)",
    )
    common.add_argument(
        "--no-timestamp", action="store_true",
        help="omit the timestamp header line (byte-stable output)",
    )

    parser = argparse.ArgumentParser(
        prog="shaploc",
        description="Shapley-value vs single-term sensor anomaly localization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", parents=[common], help="run a suite config file")
    p_run.add_argument("config", help="path to the suite config file")

    p_preset = sub.add_parser(
        "preset", parents=[common], help="run a built-in parameter grid"
    )
    p_preset.add_argument("which", choices=("table1", "table2"))
    p_preset.add_argument("--trials", type=int, default=None,
                          help="Monte Carlo runs per experiment (default 10^6)")
    p_preset.add_argument("--seed", type=int, default=None, help="suite seed (default 0)")

    p_bench = sub.add_parser(
        "bench", parents=[output], help="time full enumeration vs single-term"
    )
    p_bench.add_argument("--max-n", type=int, default=18)
    return parser


def _emit(text: str, out: str | None, mode: str = "w") -> bool:
    """Write ``text`` to ``out``, or to stdout when it is None.

    Returns False, with one line on stderr, when ``out`` cannot be written.
    Appending nothing (mode "a") checks ``out`` before a run and leaves an
    existing file's contents in place.
    """
    if out is None:
        sys.stdout.write(text)
        return True
    try:
        with open(out, mode) as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "bench":
        if args.max_n < 1 or args.max_n > 24:
            print("bench: --max-n must lie in 1..24", file=sys.stderr)
            return 1
        if not _emit("", args.out, "a"):
            return 1
        rows = bench(range(1, args.max_n + 1))
        return 0 if _emit(render_bench(rows), args.out) else 1

    try:
        if args.command == "run":
            cfg = parse_config(args.config)
        else:
            make = preset_table1 if args.which == "table1" else preset_table2
            given = {"trials": args.trials, "seed": args.seed}
            cfg = make(**{key: value for key, value in given.items() if value is not None})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if args.format is not None:
        cfg = replace(cfg, fmt=args.format)
    out = args.out if args.out is not None else cfg.out
    if not _emit("", out, "a"):
        return 1

    status, rows = run_suite(cfg)
    return status if _emit(render_rows(cfg, rows, timestamp=not args.no_timestamp), out) else 1


if __name__ == "__main__":
    raise SystemExit(main())
