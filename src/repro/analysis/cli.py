"""The ``python -m repro.analysis`` command line."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.baseline import Baseline, apply_baseline, write_baseline
from repro.analysis.core import all_checkers
from repro.analysis.reporting import (
    exit_code_for,
    list_checkers_text,
    render_json,
    render_text,
    split_without_baseline,
)
from repro.analysis.runner import analyze_paths_cached

DEFAULT_BASELINE = "analysis-baseline.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Contract and determinism linter for the portal reproduction: "
            "checks the invariants that keep independently implemented "
            "services interoperable."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (json emits the repro.analysis.report artifact)",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="also write the report to FILE (same format as --format)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help=f"baseline file (default: {DEFAULT_BASELINE} when it exists)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help=(
            "capture current findings as the baseline and exit 0 "
            "(ratchet: fixed findings drop out, reasons are preserved)"
        ),
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated finding codes to keep (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        help="comma-separated finding codes to drop",
    )
    parser.add_argument(
        "--list-checkers",
        action="store_true",
        help="print the checker catalog and exit",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the analysis cache (neither read nor written)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="analysis cache directory (default: .analysis-cache)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print whether the cache hit or missed to stderr",
    )
    return parser


def _codes(raw: str | None) -> set[str] | None:
    if not raw:
        return None
    return {code.strip() for code in raw.split(",") if code.strip()}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_checkers:
        print(list_checkers_text(all_checkers()))
        return 0

    paths = [Path(p) for p in args.paths]
    if not paths:
        default = Path("src/repro")
        if not default.is_dir():
            print(
                "error: no paths given and ./src/repro does not exist",
                file=sys.stderr,
            )
            return 2
        paths = [default]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(
            f"error: path(s) do not exist: {', '.join(map(str, missing))}",
            file=sys.stderr,
        )
        return 2

    result, cache_stats = analyze_paths_cached(
        paths,
        select=_codes(args.select),
        ignore=_codes(args.ignore),
        cache_dir=Path(args.cache_dir) if args.cache_dir else None,
        use_cache=not args.no_cache,
    )
    if args.stats:
        print(cache_stats.line(), file=sys.stderr)

    baseline: Baseline | None = None
    if not args.no_baseline:
        baseline_path = Path(args.baseline) if args.baseline else Path(DEFAULT_BASELINE)
        if baseline_path.exists():
            baseline = Baseline.load(baseline_path)
        elif args.baseline and not args.write_baseline:
            print(
                f"error: baseline file {baseline_path} does not exist "
                "(use --write-baseline to create it)",
                file=sys.stderr,
            )
            return 2

    if args.write_baseline:
        target = Path(args.baseline) if args.baseline else Path(DEFAULT_BASELINE)
        reasons = {
            e.get("fingerprint", ""): e["reason"]
            for e in (baseline.entries if baseline else [])
            if e.get("reason")
        }
        written = write_baseline(result.findings, target, reasons=reasons)
        print(
            f"baseline written: {len(written)} entr(ies) -> {target}",
            file=sys.stderr,
        )
        return 0

    split = (
        apply_baseline(result.findings, baseline)
        if baseline is not None
        else split_without_baseline(result.findings)
    )
    code = exit_code_for(split)

    if args.format == "json":
        rendered = render_json(
            result,
            split,
            baseline,
            paths=[str(p) for p in paths],
            exit_code=code,
        )
    else:
        rendered = render_text(result, split, baseline) + "\n"

    sys.stdout.write(rendered)
    if args.output:
        out = Path(args.output)
        if args.format == "json":
            out.write_text(rendered, encoding="utf-8")
        else:
            out.write_text(
                render_json(
                    result,
                    split,
                    baseline,
                    paths=[str(p) for p in paths],
                    exit_code=code,
                ),
                encoding="utf-8",
            )
    return code
