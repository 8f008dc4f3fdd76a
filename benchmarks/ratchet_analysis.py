"""CI ratchet for the analysis-speed benchmark.

Compares a fresh ``BENCH_analysis.json`` against the committed baseline
and fails (exit 1) when either analyzer path got slower, in units of
parsing, by more than the tolerance:

- ``cold_over_parse`` — a cold run's seconds over the median seconds to
  ``ast.parse`` the same tree in the same process;
- ``warm_over_parse`` — a warm (cache-hit) run's seconds over the same
  parse time.

Both are lower-is-better and divide out the host's speed, so each rises
only when its own path does more work: a faster cold run cannot fail
the ratchet, and a slower one cannot hide behind a larger cold/warm
ratio.  A baseline that lacks a gated figure fails, because nothing
could be compared.  The warm-cache speedup keeps its hard floor
(``min_warm_speedup``): a warm run must skip the checkers, not merely
run them faster.

Usage::

    python benchmarks/ratchet_analysis.py BASELINE.json CURRENT.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: a regression is a gated figure more than 25% above its baseline
TOLERANCE = 1.25

#: lower-is-better figures gated against the baseline
GATED = ("cold_over_parse", "warm_over_parse")


def compare(
    baseline: dict, current: dict, tolerance: float = TOLERANCE
) -> list[str]:
    """Regression messages, empty when the ratchet holds."""
    failures = []
    for key in GATED:
        if key not in baseline or key not in current:
            where = "baseline" if key not in baseline else "current run"
            failures.append(f"{key} missing from the {where}: nothing to gate")
            continue
        base, cur = baseline[key], current[key]
        if cur > base * tolerance:
            failures.append(
                f"{key} regressed: {cur:g} vs {base:g} at baseline "
                f"(tolerance: within {tolerance:g}x of baseline)"
            )
    speedup = current.get("warm_speedup", 0)
    floor = current.get("min_warm_speedup", 0)
    if speedup < floor:
        failures.append(
            f"warm-cache speedup {speedup:.2f}x is below the hard floor "
            f"{floor:g}x — the fast path is no longer skipping the checkers"
        )
    return failures


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    baseline = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    current = json.loads(Path(argv[2]).read_text(encoding="utf-8"))
    failures = compare(baseline, current)
    for line in failures:
        print(f"RATCHET FAIL: {line}", file=sys.stderr)
    if not failures:
        print(
            "ratchet holds: "
            + ", ".join(
                f"{key} {current[key]:g} (baseline {baseline[key]:g})"
                for key in GATED
            )
            + f", tolerance {TOLERANCE:g}x"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
