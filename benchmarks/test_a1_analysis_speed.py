"""Experiment A1 — whole-program analysis speed, cold vs warm cache.

The analyzer's cost story has two regimes: a cold run pays for parsing,
graph construction, and every interprocedural fixpoint; a warm run over
an unchanged tree hashes the files into the whole-tree key and returns
the stored report from ``.analysis-cache/`` without parsing a file.  This
benchmark measures both over the real ``src/repro`` tree, checks the
reports are byte-identical, and records cold µs/file, files/sec, and the
warm speedup in ``BENCH_analysis.json``.  The cold time is the median of
``COLD_RUNS`` runs, each starting from an empty cache; a warm run takes
tens of milliseconds, so its time is the median of ``WARM_RUNS`` runs.

Both regimes are also expressed in units of parsing: ``parse_s`` is the
median of ``ast.parse`` passes over the same texts in the same process,
one before each cold run and one after the last, so that parse and cold
times sample the same host conditions.  Every timed section starts with
``gc.collect()``: a finished analysis stays reachable through reference
cycles until the collector runs, and without it the next section would
pay for freeing the previous run.  ``cold_over_parse`` and
``warm_over_parse`` divide each median by it.  Those two lower-is-better
ratios are what ``benchmarks/ratchet_analysis.py`` gates: they cancel
the host's speed, and each one rises only when its own path gets slower.
"""

from __future__ import annotations

import ast
import gc
import json
import shutil
import statistics
import time
from pathlib import Path

from benchmarks.conftest import record_table
from repro.analysis.reporting import (
    exit_code_for,
    render_json,
    split_without_baseline,
)
from repro.analysis.runner import analyze_paths_cached, collect_files

REPO_ROOT = Path(__file__).parent.parent
TREE = REPO_ROOT / "src" / "repro"

#: the cache's reason to exist: a warm full-tree pass must beat cold by
#: at least this factor
MIN_WARM_SPEEDUP = 3.0

#: cold runs timed, each from an empty cache; the median is recorded
COLD_RUNS = 3

#: warm runs timed; the median is recorded
WARM_RUNS = 7


def _timed_run(cache_dir: Path, **kwargs):
    gc.collect()
    start = time.perf_counter()
    result, stats = analyze_paths_cached(
        [TREE], root=REPO_ROOT, cache_dir=cache_dir, **kwargs
    )
    return result, stats, time.perf_counter() - start


def _parse_pass(texts: list[str]) -> float:
    """Seconds to ``ast.parse`` every file of the tree once."""
    gc.collect()
    start = time.perf_counter()
    for text in texts:
        ast.parse(text)
    return time.perf_counter() - start


def _rendered(result) -> str:
    split = split_without_baseline(result.findings)
    return render_json(
        result, split, None, paths=["src/repro"], exit_code=exit_code_for(split)
    )


def test_analysis_speed_cold_vs_warm(tmp_path):
    cache_dir = tmp_path / "analysis-cache"

    texts = [path.read_text(encoding="utf-8") for path in collect_files([TREE])]
    parse_times, cold_times = [], []
    for _ in range(COLD_RUNS):
        parse_times.append(_parse_pass(texts))
        shutil.rmtree(cache_dir, ignore_errors=True)
        cold_result, cold_stats, cold_s = _timed_run(cache_dir)
        assert cold_stats.misses == cold_result.files_scanned
        cold_times.append(cold_s)
    parse_times.append(_parse_pass(texts))
    cold_s = statistics.median(cold_times)
    parse_s = statistics.median(parse_times)

    warm_times = []
    for _ in range(WARM_RUNS):
        warm_result, warm_stats, warm_s = _timed_run(cache_dir)
        assert warm_stats.hits == warm_result.files_scanned
        warm_times.append(warm_s)
    warm_s = statistics.median(warm_times)

    # the cache must never change what the analyzer reports
    assert _rendered(warm_result) == _rendered(cold_result)

    files = cold_result.files_scanned
    speedup = cold_s / warm_s
    verdict = {
        "files": files,
        "findings": len(cold_result.findings),
        "cold_s": round(cold_s, 4),
        "cold_us_per_file": round(cold_s / files * 1e6, 1),
        "cold_files_per_s": round(files / cold_s, 2),
        "warm_s": round(warm_s, 4),
        "warm_us_per_file": round(warm_s / files * 1e6, 1),
        "warm_files_per_s": round(files / warm_s, 2),
        "warm_speedup": round(speedup, 2),
        "parse_s": round(parse_s, 4),
        "cold_over_parse": round(cold_s / parse_s, 3),
        "warm_over_parse": round(warm_s / parse_s, 4),
    }
    assert speedup >= MIN_WARM_SPEEDUP, verdict

    record_table(
        "A1  whole-program analysis: cold vs warm cache (src/repro)",
        ["files", "cold s", "cold µs/file", "warm s", "warm µs/file", "speedup",
         "parse s", "cold/parse", "warm/parse"],
        [[files, verdict["cold_s"], verdict["cold_us_per_file"],
          verdict["warm_s"], verdict["warm_us_per_file"],
          verdict["warm_speedup"], verdict["parse_s"],
          verdict["cold_over_parse"], verdict["warm_over_parse"]]],
    )

    out = REPO_ROOT / "BENCH_analysis.json"
    out.write_text(json.dumps({
        "benchmark": "a1_analysis_speed",
        "tree": "src/repro",
        "min_warm_speedup": MIN_WARM_SPEEDUP,
        **verdict,
    }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
