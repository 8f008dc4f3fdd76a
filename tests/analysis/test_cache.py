"""The whole-tree cache: hits, misses, and byte-identity.

The property at the bottom is the report's core guarantee, stated once
and machine-checked: the rendered JSON artifact is a pure function of
the analyzed tree — not of input path order and not of cache state
(cold vs warm).
"""

import ast
import gc
import json
import shutil
import weakref
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.cache import CACHE_FILE, read_report
from repro.analysis.reporting import (
    exit_code_for,
    render_json,
    split_without_baseline,
)
from repro.analysis.runner import analyze_paths_cached, analyze_sources, load_modules

from tests.analysis.conftest import write_tree

CLEAN_PKG = {
    "pkg/__init__.py": "",
    "pkg/helper.py": "def h():\n    return 1\n",
    "pkg/user.py": "from pkg.helper import h\n\n\ndef u():\n    return h()\n",
}

DIRTY_PKG = {
    "pkg/__init__.py": "",
    "pkg/clock.py": "import time\n\n\ndef now():\n    return time.time()\n",
    "pkg/pure.py": "def double(x):\n    return 2 * x\n",
}


def run(root: Path, **kwargs):
    kwargs.setdefault("cache_dir", root / ".analysis-cache")
    return analyze_paths_cached([root / "pkg"], root=root, **kwargs)


def report_of(result, paths) -> str:
    split = split_without_baseline(result.findings)
    return render_json(
        result, split, None,
        paths=[str(p) for p in paths],
        exit_code=exit_code_for(split),
    )


def test_cold_then_warm_fast_path(tmp_path):
    write_tree(tmp_path, CLEAN_PKG)
    cold, stats = run(tmp_path)
    assert (stats.hits, stats.misses) == (0, 3)
    assert (tmp_path / ".analysis-cache" / CACHE_FILE).exists()
    warm, stats = run(tmp_path)
    assert (stats.hits, stats.misses) == (3, 0)
    assert report_of(warm, ["pkg"]) == report_of(cold, ["pkg"])


def test_body_edit_misses(tmp_path):
    write_tree(tmp_path, DIRTY_PKG)
    run(tmp_path)
    pure = tmp_path / "pkg/pure.py"
    pure.write_text(
        pure.read_text(encoding="utf-8") + "\n\ndef triple(x):\n    return 3 * x\n",
        encoding="utf-8",
    )
    result, stats = run(tmp_path)
    assert (stats.hits, stats.misses) == (0, 3)
    # the untouched clock.py finding is re-derived, not merged from the cache
    assert [f.code for f in result.findings] == ["REP101"]


def test_deleted_module_misses(tmp_path):
    write_tree(tmp_path, DIRTY_PKG)
    run(tmp_path)
    (tmp_path / "pkg/clock.py").unlink()
    result, stats = run(tmp_path)
    assert (stats.hits, stats.misses) == (0, 2)
    assert result.files_scanned == 2
    assert result.findings == []


def test_select_change_misses(tmp_path):
    write_tree(tmp_path, DIRTY_PKG)
    run(tmp_path)
    result, stats = run(tmp_path, select={"REP102"})
    assert (stats.hits, stats.misses) == (0, 3)
    assert result.findings == []
    _result, stats = run(tmp_path, select={"REP102"})
    assert stats.hits == 3


def test_interface_change_invalidates_everything(tmp_path):
    write_tree(tmp_path, CLEAN_PKG)
    run(tmp_path)
    init = tmp_path / "pkg/__init__.py"
    init.write_text("class Registry:\n    pass\n", encoding="utf-8")
    _result, stats = run(tmp_path)
    assert stats.misses == 3 and stats.hits == 0


def test_warm_hit_parses_nothing(tmp_path, monkeypatch):
    write_tree(tmp_path, DIRTY_PKG)
    cold, _ = run(tmp_path)

    def no_parse(*_args, **_kwargs):
        raise AssertionError("a warm hit must not parse")

    monkeypatch.setattr(ast, "parse", no_parse)
    warm, stats = run(tmp_path)
    assert stats.hits == 3
    assert report_of(warm, ["pkg"]) == report_of(cold, ["pkg"])


def test_runs_share_no_memoized_facts(tmp_path):
    """Facts live on each run's modules and graph: a second analysis in
    the same process after an edit sees the edit, and the first run's
    trees and AST indexes are freed once its modules are dropped."""
    write_tree(tmp_path, CLEAN_PKG)
    before = load_modules([tmp_path / "pkg"], root=tmp_path)
    assert analyze_sources(before).findings == []
    tree = weakref.ref(before[1].tree)
    index = weakref.ref(before[1].index)
    aliases = before[1].aliases
    (tmp_path / "pkg/helper.py").write_text(
        "import time\n\n\ndef h():\n    return time.time()\n", encoding="utf-8"
    )
    after = load_modules([tmp_path / "pkg"], root=tmp_path)
    assert [f.code for f in analyze_sources(after).findings] == ["REP101"]
    assert after[1].aliases == {"time": "time"} and aliases == {}
    del before
    gc.collect()
    assert tree() is None
    assert index() is None


def test_no_cache_reads_and_writes_nothing(tmp_path):
    write_tree(tmp_path, CLEAN_PKG)
    _result, stats = run(tmp_path, use_cache=False)
    assert not stats.enabled
    assert not (tmp_path / ".analysis-cache").exists()


def test_corrupt_cache_degrades_to_cold(tmp_path):
    write_tree(tmp_path, CLEAN_PKG)
    run(tmp_path)
    cache_file = tmp_path / ".analysis-cache" / CACHE_FILE
    key = json.loads(cache_file.read_text(encoding="utf-8"))["key"]
    cache_file.write_text("{not json", encoding="utf-8")
    assert read_report(cache_file, key) is None
    _result, stats = run(tmp_path)
    assert stats.misses == 3
    assert read_report(cache_file, key) is not None


def test_deleting_cache_reproduces_bytes(tmp_path):
    write_tree(tmp_path, DIRTY_PKG)
    first, _ = run(tmp_path)
    shutil.rmtree(tmp_path / ".analysis-cache")
    second, stats = run(tmp_path)
    assert stats.misses == 3
    assert report_of(second, ["pkg"]) == report_of(first, ["pkg"])


# -- the byte-identity property ------------------------------------------------

DEMO_DIR = Path(__file__).parent / "fixtures" / "demo"
DEMO_FILES = sorted(p.name for p in DEMO_DIR.glob("*.py"))


@pytest.fixture(scope="module")
def demo_env(tmp_path_factory):
    """A module-scoped cache dir plus the reference (cold, cache-less)
    rendering of the demo fixture report."""
    cache_dir = tmp_path_factory.mktemp("analysis-cache")
    root = DEMO_DIR.parents[1]  # tests/analysis: rels match the golden report
    paths = [DEMO_DIR / name for name in DEMO_FILES]
    result, _ = analyze_paths_cached(
        paths, root=root, use_cache=False
    )
    reference = report_of(result, DEMO_FILES)
    return {"cache_dir": cache_dir, "root": root, "reference": reference}


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(order=st.permutations(DEMO_FILES), warm=st.booleans())
def test_report_is_a_pure_function_of_the_tree(demo_env, order, warm):
    cache_dir = demo_env["cache_dir"]
    root = demo_env["root"]
    if warm:
        # ensure the cache is populated (a no-op when already warm)
        analyze_paths_cached(
            [DEMO_DIR], root=root, cache_dir=cache_dir
        )
    elif cache_dir.exists():
        shutil.rmtree(cache_dir)
    result, _ = analyze_paths_cached(
        [DEMO_DIR / name for name in order],
        root=root,
        cache_dir=cache_dir,
    )
    assert report_of(result, list(order)) == demo_env["reference"]


def test_rendered_report_matches_golden_via_cache(demo_env):
    """The cached rendering equals the committed golden artifact minus
    the ``paths`` field (the golden run analyzed the directory)."""
    result, stats = analyze_paths_cached(
        [DEMO_DIR], root=demo_env["root"], cache_dir=demo_env["cache_dir"]
    )
    rendered = json.loads(report_of(result, ["fixtures/demo"]))
    golden = json.loads(
        (Path(__file__).parent / "golden_report.json").read_text(encoding="utf-8")
    )
    assert rendered == golden
