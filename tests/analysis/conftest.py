import textwrap
from pathlib import Path

import pytest

from repro.analysis.core import SourceModule
from repro.analysis.runner import analyze_sources

FIXTURE_ROOT = Path(__file__).parent / "fixtures"


def modules_from(sources: dict[str, str]) -> list[SourceModule]:
    """Build in-memory SourceModules from {relative-path: code}."""
    return [
        SourceModule.from_text(
            textwrap.dedent(code), Path("/virtual") / rel, rel
        )
        for rel, code in sorted(sources.items())
    ]


def write_tree(root: Path, files: dict[str, str]) -> None:
    """Write {relative-path: code} under *root* (code is dedented)."""
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")


@pytest.fixture
def analyze():
    """analyze({"mod.py": code, ...}, checkers=[...]) -> AnalysisResult."""

    def run(sources: dict[str, str], **kwargs):
        return analyze_sources(modules_from(sources), **kwargs)

    return run


def codes(result) -> list[str]:
    return [f.code for f in result.findings]
