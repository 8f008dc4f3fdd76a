"""Analysis cache: one key over the whole analyzed tree.

The key is a sha256 over everything a report can depend on:

- the analysis engine's own source (every checker, the graph, the runner);
- the ``--select``/``--ignore`` sets and the active code table;
- every analyzed file's root-relative path and content.

The value is the stored report: findings, suppressed findings, and the
number of files scanned.  A hit reads and hashes the files but parses
none of them.  Any change — a body edit, a new or deleted module, a
different ``--select`` — misses and re-runs the whole analysis, then
rewrites the cache.  There is no partial mode: whole-program findings
can depend on any file, so a key over the whole tree is the one that is
never stale.

The cache lives in ``.analysis-cache/findings.json`` (one deterministic
JSON document).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.core import Finding

CACHE_SCHEMA = "repro.analysis.cache/v2"
CACHE_DIR = ".analysis-cache"
CACHE_FILE = "findings.json"


def engine_digest() -> str:
    """Content hash of the analysis engine's own source: any change to a
    checker, the graph, or the runner invalidates every cached report."""
    package = Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def tree_key(
    sources: list[tuple[str, str]],
    *,
    select: set[str] | None,
    ignore: set[str] | None,
    codes: dict[str, str],
) -> str:
    """The cache key for (root-relative path, text) *sources* analyzed
    with these options."""
    digest = hashlib.sha256()
    header = [
        engine_digest(),
        ",".join(sorted(select or ())),
        ",".join(sorted(ignore or ())),
        json.dumps(sorted(codes.items())),
    ]
    for part in header:
        digest.update(part.encode("utf-8") + b"\0")
    for rel, text in sorted(sources):
        digest.update(rel.encode("utf-8") + b"\0")
        digest.update(text.encode("utf-8") + b"\0")
    return digest.hexdigest()


@dataclass
class CacheStats:
    """What the cache did for one run (reported via ``--stats``): a hit
    reuses the stored report for every file, a miss analyzes them all."""

    enabled: bool = False
    hits: int = 0
    misses: int = 0

    def line(self) -> str:
        if not self.enabled:
            return "cache: disabled (--no-cache)"
        if self.hits:
            return f"cache: hit, stored report reused for {self.hits} file(s)"
        return f"cache: miss, {self.misses} file(s) analyzed, cache rewritten"


def read_report(path: Path, key: str) -> tuple[list[Finding], list[Finding]] | None:
    """(findings, suppressed) stored under *key*, or ``None`` when the
    file is absent, corrupt, or holds another key's report."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        if payload["schema"] != CACHE_SCHEMA or payload["key"] != key:
            return None
        return (
            [finding_from_dict(item) for item in payload["findings"]],
            [finding_from_dict(item) for item in payload["suppressed"]],
        )
    except (OSError, ValueError, KeyError, TypeError):
        return None


def write_report(
    path: Path, key: str, findings: list[Finding], suppressed: list[Finding]
) -> None:
    payload = {
        "schema": CACHE_SCHEMA,
        "key": key,
        "findings": [f.to_dict() for f in findings],
        "suppressed": [f.to_dict() for f in suppressed],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


def finding_from_dict(payload: dict) -> Finding:
    """Rebuild a :class:`Finding` from its cached ``to_dict`` form."""
    return Finding(
        code=payload["code"],
        message=payload["message"],
        path=payload["path"],
        line=int(payload["line"]),
        col=int(payload.get("col", 0)),
        severity=payload.get("severity", "error"),
        checker=payload.get("checker", ""),
        symbol=payload.get("symbol", ""),
    )
