"""Core model of the analysis framework: findings, modules, checkers.

Everything here is pure stdlib (``ast`` + dataclasses): the analyzer never
imports the code under analysis, so it can lint a tree that does not even
import cleanly, and the CLI stays dependency-free for CI.
"""

from __future__ import annotations

import ast
import hashlib
import io
import re
import tokenize
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

from repro.analysis.astutil import (
    AstIndex,
    Exposure,
    find_exposures,
    import_aliases,
)
from repro.analysis.graph import ProjectGraph
from repro.analysis.graph.modgraph import module_import_origins

#: framework-level codes (emitted by the runner, not by checkers)
UNUSED_SUPPRESSION = "REP001"
PARSE_ERROR = "REP002"

FRAMEWORK_CODES = {
    UNUSED_SUPPRESSION: "inline suppression matches no finding",
    PARSE_ERROR: "file failed to parse",
}


class Severity:
    """Finding severities (plain strings so they serialize trivially)."""

    ERROR = "error"
    WARNING = "warning"

    ORDER = {ERROR: 0, WARNING: 1}


@dataclass(frozen=True)
class Finding:
    """One diagnostic: a coded, located, suppressible fact about the code."""

    code: str
    message: str
    path: str  # repo-relative posix path
    line: int
    col: int = 0
    severity: str = Severity.ERROR
    checker: str = ""
    symbol: str = ""  # enclosing class/function, when known

    def fingerprint(self) -> str:
        """Line-independent identity used by the baseline: moving a finding
        within its file does not churn the baseline, changing its message
        (or fixing it) does."""
        raw = f"{self.path}::{self.code}::{self.message}"
        return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:16]

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.code, self.message)

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "checker": self.checker,
            "symbol": self.symbol,
            "fingerprint": self.fingerprint(),
        }


#: a ``repro:`` waiver marker; the ``marker`` group runs from ``ignore`` to
#: the end of the bracket (or of the word) so malformed spellings are caught
_SUPPRESS_RE = re.compile(r"#\s*repro:\s*(?P<marker>ignore(?:\[[^\]]*\]?|\w*))")
#: the well-formed markers: bare ``ignore`` or ``ignore[REP101, REP104]``
_MARKER_RE = re.compile(r"ignore(?:\[(?P<codes>REP\d{3}(?:\s*,\s*REP\d{3})*)\])?")
CODE_RE = re.compile(r"REP\d{3}")


def parse_suppressions(text: str) -> dict[int, set[str]]:
    """Extract inline suppressions: {line -> set of codes} (empty set =
    blanket ``# repro: ignore`` suppressing every code on that line).

    A malformed marker (``ignore[rep101]``, ``ignore[]``, ``ignored``)
    maps to the set holding its own text: that names no code, so it
    suppresses nothing and the runner reports it as unused (REP001).

    Only genuine ``#`` comments count — the marker appearing inside a
    string or docstring (as it does in this very module) is prose, not a
    suppression, so the scan tokenizes rather than greps.
    """
    out: dict[int, set[str]] = {}
    if "repro:" not in text:
        return out
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        comments = [
            (tok.start[0], tok.string)
            for tok in tokens
            if tok.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return out  # unparseable files already surface as REP002
    for lineno, comment in comments:
        match = _SUPPRESS_RE.search(comment)
        if match is None:
            continue
        marker = match.group("marker")
        wellformed = _MARKER_RE.fullmatch(marker)
        if wellformed is None:
            out[lineno] = {marker}
        elif wellformed.group("codes") is None:
            out[lineno] = set()
        else:
            out[lineno] = set(CODE_RE.findall(wellformed.group("codes")))
    return out


@dataclass
class SourceModule:
    """One parsed source file plus everything checkers need around it."""

    path: Path  # absolute
    rel: str  # repo-relative posix path (finding identity)
    text: str
    tree: ast.Module | None  # None when the file failed to parse
    suppressions: dict[int, set[str]] = field(default_factory=dict)
    #: dotted module name when derivable (``src/repro/x/y.py`` -> ``repro.x.y``)
    module_name: str = ""

    @staticmethod
    def from_text(text: str, path: Path, rel: str) -> "SourceModule":
        try:
            tree = ast.parse(text)
        except SyntaxError:
            tree = None
        return SourceModule(
            path=path,
            rel=rel,
            text=text,
            tree=tree,
            suppressions=parse_suppressions(text),
            module_name=_module_name(rel),
        )

    # -- per-run AST facts: computed on first use, dropped with the module ----

    @cached_property
    def index(self) -> AstIndex:
        """The parsed tree in preorder, with a slice per class and function:
        every module-, class- and function-level walk reads it."""
        if self.tree is None:
            raise ValueError(f"{self.rel} failed to parse: no AST to index")
        return AstIndex(self.tree)

    @cached_property
    def aliases(self) -> dict[str, str]:
        """Local name -> dotted import origin (absolute imports only)."""
        return import_aliases(self.index) if self.tree is not None else {}

    @cached_property
    def import_origins(self) -> dict[str, str]:
        """Local name -> dotted import origin, relative imports resolved."""
        if self.tree is None:
            return {}
        return module_import_origins(self.index, self.module_name)

    @cached_property
    def exposures(self) -> list[Exposure]:
        """The module's SOAP exposures, one per receiver class."""
        return find_exposures(self.index) if self.tree is not None else []

    def finding(
        self,
        code: str,
        message: str,
        node: ast.AST | None = None,
        *,
        severity: str = Severity.ERROR,
        checker: str = "",
        symbol: str = "",
        line: int = 0,
        col: int = 0,
    ) -> Finding:
        if node is not None:
            line = getattr(node, "lineno", line)
            col = getattr(node, "col_offset", col)
        return Finding(
            code=code,
            message=message,
            path=self.rel,
            line=line,
            col=col,
            severity=severity,
            checker=checker,
            symbol=symbol,
        )


def _module_name(rel: str) -> str:
    parts = Path(rel).with_suffix("").parts
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass
class Project:
    """The full analyzed set: cross-module checkers see everything at once."""

    modules: list[SourceModule]
    _class_index: dict[str, tuple[SourceModule, ast.ClassDef]] | None = None
    _graph: ProjectGraph | None = None

    def graph(self):
        """The whole-program :class:`~repro.analysis.graph.ProjectGraph`
        (module graph, symbol table, call graph), built once per run and
        shared by every graph-aware checker."""
        if self._graph is None:
            self._graph = ProjectGraph(self)
        return self._graph

    def parsed(self) -> Iterator[SourceModule]:
        for module in self.modules:
            if module.tree is not None:
                yield module

    def class_index(self) -> dict[str, tuple[SourceModule, ast.ClassDef]]:
        """Project-wide class name -> (module, ClassDef).  Names are assumed
        unique across the tree (true for this codebase); on a collision the
        first definition wins deterministically (module order)."""
        if self._class_index is None:
            index: dict[str, tuple[SourceModule, ast.ClassDef]] = {}
            for module in self.parsed():
                for node in module.index.classes:
                    index.setdefault(node.name, (module, node))
            self._class_index = index
        return self._class_index

    def subclasses_of(self, roots: set[str]) -> set[str]:
        """Transitive closure of class names inheriting (by name) from any
        of *roots*, roots included."""
        index = self.class_index()
        known = set(roots)
        changed = True
        while changed:
            changed = False
            for name, (_module, node) in index.items():
                if name in known:
                    continue
                for base in node.bases:
                    base_name = base.id if isinstance(base, ast.Name) else (
                        base.attr if isinstance(base, ast.Attribute) else ""
                    )
                    if base_name in known:
                        known.add(name)
                        changed = True
                        break
        return known


class Checker:
    """Base class for one family of rules.

    Subclasses set ``name``, ``description`` and ``codes`` (code ->
    one-line rule description) and implement :meth:`check` over the whole
    project; per-module rules simply iterate ``project.modules``.
    """

    name: str = ""
    description: str = ""
    codes: dict[str, str] = {}

    def check(self, project: Project) -> Iterable[Finding]:
        raise NotImplementedError


_REGISTRY: dict[str, Checker] = {}


def register_checker(checker_cls: type[Checker]) -> type[Checker]:
    """Class decorator registering a checker under its ``name``."""
    instance = checker_cls()
    if not instance.name:
        raise ValueError(f"checker {checker_cls.__name__} has no name")
    if instance.name in _REGISTRY:
        raise ValueError(f"duplicate checker name {instance.name!r}")
    _REGISTRY[instance.name] = instance
    return checker_cls


def all_checkers() -> list[Checker]:
    """Every registered checker, in registration order (stable: the
    checkers package imports its modules in a fixed order)."""
    import repro.analysis.checkers  # noqa: F401  (registration side effect)

    return list(_REGISTRY.values())


def get_checker(name: str) -> Checker:
    import repro.analysis.checkers  # noqa: F401

    if name not in _REGISTRY:
        raise KeyError(f"no checker named {name!r}")
    return _REGISTRY[name]
