"""The module/import graph: which project module imports which.

Its consumer is name resolution: the symbol table needs to know whether
``repro.a.b`` in an import origin is a module or a symbol inside
``repro.a``.

Relative imports are resolved against the analyzed module's dotted name
(``from .helpers import x`` inside ``fixtures.demo.svc`` targets
``fixtures.demo.helpers``), so fixture packages analyzed from an
arbitrary root resolve the same way the real tree does.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.astutil import AstIndex


def module_import_origins(index: AstIndex, module_name: str) -> dict[str, str]:
    """Local name -> dotted origin, relative imports resolved.

    Like :func:`repro.analysis.astutil.import_aliases` but aware of the
    importing module's own dotted name, so ``from . import x`` and
    ``from ..pkg import y`` resolve to absolute project paths.  Read it
    through :attr:`SourceModule.import_origins
    <repro.analysis.core.SourceModule.import_origins>`, which computes it
    once per module per run.
    """
    package = module_name.rsplit(".", 1)[0] if "." in module_name else ""
    aliases: dict[str, str] = {}
    for node in index.nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                aliases[local] = alias.name if alias.asname else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level > 0:
                hops = node.level - 1
                anchor = package
                for _ in range(hops):
                    anchor = anchor.rsplit(".", 1)[0] if "." in anchor else ""
                base = f"{anchor}.{node.module}" if node.module and anchor else (
                    node.module or anchor
                )
                if not base:
                    continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = f"{base}.{alias.name}"
    return aliases


@dataclass
class ModuleGraph:
    """Project-internal import edges."""

    #: dotted module name -> repo-relative path of the defining file
    modules: dict[str, str] = field(default_factory=dict)
    #: module -> sorted project modules it imports (directly)
    imports: dict[str, list[str]] = field(default_factory=dict)

    @staticmethod
    def build(project) -> "ModuleGraph":
        graph = ModuleGraph()
        for module in project.parsed():
            if module.module_name:
                graph.modules.setdefault(module.module_name, module.rel)
        edges: dict[str, set[str]] = {name: set() for name in graph.modules}
        for module in project.parsed():
            name = module.module_name
            if name not in edges:
                continue
            for origin in module.import_origins.values():
                target = graph.resolve_module(origin)
                if target is not None and target != name:
                    edges[name].add(target)
            # plain ``import a.b.c`` binds only ``a`` locally, but the
            # dependency is on ``a.b.c`` — record the full edge too
            for node in module.index.nodes:
                if not isinstance(node, ast.Import):
                    continue
                for alias in node.names:
                    target = graph.resolve_module(alias.name)
                    if target is not None and target != name:
                        edges[name].add(target)
        graph.imports = {name: sorted(edges[name]) for name in sorted(edges)}
        return graph

    def resolve_module(self, origin: str) -> str | None:
        """The longest project module that prefixes *origin* (an import
        origin may point at a symbol inside a module: ``repro.a.b.Name``
        resolves to module ``repro.a.b``)."""
        candidate = origin
        while candidate:
            if candidate in self.modules:
                return candidate
            if "." not in candidate:
                return None
            candidate = candidate.rsplit(".", 1)[0]
        return None
