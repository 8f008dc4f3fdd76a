"""The per-module AST index: one preorder pass serves every scope walk.

``SourceModule.index`` flattens a module's tree once; walking a module,
class or function is then a slice of that list.  These tests pin the
index to ``ast.walk`` (same nodes, each once), keep whole-scope
``ast.walk`` calls out of the checkers, and cover the ``async def``
bodies that the index's function list made visible.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis.astutil import FUNCTIONS, SCOPES
from repro.analysis.checkers.faults import FaultTaxonomyChecker
from repro.analysis.runner import analyze_sources, load_modules

from tests.analysis.conftest import (
    FIXTURE_ROOT,
    codes,
    modules_from,
    write_tree,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize(
    "tree", [REPO_ROOT / "src" / "repro", FIXTURE_ROOT], ids=["src", "fixtures"]
)
def test_every_scope_slice_matches_ast_walk(tree):
    modules = [m for m in load_modules([tree], root=REPO_ROOT) if m.tree]
    assert modules
    scopes = 0
    for module in modules:
        index = module.index
        by_id = {id(n): n for n in index.nodes}
        for node in ast.walk(module.tree):
            if not isinstance(node, SCOPES):
                continue
            scopes += 1
            sliced = Counter(id(n) for n in index.walk(node))
            assert sliced == Counter(id(n) for n in ast.walk(node)), (
                module.rel, getattr(node, "name", "<module>"),
            )
            # each node once: only the fieldless singletons the parser
            # shares (Load, Store, Add, Eq, ...) repeat, as in ast.walk
            assert all(
                count == 1 or not by_id[key]._fields
                for key, count in sliced.items()
            )
        walked = list(ast.walk(module.tree))
        assert index.functions == [
            n for n in index.nodes if isinstance(n, FUNCTIONS)
        ]
        assert {id(n) for n in index.functions} == {
            id(n) for n in walked if isinstance(n, FUNCTIONS)
        }
        assert {id(n) for n in index.classes} == {
            id(n) for n in walked if isinstance(n, ast.ClassDef)
        }
    assert scopes > len(modules)


def test_a_scope_is_one_contiguous_preorder_run():
    [module] = modules_from({
        "mod.py": """\
            def f():
                x = 1

                def g():
                    return x

                return g
        """
    })
    index = module.index
    outer, inner = index.functions
    assert (outer.name, inner.name) == ("f", "g")
    nodes = index.walk(outer)
    assert nodes[0] is outer
    start = next(i for i, n in enumerate(nodes) if n is inner)
    assert nodes[start:start + len(index.walk(inner))] == index.walk(inner)
    # preorder, not breadth-first: g's body precedes f's ``return g``
    assert isinstance(nodes[-3], ast.Return) and nodes[-3] is outer.body[-1]


def test_no_checker_walks_a_whole_scope_with_ast_walk(monkeypatch):
    """Every module-, class- and function-level walk goes through the
    index; ``ast.walk`` is left to single statements and expressions."""
    real_walk = ast.walk

    def guarded(node):
        if isinstance(node, SCOPES):
            raise AssertionError(
                f"ast.walk handed a {type(node).__name__} at line "
                f"{getattr(node, 'lineno', 0)}: walk it through the index"
            )
        return real_walk(node)

    modules = load_modules([FIXTURE_ROOT], root=FIXTURE_ROOT.parent)
    monkeypatch.setattr(ast, "walk", guarded)
    assert analyze_sources(modules).findings


# -- async def bodies ----------------------------------------------------------


ASYNC_EXPOSURE = {
    "svc.py": """\
        class Calc:
            def add(self, a, b):
                if a is None:
                    raise ValueError("a is required")
                return a + b


        async def deploy(soap):
            impl = Calc()
            soap.expose(impl.add)
    """,
}


def test_exposure_inside_async_def_is_found(tmp_path):
    write_tree(tmp_path, ASYNC_EXPOSURE)
    modules = load_modules([tmp_path], root=tmp_path)
    [exposure] = modules[0].exposures
    assert exposure.class_name == "Calc"
    assert exposure.methods == {"add"}
    # and it is a dispatch root: the raise behind it is reachable
    result = analyze_sources(modules, checkers=[FaultTaxonomyChecker()])
    assert codes(result) == ["REP201"]
