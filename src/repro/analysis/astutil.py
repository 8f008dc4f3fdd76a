"""Shared AST utilities for the checkers.

Static resolution here is deliberately humble: it resolves what this
codebase's idioms make resolvable (module aliases, ``from`` imports, local
``name = ClassName(...)`` bindings, parameter annotations) and stays silent
otherwise.  A linter that guesses produces noise; one that resolves the
house idiom precisely produces signal.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

#: the nodes whose subtree the index can hand out as one slice
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


class AstIndex:
    """One module's AST flattened in a single pass, for every scope walk.

    ``nodes`` holds the module's nodes in preorder, so a scope node's
    subtree is one contiguous run of it: walking a module, class or
    function is a slice of ``nodes`` instead of a fresh ``ast.walk``.
    Only scope nodes (:data:`SCOPES`) get a ``(start, end)`` span — a span
    per node would cost a tuple for every node of every module, for
    expression walks that stay cheap with ``ast.walk``.  ``functions``
    (sync and async) and ``classes`` list those scopes in preorder, i.e.
    source order.

    Read it through :attr:`SourceModule.index
    <repro.analysis.core.SourceModule.index>`, which builds it on first
    use and drops it with the module at the end of the run.
    """

    __slots__ = ("nodes", "functions", "classes", "_spans", "__weakref__")

    def __init__(self, tree: ast.Module):
        nodes: list[ast.AST] = []
        spans: dict[ast.AST, tuple[int, int]] = {}
        functions: list[ast.FunctionDef | ast.AsyncFunctionDef] = []
        classes: list[ast.ClassDef] = []
        # a (scope, start) tuple on the stack closes that scope's span
        # once every node under it has been emitted
        stack: list = [tree]
        while stack:
            node = stack.pop()
            if node.__class__ is tuple:
                scope, start = node
                spans[scope] = (start, len(nodes))
                continue
            if isinstance(node, SCOPES):
                stack.append((node, len(nodes)))
                if isinstance(node, FUNCTIONS):
                    functions.append(node)
                elif isinstance(node, ast.ClassDef):
                    classes.append(node)
            nodes.append(node)
            # ast.iter_child_nodes, inlined: it is most of the pass's cost
            children = []
            for name in node._fields:
                value = getattr(node, name, None)
                if isinstance(value, ast.AST):
                    children.append(value)
                elif isinstance(value, list):
                    children.extend(v for v in value if isinstance(v, ast.AST))
            children.reverse()
            stack.extend(children)
        self.nodes = nodes
        self.functions = functions
        self.classes = classes
        self._spans = spans

    def walk(self, scope: ast.AST) -> list[ast.AST]:
        """*scope* and every node under it, in preorder: the nodes
        ``ast.walk(scope)`` yields.  *scope* must be a :data:`SCOPES` node
        of this module."""
        start, end = self._spans[scope]
        return self.nodes[start:end]


def import_aliases(index: AstIndex) -> dict[str, str]:
    """Map local names to the dotted origin they were imported as.

    ``import time as t`` -> ``{"t": "time"}``;
    ``from datetime import datetime`` -> ``{"datetime": "datetime.datetime"}``.
    Function-local imports count too (the codebase imports lazily a lot).
    """
    aliases: dict[str, str] = {}
    for node in index.nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def dotted_name(node: ast.AST) -> str:
    """The dotted path of a Name/Attribute chain (``a.b.c``), or ``""``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def resolve_call_path(func: ast.AST, aliases: dict[str, str]) -> str:
    """The fully-qualified dotted path of a call target, resolving the
    leading name through the module's import aliases.

    ``t.time()`` with ``import time as t`` resolves to ``time.time``;
    ``sleep()`` with ``from time import sleep`` resolves to ``time.sleep``.
    Unresolvable roots (locals, attributes of objects) return the raw
    dotted path, which callers match conservatively.
    """
    path = dotted_name(func)
    if not path:
        return ""
    root, _, rest = path.partition(".")
    origin = aliases.get(root)
    if origin is None:
        return path
    return f"{origin}.{rest}" if rest else origin


@dataclass
class Signature:
    """A method's operation surface: ordered parameter names (self
    excluded), per-parameter annotation source (or ``""``), and how many
    parameters carry defaults."""

    params: list[str]
    annotations: list[str]
    defaults: int

    @property
    def arity(self) -> int:
        return len(self.params)


def signature_of(func: ast.FunctionDef) -> Signature:
    args = [a for a in func.args.args if a.arg != "self"]
    params = [a.arg for a in args]
    annotations = [
        ast.unparse(a.annotation) if a.annotation is not None else "" for a in args
    ]
    return Signature(
        params=params,
        annotations=annotations,
        defaults=len(func.args.defaults),
    )


def public_methods(node: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    """Directly defined public (non-underscore) methods of a class,
    properties excluded (they are attributes, not operations)."""
    out: dict[str, ast.FunctionDef] = {}
    for item in node.body:
        if not isinstance(item, ast.FunctionDef):
            continue
        if item.name.startswith("_"):
            continue
        if any(
            (isinstance(d, ast.Name) and d.id == "property")
            or (isinstance(d, ast.Attribute) and d.attr in ("setter", "getter"))
            for d in item.decorator_list
        ):
            continue
        out[item.name] = item
    return out


def all_methods(node: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {
        item.name: item
        for item in node.body
        if isinstance(item, ast.FunctionDef)
    }


def base_names(node: ast.ClassDef) -> list[str]:
    names = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


@dataclass
class Exposure:
    """One SOAP exposure: a class (resolved by name) and which of its
    methods are dispatchable.  ``methods`` empty means *all public*
    (``expose_object``)."""

    class_name: str
    methods: set[str] = field(default_factory=set)
    expose_all: bool = False
    line: int = 0


def _local_bindings(func: ast.FunctionDef, index: AstIndex) -> dict[str, str]:
    """``name = ClassName(...)`` bindings plus annotated parameters, giving
    a local variable -> class-name map for exposure resolution."""
    bindings: dict[str, str] = {}
    for arg in list(func.args.args) + list(func.args.kwonlyargs):
        if arg.annotation is not None:
            ann = arg.annotation
            if isinstance(ann, (ast.Name, ast.Attribute)):
                name = dotted_name(ann).split(".")[-1]
                if name:
                    bindings[arg.arg] = name
    for node in index.walk(func):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            target_cls = dotted_name(node.value.func).split(".")[-1]
            if not target_cls or not target_cls[0].isupper():
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bindings[target.id] = target_cls
    return bindings


def find_exposures(index: AstIndex) -> list[Exposure]:
    """Every SOAP exposure in the module, inside sync or async functions.

    Recognizes the house idioms::

        soap.expose(impl.method)            # impl = ClassName(...) or impl: ClassName
        soap.expose(impl.method, "name")
        soap.expose_object(impl)            # all public methods
        soap.expose_object(ClassName(...))  # all public methods

    Returns one :class:`Exposure` per receiver class, methods merged.
    """
    by_class: dict[str, Exposure] = {}
    for func in index.functions:
        bindings = _local_bindings(func, index)
        for node in index.walk(func):
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            kind = node.func.attr
            if kind not in ("expose", "expose_object") or not node.args:
                continue
            target = node.args[0]
            if kind == "expose":
                if not isinstance(target, ast.Attribute):
                    continue  # module-level function exposure: no class
                receiver = target.value
                if not isinstance(receiver, ast.Name):
                    continue
                cls = bindings.get(receiver.id)
                if cls is None:
                    continue
                exp = by_class.setdefault(
                    cls, Exposure(class_name=cls, line=node.lineno)
                )
                exp.methods.add(target.attr)
            else:
                cls = None
                if isinstance(target, ast.Name):
                    cls = bindings.get(target.id)
                elif isinstance(target, ast.Call):
                    name = dotted_name(target.func).split(".")[-1]
                    if name and name[0].isupper():
                        cls = name
                if cls is None:
                    continue
                exp = by_class.setdefault(
                    cls, Exposure(class_name=cls, line=node.lineno)
                )
                exp.expose_all = True
    return [by_class[name] for name in sorted(by_class)]
