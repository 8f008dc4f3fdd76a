"""Span wrappers installed from outside the program, and layer self-times.

The traced pass wraps each layer's public entry points (functions,
methods and static methods) in a span recorder.  Nothing under ``src/``
is edited and nothing there reads a clock: the wrappers live here, are
installed after import and are removed again afterwards.

A function imported by name (``from repro.xmlutil.element import
parse_xml``) is bound in every importing module, so installation rebinds
every ``repro.*`` module attribute that still holds the original object,
and :meth:`Tracer.unwrapped_bindings` proves none is left behind.

Each span records its name, start, end and parent.  A layer's self time
is the time of its spans minus the time covered by their direct children;
the benchmark's root span takes the time no layer claims, so the layer
self-times plus ``unattributed`` add up to the traced wall time exactly.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from pathlib import Path

#: (span name, module, attribute path).  The span name's prefix before the
#: first dot is the layer.  ``services`` spans are added separately, around
#: every exposed SOAP operation and every non-SOAP HTTP route.
ENTRY_POINTS = (
    ("xmlutil.parse", "repro.xmlutil.element", "parse_xml"),
    ("xmlutil.serialize", "repro.xmlutil.element", "XmlElement.serialize"),
    ("soap.encode", "repro.soap.encoding", "encode_value"),
    ("soap.decode", "repro.soap.encoding", "decode_value"),
    ("soap.call", "repro.soap.client", "SoapClient.call"),
    ("soap.handle_http", "repro.soap.server", "SoapService.handle_http"),
    ("soap.dispatch", "repro.soap.server", "SoapService.dispatch"),
    ("transport.send", "repro.transport.network", "VirtualNetwork.send"),
    ("security.login", "repro.security.authservice",
     "ClientSecuritySession.login"),
    ("observability.span_start", "repro.observability.tracer", "Tracer.start"),
    ("observability.span_end", "repro.observability.tracer", "Tracer.end"),
    ("observability.red", "repro.observability.metrics", "RedSeries.record"),
    ("replication.write", "repro.replication.context",
     "ReplicatedContextStore.write"),
    ("replication.read", "repro.replication.context",
     "ReplicatedContextStore.read_node"),
    ("durability.append", "repro.durability.journal", "Journal.append"),
    ("durability.replay", "repro.durability.journal", "Journal.records"),
    ("durability.replay", "repro.durability.journal", "Journal.by_kind"),
    ("durability.replay", "repro.durability.recovery", "recover"),
    ("loadmgmt.admit", "repro.loadmgmt.admission", "AdmissionController.admit"),
    ("loadmgmt.release", "repro.loadmgmt.admission",
     "AdmissionController.release"),
    ("shell.run", "repro.shell.executor", "WorkflowExecutor.run"),
    ("analysis.load_modules", "repro.analysis.runner", "load_modules"),
    ("analysis.parse", "ast", "parse"),
    ("analysis.graph_build", "repro.analysis.graph.modgraph",
     "ModuleGraph.build"),
    ("analysis.graph_build", "repro.analysis.graph.symbols",
     "SymbolTable.build"),
    ("analysis.graph_build", "repro.analysis.graph.callgraph",
     "CallGraph.build"),
)

#: layers in report order; ``unattributed`` is the benchmark's root span
LAYERS = (
    "xmlutil", "soap", "transport", "security", "services", "observability",
    "replication", "durability", "loadmgmt", "shell", "analysis",
    "unattributed",
)

ROOT = "unattributed.bench"
_MISSING = object()


class Tracer:
    """In-memory span store plus the installed wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._stack = [-1]
        self.ast_walks = 0
        self.parse_bytes = 0
        self.clients: list = []
        self.services: list = []
        self.sheds = 0
        self.queue_waits: list[float] = []
        self.max_in_flight = 0
        self._patches: list[tuple[object, str, object]] = []
        self._originals: dict[int, object] = {}

    def reset(self) -> None:
        """Forget spans and counts (set-up work), keeping the wrappers and
        the client and service registries."""
        for spans in (self.names, self.starts, self.ends, self.parents):
            spans.clear()
        self.ast_walks = self.parse_bytes = self.sheds = self.max_in_flight = 0
        self.queue_waits.clear()

    # -- recording ------------------------------------------------------------

    def wrap(self, fn, name: str):
        """*fn* wrapped in a span called *name*."""
        names, starts, ends, parents = (
            self.names, self.starts, self.ends, self.parents
        )
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return span

    def run_root(self, body):
        """Run *body* under the benchmark's root span; returns its result."""
        return self.wrap(body, ROOT)()

    def _bytes(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(text, *args, **kwargs):
            tracer.parse_bytes += len(text)
            return fn(text, *args, **kwargs)

        return counted

    def _walks(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.ast_walks += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ---------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch(self, module_name: str, path: str, make) -> None:
        module = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        owner = module
        for part in outer:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr]
        if isinstance(raw, staticmethod):
            self._set(owner, attr, staticmethod(make(raw.__func__)))
            return
        wrapped = make(raw)
        self._set(owner, attr, wrapped)
        if owner is module:
            # rebind ``from module import fn`` copies everywhere
            self._originals[id(raw)] = raw
            for other in list(sys.modules.values()):
                if other is module or not _is_repro(other):
                    continue
                for key, value in list(vars(other).items()):
                    if value is raw:
                        self._set(other, key, wrapped)

    def install(self) -> None:
        """Wrap every layer entry point."""
        for name, module_name, path in ENTRY_POINTS:
            if name == "xmlutil.parse":
                make = lambda fn, name=name: self.wrap(self._bytes(fn), name)
            elif name == "loadmgmt.admit":
                make = lambda fn, name=name: self.wrap(self._admissions(fn), name)
            else:
                make = lambda fn, name=name: self.wrap(fn, name)
            self._patch(module_name, path, make)
        self._patch("ast", "walk", self._walks)
        self._install_services()
        self._install_checkers()
        self._install_registries()

    def _install_services(self) -> None:
        server_mod = importlib.import_module("repro.soap.server")
        http_mod = importlib.import_module("repro.transport.server")
        tracer = self
        expose = server_mod.SoapService.expose
        mount = http_mod.HttpServer.mount

        def traced_expose(service, func, name=None):
            return expose(service, tracer.wrap(func, "services.operation"),
                          name=name or func.__name__)

        def traced_mount(server, path, handler):
            owner = getattr(handler, "__self__", None)
            if not isinstance(owner, server_mod.SoapService):
                handler = tracer.wrap(handler, "services.route")
            return mount(server, path, handler)

        self._set(server_mod.SoapService, "expose", traced_expose)
        self._set(http_mod.HttpServer, "mount", traced_mount)

    def _install_checkers(self) -> None:
        core = importlib.import_module("repro.analysis.core")
        seen = set()
        for checker in core.all_checkers():
            cls = type(checker)
            for klass in cls.__mro__:
                if "check" in klass.__dict__ and klass is not core.Checker:
                    if klass in seen:
                        break
                    seen.add(klass)
                    self._set(klass, "check", self.wrap(
                        _drained(klass.__dict__["check"]),
                        f"analysis.checker.{checker.name}",
                    ))
                    break

    def _install_registries(self) -> None:
        """Keep every SOAP client and service built while traced, so their
        own counters can be checked against the span counts."""
        client_mod = importlib.import_module("repro.soap.client")
        server_mod = importlib.import_module("repro.soap.server")
        for cls, bucket in ((client_mod.SoapClient, self.clients),
                            (server_mod.SoapService, self.services)):
            init = cls.__dict__["__init__"]

            def registering(obj, *args, _init=init, _bucket=bucket, **kwargs):
                _init(obj, *args, **kwargs)
                _bucket.append(obj)

            functools.update_wrapper(registering, init)
            self._set(cls, "__init__", registering)

    def _admissions(self, fn):
        """Record each admission decision: queue wait, shed, and the
        workflow lane's tickets in flight."""
        from repro.faults import ServerBusyError

        tracer = self

        @functools.wraps(fn)
        def observed(controller, principal=None, *args, **kwargs):
            try:
                ticket = fn(controller, principal, *args, **kwargs)
            except ServerBusyError:
                tracer.sheds += 1
                raise
            tracer.queue_waits.append(ticket.queue_wait)
            if principal == "workflow":
                tracer.max_in_flight = max(
                    tracer.max_in_flight, controller.in_flight
                )
            return ticket

        return observed

    def unwrapped_bindings(self) -> list[str]:
        """``module.attr`` names still bound to an unwrapped entry point."""
        missed = []
        for module in list(sys.modules.values()):
            if not _is_repro(module):
                continue
            for key, value in vars(module).items():
                if self._originals.get(id(value), _MISSING) is value:
                    missed.append(f"{module.__name__}.{key}")
        return sorted(missed)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- analysis -------------------------------------------------------------

    def span_counts(self) -> Counter:
        return Counter(self.names)

    def totals(self) -> tuple[dict[str, int], dict[str, int], int]:
        """(self ns per span name, inclusive ns per span name, root wall
        ns).  Self time is a span's duration minus its direct children's."""
        child = [0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[index] - self.starts[index]
        own: dict[str, int] = {}
        inclusive: dict[str, int] = {}
        wall = 0
        for index, name in enumerate(self.names):
            duration = self.ends[index] - self.starts[index]
            if self.parents[index] < 0:
                wall += duration
            own[name] = own.get(name, 0) + duration - child[index]
            inclusive[name] = inclusive.get(name, 0) + duration
        return own, inclusive, wall

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called *name* with a span called *ancestor* above them."""
        found = 0
        for index, span_name in enumerate(self.names):
            if span_name != name:
                continue
            parent = self.parents[index]
            while parent >= 0 and self.names[parent] != ancestor:
                parent = self.parents[parent]
            found += parent >= 0
        return found

    def write(self, path: Path) -> None:
        """All spans as one JSON document: a name table and
        ``[name, start_ns, end_ns, parent]`` rows."""
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write('{"names": ' + json.dumps(table) + ', "spans": [\n')
            for i, name in enumerate(self.names):
                sep = ",\n" if i else ""
                out.write(
                    f"{sep}[{index[name]}, {self.starts[i]}, {self.ends[i]}, "
                    f"{self.parents[i]}]"
                )
            out.write("\n]}\n")


def _is_repro(module) -> bool:
    name = getattr(module, "__name__", "") or ""
    return name == "repro" or name.startswith("repro.")


def _drained(check):
    """*check* with its findings collected inside the call, so a span
    around it times the checker's work, not the creation of a generator."""

    @functools.wraps(check)
    def collected(*args, **kwargs):
        return list(check(*args, **kwargs))

    return collected
