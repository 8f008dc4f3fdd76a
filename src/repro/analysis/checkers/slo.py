"""REP7xx — SLOs and sampling: seeded retention, fully-declared objectives.

The tail sampler's contract is that two same-seed runs keep byte-identical
trace sets; one ``random.random()`` inside a retention decision silently
voids it — the traces an alert's exemplars point at would differ run to
run.  Any randomness a :class:`SamplingPolicy` uses must flow from an
explicit seed (REP701).

An SLO without a window and a budget is a slogan, not an objective: burn
rate is *budget spend per window*, so omitting either leaves the alerting
math undefined.  The ``SLO`` dataclass enforces both at runtime via
keyword-only fields; REP702 moves the failure to lint time, where it names
the call site instead of whichever deployment first constructs it.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.astutil import resolve_call_path
from repro.analysis.checkers.determinism import RANDOM_ALLOWED_ATTRS
from repro.analysis.core import (
    Checker,
    Finding,
    Project,
    SourceModule,
    register_checker,
)

#: root of the retention-policy hierarchy (matched by name, project-wide)
POLICY_ROOT = "SamplingPolicy"

#: the objective dataclass REP702 audits construction of
SLO_CLASS = "SLO"

#: the keyword-only fields every SLO definition must spell out
REQUIRED_SLO_KEYWORDS = ("window", "budget")


@register_checker
class SloSamplingChecker(Checker):
    name = "slo"
    description = (
        "sampling retention decisions seeded; SLO definitions declare "
        "both window and budget"
    )
    codes = {
        "REP701": (
            "unseeded randomness inside a sampling policy's retention "
            "decision"
        ),
        "REP702": "SLO definition missing an explicit window= or budget=",
    }

    def check(self, project: Project) -> Iterable[Finding]:
        index = project.class_index()
        policies = project.subclasses_of({POLICY_ROOT}) - {POLICY_ROOT}
        for name in sorted(policies):
            module, node = index[name]
            yield from self._check_policy(module, node)
        for module in project.parsed():
            yield from self._check_slo_calls(module)

    # -- REP701: retention decisions must be seeded ---------------------------------

    def _check_policy(
        self, module: SourceModule, cls: ast.ClassDef
    ) -> Iterable[Finding]:
        aliases = module.aliases
        for node in module.index.walk(cls):
            if not isinstance(node, ast.Call):
                continue
            path = resolve_call_path(node.func, aliases)
            if not path:
                continue
            if path == "random.Random":
                if not node.args and not node.keywords:
                    yield module.finding(
                        "REP701",
                        f"sampling policy {cls.name} constructs "
                        "random.Random() without a seed — retention must "
                        "replay byte-identically from the run seed",
                        node,
                        checker=self.name,
                        symbol=cls.name,
                    )
            elif path.startswith("random.") and path.count(".") == 1:
                if path.split(".", 1)[1] not in RANDOM_ALLOWED_ATTRS:
                    yield module.finding(
                        "REP701",
                        f"sampling policy {cls.name} calls {path}() on the "
                        "shared unseeded generator — the kept-trace set "
                        "would differ between same-seed runs",
                        node,
                        checker=self.name,
                        symbol=cls.name,
                    )

    # -- REP702: objectives declare their window and budget ---------------------------

    def _check_slo_calls(self, module: SourceModule) -> Iterable[Finding]:
        aliases = module.aliases
        for node in module.index.nodes:
            if not isinstance(node, ast.Call):
                continue
            path = resolve_call_path(node.func, aliases)
            if not path:
                continue
            if path != SLO_CLASS and not path.endswith(f".{SLO_CLASS}"):
                continue
            keywords = {kw.arg for kw in node.keywords}
            if None in keywords:
                continue  # a **splat may carry them; runtime still enforces
            missing = [
                field for field in REQUIRED_SLO_KEYWORDS
                if field not in keywords
            ]
            if missing:
                yield module.finding(
                    "REP702",
                    "SLO definition omits "
                    + " and ".join(f"{field}=" for field in missing)
                    + " — burn rate is budget spend per window, so an "
                    "objective without both is unalertable",
                    node,
                    checker=self.name,
                    symbol=SLO_CLASS,
                )
