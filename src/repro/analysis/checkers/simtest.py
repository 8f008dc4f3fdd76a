"""REP6xx — simulation-testing oracles: registered and deterministic.

The simtest harness only runs the invariant oracles it finds in the
registry; an ``Oracle`` subclass someone forgets to decorate with
``@register_oracle`` silently checks nothing.  And an oracle is replayed
byte-identically from a seed, so its verdicts must be pure functions of
the simulated world: wall-clock reads or unseeded randomness inside an
oracle make a failing seed unreproducible — the one property the whole
harness exists to provide.

Vocabulary (shared with the determinism checker): ``TIME_CALLS``,
``DATETIME_CALLS`` and the seeded-``random.Random`` rule are imported
from :mod:`repro.analysis.checkers.determinism` so the two rule families
cannot drift apart.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.astutil import resolve_call_path
from repro.analysis.checkers.determinism import (
    DATETIME_CALLS,
    RANDOM_ALLOWED_ATTRS,
    TIME_CALLS,
)
from repro.analysis.core import (
    Checker,
    Finding,
    Project,
    SourceModule,
    register_checker,
)

#: the registry decorator an oracle must carry (bare name or attribute:
#: ``@register_oracle`` / ``@oracles.register_oracle``)
REGISTRY_DECORATOR = "register_oracle"

#: root of the oracle hierarchy (matched by name, like subclasses_of does)
ORACLE_ROOT = "Oracle"


def _carries_registry_decorator(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == REGISTRY_DECORATOR:
            return True
        if isinstance(target, ast.Attribute) and target.attr == REGISTRY_DECORATOR:
            return True
    return False


@register_checker
class SimtestOracleChecker(Checker):
    name = "simtest"
    description = (
        "invariant oracles registered with the simtest registry and free "
        "of wall-clock or unseeded randomness"
    )
    codes = {
        "REP601": "concrete Oracle subclass not decorated with @register_oracle",
        "REP602": "wall-clock or unseeded randomness inside an invariant oracle",
    }

    def check(self, project: Project) -> Iterable[Finding]:
        index = project.class_index()
        oracle_names = project.subclasses_of({ORACLE_ROOT}) - {ORACLE_ROOT}
        # a subclass that other oracles inherit from is an abstract stem
        # (like Oracle itself), not a checkable invariant: only leaves run
        stems = set()
        for name in oracle_names:
            _module, node = index[name]
            for base in node.bases:
                base_name = base.id if isinstance(base, ast.Name) else (
                    base.attr if isinstance(base, ast.Attribute) else ""
                )
                if base_name in oracle_names:
                    stems.add(base_name)
        for name in sorted(oracle_names):
            module, node = index[name]
            if name not in stems and not _carries_registry_decorator(node):
                yield module.finding(
                    "REP601",
                    f"oracle {name} is never registered — the harness only "
                    "runs oracles the @register_oracle registry knows about",
                    node,
                    checker=self.name,
                    symbol=name,
                )
            yield from self._check_determinism(module, node)

    def _check_determinism(
        self, module: SourceModule, cls: ast.ClassDef
    ) -> Iterable[Finding]:
        aliases = module.aliases
        for node in module.index.walk(cls):
            if not isinstance(node, ast.Call):
                continue
            path = resolve_call_path(node.func, aliases)
            if not path:
                continue
            if path in TIME_CALLS or path in DATETIME_CALLS:
                yield module.finding(
                    "REP602",
                    f"oracle {cls.name} calls {path}() — verdicts must be "
                    "a pure function of the simulated world; read "
                    "world.clock.now() instead",
                    node,
                    checker=self.name,
                    symbol=cls.name,
                )
            elif path == "random.Random":
                if not node.args and not node.keywords:
                    yield module.finding(
                        "REP602",
                        f"oracle {cls.name} constructs random.Random() "
                        "without a seed — derive the seed from the run seed",
                        node,
                        checker=self.name,
                        symbol=cls.name,
                    )
            elif path.startswith("random.") and path.count(".") == 1:
                if path.split(".", 1)[1] not in RANDOM_ALLOWED_ATTRS:
                    yield module.finding(
                        "REP602",
                        f"oracle {cls.name} calls {path}() on the shared "
                        "unseeded generator — a failing seed would not replay",
                        node,
                        checker=self.name,
                        symbol=cls.name,
                    )
