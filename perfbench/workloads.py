"""The four benchmark workloads: seeded inputs, set-up, rounds and oracles.

Each workload turns ``--seed`` into a fixed script of operations (a
*round*) whose composition is the same for every seed; the seed chooses
order, payloads, parameters and cut points (``analyzer_cold`` has no seeded
input: it analyzes the tree under test).  The program only ever sees
those generated inputs.  A run repeats the round until its time is up;
virtual-time figures and exact counts come from the first round, so they
are a pure function of the seed however fast the machine is.

Every operation's output is checked by an oracle that does not reuse the
code under test where an independent check exists (stdlib
``xml.etree`` for context XML, ``tokenize`` for analyzer waivers).  A
failed check or an unexpected exception fails the operation.
"""

from __future__ import annotations

import base64
import gc
import hashlib
import random
import re
import tokenize
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

import speed

USER, PASSWORD = "alice", "alpine"
KB = 1024
#: log-spaced SRB file sizes, 1 KB .. 256 KB
SIZES = tuple(KB * 2**k for k in range(9))
#: distinct contents per file slot; puts rotate through them
VARIANTS = 3
CONTEXT_NODES = 8
#: the analyzer's documented waiver comment, ``# repro: ignore[CODES]``
WAIVER = re.compile(r"#\s*repro:\s*ignore\b")
SCHEDULERS = ("PBS", "GRD", "LSF", "NQS")
#: the directive each dialect must emit for (name, queue, cpus)
DIRECTIVES = {
    "PBS": ("#PBS -N {name}", "#PBS -q {queue}", "#PBS -l nodes={cpus}"),
    "GRD": ("#$ -N {name}", "#$ -q {queue}", "#$ -pe mpi {cpus}"),
    "LSF": ("#BSUB -J {name}", "#BSUB -q {queue}", "#BSUB -n {cpus}"),
    "NQS": ("#QSUB -r {name}", "#QSUB -q {queue}", "#QSUB -lP {cpus}"),
}


@dataclass
class Round:
    """What one round did and saw."""

    ops: int = 0
    #: seconds per operation, in the order they ran
    latencies: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    #: virtual-time figures and exact counts (a function of the seed)
    exact: dict[str, float] = field(default_factory=dict)
    #: timing extras (transfer bytes and time, analyzer phases)
    wall: dict[str, float] = field(default_factory=dict)
    digest: str = ""


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))]


class _Digest:
    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *parts) -> None:
        for part in parts:
            data = part if isinstance(part, bytes) else repr(part).encode()
            self._h.update(len(data).to_bytes(8, "little"))
            self._h.update(data)

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _wire(network) -> tuple[int, int]:
    stats = network.stats
    return stats.requests, stats.bytes_sent + stats.bytes_received


# -- portal_session ----------------------------------------------------------


def _text_variant(rng: random.Random, size: int) -> str:
    """XML-legal text with markup characters, quotes and CRLF line ends.

    Every line holds the same tokens; the seed only orders them, so each
    seed's text costs the same to escape and parse."""
    tokens = ["alpha", "beta", "<tag>", "a&b", '"quoted"', "it's", "x<y",
              "R&D", "é", "λ", "->", "</end>", "&amp;", "1.0e-3"]
    parts, total = [], 0
    while total < size:
        rng.shuffle(tokens)
        line = " ".join(tokens) + "\r\n"
        parts.append(line)
        total += len(line)
    return "".join(parts)[:size]


class PortalSession:
    """One logged-in user on the production two-region deployment."""

    name = "portal_session"
    op_unit = "portal operation"
    #: rounds the traced pass repeats: a second or two of work
    trace_rounds = 2

    def __init__(self, seed: int, smoke: bool = False):
        rng = random.Random(f"{self.name}:{seed}")
        self.deploy_seed = rng.randrange(2**31)
        top = SIZES[-3] if smoke else SIZES[-1]
        self.sizes = tuple(s for s in SIZES if s <= top)
        self.blobs = [rng.randbytes(top) for _ in range(VARIANTS)]
        self.texts = [_text_variant(rng, top) for _ in range(VARIANTS)]
        self.files = {}
        for size in self.sizes:
            self.files[f"/home/portal/ps-{size}.bin"] = ("bin", size)
            self.files[f"/home/portal/ps-{size}.txt"] = ("txt", size)
        self.nodes = [f"/{USER}/p{i}" for i in range(CONTEXT_NODES)]
        scale = 1 if smoke else 3
        deck: list[tuple] = []
        for path, (kind, _size) in sorted(self.files.items()):
            deck += [("put", path)] * scale
            deck += [("get" if kind == "bin" else "cat", path)] * (2 * scale)
        deck += [("ctx_read",)] * (27 * scale)
        deck += [("ctx_write",)] * (14 * scale)
        deck += [("genscript", s) for s in SCHEDULERS] * (4 * scale)
        deck += [("ls",)] * (8 * scale)
        deck += [("runapp", basis) for basis in (50, 120, 250)] * (
            (4 * scale) // 3)
        deck += [("login",)] * (2 * scale)
        rng.shuffle(deck)
        self.script = [self._bind(op, rng) for op in deck]

    def _bind(self, op: tuple, rng: random.Random) -> tuple:
        kind = op[0]
        if kind == "put":
            return ("put", op[1], rng.randrange(VARIANTS))
        if kind in ("ctx_read", "ctx_write"):
            node = rng.choice(self.nodes)
            value = (f"v{rng.randrange(10**6)} <b>R&D</b> \"q\" it's "
                     f"{rng.choice(['x<y', 'a&amp;b', '&', '>'])}")
            return (kind, node, value) if kind == "ctx_write" else (kind, node)
        if kind == "genscript":
            return ("genscript", op[1], {
                "jobName": f"job{rng.randrange(10**4)}",
                "cpus": rng.choice([1, 2, 4, 8, 16, 64]),
                "wallTime": rng.choice([600, 3600, 7200]),
                "queue": rng.choice(["workq", "normal", "debug"]),
                "executable": "/usr/local/bin/solver",
            })
        if kind == "runapp":
            return ("runapp", op[1])
        return op

    def _content(self, path: str, variant: int):
        kind, size = self.files[path]
        if kind == "bin":
            return self.blobs[variant][:size]
        return self.texts[variant][:size]

    def setup(self):
        from repro.portal.uiserver import PortalDeployment, UserInterfaceServer

        deployment = PortalDeployment.build(
            durable=True, regions=("iu", "sdsc"), observe=True, sampling=True,
            observe_seed=self.deploy_seed, replication_seed=self.deploy_seed,
        )
        ui = UserInterfaceServer(deployment)
        ui.login(USER, PASSWORD)
        state = {
            "deployment": deployment,
            "ui": ui,
            "ctx": deployment.replication.context,
            "srb": ui.client("srb"),
            "appws": ui.client("appws"),
            "bsg": {s: ui.client("bsg-iu" if s in ("PBS", "GRD") else "bsg-sdsc")
                    for s in SCHEDULERS},
            "files": {},
            "nodes": {},
        }
        for node in self.nodes:
            state["ctx"].create(node)
            state["ctx"].set_property(node, "note", "initial")
            state["nodes"][node] = "initial"
        for path in sorted(self.files):
            self._do(state, ("put", path, 0))
        # warm every operation kind once before anything is timed
        warm = [("ctx_read", self.nodes[0]), ("ls",), ("runapp", 50)]
        warm += [("get" if k == "bin" else "cat", p)
                 for p, (k, _s) in sorted(self.files.items())]
        warm += [("genscript", s, {"jobName": "warm", "cpus": 1,
                                   "wallTime": 60, "queue": "workq",
                                   "executable": "/bin/true"})
                 for s in SCHEDULERS]
        for op in warm:
            self._do(state, op)
        return state

    def _do(self, state, op: tuple):
        """Run one operation; returns (result, payload bytes moved)."""
        kind = op[0]
        if kind == "put":
            path, variant = op[1], op[2]
            content = self._content(path, variant)
            raw = content if isinstance(content, bytes) else content.encode()
            encoded = base64.b64encode(raw).decode("ascii")
            result = state["srb"].call("put", path, encoded)
            state["files"][path] = content
            return result, len(raw)
        if kind == "get":
            result = state["srb"].call("get", op[1])
            return result, len(state["files"][op[1]])
        if kind == "cat":
            result = state["srb"].call("cat", op[1])
            return result, len(state["files"][op[1]].encode())
        if kind == "ls":
            return state["srb"].call("ls", "/home/portal", ""), 0
        if kind == "ctx_read":
            return state["ctx"].read_node(op[1]), 0
        if kind == "ctx_write":
            result = state["ctx"].set_property(op[1], "note", op[2])
            state["nodes"][op[1]] = op[2]
            return result, 0
        if kind == "genscript":
            return state["bsg"][op[1]].call("generateScript", op[1], op[2]), 0
        if kind == "runapp":
            appws = state["appws"]
            instance = appws.call(
                "prepare", "Gaussian", "modi4.iu.edu", {"basisSize": op[1]}
            )
            final = appws.call("run", instance)
            return (final, appws.call("get_output", instance)), 0
        if kind == "login":
            return state["ui"].login(USER, PASSWORD).session_id, 0
        raise ValueError(f"unknown portal operation {kind!r}")

    def _check(self, state, op: tuple, result) -> str:
        """'' when *result* is right for *op*, else what was wrong."""
        kind = op[0]
        if kind == "put":
            content = state["files"][op[1]]
            size = len(content if isinstance(content, bytes) else content.encode())
            return "" if result == size else f"put stored {result} of {size}"
        if kind == "get":
            ok = base64.b64decode(result) == state["files"][op[1]]
            return "" if ok else f"get {op[1]} returned other bytes"
        if kind == "cat":
            ok = result == state["files"][op[1]]
            return "" if ok else f"cat {op[1]} returned other text"
        if kind == "ls":
            sizes = {}
            for row in result:
                parts = row.split()
                if len(parts) == 3:
                    sizes["/home/portal/" + parts[2]] = int(parts[0])
            for path, content in state["files"].items():
                raw = content if isinstance(content, bytes) else content.encode()
                if sizes.get(path) != len(raw):
                    return f"ls shows {path} as {sizes.get(path)} bytes"
            return ""
        if kind == "ctx_read":
            if result["stale"]:
                return f"stale read of {op[1]}"
            node = ET.fromstring(result["xml"])
            values = [p.text or "" for p in node.findall("property")
                      if p.get("key") == "note"]
            want = state["nodes"][op[1]]
            return "" if values == [want] else f"context read {values} != {want!r}"
        if kind == "ctx_write":
            return "" if isinstance(result, int) and result > 0 else "no seq"
        if kind == "genscript":
            lines = set(result.splitlines())
            for template in DIRECTIVES[op[1]]:
                directive = template.format(
                    name=op[2]["jobName"], queue=op[2]["queue"], cpus=op[2]["cpus"]
                )
                if directive not in lines:
                    return f"{op[1]} script lacks {directive!r}"
            return ""
        if kind == "runapp":
            final, output = result
            ok = (final == "archived" and "Normal termination" in output
                  and f"basis functions: {op[1]}" in output)
            return "" if ok else f"runapp ended {final!r}"
        if kind == "login":
            return "" if str(result).startswith("gss-session-") else "no session"
        return f"unchecked operation {kind!r}"

    def run_round(self, state, index: int) -> Round:
        from repro.faults import PortalError

        out = Round()
        digest = _Digest()
        deployment = state["deployment"]
        clock = deployment.network.clock
        t0, (req0, bytes0) = clock.now, _wire(deployment.network)
        stale0 = state["ctx"].stale_reads_served
        moved = 0
        transfer_s = 0.0
        for op in self.script:
            started = speed.now()
            try:
                result, nbytes = self._do(state, op)
                error = ""
            except (PortalError, ConnectionError) as exc:
                result, nbytes = None, 0
                error = f"{op[0]} raised {type(exc).__name__}: {exc}"
            elapsed = speed.now() - started
            out.latencies.append(elapsed)
            if op[0] in ("put", "get", "cat"):
                moved += nbytes
                transfer_s += elapsed
            if not error:
                error = self._check(state, op, result)
            if error:
                out.failures.append(error)
            # session ids come from a process-wide counter, so a login is
            # recorded by its outcome, not by its number
            digest.add(op[0], bool(result) if op[0] == "login" else result)
        out.ops = len(self.script)
        req1, bytes1 = _wire(deployment.network)
        out.exact = {
            "virtual_s": clock.now - t0,
            "requests": req1 - req0,
            "wire_bytes": bytes1 - bytes0,
            "stale_reads": state["ctx"].stale_reads_served - stale0,
        }
        out.wall = {"transfer_bytes": moved, "transfer_s": transfer_s}
        out.digest = digest.hexdigest()
        return out

    def layer_counts(self, state) -> dict[str, float]:
        sampler = state["deployment"].observability.sampler
        sampler.flush()
        acct = sampler.accounting()
        return {
            "observability.kept_traces": acct["kept_traces"],
            "observability.dropped_traces": acct["dropped_traces"],
        }


    def summary(self, rounds: list[Round]) -> dict[str, float]:
        moved = sum(r.wall["transfer_bytes"] for r in rounds)
        spent = sum(r.wall["transfer_s"] for r in rounds)
        return {"transfer_mb_per_s": moved / 1e6 / spent if spent else 0.0}


# -- workflow_fanout ---------------------------------------------------------

WIDTH = 16
UI_HOST = "ui.bench.org"
GLOBUSRUN_HOST = "globusrun.sdsc.edu"


class WorkflowFanout:
    """Width-16 fan-out sweeps through the workflow shell, one cut and
    resumed from its journal."""

    name = "workflow_fanout"
    op_unit = "settled stage"
    trace_rounds = 16

    def __init__(self, seed: int, smoke: bool = False):
        rng = random.Random(f"{self.name}:{seed}")
        self.width = 4 if smoke else WIDTH
        self.deploy_seed = rng.randrange(2**31)
        self.exec_seed = rng.randrange(2**31)
        self.points = [rng.randrange(10**5, 10**6) for _ in range(self.width)]
        self.stages = 2 * self.width + 2
        #: the first round is cut after this many stages, then resumed
        self.cut = rng.randint(2, self.stages - 2)
        self.reference = None

    def _sweep(self, index: int):
        from repro.grid.jobs import JobSpec
        from repro.services.jobsubmit import jobs_to_xml
        from repro.shell import (
            BatchScriptStage, GlobusrunStage, MetaScheduleStage, SrbPutStage,
            Workflow, const, ref,
        )

        stages = [BatchScriptStage(
            "script", scheduler="PBS",
            params={"executable": "/bin/sweep", "cpus": "1"},
        )]
        collect = {}
        for i, point in enumerate(self.points):
            jobs = jobs_to_xml([("", JobSpec(
                name=f"pt-{i}", executable="echo",
                arguments=[f"point-{point}-{index}"],
            ))])
            stages.append(MetaScheduleStage(
                f"place-{i}", inputs={"jobs": const(jobs)}))
            stages.append(GlobusrunStage(f"run-{i}", inputs={
                "jobs": ref(f"place-{i}", "placed"),
                "script": ref("script", "script"),
            }))
            collect[f"r{i}"] = ref(f"run-{i}", "results")
        stages.append(SrbPutStage(
            "collect", path=f"/home/portal/sweep-{index % 4}.out",
            inputs=collect,
        ))
        return Workflow(f"sweep-{index}", stages)

    def _executor(self, state, index: int):
        return state["ui"].workflow_executor(
            self._sweep(index), run_id=f"run-{index}", seed=self.exec_seed,
            journal_name=f"wf-sweep-{index}",
        )

    def setup(self):
        from repro.portal.uiserver import PortalDeployment, UserInterfaceServer

        deployment = PortalDeployment.build(
            durable=True, observe_seed=self.deploy_seed
        )
        state = {
            "deployment": deployment,
            "ui": UserInterfaceServer(deployment, host=UI_HOST),
            "next": 1,
        }
        result = self._executor(state, 0).run()  # warm-up sweep
        if not result.done:
            raise RuntimeError(f"warm-up sweep failed: {result.failed}")
        return state

    def prepare(self, fresh_state) -> None:
        """Record the uninterrupted first sweep the resumed one must equal,
        on a deployment with the same history as the measured one."""
        from repro.shell import critical_path, provenance_tree, stage_timings

        executor = self._executor(fresh_state, 1)
        result = executor.run()
        bound = critical_path(executor.workflow, stage_timings(executor.journal))
        self.reference = {
            "done": result.done,
            "tree": provenance_tree(executor.store, "run-1"),
            "makespan_over_bound": result.makespan / bound["length"],
        }

    def run_round(self, state, index: int) -> Round:
        from repro.shell import provenance_tree

        out = Round()
        sweep = state["next"]
        state["next"] += 1
        deployment = state["deployment"]
        network = deployment.network
        t0, (req0, bytes0) = network.clock.now, _wire(network)
        controller = deployment.load.controllers["Globusrun"]
        arrived0 = controller.lane_stats.get("workflow")
        arrived0 = arrived0.arrived if arrived0 is not None else 0
        executor = self._executor(state, sweep)
        cut = self.cut if index == 0 else None
        while executor.pending():
            if cut is not None and out.ops == cut:
                # the portal process dies mid-DAG; a new one resumes from
                # the journal on the UI host's surviving disk
                network.take_down(GLOBUSRUN_HOST)
                network.bring_up(GLOBUSRUN_HOST)
                deployment.rebuilders[GLOBUSRUN_HOST]()
                executor = self._executor(state, sweep)
                cut = None
            started = speed.now()
            driven = executor.run(max_stages=1).stage_order
            elapsed = speed.now() - started
            if not driven:
                break  # nothing ready: the final run() reports why
            out.latencies.append(elapsed)
            out.ops += 1
        result = executor.run()
        if not result.done:
            out.failures.append(f"sweep {sweep} did not finish: {result.failed}")
        tree = provenance_tree(executor.store, f"run-{sweep}")
        if index == 0 and self.reference is not None:
            if not self.reference["done"]:
                out.failures.append("reference sweep did not finish")
            if tree != self.reference["tree"]:
                out.failures.append("resumed sweep's provenance tree differs")
        lane = controller.lane_stats.get("workflow")
        req1, bytes1 = _wire(network)
        out.exact = {
            "virtual_s": network.clock.now - t0,
            "requests": req1 - req0,
            "wire_bytes": bytes1 - bytes0,
            "attempts": (lane.arrived if lane is not None else 0) - arrived0,
        }
        digest = _Digest()
        digest.add(tree)
        out.digest = digest.hexdigest()
        return out


    def summary(self, rounds: list[Round]) -> dict[str, float]:
        return {"makespan_over_bound": self.reference["makespan_over_bound"]}


# -- overload_admission ------------------------------------------------------

CAPACITY = 4.0  # modelled requests per virtual second
WEIGHTS = {"alice": 3.0, "bob": 2.0, "carol": 1.0}
OVERLOAD = 5.0
MAX_WAIT = 2.5
ECHO_NAMESPACE = "urn:bench:echo"


class OverloadAdmission:
    """An open loop at 5x capacity from three weighted principals,
    admission on, no observability."""

    name = "overload_admission"
    op_unit = "offered call"
    trace_rounds = 2

    def __init__(self, seed: int, smoke: bool = False):
        rng = random.Random(f"{self.name}:{seed}")
        self.net_seed = rng.randrange(2**31)
        duration = 10.0 if smoke else 60.0
        rate = OVERLOAD * CAPACITY / len(WEIGHTS)  # per principal
        per_lane = int(duration * rate)
        # jittered arrivals, one per 1/rate slot: the seed moves each call
        # within its slot and orders the payloads, while the number of
        # calls and the payload sizes stay the same for every seed
        arrivals = []
        for name in sorted(WEIGHTS):
            sizes = [16 + (240 * i) // per_lane for i in range(per_lane)]
            rng.shuffle(sizes)
            for slot, size in enumerate(sizes):
                body = "".join(rng.choice("abcdefgh<>&\"' ") for _ in range(size))
                arrivals.append(((slot + rng.random()) / rate, name,
                                 f"&(executable=/bin/app)(arguments={body})"))
        arrivals.sort()
        self.duration = duration
        self.arrivals = arrivals

    def _stack(self):
        from repro.loadmgmt import AdmissionController, LaneConfig
        from repro.soap.client import SoapClient
        from repro.soap.server import SoapService
        from repro.transport.network import VirtualNetwork
        from repro.transport.server import HttpServer

        network = VirtualNetwork(seed=self.net_seed)
        controller = AdmissionController(
            network.clock, capacity=CAPACITY, max_wait=MAX_WAIT,
            lanes={n: LaneConfig(weight=w) for n, w in WEIGHTS.items()},
            enabled=True, service="Echo",
        )
        service = SoapService("Echo", ECHO_NAMESPACE)
        service.expose(lambda text: text, name="work")
        service.enable_admission(controller)
        url = service.mount(HttpServer("echo.bench.org", network), "/echo")
        clients = {
            name: SoapClient(network, url, ECHO_NAMESPACE,
                             source=f"{name}.org", principal=name)
            for name in sorted(WEIGHTS)
        }
        return {"network": network, "controller": controller,
                "service": service, "clients": clients}

    def setup(self):
        state = {"stack": self._stack()}
        client = state["stack"]["clients"]["alice"]
        if client.call("work", "warm") != "warm":
            raise RuntimeError("echo warm-up failed")
        return state

    def run_round(self, state, index: int) -> Round:
        from repro.faults import PortalError

        stack = self._stack()  # every round offers the same schedule afresh
        state["stack"] = stack
        network, controller = stack["network"], stack["controller"]
        clock = network.clock
        out = Round()
        digest = _Digest()
        start = clock.now
        admitted = shed = 0
        latencies_v: list[float] = []
        late_max = 0.0
        for at, name, payload in self.arrivals:
            due = start + at
            if clock.now < due:
                clock.sleep_until(due)
            late_max = max(late_max, clock.now - due)
            started = speed.now()
            try:
                answer = stack["clients"][name].call("work", payload)
                outcome = "ok"
            except PortalError as err:
                answer, outcome = err.code, "fault"
            out.latencies.append(speed.now() - started)
            if outcome == "ok":
                admitted += 1
                latencies_v.append(clock.now - due)
                if answer != payload:
                    out.failures.append("echo returned other text")
            elif answer == "Portal.ServerBusy":
                shed += 1
            else:
                out.failures.append(f"unclassified fault {answer}")
            digest.add(name, outcome, answer == payload)
        out.ops = len(self.arrivals)
        if admitted + shed != out.ops:
            out.failures.append(
                f"admitted {admitted} + shed {shed} != offered {out.ops}")
        if controller.admitted != admitted or controller.arrived != out.ops:
            out.failures.append("controller counts disagree with the load generator")
        elapsed = max(clock.now - start, self.duration)
        out.exact = {
            "goodput_per_s": admitted / elapsed,
            "admitted_p99_ms": 1000.0 * percentile(latencies_v, 0.99),
            "generator_late_s": late_max,
            "shed_ratio": shed / out.ops,
            "requests": network.stats.requests,
            "wire_bytes": network.stats.bytes_sent + network.stats.bytes_received,
            "faults": stack["service"].faults_returned,
        }
        out.digest = digest.hexdigest()
        return out


    def summary(self, rounds: list[Round]) -> dict[str, float]:
        first = rounds[0].exact
        return {
            "goodput_per_s": first["goodput_per_s"],
            "admitted_p99_ms": first["admitted_p99_ms"],
            "overload.generator_late_s": first["generator_late_s"],
        }


# -- analyzer_cold -----------------------------------------------------------


class AnalyzerCold:
    """A cold, cache-free whole-program analysis of ``src/repro``."""

    name = "analyzer_cold"
    op_unit = "analyzed module"
    trace_rounds = 1

    def __init__(self, seed: int, smoke: bool = False):
        self.root = Path(__file__).resolve().parent.parent
        self.tree = self.root / "src" / "repro"
        if smoke:
            # a package whose waivers, if any, hold without the rest of the
            # tree (whole-program findings need every module to appear)
            self.tree = self.tree / "portlets"

    def setup(self):
        from repro.analysis.core import all_checkers
        from repro.analysis.runner import analyze_paths, collect_files

        all_checkers()
        files = collect_files([self.tree])
        if not files:
            raise RuntimeError(f"no Python files under {self.tree}")
        analyze_paths([self.root / "src" / "repro" / "faults.py"],
                      root=self.root)  # warm lazy imports
        return {"files": files, "expected": self._expected(files),
                "texts": [f.read_text(encoding="utf-8") for f in files]}

    def _expected(self, files: list[Path]) -> dict:
        """Finding locations the tree declares: waiver comments (found
        with ``tokenize``) and the committed baseline."""
        import json

        waivers = set()
        for path in files:
            with path.open("rb") as handle:
                for tok in tokenize.tokenize(handle.readline):
                    if tok.type == tokenize.COMMENT and WAIVER.search(tok.string):
                        waivers.add((path.relative_to(self.root).as_posix(),
                                     tok.start[0]))
        baseline = json.loads(
            (self.root / "analysis-baseline.json").read_text(encoding="utf-8")
        )
        kept = sorted(
            (e.get("path", ""), e.get("code", ""))
            for e in baseline.get("entries", [])
            if self._within(e.get("path", ""))
        )
        return {"waivers": waivers, "kept": kept}

    def _within(self, rel: str) -> bool:
        return (self.root / rel).resolve().is_relative_to(self.tree)

    def run_round(self, state, index: int) -> Round:
        import ast

        from repro.analysis.runner import analyze_paths

        out = Round()
        gc.collect()
        started = speed.now()
        result = analyze_paths([self.tree], root=self.root)
        cold_s = speed.now() - started
        started = speed.now()
        for text in state["texts"]:
            ast.parse(text)
        parse_s = speed.now() - started
        modules = result.files_scanned
        out.ops = modules
        # one sample per round: the analysis is one call, so a module's
        # share is the cold time over the modules analyzed
        out.latencies = [cold_s / modules]
        suppressed = {(f.path, f.line) for f in result.suppressed}
        kept = sorted((f.path, f.code) for f in result.findings)
        if suppressed != state["expected"]["waivers"]:
            out.failures.append(
                "suppressed findings sit elsewhere than the waivers: "
                f"{sorted(suppressed ^ state['expected']['waivers'])[:5]}"
            )
        if kept != state["expected"]["kept"]:
            out.failures.append(f"unexpected findings: {kept[:5]}")
        if modules != len(state["files"]):
            out.failures.append(f"scanned {modules} of {len(state['files'])} files")
        out.exact = {"modules": modules, "findings": len(result.findings),
                     "suppressed": len(result.suppressed)}
        out.wall = {"cold_s": cold_s, "parse_s": parse_s}
        digest = _Digest()
        digest.add([f.to_dict() for f in result.findings],
                   sorted(suppressed))
        out.digest = digest.hexdigest()
        return out


    def summary(self, rounds: list[Round]) -> dict[str, float]:
        ratios = sorted(r.wall["cold_s"] / r.wall["parse_s"] for r in rounds)
        return {"analyze_over_parse": ratios[len(ratios) // 2]}


WORKLOADS = {
    w.name: w
    for w in (PortalSession, WorkflowFanout, OverloadAdmission, AnalyzerCold)
}
