#!/usr/bin/env python3
"""The portal stack's benchmark: four workloads, end-to-end metrics from an
untraced pass, per-layer metrics from a traced pass.

Run from the repository root::

    python3 perfbench/run.py --workload portal_session --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10
    python3 perfbench/run.py --smoke

``--trace 0`` sets up the workload several times (``setup_s`` is the
median), then repeats the workload's round for ``--seconds`` and reports
the end-to-end metrics.  ``--trace 1`` runs one round untraced and the
same round again under span wrappers installed from ``perfbench/tracing.py``,
checks that both produced identical outputs, virtual-time figures and
counts, and reports the per-layer metrics.  Metric names and units come
from ``BENCHMARK.json``.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--workload all`` runs every workload in both passes, each in its own
process, and prints every metric.  ``--smoke`` is a fast self-check on
small inputs: every metric name and unit appears, two runs with one seed
agree on every virtual-time figure and exact count, and another seed
still passes every oracle.

End-to-end timings are CPU seconds corrected for host speed
(``perfbench/speed.py``); the traced pass's spans are wall-clock
``time.perf_counter_ns``; virtual-time figures come from the program's
simulated clock.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402  (the benchmark's own modules, found via HERE)
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, percentile  # noqa: E402

#: set-ups per run; ``setup_s`` reports their median
SETUPS = 3
#: modules each workload imports before its first set-up
IMPORTS = {
    "portal_session": ("repro.portal.uiserver", "repro.replication",
                       "repro.observability"),
    "workflow_fanout": ("repro.portal.uiserver", "repro.shell"),
    "overload_admission": ("repro.loadmgmt", "repro.soap.client",
                           "repro.soap.server"),
    "analyzer_cold": ("repro.analysis.runner", "repro.analysis.checkers"),
}
#: per-layer metrics that are a pure function of the seed
EXACT = (
    "xmlutil.parse_calls", "soap.faults", "soap.dispatches",
    "transport.requests", "transport.bytes_per_call",
    "observability.kept_traces", "observability.dropped_traces",
    "replication.calls_per_write", "replication.stale_reads",
    "durability.appends", "loadmgmt.shed_ratio", "loadmgmt.queue_wait_p99_s",
    "shell.max_in_flight", "shell.retries", "analysis.ast_walks",
    "analysis.graph_builds", "makespan_over_bound", "goodput_per_s",
    "admitted_p99_ms", "overload.generator_late_s",
    "process.retained_objects_per_round",
)
#: what each workload calls the shared end-to-end metrics
ALIASES = {
    "portal_session": {"ops_per_s": "calls_per_s", "op_p50_us": "call_p50_us",
                       "op_p99_us": "call_p99_us"},
    "workflow_fanout": {"ops_per_s": "stages_per_s"},
    "overload_admission": {"ops_per_s": "calls_per_s"},
    "analyzer_cold": {},
}


def catalog() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in catalog()[section]}


def load_program(name: str) -> float:
    """Import the program from ``src/``; returns the seconds it took."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {src}")
    sys.path.insert(0, str(src))
    started = speed.now()
    for module in IMPORTS[name]:
        importlib.import_module(module)
    return speed.now() - started


# -- the untraced pass -------------------------------------------------------


def untraced(name: str, seed: int, seconds: float, small: bool):
    clock = speed.install()
    try:
        import_s = load_program(name)
        workload = WORKLOADS[name](seed, small)
        setups = []
        state = None
        for _ in range(SETUPS):
            state = None
            gc.collect()
            started = speed.now()
            state = workload.setup()
            setups.append(speed.now() - started)
        if hasattr(workload, "prepare"):
            workload.prepare(workload.setup())
        rounds = []
        started = time.perf_counter()
        while True:
            rounds.append(workload.run_round(state, len(rounds)))
            if len(rounds) == 1:
                # the high-water mark after a fixed amount of work; later
                # rounds repeat it as often as the host's speed allows
                peak_rss_mb = (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                )
            elapsed = time.perf_counter() - started
            if elapsed * (1 + 1 / len(rounds)) > seconds:
                break
    finally:
        speed.uninstall()
    latencies = [x for r in rounds for x in r.latencies]
    ops = sum(r.ops for r in rounds)
    failures = [f for r in rounds for f in r.failures]
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "ops_per_s": 1 / statistics.mean(latencies),
        "op_p50_us": statistics.median(latencies) * 1e6,
        "op_p99_us": percentile(latencies, 0.99) * 1e6,
    }
    named = {ALIASES[name][k]: v for k, v in metrics.items()
             if k in ALIASES[name]}
    named.update(workload.summary(rounds))
    named["failed_ratio"] = len(failures) / ops
    notes = [
        f"rounds {len(rounds)}, {workload.op_unit}s {ops}, latency samples "
        f"{len(latencies)} ({len(latencies) // 100} beyond p99), "
        f"slow-host probes {clock.slow_share():.0%} of {len(clock.probes)}",
        f"peak RSS {peak_rss_mb:.1f} MB after the first round, "
        f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB "
        f"after the last",
    ]
    return ops, failures, metrics, named, notes


# -- the traced pass ---------------------------------------------------------


def traced(name: str, seed: int, small: bool):
    load_program(name)
    workload = WORKLOADS[name](seed, small)
    state = workload.setup()
    if hasattr(workload, "prepare"):
        workload.prepare(workload.setup())
    plain, plain_cpu, retained = _repeat(workload, state, census=True)
    del state
    gc.collect()

    tracer = Tracer()
    tracer.install()
    try:
        missed = tracer.unwrapped_bindings()
        state = workload.setup()
        calls0 = sum(c.calls_made for c in tracer.clients)
        served0 = sum(_served(s) for s in tracer.services)
        faults0 = sum(s.faults_returned for s in tracer.services)
        tracer.reset()
        seen, seen_cpu, _ = tracer.run_root(lambda: _repeat(workload, state))
        calls = sum(c.calls_made for c in tracer.clients) - calls0
        served = sum(_served(s) for s in tracer.services) - served0
        faults = sum(s.faults_returned for s in tracer.services) - faults0
    finally:
        tracer.uninstall()
    counts = (workload.layer_counts(state)
              if hasattr(workload, "layer_counts") else {})
    tracer.write(ROOT / ".perfbench" / f"trace-{name}-seed{seed}.json")

    own, inclusive, wall = tracer.totals()
    spans = tracer.span_counts()
    failures = [f for r in plain + seen for f in r.failures]
    if missed:
        failures.append(f"entry points left unwrapped at {missed}")
    if [(r.digest, r.exact, r.ops) for r in seen] != [
        (r.digest, r.exact, r.ops) for r in plain
    ]:
        failures.append("the traced rounds' outputs or virtual figures differ")
    exact = {}
    for r in seen:
        for key, value in r.exact.items():
            exact[key] = exact.get(key, 0) + value
    sends = spans.get("transport.send", 0)
    dispatches = spans.get("soap.dispatch", 0)
    if sends != exact.get("requests", 0):
        failures.append(f"{sends} send spans but {exact.get('requests', 0)} "
                        "requests on the wire")
    if not dispatches == served == calls:
        failures.append(f"{dispatches} dispatch spans, {served} dispatches "
                        f"counted by services, {calls} client attempts")

    layer = {name_: 0 for name_ in LAYERS}
    for span_name, ns in own.items():
        layer[span_name.split(".", 1)[0]] += ns
    if sum(layer.values()) != wall:
        failures.append("layer self-times do not add up to the traced wall")

    ops = sum(r.ops for r in seen)

    def per_op(ns: float) -> float:
        return ns / ops / 1000.0

    def per_call(span_name: str, table=own) -> float:
        n = spans.get(span_name, 0)
        return table.get(span_name, 0) / n / 1000.0 if n else 0.0

    requests = exact.get("requests", 0)
    writes = spans.get("replication.write", 0)
    metrics = {f"{k}.self_us": per_op(v) for k, v in layer.items()}
    metrics.update({
        "trace.wall_us": per_op(wall),
        "trace.overhead_ratio": plain_cpu / seen_cpu,
        "xmlutil.parse_us": per_op(own.get("xmlutil.parse", 0)),
        "xmlutil.serialize_us": per_op(own.get("xmlutil.serialize", 0)),
        "xmlutil.parse_calls": spans.get("xmlutil.parse", 0),
        "xmlutil.parse_ns_per_byte": (own.get("xmlutil.parse", 0)
                                      / tracer.parse_bytes
                                      if tracer.parse_bytes else 0.0),
        "soap.encode_us": per_op(own.get("soap.encode", 0)),
        "soap.decode_us": per_op(own.get("soap.decode", 0)),
        "soap.dispatch_self_us": per_op(own.get("soap.dispatch", 0)),
        "soap.faults": faults,
        "soap.dispatches": dispatches,
        "transport.requests": requests,
        "transport.bytes_per_call": (exact.get("wire_bytes", 0) / requests
                                     if requests else 0.0),
        "transport.send_self_us": per_op(own.get("transport.send", 0)),
        "security.login_us": per_call("security.login", inclusive),
        "observability.self_us_per_call": (layer["observability"] / dispatches
                                           / 1000.0 if dispatches else 0.0),
        "replication.write_us": per_call("replication.write", inclusive),
        "replication.calls_per_write": (
            tracer.count_under("soap.call", "replication.write") / writes
            if writes else 0.0),
        "replication.read_us": per_call("replication.read", inclusive),
        "replication.stale_reads": exact.get("stale_reads", 0),
        "durability.appends": spans.get("durability.append", 0),
        "durability.append_us": per_call("durability.append"),
        "durability.replay_us": per_op(own.get("durability.replay", 0)),
        "loadmgmt.admit_us": per_call("loadmgmt.admit"),
        "loadmgmt.shed_ratio": (tracer.sheds / spans["loadmgmt.admit"]
                                if spans.get("loadmgmt.admit") else 0.0),
        "loadmgmt.queue_wait_p99_s": percentile(tracer.queue_waits, 0.99),
        "shell.executor_self_us": per_op(own.get("shell.run", 0)),
        "shell.max_in_flight": tracer.max_in_flight,
        "shell.retries": (exact["attempts"] - ops
                          if "attempts" in exact else 0),
        "analysis.ast_walks": tracer.ast_walks,
        "analysis.graph_builds": spans.get("analysis.graph_build", 0),
        "analysis.parse_s": own.get("analysis.parse", 0) / 1e9,
        "analysis.cold_s": plain[0].wall.get("cold_s", 0.0),
        "process.retained_objects_per_round": retained,
    })
    for span_name, ns in inclusive.items():
        if span_name.startswith("analysis.checker."):
            metrics[span_name + "_s"] = ns / 1e9
    metrics.update(counts)
    metrics.update(workload.summary(plain))
    notes = [f"traced rounds {len(seen)}: {ops} {workload.op_unit}s, "
             f"{len(tracer.names)} spans, overhead ratio "
             f"{metrics['trace.overhead_ratio']:.3f}"]
    return 2 * ops, failures, metrics, notes


def _repeat(workload, state, census: bool = False):
    """Run the workload's ``trace_rounds`` rounds.  Returns them, the CPU
    seconds they took and, with *census*, how many garbage-collected
    objects each round after the first left alive."""
    rounds, cpu, objects = [], 0.0, []
    for index in range(workload.trace_rounds):
        started = time.thread_time()
        rounds.append(workload.run_round(state, index))
        cpu += time.thread_time() - started
        if census and index in (0, workload.trace_rounds - 1):
            gc.collect()
            objects.append(len(gc.get_objects()))
    retained = 0.0
    if len(rounds) > 1 and objects:
        retained = (objects[-1] - objects[0]) / (len(rounds) - 1)
    return rounds, cpu, retained


def _served(service) -> int:
    return service.calls_served + service.faults_returned + service.replays_served


# -- driving -----------------------------------------------------------------


def emit(metrics: dict[str, float], table: dict[str, str], failures, attempted):
    out = {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
           for name, unit in table.items()}
    for failure in failures[:20]:
        print(f"FAILED: {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": int(attempted),
        "failed": len(failures),
        "metrics": out,
    }))


def run_one(args) -> int:
    small = args.size == "smoke"
    if args.trace:
        attempted, failures, metrics, notes = traced(args.workload, args.seed,
                                                     small)
        table = units("per_layer")
        for note in notes:
            print(f"# {args.workload}: {note}")
        for name, unit in table.items():
            print(f"{args.workload} {name} {metrics.get(name, 0.0):.6g} {unit}")
    else:
        attempted, failures, metrics, named, notes = untraced(
            args.workload, args.seed, args.seconds, small)
        table = units("end_to_end")
        for note in notes:
            print(f"# {args.workload}: {note}")
        for name, unit in table.items():
            print(f"{args.workload} {name} {metrics[name]:.6g} {unit}")
        for name, value in named.items():
            print(f"{args.workload} {name} {value:.6g} (workload figure)")
    emit(metrics, table, failures, attempted)
    return 0


def child(workload: str, seed: int, seconds: int, trace: int, size: str):
    """Run one workload pass in its own process; (stdout lines, result)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--size", size],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} --trace {trace} exited {proc.returncode}: "
            f"{proc.stderr.strip()[-2000:]}"
        )
    return lines[:-1], json.loads(lines[-1])


def run_all(args) -> int:
    failures, attempted, merged = [], 0, {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            lines, result = child(workload, args.seed, args.seconds, trace,
                                  args.size)
            print("\n".join(lines))
            attempted += result["attempted"]
            if not result["correct"]:
                failures.append(f"{workload} --trace {trace} failed")
            for name, metric in result["metrics"].items():
                merged[f"{workload}/{name}"] = metric
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures), "metrics": merged,
    }))
    return 0 if not failures else 1


def smoke(args) -> int:
    """Small inputs: names and units, same-seed determinism, another seed."""
    problems = []
    for workload in WORKLOADS:
        runs = {}
        for label, seed, trace in (("e2e", args.seed, 0), ("a", args.seed, 1),
                                   ("b", args.seed, 1), ("c", args.seed + 1, 1)):
            lines, result = child(workload, seed, 1, trace, "smoke")
            runs[label] = result
            table = units("per_layer" if trace else "end_to_end")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != table:
                problems.append(f"{workload} {label}: metric names or units "
                                "differ from BENCHMARK.json")
            if not result["correct"]:
                problems.append(f"{workload} {label} (seed {seed}) failed: "
                                + "; ".join(line for line in lines
                                            if line.startswith("FAILED")))
        for name in EXACT:
            a = runs["a"]["metrics"][name]["value"]
            b = runs["b"]["metrics"][name]["value"]
            if a != b:
                problems.append(f"{workload} {name}: {a} then {b} on one seed")
        print(f"smoke {workload}: {'ok' if not problems else 'problems'}")
    for problem in problems:
        print(f"FAILED: {problem}")
    print(json.dumps({"correct": not problems, "attempted": 4 * len(WORKLOADS),
                      "failed": len(problems), "metrics": {}}))
    return 0 if not problems else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--smoke", action="store_true",
                        help="run the fast self-check instead")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke(args)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
