"""The traced run: per-layer timings from outside, and the layer ledger.

Each layer row is timed by calling that module's public functions from
this process on fixed inputs (the Figure-5 net, seed 1988, and the
explore grid's bound sources), so the rows do not depend on the workload
seed. The workload itself then runs twice against fresh servers: once
plain, for the ``request_p50_ms`` the ledger must account for, and once
with ``--obs-log``, whose spans give the server-side job times and whose
slowdown is the tracing overhead. The ledger multiplies each row by its
per-request count and reports what the rows leave unexplained.
"""

from __future__ import annotations

import statistics
import subprocess
import sys

from common import (
    CYCLES,
    REFERENCE_SEED,
    BenchError,
    Server,
    Session,
    median_ms,
)
from workloads import (
    EXPLORE_CYCLES,
    Tally,
    closed_loop,
    explore_space,
    fig5_source,
    pipeline_template,
    run_cli,
    start_server,
    stop_server,
)

#: name -> (unit, better, layer) of every per-layer metric, as listed in
#: BENCHMARK.json.
LAYER_METRICS = {
    "cli.startup_ms": ("ms", "lower", "cli"),
    "lang.parse_ms": ("ms", "lower", "lang"),
    "lang.canonicalize_ms": ("ms", "lower", "lang"),
    "dse.bind_ms": ("ms", "lower", "dse"),
    "service.cache.lookup_miss_ms": ("ms", "lower", "service.cache"),
    "service.cache.lookup_hit_ms": ("ms", "lower", "service.cache"),
    "service.cache.hit_ratio": ("ratio", "higher", "service.cache"),
    "service.cache.hits_per_request": ("count", "higher", "service.cache"),
    "service.cache.misses_per_request": ("count", "lower", "service.cache"),
    "service.cache.evictions_per_request": ("count", "lower",
                                            "service.cache"),
    "sim.engine.build_ms": ("ms", "lower", "sim.engine"),
    "sim.engine.fork_ms": ("ms", "lower", "sim.engine"),
    "sim.engine.run_ms": ("ms", "lower", "sim.engine"),
    "sim.engine.stream_ms": ("ms", "lower", "sim.engine"),
    "analysis.stat.observer_ms": ("ms", "lower", "analysis.stat"),
    "sim.sweep.hash_ms": ("ms", "lower", "sim.sweep"),
    "analysis.stat.compute_ms": ("ms", "lower", "analysis.stat"),
    "trace.serialize.format_ms": ("ms", "lower", "trace.serialize"),
    "trace.serialize.read_ms": ("ms", "lower", "trace.serialize"),
    "analysis.report.payload_ms": ("ms", "lower", "analysis.report"),
    "sim.lockstep.codegen_ms": ("ms", "lower", "sim.lockstep"),
    "sim.lockstep.run_seed_ms": ("ms", "lower", "sim.lockstep"),
    "sim.lockstep.program_ms": ("ms", "lower", "sim.lockstep"),
    "sim.lockstep.run_cell_ms": ("ms", "lower", "sim.lockstep"),
    "sim.lockstep.compiled_ratio": ("ratio", "higher", "sim.lockstep"),
    "sim.lockstep.fallbacks_per_request": ("count", "lower",
                                           "sim.lockstep"),
    "sim.experiment.fork_roundtrip_ms": ("ms", "lower", "sim.experiment"),
    "service.protocol.frame_ms": ("ms", "lower", "service.protocol"),
    "service.ping_ms": ("ms", "lower", "service"),
    "service.submit_tiny_ms": ("ms", "lower", "service"),
    "service.sweep_tiny_ms": ("ms", "lower", "service"),
    "service.job_run_ms": ("ms", "lower", "service"),
    "service.job_queued_ms": ("ms", "lower", "service"),
    "service.overhead_ms": ("ms", "lower", "service"),
    "ledger.request_p50_ms": ("ms", "lower", "ledger"),
    "ledger.attributed_ms": ("ms", "lower", "ledger"),
    "ledger.unattributed_ms": ("ms", "lower", "ledger"),
    "ledger.events_per_request": ("count", "higher", "ledger"),
    "ledger.frames_per_request": ("count", "lower", "ledger"),
    "obs.request_p50_traced_ms": ("ms", "lower", "obs"),
    "obs.tracing_overhead_ms": ("ms", "lower", "obs"),
}


#: Per-request count of each ledger row, by workload. Counts named by a
#: string are measured: ``runs`` is the request's simulated events over
#: the events of the run the row was timed on, the others come from the
#: server's counters. An optional third field puts a row in a lane;
#: lanes run at the same time and only the slowest lane counts.
LEDGER = {
    # Both processes start together, then stat parses while sim writes.
    "cli_pipeline": [
        ("cli.startup_ms", 1),
        ("lang.parse_ms", 1, "sim"), ("sim.engine.build_ms", 1, "sim"),
        ("sim.engine.stream_ms", "runs", "sim"),
        ("trace.serialize.format_ms", "runs", "sim"),
        ("trace.serialize.read_ms", "runs", "stat"),
        ("analysis.stat.compute_ms", "runs", "stat"),
        ("analysis.report.payload_ms", 1),
    ],
    "serve_submit": [
        ("service.ping_ms", 1), ("service.cache.lookup_hit_ms", 1),
        ("sim.experiment.fork_roundtrip_ms", 1), ("sim.engine.fork_ms", 1),
        ("sim.engine.run_ms", "runs"), ("analysis.stat.observer_ms", "runs"),
        ("sim.sweep.hash_ms", "runs"), ("analysis.report.payload_ms", 1),
    ],
    "serve_sweep": [
        ("service.ping_ms", 1), ("service.cache.lookup_hit_ms", 1),
        ("sim.experiment.fork_roundtrip_ms", 1),
        ("sim.lockstep.codegen_ms", "codegens"),
        ("sim.lockstep.run_seed_ms", "runs"),
        ("service.protocol.frame_ms", "frames"),
    ],
    # One compile() per job; each further point reuses the code object
    # and pays only for its own program.
    "serve_explore": [
        ("service.ping_ms", 1), ("dse.bind_ms", "points"),
        ("service.cache.lookup_miss_ms", "misses"),
        ("service.cache.lookup_hit_ms", "hits"),
        ("sim.experiment.fork_roundtrip_ms", 1),
        ("sim.lockstep.codegen_ms", "codegens"),
        ("sim.lockstep.program_ms", "programs"),
        ("sim.lockstep.run_cell_ms", "runs"),
        ("service.protocol.frame_ms", "frames"),
    ],
}


def _forked_roundtrip(fn, args=()) -> list:
    """Run ``fn`` in a fresh ``ForkedTask``; return what it emitted."""
    from repro.sim.experiment import ForkedTask

    task = ForkedTask(fn, args, label="perfbench probe")
    messages = []
    try:
        while True:
            kind, payload = task.next_message()
            if kind == "ok":
                return messages
            if kind != "msg":
                raise BenchError(f"forked probe failed: {payload}")
            messages.append(payload)
    finally:
        task.join()


def _noop(emit) -> None:
    return None


def _codegen(skeleton, emit) -> None:
    from repro.sim.lockstep import compile_lockstep

    compile_lockstep(skeleton).run_seed(REFERENCE_SEED, 1, 1.0, None, True,
                                        {}, {})


def _second_program(first, second, emit) -> None:
    """Time a program for ``second`` after ``first`` compiled the shared
    code object: what each further grid point of a job pays."""
    _codegen(first, emit)
    emit(median_ms(lambda: _codegen(second, emit), 1))


def engine_rows(session: Session) -> tuple[dict[str, float], dict]:
    """Time each in-process layer on fixed inputs (medians, in ms); also
    return the trace events of the 10 000-cycle run and of the explore
    cell the engine rows were timed on."""
    from repro.analysis.report import canonical_json, statistics_payload
    from repro.analysis.stat import StatisticsObserver, compute_statistics
    from repro.dse import NetTemplate
    from repro.lang.parser import canonical_net_source, parse_net
    from repro.service.cache import CompiledNetCache
    from repro.service.protocol import decode, encode
    from repro.sim.engine import Simulator
    from repro.sim.lockstep import compile_lockstep
    from repro.sim.sweep import TraceHasher
    from repro.trace.serialize import format_event, format_header, read_trace

    rows: dict[str, float] = {}
    env = session.env
    startup = median_ms(lambda: subprocess.run(
        [sys.executable, "-c", "import repro.cli"], env=env, check=True), 5)
    bare = median_ms(lambda: subprocess.run(
        [sys.executable, "-c", "pass"], env=env, check=True), 5)
    rows["cli.startup_ms"] = startup - bare

    template = NetTemplate(pipeline_template())
    points = explore_space().points()
    bound = [template.bind(point) for point in points]
    rows["dse.bind_ms"] = statistics.median(
        median_ms(lambda p=p: template.bind(p), 1) for p in points)
    rows["lang.parse_ms"] = statistics.median(
        median_ms(lambda s=s: parse_net(s), 1) for s in bound)
    rows["lang.canonicalize_ms"] = statistics.median(
        median_ms(lambda s=s: canonical_net_source(s), 1) for s in bound)
    cache = CompiledNetCache(capacity=len(bound))
    rows["service.cache.lookup_miss_ms"] = statistics.median(
        median_ms(lambda s=s: cache.lookup(s), 1) for s in bound)
    rows["service.cache.lookup_hit_ms"] = statistics.median(
        median_ms(lambda s=s: cache.lookup(s), 1) for s in bound)

    net = parse_net(fig5_source())
    skeleton = Simulator(net)
    rows["sim.engine.build_ms"] = median_ms(lambda: Simulator(net), 10)
    rows["sim.engine.fork_ms"] = median_ms(
        lambda: skeleton.fork(seed=REFERENCE_SEED), 20)

    def run(observers=()):
        skeleton.fork(seed=REFERENCE_SEED, observers=list(observers)).run(
            until=CYCLES, keep_events=False)

    def drain():
        for _event in skeleton.fork(seed=REFERENCE_SEED).stream(until=CYCLES):
            pass

    header = skeleton.fork(seed=REFERENCE_SEED).header()
    rows["sim.engine.run_ms"] = median_ms(run, 5)
    rows["sim.engine.stream_ms"] = median_ms(drain, 5)
    rows["analysis.stat.observer_ms"] = median_ms(
        lambda: run([StatisticsObserver()]), 5) - rows["sim.engine.run_ms"]
    rows["sim.sweep.hash_ms"] = median_ms(
        lambda: run([TraceHasher(header).on_event]),
        5) - rows["sim.engine.run_ms"]

    events = skeleton.fork(seed=REFERENCE_SEED).run(until=CYCLES).events
    rows["trace.serialize.format_ms"] = median_ms(
        lambda: [format_event(e) for e in events], 5)
    lines = format_header(header) + [format_event(e) for e in events]
    rows["trace.serialize.read_ms"] = median_ms(
        lambda: list(read_trace(lines)[1]), 5)
    parsed = list(read_trace(lines)[1])
    rows["analysis.stat.compute_ms"] = median_ms(
        lambda: compute_statistics(parsed), 5)
    stats = compute_statistics(parsed)
    rows["analysis.report.payload_ms"] = median_ms(
        lambda: canonical_json(statistics_payload(stats)), 20)

    rows["sim.experiment.fork_roundtrip_ms"] = median_ms(
        lambda: _forked_roundtrip(_noop), 10)
    cold = Simulator(net)  # never compiled here: every fork compiles anew
    rows["sim.lockstep.codegen_ms"] = median_ms(
        lambda: _forked_roundtrip(_codegen, (cold,)),
        5) - rows["sim.experiment.fork_roundtrip_ms"]
    other = Simulator(parse_net(bound[-1]))
    rows["sim.lockstep.program_ms"] = statistics.median(
        _forked_roundtrip(_second_program, (Simulator(net), other))[0]
        for _ in range(5))
    program = compile_lockstep(skeleton)
    rows["sim.lockstep.run_seed_ms"] = median_ms(
        lambda: program.run_seed(REFERENCE_SEED, 1, float(CYCLES), None,
                                 True, {}, {}), 5)
    rows["sim.lockstep.run_cell_ms"] = median_ms(
        lambda: program.run_seed(REFERENCE_SEED, 1, float(EXPLORE_CYCLES),
                                 None, True, {}, {}), 20)
    cell = program.run_seed(REFERENCE_SEED, 1, float(EXPLORE_CYCLES), None,
                            True, {}, {})[0]
    frame = {"type": "explore-cell", "id": 1, "job": "j1", "index": 0,
             "point": 0, "cell": cell.to_payload()}
    rows["service.protocol.frame_ms"] = median_ms(
        lambda: decode(encode(frame)), 50)
    basis = {
        "run": program.run_seed(REFERENCE_SEED, 1, float(CYCLES), None, True,
                                {}, {})[0].trace_events,
        "cell": cell.trace_events,
    }
    return rows, basis


def service_rows(client) -> dict[str, float]:
    """Fixed per-job costs on a warm, untraced server."""
    source = fig5_source()
    client.submit(source, until=1, seed=REFERENCE_SEED)
    client.sweep(source, [REFERENCE_SEED], until=1)
    return {
        "service.ping_ms": median_ms(client.ping, 20),
        "service.submit_tiny_ms": median_ms(
            lambda: client.submit(source, until=1, seed=REFERENCE_SEED), 10),
        "service.sweep_tiny_ms": median_ms(
            lambda: client.sweep(source, [REFERENCE_SEED], until=1), 10),
    }


def _counters(client) -> dict[str, float]:
    """Cache counters plus every backend selection counter."""
    cache = client.server_stats()["cache"]
    counters = {name: float(cache.get(name, 0))
                for name in ("hits", "canonical_hits", "misses", "evictions")}
    for name, value in client.metrics()["metrics"]["counters"].items():
        if "_backend_" in name and name.endswith("_total"):
            counters[name] = float(value)
    return counters


def _spans(directory: str) -> tuple[list[float], list[float]]:
    from repro.obs.spans import read_spans

    run_s, queued_s = [], []
    for record in read_spans(directory):
        if record.get("event") == "span-end" and \
                record.get("verdict") == "done":
            run_s.append(record["run_s"] * 1000.0)
            queued_s.append(record["queued_s"] * 1000.0)
    return run_s, queued_s


def traced(workload, session: Session, seconds: float, tally: Tally):
    """The traced pass of one workload: layer rows, counters, ledger."""
    rows, basis = engine_rows(session)
    phase = max(1.0, seconds / 2)
    counts = {"points": 0, "codegens": 0, "programs": 0, "hits": 0,
              "misses": 0, "runs": workload.runs_per_request, "frames": 0}
    values: dict[str, float] = {}
    if workload.uses_server:
        server, client, _setup = start_server(session, workload, tally)
        try:
            before = _counters(client)
            loop = closed_loop(workload, client, tally, phase)
            after = _counters(client)
            rows.update(service_rows(client))
        finally:
            stop_server(server, client, tally)
        requests = len(loop["latencies"])
        delta = {k: after.get(k, 0.0) - before.get(k, 0.0) for k in after}
        hits = delta["hits"] + delta["canonical_hits"]
        lookups = hits + delta["misses"]
        compiled = sum(v for k, v in delta.items()
                       if k.endswith("_backend_lockstep_total"))
        decisions = sum(v for k, v in delta.items()
                        if "_backend_" in k and "_fallback_" not in k)
        if workload.name == "serve_submit":
            decisions += requests  # a submit always runs the interpreter
        counts.update(
            points=getattr(workload, "points", 0),
            codegens=min(1.0, compiled / requests),
            programs=max(0.0, compiled / requests - 1.0),
            hits=hits / requests, misses=delta["misses"] / requests,
        )
        values.update({
            "service.cache.hit_ratio": hits / lookups if lookups else 0.0,
            "service.cache.hits_per_request": hits / requests,
            "service.cache.misses_per_request": delta["misses"] / requests,
            "service.cache.evictions_per_request":
                delta["evictions"] / requests,
            "sim.lockstep.compiled_ratio":
                compiled / decisions if decisions else 0.0,
            "sim.lockstep.fallbacks_per_request": sum(
                v for k, v in delta.items() if "_fallback_" in k) / requests,
        })
        obs_dir = session.path("obs")
        server, client, _setup = start_server(session, workload, tally,
                                              ("--obs-log", obs_dir))
        try:
            traced_loop = closed_loop(workload, client, tally, phase)
        finally:
            stop_server(server, client, tally)
        run_s, queued_s = _spans(obs_dir)
        if not run_s:
            raise BenchError("the traced server recorded no finished span")
        values.update({
            "service.job_run_ms": statistics.median(run_s),
            "service.job_queued_ms": statistics.median(queued_s),
            "service.overhead_ms":
                traced_loop["raw_p50"] - statistics.median(run_s),
            "obs.request_p50_traced_ms": traced_loop["raw_p50"],
            "obs.tracing_overhead_ms":
                traced_loop["raw_p50"] - loop["raw_p50"],
        })
        frames = 2 + (workload.runs_per_request
                      if workload.name != "serve_submit" else 0)
        counts["frames"] = frames
    else:
        loop = run_cli(workload, session, phase, tally)
        server = Server(session)
        client = server.connect()
        try:
            rows.update(service_rows(client))
        finally:
            stop_server(server, client, tally)
        for name in ("service.cache.hit_ratio",
                     "service.cache.hits_per_request",
                     "service.cache.misses_per_request",
                     "service.cache.evictions_per_request",
                     "sim.lockstep.compiled_ratio",
                     "sim.lockstep.fallbacks_per_request",
                     "service.job_run_ms", "service.job_queued_ms",
                     "service.overhead_ms", "obs.tracing_overhead_ms"):
            values[name] = 0.0  # no service job in this workload
        values["obs.request_p50_traced_ms"] = loop["raw_p50"]
        frames = 0
    values.update(rows)

    counts["runs"] = loop["events_per_request"] / basis[
        "cell" if workload.name == "serve_explore" else "run"]
    ledger = []
    lanes: dict[str, float] = {}
    attributed = 0.0
    for name, count, *lane in LEDGER[workload.name]:
        n = counts[count] if isinstance(count, str) else count
        ms = rows[name] * n
        ledger.append((name, n, ms, lane[0] if lane else ""))
        if lane:
            lanes[lane[0]] = lanes.get(lane[0], 0.0) + ms
        else:
            attributed += ms
    attributed += max(lanes.values(), default=0.0)
    values.update({
        "ledger.request_p50_ms": loop["raw_p50"],
        "ledger.attributed_ms": attributed,
        "ledger.unattributed_ms": loop["raw_p50"] - attributed,
        "ledger.events_per_request": loop["events_per_request"],
        "ledger.frames_per_request": float(frames),
    })
    print_ledger(workload.name, loop, ledger, attributed)
    return values, LAYER_METRICS, {"samples": len(loop["latencies"])}


def print_ledger(name: str, loop: dict, ledger, attributed: float) -> None:
    p50 = loop["raw_p50"]
    width = 40
    print(f"ledger {name}: request_p50_ms = {p50:.2f} "
          f"({len(loop['latencies'])} requests)")
    offset = 0.0
    lane_offsets: dict[str, float] = {}
    for row, n, ms, lane in ledger:
        if lane:
            lane_start = lane_offsets.setdefault(lane, offset)
            at, lane_offsets[lane] = lane_start, lane_start + ms
        else:
            offset = max([offset, *lane_offsets.values()])
            lane_offsets.clear()
            at, offset = offset, offset + max(ms, 0.0)
        start = int(width * at / p50) if p50 else 0
        span = max(1, int(width * ms / p50)) if p50 and ms > 0 else 0
        label = f"{row} [{lane}]" if lane else row
        print(f"  {label:40s} x{n:7.2f} {ms:9.2f} ms  "
              f"|{' ' * start}{'#' * span}")
    rest = p50 - attributed
    print(f"  {'unattributed_ms':40s} {'':8s} {rest:9.2f} ms")
