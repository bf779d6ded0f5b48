"""P-NUT-style command line front ends.

The paper's toolkit is a set of small programs connected by traces; this
module exposes the same workflow as subcommands of one executable::

    pnut sim net.pn --until 10000 --seed 42 > run.trace
    pnut filter run.trace --places Bus_busy,Bus_free > bus.trace
    pnut stat run.trace [--json]
    pnut tracer run.trace --probes Bus_busy,pre_fetching --end 200
    pnut check run.trace "forall s in S [ Bus_busy(s) + Bus_free(s) = 1 ]"
    pnut reach net.pn --query "forall s in S [ Bus_busy(s) + Bus_free(s) = 1 ]"
    pnut animate net.pn --until 40 --frames 12
    pnut validate net.pn
    pnut fmt net.pn

Traces stream through stdin/stdout (use ``-`` for stdin), so the
simulator output "can be directly plugged into the input of analysis
tools" exactly as §4.1 describes.

The same workflow also runs against a long-lived simulation service
(:mod:`repro.service`) with byte-identical output::

    pnut serve --socket /tmp/pnut.sock --workers 4
    pnut submit net.pn --until 10000 --seed 1988 --socket /tmp/pnut.sock
    pnut submit net.pn --until 10000 --seed 1988 --trace --socket /tmp/pnut.sock
    pnut jobs --socket /tmp/pnut.sock

Multi-seed statistics sweeps share one compiled net across the whole
seed grid (in-process, or as a single service job with --socket/--port)::

    pnut sweep net.pn --until 10000 --seeds 1..32 --workers 4
    pnut sweep net.pn --until 10000 --seeds 1..32 --socket /tmp/pnut.sock

Design-space explorations cross parameter axes over a templated net
(``${param}`` placeholders), with a persistent result store making
re-runs incremental and Pareto frontiers over chosen metrics::

    pnut explore tpl.pn --param mem_cycles=2..10 --param depth=2,4,6 \\
        --seeds 1..8 --until 4000 --store dse.db \\
        --frontier max:throughput:Issue,min:avg_tokens:Bus_busy
"""

from __future__ import annotations

import argparse
import sys

# Each command imports what only it runs, so `pnut sim | pnut stat` does
# not pay for the reachability analyzers (numpy, networkx), the service
# or the animator at start-up.
from .core.errors import PnutError


def _open_text(path: str):
    if path == "-":
        return sys.stdin
    return open(path, "r", encoding="utf-8")


def _load_net(path: str):
    from .lang.parser import parse_net

    with _open_text(path) as handle:
        return parse_net(handle.read())


def _split_names(value: str | None) -> list[str] | None:
    if value is None:
        return None
    return [name.strip() for name in value.split(",") if name.strip()]


def parse_seed_grid(text: str) -> list[int]:
    """Parse a seed grid: ``1..32``, ``1,2,7``, or a mix (``1..4,9``)."""
    seeds: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            if ".." in part:
                low_text, high_text = part.split("..", 1)
                low, high = int(low_text), int(high_text)
                if high < low:
                    raise ValueError
                seeds.extend(range(low, high + 1))
            else:
                seeds.append(int(part))
        except ValueError:
            raise ValueError(
                f"bad seed grid {text!r}: use N, N..M, or a comma list"
            ) from None
    if not seeds:
        raise ValueError(f"bad seed grid {text!r}: no seeds")
    return seeds


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_sim(args: argparse.Namespace) -> int:
    from .sim.engine import Simulator
    from .trace.serialize import format_event, format_header

    net = _load_net(args.net)
    simulator = Simulator(net, seed=args.seed, run_number=args.run,
                          scheduler=args.scheduler)
    out = sys.stdout if args.output == "-" else open(
        args.output, "w", encoding="utf-8")
    try:
        for line in format_header(simulator.header()):
            out.write(line + "\n")
        for event in simulator.stream(until=args.until,
                                      max_events=args.max_events):
            out.write(format_event(event) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    if args.profile:
        from .analysis.report import canonical_json

        # Scheduler counters as canonical JSON on stderr: the trace on
        # stdout stays byte-identical with and without --profile.
        print(canonical_json(simulator.scheduler_profile()),
              file=sys.stderr)
    return 0


def cmd_filter(args: argparse.Namespace) -> int:
    from .trace.filter import TraceFilter
    from .trace.serialize import read_trace, write_trace

    keep_places = _split_names(args.places)
    keep_transitions = _split_names(args.transitions)
    with _open_text(args.trace) as handle:
        header, events = read_trace(handle)
        filtered = TraceFilter(keep_places, keep_transitions).apply(events)
        write_trace(sys.stdout, header, filtered)
    return 0


def cmd_stat(args: argparse.Namespace) -> int:
    from .analysis.report import (
        canonical_json,
        full_report,
        statistics_payload,
        troff_report,
    )
    from .analysis.stat import compute_statistics
    from .trace.serialize import read_trace

    with _open_text(args.trace) as handle:
        header, events = read_trace(handle)
        stats = compute_statistics(events, run_number=header.run_number)
    if args.json:
        print(canonical_json(statistics_payload(stats)))
        return 0
    report = troff_report(stats) if args.troff else full_report(stats)
    print(report)
    return 0


def cmd_tracer(args: argparse.Namespace) -> int:
    from .analysis.tracer import extract_signals
    from .analysis.waveform import WaveformOptions, render_waveforms
    from .trace.serialize import read_trace

    probes = _split_names(args.probes) or []
    if not probes:
        print("tracer: --probes is required", file=sys.stderr)
        return 2
    with _open_text(args.trace) as handle:
        _header, events = read_trace(handle)
        signals = extract_signals(events, probes)
    options = WaveformOptions(width=args.width, start=args.start, end=args.end)
    print(render_waveforms([signals[p] for p in probes], options))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from .analysis.query import check_trace
    from .analysis.report import canonical_json
    from .trace.serialize import read_trace

    with _open_text(args.trace) as handle:
        _header, events = read_trace(handle)
        result = check_trace(events, args.query)
    if args.json:
        print(canonical_json({
            "query": result.query,
            "holds": result.holds,
            "states_checked": result.states_checked,
        }))
    else:
        print(result.explain())
    return 0 if result.holds else 1


def cmd_reach(args: argparse.Namespace) -> int:
    from .reachability.ctl import RgChecker
    from .reachability.properties import analyze_net
    from .reachability.untimed import build_untimed_graph

    net = _load_net(args.net)
    if args.query:
        graph = build_untimed_graph(net, max_states=args.max_states)
        checker = RgChecker(graph, net)
        holds = checker.check(args.query)
        print(f"{'HOLDS' if holds else 'FAILS'} over {len(graph)} states: "
              f"{args.query}")
        return 0 if holds else 1
    properties = analyze_net(net, max_states=args.max_states)
    print(properties.pretty())
    return 0


def cmd_analytic(args: argparse.Namespace) -> int:
    from .reachability.markov import steady_state

    net = _load_net(args.net)
    result = steady_state(net, max_states=args.max_states)
    print(result.pretty())
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    from .reachability.coverability import structural_bounds

    net = _load_net(args.net)
    bounds = structural_bounds(net, max_nodes=args.max_states)
    unbounded = sorted(p for p, b in bounds.items() if b == float("inf"))
    for place in sorted(bounds):
        bound = bounds[place]
        text = "unbounded" if bound == float("inf") else str(int(bound))
        print(f"{place}: {text}")
    if unbounded:
        print(f"UNBOUNDED places: {', '.join(unbounded)}")
        return 1
    print("net is structurally bounded")
    return 0


def cmd_animate(args: argparse.Namespace) -> int:
    from .animation.player import animate
    from .sim.engine import Simulator

    net = _load_net(args.net)
    simulator = Simulator(net, seed=args.seed)
    events = simulator.stream(until=args.until)
    animate(net, events, stream=sys.stdout, max_frames=args.frames)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from .core.validate import Severity, validate_net

    net = _load_net(args.net)
    report = validate_net(net)
    print(report.pretty())
    has_errors = any(d.severity is Severity.ERROR for d in report.diagnostics)
    return 1 if has_errors else 0


def cmd_fmt(args: argparse.Namespace) -> int:
    from .lang.format import format_net

    net = _load_net(args.net)
    sys.stdout.write(format_net(net, lossy=args.lossy))
    return 0


# -- the simulation service -------------------------------------------------


def _service_client(args: argparse.Namespace):
    from .service.client import ServiceClient

    try:
        if args.socket:
            return ServiceClient(unix_path=args.socket,
                                 timeout=args.io_timeout)
        if args.port is not None:
            return ServiceClient(host=args.host, port=args.port,
                                 timeout=args.io_timeout)
    except OSError as error:
        print(f"pnut: cannot connect to server: {error}", file=sys.stderr)
        return None
    print("pnut: provide --socket PATH or --port N", file=sys.stderr)
    return None


def _add_endpoint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--socket", default=None,
                        help="Unix socket path of the server")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=None)
    parser.add_argument("--io-timeout", type=float, default=300.0,
                        help="client I/O timeout in seconds (socket reads; "
                             "not the job deadline)")


def _add_supervision_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-job wall-clock deadline in seconds, "
                             "enforced server-side (error code job-timeout)")
    parser.add_argument("--max-retries", type=int, default=None,
                        help="crash-retry budget for this job "
                             "(default: the server's setting)")


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service.server import run_server

    if (args.socket is None) == (args.port is None):
        print("pnut serve: provide --socket PATH or --port N",
              file=sys.stderr)
        return 2

    def ready(address: str) -> None:
        print(f"pnut serve: listening on {address}", flush=True)

    def http_ready(url: str) -> None:
        print(f"pnut serve: http observability on {url}", flush=True)

    def preloaded(summary: dict) -> None:
        cache = summary["cache"]
        print(
            f"pnut serve: preloaded {summary['loaded']} net(s) from "
            f"{summary['directory']} "
            f"(failed={summary['failed']}, entries={cache['entries']}, "
            f"misses={cache['misses']}, hits={cache['hits']}, "
            f"canonical_hits={cache['canonical_hits']})",
            flush=True,
        )
        for item in summary["errors"]:
            print(f"pnut serve: preload skipped {item['file']}: "
                  f"{item['error']}", file=sys.stderr, flush=True)

    try:
        asyncio.run(run_server(
            host=None if args.socket else args.host,
            port=args.port,
            unix_path=args.socket,
            workers=args.workers,
            cache_capacity=args.cache_size,
            max_pending=args.max_pending,
            max_retries=args.max_retries,
            drain_grace=args.drain_grace,
            preload_dir=args.preload,
            preload_callback=preloaded,
            ready_callback=ready,
            obs_log=args.obs_log,
            obs_interval=args.obs_interval,
            http_port=args.http,
            http_host=args.http_host,
            http_ready_callback=http_ready,
            state_dir=args.state,
            store_path=args.store,
            store_skip_corrupt=args.store_skip_corrupt,
        ))
    except KeyboardInterrupt:
        pass
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    with _open_text(args.net) as handle:
        net_source = handle.read()
    client = _service_client(args)
    if client is None:
        return 2
    with client:
        result = client.submit(
            net_source,
            until=args.until,
            max_events=args.max_events,
            seed=args.seed,
            run_number=args.run,
            outputs=("trace",) if args.trace else ("stats",),
            priority=args.priority,
            timeout=args.timeout,
            max_retries=args.max_retries,
            key=args.key,
            reconnect=args.reconnect,
            on_trace_line=print if args.trace else None,
        )
        if not args.trace:
            # Byte-identical to `pnut stat --json` over the same run.
            print(result.stats_json())
        summary = result.summary
        print(
            f"pnut submit: {result.job_id} "
            f"{'cache-hit' if result.cached else 'cold'} "
            f"events={summary.get('trace_events')} "
            f"sha256={summary.get('trace_sha256')}",
            file=sys.stderr,
        )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Vectorized multi-seed sweep: one compiled net, a seed grid.

    Runs in-process by default (one forked-``Simulator`` skeleton shared
    across the grid); with ``--socket``/``--port`` the same grid travels
    to a pnut server as **one** sweep frame. Both paths print identical
    bytes: one canonical-JSON line per seed (each byte-identical to what
    ``pnut sim`` + ``pnut stat --json`` report for that seed alone),
    then one aggregates line with cross-run mean/CI summaries.
    """
    from .analysis.report import canonical_json

    try:
        seeds = parse_seed_grid(args.seeds)
    except ValueError as error:
        print(f"pnut sweep: {error}", file=sys.stderr)
        return 2
    with _open_text(args.net) as handle:
        net_source = handle.read()

    if args.socket or args.port is not None:
        client = _service_client(args)
        if client is None:
            return 2
        with client:
            outcome = client.sweep(
                net_source,
                seeds,
                until=args.until,
                max_events=args.max_events,
                run_number=args.run,
                priority=args.priority,
                timeout=args.timeout,
                max_retries=args.max_retries,
                backend=args.backend,
            )
        run_payloads = outcome.runs
        n_runs = outcome.summary["runs"]
        runs_sha256 = outcome.runs_sha256
        aggregates = outcome.aggregates
        origin = f"{outcome.job_id} " \
                 f"{'cache-hit' if outcome.cached else 'cold'}"
        if args.profile:
            # Server-side selection lands in the service obs counters
            # (sweep_backend_*); the client only knows what it asked for.
            print(f"pnut sweep: backend requested={args.backend} "
                  f"(resolved server-side; see sweep_backend_* counters)",
                  file=sys.stderr)
    else:
        from .lang.parser import parse_net
        from .sim.engine import Simulator
        from .sim.sweep import run_sweep

        net = parse_net(net_source)
        try:
            result = run_sweep(
                Simulator(net),
                seeds,
                until=args.until,
                max_events=args.max_events,
                run_number=args.run,
                workers=args.workers,
                backend=args.backend,
            )
        except (ValueError, RuntimeError) as error:
            # Bad driver arguments (workers=0, missing --until) or a
            # forked sweep-worker failure: report like every other CLI
            # error instead of a raw traceback.
            print(f"pnut sweep: {error}", file=sys.stderr)
            return 2
        run_payloads = [run.to_payload() for run in result.runs]
        n_runs = len(result.runs)
        runs_sha256 = result.runs_sha256()
        aggregates = result.aggregates_payload()
        origin = "in-process"
        if args.profile:
            print(f"pnut sweep: backend requested={result.backend_requested} "
                  f"selected={result.backend} "
                  f"reason={result.backend_reason}",
                  file=sys.stderr)

    for payload in run_payloads:
        print(canonical_json({"kind": "run", **payload}))
    print(canonical_json({
        "kind": "aggregates",
        "runs": n_runs,
        "runs_sha256": runs_sha256,
        "metrics": aggregates,
    }))
    print(
        f"pnut sweep: {origin} runs={n_runs} "
        f"runs_sha256={runs_sha256}",
        file=sys.stderr,
    )
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    """Design-space exploration: a parameter grid over a templated net.

    Every ``--param`` axis crosses into a grid of points; each point
    binds into the template, compiles once, and runs every seed. Runs
    in-process by default; with ``--socket``/``--port`` the whole grid
    travels to a pnut server as **one** explore frame. Both paths print
    identical bytes: one canonical-JSON line per (point, seed) cell
    (each cell's ``stats`` byte-identical to ``pnut stat --json`` on the
    bound net and seed), one aggregates line per point, and — with
    ``--frontier`` — one Pareto-frontier line. ``--store`` makes re-runs
    incremental: completed cells are read back instead of re-simulated,
    on both paths.
    """
    from .analysis.report import canonical_json
    from .dse import (
        ParamSpace,
        open_store,
        parse_axis_spec,
        parse_objectives,
        run_exploration,
    )
    from .dse.explore import assemble_exploration

    try:
        seeds = parse_seed_grid(args.seeds)
        space = ParamSpace()
        for spec in args.param:
            space.axis(parse_axis_spec(spec))
        for group in args.zip or []:
            space.zip(*[name.strip() for name in group.split(",")])
        objectives = (parse_objectives(args.frontier)
                      if args.frontier else None)
    except (ValueError, PnutError) as error:
        print(f"pnut explore: {error}", file=sys.stderr)
        return 2
    with _open_text(args.net) as handle:
        template_source = handle.read()

    store = (open_store(args.store, skip_corrupt=args.store_skip_corrupt)
             if args.store else None)
    try:
        if args.socket or args.port is not None:
            # The whole grid travels as one explore frame; the store is
            # consulted client-side (keyed by canonical net SHA-256) and
            # already-held cells ride the frame's skip list, so the
            # server never simulates them.
            client = _service_client(args)
            if client is None:
                return 2
            outcomes = []

            def fetch_missing(grid, stored):
                with client:
                    outcome = client.explore(
                        template_source,
                        space.to_payload(),
                        seeds,
                        until=args.until,
                        max_events=args.max_events,
                        run_number=args.run,
                        priority=args.priority,
                        timeout=args.timeout,
                        max_retries=args.max_retries,
                        skip=[list(grid[index])
                              for index in sorted(stored)],
                        backend=args.backend,
                    )
                outcomes.append(outcome)
                return outcome.cells

            try:
                result = assemble_exploration(
                    template_source, space, seeds, fetch_missing,
                    until=args.until, max_events=args.max_events,
                    run_number=args.run, store=store,
                )
            except PnutError as error:
                print(f"pnut explore: {error}", file=sys.stderr)
                return 2
            (outcome,) = outcomes
            origin = f"{outcome.job_id} " \
                     f"{'cache-hit' if outcome.cached else 'cold'}"
        else:
            try:
                result = run_exploration(
                    template_source,
                    space,
                    seeds,
                    until=args.until,
                    max_events=args.max_events,
                    run_number=args.run,
                    workers=args.workers,
                    store=store,
                    backend=args.backend,
                )
            except (ValueError, RuntimeError, PnutError) as error:
                print(f"pnut explore: {error}", file=sys.stderr)
                return 2
            origin = "in-process"
    finally:
        if store is not None:
            store.close()

    for cell in result.cells:
        print(canonical_json({
            "kind": "cell",
            "params": result.points[cell.point_index],
            **cell.to_payload(),
        }))
    for record in result.aggregates_payload():
        print(canonical_json({"kind": "point", **record}))
    if objectives is not None:
        try:
            print(canonical_json({
                "kind": "frontier", **result.frontier(objectives),
            }))
        except PnutError as error:
            print(f"pnut explore: {error}", file=sys.stderr)
            return 2
    print(
        f"pnut explore: {origin} points={len(result.points)} "
        f"cells={len(result.cells)} stored={result.stored_cells} "
        f"cells_sha256={result.cells_sha256()}",
        file=sys.stderr,
    )
    return 0


def cmd_shutdown(args: argparse.Namespace) -> int:
    client = _service_client(args)
    if client is None:
        return 2
    with client:
        bye = client.shutdown(drain=args.drain, grace=args.grace)
    if args.drain:
        drained = bye.get("drained")
        cancelled = bye.get("cancelled", 0)
        detail = ("all jobs completed" if drained
                  else f"{cancelled} job(s) cancelled at the deadline")
        print(f"pnut shutdown: server drained and stopped ({detail})",
              file=sys.stderr)
        return 0 if drained else 1
    print("pnut shutdown: server stopped", file=sys.stderr)
    return 0


def _obs_client(args: argparse.Namespace):
    """The metrics/jobs reader for an observability command: the HTTP
    plane when ``--http URL`` is given, the native socket op otherwise."""
    if getattr(args, "http", None):
        from .obs.httpd import HttpObsClient

        return HttpObsClient(args.http, timeout=args.io_timeout)
    return _service_client(args)


def cmd_metrics(args: argparse.Namespace) -> int:
    """One (or a watched stream of) metrics snapshots from a server.

    Default output is the canonical-JSON registry snapshot; ``--prom``
    prints the Prometheus text exposition rendering instead (the same
    bytes the server's ``metrics`` op computed — and the same bytes
    ``GET /metrics`` serves, with ``--http``). ``--watch`` repeats
    every ``--interval`` seconds until interrupted, surviving server
    restarts with a ``DISCONNECTED`` notice instead of a traceback.
    """
    import time as _time

    from .analysis.report import canonical_json
    from .obs.dashboard import RECONNECT_BACKOFF_BASE, RECONNECT_BACKOFF_CAP
    from .service.client import ClientDisconnected, ServiceError

    client = _obs_client(args)
    if client is None:
        return 2
    backoff = RECONNECT_BACKOFF_BASE
    try:
        while True:
            try:
                frame = client.metrics()
            except (ClientDisconnected, ServiceError, OSError) as error:
                if not args.watch:
                    print(f"pnut metrics: {error}", file=sys.stderr)
                    return 1
                print(
                    f"pnut metrics: DISCONNECTED ({error}); "
                    f"retrying in {backoff:.1f}s",
                    file=sys.stderr, flush=True,
                )
                _time.sleep(backoff)
                backoff = min(RECONNECT_BACKOFF_CAP, backoff * 2)
                try:
                    client.close()
                except (ServiceError, OSError):
                    pass
                fresh = _obs_client(args)
                if fresh is not None:
                    client = fresh
                continue
            backoff = RECONNECT_BACKOFF_BASE
            if args.prom:
                sys.stdout.write(frame["text"])
            else:
                print(canonical_json(frame["metrics"]))
            sys.stdout.flush()
            if not args.watch:
                return 0
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    finally:
        try:
            client.close()
        except (ServiceError, OSError):
            pass


def cmd_top(args: argparse.Namespace) -> int:
    """Live terminal dashboard over a running pnut server."""
    from .obs.dashboard import run_top

    client = _obs_client(args)
    if client is None:
        return 2

    def reconnect():
        fresh = _obs_client(args)
        if fresh is None:
            raise OSError("cannot rebuild client")
        return fresh

    with client:
        painted = run_top(
            client,
            interval=args.interval,
            iterations=args.iterations,
            clear=not args.no_clear,
            reconnect=reconnect,
        )
    return 0 if painted else 1


def cmd_spans(args: argparse.Namespace) -> int:
    """Render span timelines from an ``--obs-log`` directory."""
    from .analysis.report import canonical_json
    from .obs.spanview import (
        follow_spans,
        format_record,
        load_timelines,
        render_gantt,
        render_stats,
        stats_payload,
    )

    if args.follow:
        try:
            for record in follow_spans(args.log, poll=args.interval):
                if args.trace and record.get("trace_id") != args.trace:
                    continue
                print(format_record(record), flush=True)
        except KeyboardInterrupt:
            pass
        return 0
    timelines = load_timelines(args.log, trace=args.trace)
    if not timelines:
        where = f"trace {args.trace!r}" if args.trace else "any trace"
        print(f"pnut spans: no span records for {where} under {args.log}",
              file=sys.stderr)
        return 1
    if args.stats:
        payload = stats_payload(timelines)
        if args.json:
            print(canonical_json(payload))
        else:
            sys.stdout.write(render_stats(payload))
        return 0
    sys.stdout.write(render_gantt(timelines, width=args.width))
    return 0


def cmd_jobs(args: argparse.Namespace) -> int:
    from .analysis.report import canonical_json

    client = _service_client(args)
    if client is None:
        return 2
    with client:
        if args.server_stats:
            frame = client.server_stats()
            frame.pop("id", None)
            print(canonical_json(frame))
            return 0
        for record in client.jobs():
            print(canonical_json(record))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pnut",
        description="P-NUT reproduced: Timed Petri Net tools (Razouk, DAC 1988)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("sim", help="simulate a net, emit a trace")
    p_sim.add_argument("net", help="net description file (- for stdin)")
    p_sim.add_argument("--until", type=float, default=None)
    p_sim.add_argument("--max-events", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--run", type=int, default=1)
    p_sim.add_argument("-o", "--output", default="-")
    p_sim.add_argument("--scheduler", default="auto",
                       choices=("auto", "bucket", "heap"),
                       help="future-event backend (trace-neutral; "
                            "default: compile-time choice)")
    p_sim.add_argument("--profile", action="store_true",
                       help="emit scheduler counters as canonical JSON "
                            "on stderr after the run")
    p_sim.set_defaults(fn=cmd_sim)

    p_filter = sub.add_parser("filter", help="project a trace")
    p_filter.add_argument("trace")
    p_filter.add_argument("--places", default=None)
    p_filter.add_argument("--transitions", default=None)
    p_filter.set_defaults(fn=cmd_filter)

    p_stat = sub.add_parser("stat", help="Figure-5 statistics report")
    p_stat.add_argument("trace")
    p_stat.add_argument("--troff", action="store_true")
    p_stat.add_argument("--json", action="store_true",
                        help="canonical JSON (byte-comparable with the "
                             "service's stats output)")
    p_stat.set_defaults(fn=cmd_stat)

    p_tracer = sub.add_parser("tracer", help="Figure-7 timing waveforms")
    p_tracer.add_argument("trace")
    p_tracer.add_argument("--probes", required=True)
    p_tracer.add_argument("--width", type=int, default=72)
    p_tracer.add_argument("--start", type=float, default=None)
    p_tracer.add_argument("--end", type=float, default=None)
    p_tracer.set_defaults(fn=cmd_tracer)

    p_check = sub.add_parser("check", help="verify a query against a trace")
    p_check.add_argument("trace")
    p_check.add_argument("query")
    p_check.add_argument("--json", action="store_true",
                         help="canonical JSON verdict")
    p_check.set_defaults(fn=cmd_check)

    p_reach = sub.add_parser("reach", help="reachability analysis / proofs")
    p_reach.add_argument("net")
    p_reach.add_argument("--max-states", type=int, default=100_000)
    p_reach.add_argument("--query", default=None)
    p_reach.set_defaults(fn=cmd_reach)

    p_analytic = sub.add_parser(
        "analytic", help="exact steady state via the timed graph")
    p_analytic.add_argument("net")
    p_analytic.add_argument("--max-states", type=int, default=50_000)
    p_analytic.set_defaults(fn=cmd_analytic)

    p_bounds = sub.add_parser(
        "bounds", help="Karp-Miller structural bounds (no inhibitors)")
    p_bounds.add_argument("net")
    p_bounds.add_argument("--max-states", type=int, default=50_000)
    p_bounds.set_defaults(fn=cmd_bounds)

    p_animate = sub.add_parser("animate", help="token-flow animation")
    p_animate.add_argument("net")
    p_animate.add_argument("--until", type=float, default=50)
    p_animate.add_argument("--seed", type=int, default=None)
    p_animate.add_argument("--frames", type=int, default=20)
    p_animate.set_defaults(fn=cmd_animate)

    p_validate = sub.add_parser("validate", help="structural validation")
    p_validate.add_argument("net")
    p_validate.set_defaults(fn=cmd_validate)

    p_fmt = sub.add_parser("fmt", help="parse and pretty-print a net")
    p_fmt.add_argument("net")
    p_fmt.add_argument("--lossy", action="store_true")
    p_fmt.set_defaults(fn=cmd_fmt)

    p_serve = sub.add_parser(
        "serve", help="run the asyncio simulation service")
    p_serve.add_argument("--socket", default=None,
                         help="listen on a Unix socket path")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=None,
                         help="listen on TCP (0 picks a free port)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="simulation worker pool size; slots idle "
                              "when a sweep or explore job starts also "
                              "split that job's cells")
    p_serve.add_argument("--cache-size", type=int, default=32,
                         help="compiled-net cache capacity")
    p_serve.add_argument("--max-pending", type=int, default=256,
                         help="queued-job bound before backpressure")
    p_serve.add_argument("--max-retries", type=int, default=2,
                         help="default crash-retry budget per job")
    p_serve.add_argument("--drain-grace", type=float, default=30.0,
                         help="seconds a graceful drain (SIGTERM or "
                              "shutdown drain=true) waits for active jobs")
    p_serve.add_argument("--preload", default=None, metavar="DIR",
                         help="compile every *.pn under DIR into the net "
                              "cache at startup (warm-start)")
    p_serve.add_argument("--obs-log", default=None, metavar="DIR",
                         help="write per-job span timelines (JSONL) under "
                              "DIR; see README 'Observing the service'")
    p_serve.add_argument("--obs-interval", type=float, default=None,
                         metavar="SECONDS",
                         help="log a metrics snapshot every SECONDS "
                              "(appended to DIR/metrics-<pid>.jsonl when "
                              "--obs-log is set)")
    p_serve.add_argument("--http", type=int, default=None, metavar="PORT",
                         help="HTTP observability sidecar on PORT (0 picks "
                              "a free port): GET /metrics (Prometheus), "
                              "/healthz, /jobs, /spans/<trace_id>")
    p_serve.add_argument("--http-host", default="127.0.0.1",
                         help="bind address for --http "
                              "(default 127.0.0.1; 0.0.0.0 to expose)")
    p_serve.add_argument("--state", default=None, metavar="DIR",
                         help="durable state: write-ahead job journal "
                              "under DIR; queued and in-flight jobs are "
                              "re-armed after a restart")
    p_serve.add_argument("--store", default=None, metavar="PATH",
                         help="server-side shared result store (SQLite): "
                              "sweep/explore cells checkpoint as they "
                              "complete and re-runs resume from it")
    p_serve.add_argument("--store-skip-corrupt", action="store_true",
                         help="treat unreadable --store cells as misses "
                              "instead of failing")
    p_serve.set_defaults(fn=cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="run a net on a pnut server, stream the results")
    p_submit.add_argument("net", help="net description file (- for stdin)")
    p_submit.add_argument("--until", type=float, default=None)
    p_submit.add_argument("--max-events", type=int, default=None)
    p_submit.add_argument("--seed", type=int, default=None)
    p_submit.add_argument("--run", type=int, default=1)
    p_submit.add_argument("--priority", type=int, default=0)
    p_submit.add_argument("--trace", action="store_true",
                          help="stream the trace to stdout instead of the "
                               "Figure-5 statistics JSON")
    p_submit.add_argument("--key", default=None,
                          help="idempotency key: resubmitting the same "
                               "spec+key attaches to the original job")
    p_submit.add_argument("--reconnect", type=int, default=0, metavar="N",
                          help="reconnect and resubmit up to N times if "
                               "the connection drops (idempotent via --key, "
                               "auto-generated when omitted)")
    _add_supervision_arguments(p_submit)
    _add_endpoint_arguments(p_submit)
    p_submit.set_defaults(fn=cmd_submit)

    p_sweep = sub.add_parser(
        "sweep", help="vectorized multi-seed sweep (one compiled net, "
                      "a seed grid; add --socket/--port to run it on a "
                      "pnut server as one job)")
    p_sweep.add_argument("net", help="net description file (- for stdin)")
    p_sweep.add_argument("--seeds", required=True,
                         help="seed grid: N, N..M, or a comma list (1..32)")
    p_sweep.add_argument("--until", type=float, default=None)
    p_sweep.add_argument("--max-events", type=int, default=None)
    p_sweep.add_argument("--run", type=int, default=1)
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="forked sweep workers (in-process path only)")
    p_sweep.add_argument("--backend", default="auto",
                         choices=("auto", "scalar", "lockstep"),
                         help="per-run engine: auto (lockstep codegen when "
                              "the net is in its safe class, scalar "
                              "otherwise), scalar, or lockstep (same silent "
                              "fallback); results are bit-identical")
    p_sweep.add_argument("--profile", action="store_true",
                         help="report the backend selection (and fallback "
                              "reason) on stderr")
    p_sweep.add_argument("--priority", type=int, default=0,
                         help="queue priority (service path only)")
    _add_supervision_arguments(p_sweep)
    _add_endpoint_arguments(p_sweep)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_explore = sub.add_parser(
        "explore", help="design-space exploration: a parameter grid over "
                        "a templated net (points x seeds, one compiled "
                        "skeleton per point; add --socket/--port to run "
                        "the grid on a pnut server as one job)")
    p_explore.add_argument("net", help="templated net description with "
                                       "${param} placeholders (- for stdin)")
    p_explore.add_argument("--param", action="append", required=True,
                           metavar="NAME=SPEC",
                           help="axis: NAME=2..10[:STEP], NAME=2,4,6, "
                                "NAME=log:LO..HI:COUNT, or NAME=VALUE "
                                "(repeatable; axes cross into a grid)")
    p_explore.add_argument("--zip", action="append", default=None,
                           metavar="A,B",
                           help="advance the named axes in lockstep "
                                "instead of crossing them (repeatable)")
    p_explore.add_argument("--seeds", required=True,
                           help="seed grid: N, N..M, or a comma list")
    p_explore.add_argument("--until", type=float, default=None)
    p_explore.add_argument("--max-events", type=int, default=None)
    p_explore.add_argument("--run", type=int, default=1)
    p_explore.add_argument("--workers", type=int, default=1,
                           help="forked cell workers (in-process path only)")
    p_explore.add_argument("--backend", default="auto",
                           choices=("auto", "scalar", "lockstep"),
                           help="per-cell engine, resolved per point "
                                "(see pnut sweep --backend)")
    p_explore.add_argument("--store", default=None,
                           help="persistent result store (SQLite, or "
                                "*.jsonl): completed cells are skipped on "
                                "re-runs")
    p_explore.add_argument("--frontier", default=None, metavar="OBJECTIVES",
                           help="Pareto objectives, e.g. "
                                "max:throughput:Issue,min:avg_tokens:Bus_busy")
    p_explore.add_argument("--priority", type=int, default=0,
                           help="queue priority (service path only)")
    p_explore.add_argument("--store-skip-corrupt", action="store_true",
                           help="skip (and warn about) corrupt result-store "
                                "records instead of failing the run")
    _add_supervision_arguments(p_explore)
    _add_endpoint_arguments(p_explore)
    p_explore.set_defaults(fn=cmd_explore)

    p_jobs = sub.add_parser("jobs", help="list a pnut server's jobs")
    p_jobs.add_argument("--server-stats", action="store_true",
                        help="print cache/queue counters instead")
    _add_endpoint_arguments(p_jobs)
    p_jobs.set_defaults(fn=cmd_jobs)

    p_metrics = sub.add_parser(
        "metrics", help="fetch a pnut server's metrics snapshot")
    p_metrics.add_argument("--prom", action="store_true",
                           help="Prometheus text exposition format instead "
                                "of canonical JSON")
    p_metrics.add_argument("--watch", action="store_true",
                           help="repeat every --interval seconds until "
                                "interrupted")
    p_metrics.add_argument("--interval", type=float, default=2.0,
                           help="seconds between --watch polls")
    p_metrics.add_argument("--http", default=None, metavar="URL",
                           help="read the server's HTTP observability "
                                "plane (pnut serve --http) instead of the "
                                "socket op")
    _add_endpoint_arguments(p_metrics)
    p_metrics.set_defaults(fn=cmd_metrics)

    p_top = sub.add_parser(
        "top", help="live dashboard: queue depth, cache hit rate, "
                    "events/sec, job latency percentiles")
    p_top.add_argument("--interval", type=float, default=2.0,
                       help="seconds between repaints")
    p_top.add_argument("--iterations", type=int, default=None, metavar="N",
                       help="stop after N frames (default: run until ^C)")
    p_top.add_argument("--no-clear", action="store_true",
                       help="append frames instead of repainting "
                            "(scrolling-log mode, e.g. when piped)")
    p_top.add_argument("--http", default=None, metavar="URL",
                       help="read the server's HTTP observability plane "
                            "(pnut serve --http) instead of the socket op")
    _add_endpoint_arguments(p_top)
    p_top.set_defaults(fn=cmd_top)

    p_spans = sub.add_parser(
        "spans", help="span timelines from an --obs-log directory: "
                      "ASCII Gantt per trace (queue wait, run, retries, "
                      "child cells), --stats aggregates, --follow tail")
    p_spans.add_argument("--log", required=True, metavar="DIR",
                         help="the server's --obs-log directory")
    p_spans.add_argument("--trace", default=None, metavar="ID",
                         help="only this trace id")
    p_spans.add_argument("--stats", action="store_true",
                         help="aggregates instead of the Gantt chart: "
                              "p50/p95 cell latency per point, backend "
                              "mix, cache-hit ratio")
    p_spans.add_argument("--json", action="store_true",
                         help="canonical JSON (with --stats)")
    p_spans.add_argument("--follow", action="store_true",
                         help="tail the directory, one line per record")
    p_spans.add_argument("--interval", type=float, default=0.5,
                         help="seconds between --follow polls")
    p_spans.add_argument("--width", type=int, default=72,
                         help="Gantt bar canvas width in characters")
    p_spans.set_defaults(fn=cmd_spans)

    p_shutdown = sub.add_parser(
        "shutdown", help="stop a pnut server (optionally draining first)")
    p_shutdown.add_argument("--drain", action="store_true",
                            help="finish active jobs before stopping "
                                 "(exit 1 if any had to be cancelled)")
    p_shutdown.add_argument("--grace", type=float, default=None,
                            help="drain deadline in seconds "
                                 "(default: the server's --drain-grace)")
    _add_endpoint_arguments(p_shutdown)
    p_shutdown.set_defaults(fn=cmd_shutdown)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except PnutError as error:
        print(f"pnut: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
