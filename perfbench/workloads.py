"""The four workloads: request pools, scalar references, timed loops.

Each workload turns the ``--seed`` it is given into a fixed pool of
simulation seeds (the program sees only those), computes in-process
scalar references for every pool entry before anything is timed, and
then drives its public surface in a closed loop: one client, one
connection, the next request sent only after the previous reply. Every
reply is compared byte for byte against its reference.
"""

from __future__ import annotations

import random
import resource
import statistics
import subprocess
import time

from common import (
    CALIBRATION_REFERENCE_MS,
    CYCLES,
    BenchError,
    Server,
    Session,
    calibrate,
    quantile,
)

#: How many times a run sets up (server spawn + first cold request);
#: the median is reported as ``setup_s``.
SETUPS = 5

#: The §2 explore grid: 12 memory latencies x 4 buffer depths = 48
#: points, more than the server's default 32-entry net cache holds.
EXPLORE_AXES = {
    "memory_cycles": [1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24],
    "buffer_words": [2, 4, 6, 8],
}
EXPLORE_CYCLES = 100
SWEEP_SEEDS = 16

#: Sentinel values used to cut a ``${...}`` template out of the
#: canonical pipeline source (as ``benchmarks/test_bench_dse.py`` does).
_SENTINELS = {"memory_cycles": 7731, "buffer_words": 6637}


class Mismatch(Exception):
    """A reply that differs from its in-process reference."""


def fig5_source() -> str:
    from repro.lang.format import format_net
    from repro.processor import build_pipeline_net

    return format_net(build_pipeline_net())


def pipeline_template() -> str:
    from repro.dse import PipelineBinder

    source = PipelineBinder().bind(_SENTINELS)
    for name, value in _SENTINELS.items():
        source = source.replace(str(value), "${%s}" % name)
    return source


def explore_space():
    from repro.dse import ParamSpace

    space = ParamSpace()
    for name, values in EXPLORE_AXES.items():
        space.values(name, values)
    return space


def _seeds(name: str, seed: int, count: int) -> list[int]:
    return random.Random(f"{name}/{seed}").sample(range(1, 2**31 - 1), count)


def scalar_runs(source: str, seeds: list[int], until: float):
    """In-process scalar sweep: per-seed summaries plus ``runs_sha256``."""
    from repro.lang.parser import parse_net
    from repro.sim.sweep import run_sweep

    return run_sweep(parse_net(source), seeds, until=float(until),
                     backend="scalar")


def _expect(label: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{label}: got {str(got)[:80]!r}, "
                       f"want {str(want)[:80]!r}")


class Workload:
    """A pool of requests against one surface, with their references."""

    name = ""
    runs_per_request = 1
    uses_server = True

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def prepare(self) -> None:
        """Compute the references (outside any timed window)."""
        raise NotImplementedError

    def send(self, target, index: int):
        """Send pool entry ``index % len(pool)``; return the reply."""
        raise NotImplementedError

    def check(self, reply, index: int) -> int:
        """Compare a reply with its reference (raises :class:`Mismatch`);
        return the trace events it simulated."""
        raise NotImplementedError


class CliPipeline(Workload):
    """``pnut sim fig5.pn ... | pnut stat - --json``, two real processes."""

    name = "cli_pipeline"
    uses_server = False

    def prepare(self) -> None:
        from repro.analysis.report import canonical_json

        self.source = fig5_source()
        self.pool = _seeds(self.name, self.seed, 4)
        runs = scalar_runs(self.source, self.pool, CYCLES).runs
        self.refs = [(canonical_json(r.stats), r.trace_events) for r in runs]
        self.net_path = None

    def write_net(self, session: Session) -> None:
        self.net_path = session.path("fig5.pn")
        with open(self.net_path, "w", encoding="utf-8") as handle:
            handle.write(fig5_source())

    def send(self, session: Session, index: int) -> str:
        slot = index % len(self.pool)
        sim = subprocess.Popen(
            session.pnut("sim", self.net_path, "--until", str(CYCLES),
                         "--seed", str(self.pool[slot])),
            stdout=subprocess.PIPE, env=session.env,
        )
        stat = subprocess.Popen(
            session.pnut("stat", "-", "--json"),
            stdin=sim.stdout, stdout=subprocess.PIPE, env=session.env,
        )
        sim.stdout.close()
        try:
            out, _ = stat.communicate(timeout=120)
            sim_code = sim.wait(timeout=120)
        finally:
            for process in (sim, stat):
                if process.poll() is None:
                    process.kill()
                    process.wait()
        if sim_code != 0 or stat.returncode != 0:
            raise BenchError(f"pipeline exited {sim_code}/{stat.returncode}")
        return out.decode().strip()

    def check(self, reply: str, index: int) -> int:
        stats_json, events = self.refs[index % len(self.pool)]
        _expect("pnut stat --json", reply, stats_json)
        return events


class ServeSubmit(Workload):
    """Stats-only ``submit`` of the Figure-5 net, 10 000 cycles."""

    name = "serve_submit"

    def prepare(self) -> None:
        from repro.analysis.report import canonical_json

        self.source = fig5_source()
        self.pool = _seeds(self.name, self.seed, 8)
        runs = scalar_runs(self.source, self.pool, CYCLES).runs
        self.refs = [(r.trace_sha256, r.trace_events, canonical_json(r.stats))
                     for r in runs]

    def send(self, client, index: int):
        return client.submit(self.source, until=CYCLES,
                             seed=self.pool[index % len(self.pool)])

    def check(self, result, index: int) -> int:
        sha, events, stats_json = self.refs[index % len(self.pool)]
        _expect("trace_sha256", result.trace_sha256, sha)
        _expect("trace_events", result.summary["trace_events"], events)
        _expect("stats", result.stats_json(), stats_json)
        return events


class ServeSweep(Workload):
    """One ``sweep`` of 16 seeds x 10 000 cycles per request."""

    name = "serve_sweep"
    runs_per_request = SWEEP_SEEDS

    def prepare(self) -> None:
        from repro.analysis.report import canonical_json

        self.source = fig5_source()
        self.pool = [_seeds(self.name, self.seed, SWEEP_SEEDS)]
        self.refs = []
        for group in self.pool:
            result = scalar_runs(self.source, group, CYCLES)
            self.refs.append((
                result.runs_sha256(),
                [canonical_json(r.to_payload()) for r in result.runs],
                sum(r.trace_events for r in result.runs),
            ))

    def send(self, client, index: int):
        return client.sweep(self.source, self.pool[index % len(self.pool)],
                            until=CYCLES)

    def check(self, outcome, index: int) -> int:
        from repro.analysis.report import canonical_json

        sha, payloads, events = self.refs[index % len(self.pool)]
        _expect("runs_sha256", outcome.runs_sha256, sha)
        _expect("runs", [canonical_json(r) for r in outcome.runs], payloads)
        return events


class ServeExplore(Workload):
    """One ``explore`` of the 48-point §2 grid x 2 seeds x 100 cycles."""

    name = "serve_explore"

    def prepare(self) -> None:
        from repro.analysis.report import canonical_json
        from repro.dse.explore import run_exploration
        from repro.service.cache import CompiledNetCache

        self.template = pipeline_template()
        space = explore_space()
        self.params = space.to_payload()
        self.points = len(space.points())
        self.runs_per_request = 2 * self.points
        seeds = _seeds(self.name, self.seed, 16)
        self.pool = [seeds[i:i + 2] for i in range(0, len(seeds), 2)]
        cache = CompiledNetCache(capacity=self.points)
        self.refs = []
        for group in self.pool:
            result = run_exploration(self.template, space, group,
                                     until=float(EXPLORE_CYCLES),
                                     backend="scalar",
                                     cache=cache)
            self.refs.append((
                result.cells_sha256(),
                [canonical_json(cell.payload) for cell in result.cells],
                sum(cell.payload["trace_events"] for cell in result.cells),
            ))

    def send(self, client, index: int):
        return client.explore(self.template, self.params,
                              self.pool[index % len(self.pool)],
                              until=EXPLORE_CYCLES)

    def check(self, outcome, index: int) -> int:
        from repro.analysis.report import canonical_json

        sha, payloads, events = self.refs[index % len(self.pool)]
        _expect("run_cells_sha256", outcome.summary["run_cells_sha256"], sha)
        _expect("cells", [canonical_json(outcome.cells[i])
                          for i in sorted(outcome.cells)], payloads)
        return events


WORKLOADS = {cls.name: cls for cls in (CliPipeline, ServeSubmit, ServeSweep,
                                       ServeExplore)}


class Tally:
    """Requests attempted and failed, with the failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(reason)

    def request(self, workload: Workload, target, index: int):
        """Send one request and check its reply outside the timed span.

        Returns ``(seconds, events)``; ``events`` is None when the request
        failed, which is counted rather than raised unless the connection
        is gone.
        """
        from repro.service.client import ClientDisconnected

        self.attempted += 1
        start = time.perf_counter()
        try:
            reply = workload.send(target, index)
        except ClientDisconnected as error:
            self.fail(f"disconnected: {error}")
            raise
        except Exception as error:  # noqa: BLE001 - counted as a failure
            self.fail(f"{type(error).__name__}: {error}")
            return time.perf_counter() - start, None
        elapsed = time.perf_counter() - start
        try:
            return elapsed, workload.check(reply, index)
        except Exception as error:  # noqa: BLE001 - a malformed reply too
            self.fail(f"{type(error).__name__}: {error}")
            return elapsed, None


def host_factor() -> float:
    """How much slower than the reference host the machine runs now."""
    return calibrate() / CALIBRATION_REFERENCE_MS


def closed_loop(workload: Workload, target, tally: Tally,
                seconds: float) -> dict:
    """Requests back to back for ``seconds``; latencies and totals.

    Each request is followed, outside its timed span, by a host-speed
    sample. ``p50``, ``p90`` and the rates use each request's time
    divided by the median of the five samples around it: its time on
    the reference host. The ``raw_*`` figures are the wall times as
    measured.
    """
    latencies: list[float] = []
    factors: list[float] = []
    events = runs = 0
    index = 1  # pool entry 0 went out as the set-up request
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        elapsed, got = tally.request(workload, target, index)
        index += 1
        if got is None:
            continue
        latencies.append(elapsed * 1000.0)
        factors.append(host_factor())
        events += got
        runs += workload.runs_per_request
    if not latencies:
        raise BenchError("no request completed: " + "; ".join(tally.reasons))
    # A single sample is noisy; its neighbours saw nearly the same host.
    normalized = [
        ms / statistics.median(factors[max(0, i - 2):i + 3])
        for i, ms in enumerate(latencies)
    ]
    busy_s = sum(normalized) / 1000.0
    return {
        "latencies": latencies,
        "p50": statistics.median(normalized),
        "p90": quantile(normalized, 0.9),
        "raw_p50": statistics.median(latencies),
        "raw_p90": quantile(latencies, 0.9),
        "host_factor": statistics.median(factors),
        "runs_per_s": runs / busy_s,
        "events_per_s": events / busy_s,
        "events_per_request": events / len(latencies),
    }


def run_cli(workload: CliPipeline, session: Session, seconds: float,
            tally: Tally) -> dict:
    setup = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        workload.write_net(session)
        written = time.perf_counter() - start
        elapsed, _events = tally.request(workload, session, 0)
        setup.append(written + elapsed)
    loop = closed_loop(workload, session, tally, seconds)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    loop["setup_s"] = statistics.median(setup) / loop["host_factor"]
    loop["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return loop


def start_server(session: Session, workload: Workload, tally: Tally,
                 extra: tuple[str, ...] = ()):
    """Spawn a server and send the first (cold) request; also return the
    seconds from spawn to that request's reply."""
    start = time.perf_counter()
    server = Server(session, extra)
    try:
        client = server.connect()
    except Exception:
        server.stop()
        raise
    ready = time.perf_counter() - start
    try:
        elapsed, _events = tally.request(workload, client, 0)
    except Exception:
        server.stop(client)
        raise
    return server, client, ready + elapsed


def stop_server(server: Server, client, tally: Tally) -> None:
    if not server.stop(client):
        tally.fail("server did not exit cleanly after shutdown")


def run_serve(workload: Workload, session: Session, seconds: float,
              tally: Tally) -> dict:
    setup = []
    server = client = None
    for _ in range(SETUPS):
        if server is not None:
            stop_server(server, client, tally)
        server, client, seconds_to_first = start_server(session, workload,
                                                         tally)
        setup.append(seconds_to_first)
    try:
        loop = closed_loop(workload, client, tally, seconds)
        loop["peak_rss_mb"] = server.peak_rss_mb()
    finally:
        stop_server(server, client, tally)
    loop["setup_s"] = statistics.median(setup) / loop["host_factor"]
    return loop
