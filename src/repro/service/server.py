"""The asyncio simulation server behind ``pnut serve``.

Architecture: connections are cheap asyncio tasks that parse NDJSON
requests and subscribe to jobs; simulation work happens in a small worker
pool. Each worker coroutine pulls the highest-priority job, resolves its
net through the :class:`CompiledNetCache`, and runs the simulation in
**forked children** via the same :class:`~repro.sim.experiment.ForkedTask`
machinery that fans out :class:`~repro.sim.Experiment` replications — the
compiled net (with its callables) is inherited by memory image, never
pickled, and the GIL never serializes two runs. Every job is a grid of
(point, seed) cells run by one executor, :func:`execute_grid_job`: a
``submit`` is the one-cell grid of its net and seed, a sweep the
one-point grid of its seeds, an exploration one point per parameter
set. A job splits its fresh cells into contiguous chunks, one child per
worker slot idle at dispatch (its own included), so a lone sweep uses
every slot while a loaded server keeps one child per job and a submit
forks once. Results stream back through the children's pipes as
batched trace lines and cell frames; the parent builds every result
body from the cells it received, and the full trace is never
materialized server-side (``keep_events=False``).

Platforms without ``fork`` fall back to running jobs on threads, one
thread per job: same protocol, same results, reduced parallelism and no
mid-run cancellation.

Import rule: every module a forked job executes (the engine, the
lockstep code generator, the grid core and the statistics observer it
wires up, trace serialization) is imported at module scope here, either
directly or through the grid core, so each child inherits
it loaded from the parent's memory image. An executor must never import
lazily, or every job child would pay that import again. Only
parent-side features that no job runs, such as the HTTP observability
sidecar, may import on first use.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import logging
import os
import signal
import time
from dataclasses import dataclass
from typing import Any, Callable

from ..core.errors import PnutError
from ..dse.explore import bind_space
from ..dse.space import point_key
from ..dse.store import StoreError, open_store, stop_key
from ..obs.metrics import MetricsRegistry, peak_rss_kb
from ..obs.spans import SpanLog, mint_trace_id, read_spans
from ..sim.experiment import ForkedTask, contiguous_chunks, fork_available
from ..sim.lockstep import resolve_backend
from ..sim.sweep import (
    RESUMED,
    SweepResult,
    SweepRunSummary,
    _aggregate,
    backend_counts,
    cell_runner,
    grid_cells,
    grid_sha256,
    scan_store,
    summary_from_payload,
)
from ..trace.events import TraceHeader
from ..trace.serialize import format_event, format_header
from . import faults
from .cache import CompiledNet, CompiledNetCache
from .protocol import (
    PROTOCOL_VERSION,
    SPEC_CLASSES,
    TRACE_BATCH_LINES,
    ExploreSpec,
    JobSpec,
    ProtocolError,
    SweepSpec,
    accepted_frame,
    decode,
    dedupe_identity,
    encode,
    error_frame,
)
from .journal import JobJournal
from .queue import Job, JobQueue, JobState, QueueFullError

log = logging.getLogger("repro.service")

#: StreamReader line limit: net sources and trace batches are long lines.
_LINE_LIMIT = 16 * 1024 * 1024


def _emit_obs_deltas(emit, obs: MetricsRegistry, elapsed: float, *,
                     events_started: int, events_finished: int, runs: int,
                     extra: dict[str, int]) -> None:
    """Ship one metrics delta from the executing child to the server.

    The child builds a fresh registry post-fork (``obs``, which may
    already hold the scheduler profile of its scalar runs), so every
    value is a pure delta; it rides the existing result pipe as one
    ``obs`` frame the server folds into its registry and never forwards
    to clients — result streams stay byte-identical with or without
    observability.
    """
    obs.counter("engine_events_started_total").inc(events_started)
    obs.counter("engine_events_finished_total").inc(events_finished)
    obs.counter("engine_runs_total").inc(runs)
    obs.histogram("engine_run_seconds").observe(elapsed)
    if elapsed > 0:
        obs.gauge("worker_events_per_sec").set(
            round(events_started / elapsed, 3)
        )
    obs.gauge("worker_rss_kb").set(peak_rss_kb())
    for name, value in extra.items():
        obs.counter(name).inc(value)
    emit({"channel": "obs", "deltas": obs.deltas()})


def _emit_cell_span(emit, kind: str, *, seed: int | None,
                    point: int | None = None, summary=None,
                    backend: str, backend_reason: str,
                    skipped: bool = False) -> None:
    """Ship one child-span record to the server.

    Like the ``obs`` deltas, a simulated cell's record rides the result
    pipe on its own ``span`` channel and is never forwarded to clients —
    the server stamps the parent identity (``trace_id``/``job``/
    ``attempt``, which only it knows) and writes the ``cell-span`` JSONL
    record. Cells that did not run (the client's ``skip`` list, or
    resumed from the server's result store) still get a span, emitted by
    the server itself with ``skipped: true`` and zero duration, so
    readers can compute the cache-hit ratio from the timeline alone.
    """
    record: dict[str, Any] = {
        "kind": kind,
        "seed": seed,
        "backend": backend,
        "backend_reason": backend_reason,
        "skipped": skipped,
    }
    if point is not None:
        record["point"] = point
    if summary is not None:
        elapsed = summary.elapsed_s
        record["elapsed_s"] = round(elapsed, 6)
        record["events"] = summary.events_started
        record["events_per_sec"] = (
            round(summary.events_started / elapsed, 3) if elapsed > 0
            else 0.0
        )
    else:
        record["elapsed_s"] = 0.0
        record["events"] = 0
    emit({"channel": "span", "record": record})


def _trace_batcher(header: TraceHeader, emit):
    """``(observer, flush)`` streaming one run's serialized trace.

    The observer appends each event's trace line and ships a ``trace``
    frame every :data:`TRACE_BATCH_LINES` lines; ``flush`` ships the
    rest after the run. The header lines lead the first frame, so the
    frames concatenate to exactly what ``pnut sim`` writes. Text
    serialization is paid only when the ``trace`` output is subscribed.
    """
    batch = list(format_header(header))

    def flush() -> None:
        if batch:
            emit({"channel": "trace", "lines": list(batch)})
            batch.clear()

    def on_event(event) -> None:
        batch.append(format_event(event))
        if len(batch) >= TRACE_BATCH_LINES:
            flush()

    return on_event, flush


def _job_seeds(spec: Any) -> tuple[int | None, ...]:
    """A job's seed axis: a submit is the one-seed grid of its ``seed``
    (which may be None, as on ``pnut sim``)."""
    return (spec.seed,) if isinstance(spec, JobSpec) else spec.seeds


#: The resolution of a submit whose ``trace`` output is subscribed: the
#: trace lines stream from per-event observers, which only the scalar
#: interpreter runs.
TRACE_OUTPUT = (None, "scalar", "trace-output")


def _submit_summary(prepared, seeds, grid, cells, fresh, resumed):
    """A submit's result body: its one run's summary and statistics."""
    compiled = prepared[0][1]
    run = cells[0]
    payload: dict[str, Any] = {
        "summary": {
            "net": compiled.net.name,
            "seed": run.seed,
            "run": run.run_number,
            "final_time": run.final_time,
            "events_started": run.events_started,
            "events_finished": run.events_finished,
            "trace_events": run.trace_events,
            "trace_sha256": run.trace_sha256,
            "cache_key": compiled.key,
        }
    }
    if run.stats is not None:
        payload["stats"] = run.stats
    return payload


def _sweep_summary(prepared, seeds, grid, cells, fresh, resumed):
    """A sweep's result body: run totals, ``runs_sha256``, aggregates.

    A sweep skips no cell, so every grid cell has a summary; stored and
    fresh runs merge in position order and ``_aggregate`` folds them in
    ascending-seed order, so a resumed sweep's body is byte-identical
    to a cold one.
    """
    compiled = prepared[0][1]
    result = SweepResult(runs=cells,
                         metrics=_aggregate([(run, {}) for run in cells],
                                            [], 0.95))
    return {
        "summary": {
            "net": compiled.net.name,
            "runs": len(cells),
            "seeds": seeds,
            "events_started": sum(run.events_started for run in cells),
            "events_finished": sum(run.events_finished for run in cells),
            "runs_sha256": result.runs_sha256(),
            "cache_key": compiled.key,
            "resumed_cells": resumed,
        },
        "aggregates": result.aggregates_payload(),
    }


def _explore_summary(prepared, seeds, grid, cells, fresh, resumed):
    """An exploration's result body: cell counts over the whole grid,
    engine totals over the cells actually run, and ``run_cells_sha256``
    over every cell the job returns, fresh and store-resumed (equal to
    the in-process ``cells_sha256`` when the client skipped nothing)."""
    ran = [cells[index] for index in fresh]
    returned = [index for index, cell in enumerate(cells) if cell is not None]
    return {
        "summary": {
            "net": prepared[0][1].net.name if prepared else "",
            "points": len(prepared),
            "seeds": seeds,
            "cells": len(grid),
            "cells_run": len(fresh),
            "cells_skipped": len(grid) - len(fresh) - resumed,
            "resumed_cells": resumed,
            "events_started": sum(run.events_started for run in ran),
            "events_finished": sum(run.events_finished for run in ran),
            "run_cells_sha256": grid_sha256(
                (*grid[index], cells[index].trace_sha256)
                for index in returned
            ),
            "net_shas": [sha for _point, _compiled, sha in prepared],
        },
    }


@dataclass(frozen=True)
class GridOp:
    """What one grid op changes about a grid job.

    ``channel`` names the op's cell frames and cell spans and ``field``
    the payload key inside a cell frame; ``point`` says whether frames
    and spans carry the point index. ``surface`` prefixes the backend
    counters, ``counters`` names the cells-run (counted by each chunk
    child), cells-resumed and (for explore) cells-skipped counters
    (counted by the server parent), and ``summarize`` builds the result
    frame body in the parent; ``stats`` says whether it reads the cells'
    statistics. ``stream`` says whether cell frames reach clients and
    the ``--store``: a submit's one cell is neither forwarded nor
    checkpointed nor resumed, since its result frame carries it.
    ``profile`` says whether scalar cells publish their scheduler
    counters (``sched_*``) with the chunk's obs delta.
    """

    channel: str
    field: str
    point: bool
    surface: str
    counters: tuple[str, ...]
    summarize: Callable[..., dict[str, Any]]
    stats: bool
    stream: bool = True
    profile: bool = False

    def summary(self, payload: dict[str, Any]) -> SweepRunSummary:
        """What the parent keeps of one cell until the job ends: its run
        summary, with the statistics only when ``summarize`` reads them."""
        if not self.stats:
            payload = {**payload, "stats": None}
        return summary_from_payload(payload)

    def frame(self, index: int, point: int,
              payload: dict[str, Any]) -> dict[str, Any]:
        """The body of one cell frame (wire field order preserved)."""
        frame: dict[str, Any] = {"index": index}
        if self.point:
            frame["point"] = point
        frame[self.field] = payload
        return frame


#: The grid ops, keyed by wire op: everything a submit, a sweep and an
#: exploration do differently lives here, not in the executor's loop.
GRID_OPS = {
    "submit": GridOp("submit-run", "run", False, "submit", (),
                     _submit_summary, stats=True, stream=False,
                     profile=True),
    "sweep": GridOp("sweep-run", "run", False, "sweep",
                    ("sweep_runs_total", "sweep_runs_resumed_total"),
                    _sweep_summary, stats=True),
    "explore": GridOp("explore-cell", "cell", True, "explore",
                      ("dse_cells_run_total", "dse_cells_resumed_total",
                       "dse_cells_skipped_total"),
                      _explore_summary, stats=False),
}
_GRID_CHANNELS = {op.channel: op for op in GRID_OPS.values()}


def execute_grid_job(
    prepared: list[tuple[dict[str, Any], CompiledNet, str]],
    spec: JobSpec | SweepSpec | ExploreSpec,
    resolutions,
    indices: list[int],
    emit,
) -> None:
    """Run one chunk of a grid job: the cells at ``indices``, in order.

    The one executor the server forks. A submit is the one-cell grid of
    its net and seed, a sweep the one-point grid of the empty point and
    an exploration one point per bound parameter set (see
    :meth:`SimulationService._prepare`). ``prepared`` carries one
    ``(point, compiled entry, net sha)`` triple per point, compiled on
    the server side through its net cache *before* the fork, so the
    child inherits every skeleton by memory image. ``resolutions``
    holds each point's ``(program, selected, reason)``, resolved (and
    the generated loop warmed) in the parent as well, so the child
    never pays codegen; each cell runs through the same
    :func:`~repro.sim.sweep.cell_runner` as the in-process grid, and
    its payload is identical to what a ``submit`` of that point's net
    and seed reports.

    Runs inside one of the job's forked children (or the job's thread
    on fork-less platforms). ``indices`` are grid indices of fresh
    cells; the server splits a job's fresh cells over its children with
    :func:`~repro.sim.experiment.contiguous_chunks` and replays
    store-resumed cells itself. A submit with the ``trace`` output
    subscribed first streams its trace in ``trace`` frames. Each cell
    streams its cell frame, then its cell span; the chunk ends with one
    obs delta. The server builds the result body from the cell frames
    it received, so the chunk returns nothing. The op's frame shape and
    counters come from :data:`GRID_OPS`.
    """
    faults.stall_worker()  # chaos hook: hold the deadline path to the fire
    # chaos hook: SIGKILL this child after that many engine events. It
    # rides a scalar run's event stream; the generated loop has no
    # per-event observers, so there the budget drains at run
    # granularity — the SIGKILL lands between cells, after that cell's
    # frame and span streamed.
    saboteur = faults.event_saboteur()
    op = GRID_OPS[spec.op]
    obs = MetricsRegistry()
    grid = grid_cells(len(prepared), _job_seeds(spec))
    runners = [
        cell_runner(compiled.template, resolution, spec.run_number,
                    spec.until, spec.max_events, "stats" in spec.outputs,
                    profile=obs if op.profile else None)
        for (_point, compiled, _sha), resolution in zip(prepared, resolutions)
    ]
    events_started = events_finished = 0
    run_started = time.perf_counter()
    for index in indices:
        point, seed = grid[index]
        program, selected, reason = resolutions[point]
        observers: list[Any] = []
        flush = None
        if "trace" in spec.outputs:  # a submit: resolved to scalar
            on_event, flush = _trace_batcher(
                TraceHeader(prepared[point][1].net.name, spec.run_number,
                            seed),
                emit,
            )
            observers.append(on_event)
        if saboteur is not None and program is None:
            observers.append(saboteur)
        summary, _values = runners[point](seed, observers)
        if flush is not None:
            flush()
        events_started += summary.events_started
        events_finished += summary.events_finished
        emit({"channel": op.channel,
              **op.frame(index, point, summary.to_payload())})
        _emit_cell_span(
            emit, op.channel, seed=seed, point=point if op.point else None,
            summary=summary, backend=selected, backend_reason=reason,
        )
        if saboteur is not None and program is not None:
            for _ in range(summary.events_started):
                saboteur(None)
    _emit_obs_deltas(
        emit, obs, time.perf_counter() - run_started,
        events_started=events_started, events_finished=events_finished,
        runs=len(indices), extra=dict(zip(op.counters, (len(indices),))),
    )


@dataclass
class GridAttempt:
    """One attempt of a grid job, as the server parent plans and tracks it.

    ``fresh`` lists the grid indices to simulate, split into ``chunks``
    (one forked child each); ``resolutions`` mark points with no fresh
    cell :data:`~repro.sim.sweep.RESUMED`. ``cells`` starts with the
    store-resumed cells and gains each fresh cell as its frame streams
    (see :meth:`GridOp.summary`).
    """

    grid: list[tuple[int, int]]
    fresh: list[int]
    chunks: list[list[int]]
    resolutions: list[tuple[Any, str, str]]
    cells: dict[int, SweepRunSummary]
    resumed: int


class SimulationService:
    """One server instance: cache + queue + worker pool + listeners."""

    #: Crash-retry backoff: delay = min(cap, base * 2^(attempt-1)) plus a
    #: deterministic jitter derived from (job id, attempt) — reproducible
    #: in tests, yet crash storms still de-synchronize across jobs.
    RETRY_BACKOFF_BASE = 0.1
    RETRY_BACKOFF_CAP = 5.0

    def __init__(
        self,
        workers: int = 2,
        cache_capacity: int = 32,
        max_pending: int = 256,
        immediate_budget: int = 10_000,
        use_fork: bool | None = None,
        max_retries: int = 2,
        drain_grace: float = 30.0,
        obs_log: str | None = None,
        obs_interval: float | None = None,
        http_port: int | None = None,
        http_host: str = "127.0.0.1",
        state_dir: str | None = None,
        store_path: str | None = None,
        store_skip_corrupt: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.cache = CompiledNetCache(capacity=cache_capacity)
        self.queue = JobQueue(max_pending=max_pending)
        #: Write-ahead job journal (``--state DIR``): every accept /
        #: retry / terminal transition is durably recorded, and
        #: :meth:`start` re-arms the previous lifetime's unfinished jobs.
        self.journal = JobJournal(state_dir) if state_dir else None
        #: Server-side shared result store (``--store PATH``): sweep and
        #: explore cells checkpoint as their frames stream (commit per
        #: cell — a checkpoint that isn't committed isn't a checkpoint),
        #: so any client's re-run of any grid is incremental fleet-wide.
        self.store = (
            open_store(store_path, skip_corrupt=store_skip_corrupt,
                       commit_every=1)
            if store_path else None
        )
        #: Chaos hook: SIGKILL this server process after N accepts.
        self._kill_server = faults.server_saboteur()
        #: True while :meth:`_close` force-cancels running jobs, so
        #: those shutdown-time cancellations do NOT journal terminal
        #: records — the jobs are still live work for the next lifetime.
        self._closing = False
        self.workers = workers
        #: Worker slots running a job right now; the idle rest decide
        #: how many children a grid job splits its cells over.
        self._busy = 0
        self.immediate_budget = immediate_budget
        self.use_fork = fork_available() if use_fork is None else use_fork
        #: Default crash-retry budget for specs that don't set their own.
        self.max_retries = max_retries
        #: Default drain deadline (seconds) for ``shutdown drain=true``.
        self.drain_grace = drain_grace
        self.draining = False
        #: The unified observability registry (always on: instruments
        #: only tick at job granularity, so the cost is one dict bump
        #: per job, not per event).
        self.metrics = MetricsRegistry()
        self.metrics.set_info("protocol", PROTOCOL_VERSION)
        self.metrics.set_info("fork", self.use_fork)
        self.metrics.add_collector(self._collect_metrics)
        #: Span JSONL writer when ``--obs-log`` names a directory.
        self.spans = SpanLog(obs_log) if obs_log else None
        self.obs_interval = obs_interval
        #: The HTTP scrape sidecar (``--http``): None until
        #: :meth:`start` binds it on the same event loop. (The class is
        #: imported there, not here: httpd shares the client's exception
        #: types, and importing it at module scope would close an import
        #: cycle through the service package.)
        self.http_port = http_port
        self.http_host = http_host
        self.http: Any = None
        self.http_address: str | None = None
        self.queue.on_finished = self._job_finished
        self._started_at = time.time()
        self._retry_tasks: set[asyncio.Task] = set()
        self._pump_tasks: set[asyncio.Task] = set()
        self._worker_tasks: list[asyncio.Task] = []
        self._obs_task: asyncio.Task | None = None
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self.address: str | None = None

    # -- observability -----------------------------------------------------

    def _collect_metrics(self, registry: MetricsRegistry) -> None:
        """Snapshot-time pull of queue/cache/process state (the queue and
        cache stay the sources of truth for their own counters)."""
        queue_payload = self.queue.to_payload()
        for name in ("submitted", "completed", "failed", "cancelled",
                     "retried", "crashed", "timed_out", "deduped",
                     "recovered"):
            counter = registry.counter(f"jobs_{name}_total")
            counter.inc(queue_payload[name] - counter.value)
        resumed = registry.counter("store_resumed_cells_total")
        resumed.inc(queue_payload["resumed_cells"] - resumed.value)
        if self.journal is not None:
            payload = self.journal.to_payload()
            registry.gauge("journal_live_jobs").set(payload["live"])
            registry.gauge("journal_records").set(payload["records"])
            registry.gauge("journal_compactions").set(
                payload["compactions"]
            )
        if self.store is not None:
            registry.gauge("store_cells").set(len(self.store))
        registry.gauge("queue_pending").set(queue_payload["pending"])
        registry.gauge("queue_deferred").set(queue_payload["deferred"])
        registry.gauge("queue_running").set(queue_payload["running"])
        registry.gauge("queue_max_pending").set(queue_payload["max_pending"])
        registry.gauge("workers").set(self.workers)
        registry.gauge("server_rss_kb").set(peak_rss_kb())
        registry.gauge("uptime_seconds").set(
            round(time.time() - self._started_at, 3)
        )
        self.cache.publish(registry)

    def _job_finished(self, job: Job) -> None:
        """Terminal-state hook: latency histograms + span-end record."""
        now = job.finished_at or time.time()
        queued_s = max(0.0, (job.started_at or now) - job.submitted_at)
        run_s = (max(0.0, now - job.started_at)
                 if job.started_at is not None else 0.0)
        self.metrics.histogram("job_queued_seconds").observe(queued_s)
        self.metrics.histogram("job_run_seconds").observe(run_s)
        self.metrics.histogram("job_total_seconds").observe(
            max(0.0, now - job.submitted_at)
        )
        if self.spans is not None and job.trace_id is not None:
            fields: dict[str, Any] = {
                "attempts": job.attempts,
                "queued_s": round(queued_s, 6),
                "run_s": round(run_s, 6),
            }
            if job.error_code is not None:
                fields["code"] = job.error_code
            self.spans.end(job.trace_id, job.id, job.state.value, **fields)
        # Shutdown-time force-cancels are NOT terminal for the journal:
        # the work is still owed, and the next lifetime recovers it.
        if self.journal is not None and not (
            self._closing and job.state is JobState.CANCELLED
        ):
            self.journal.end(job)

    def _health(self) -> tuple[bool, dict[str, Any]]:
        """The ``/healthz`` readiness contract: not-ready once draining."""
        ready = not self.draining
        return ready, {
            "status": "ok" if ready else "draining",
            "draining": self.draining,
            "version": PROTOCOL_VERSION,
            "uptime_s": round(time.time() - self._started_at, 3),
        }

    def _spans_lookup(self, trace_id: str) -> list[dict[str, Any]] | None:
        """One trace's records (parent + cells) for ``/spans/<id>``."""
        if self.spans is None:
            return None
        records = [
            record for record in read_spans(self.spans.directory)
            if record.get("trace_id") == trace_id
        ]
        return records or None

    async def _obs_snapshots(self) -> None:
        """Periodic snapshot loop (``--obs-interval``): one canonical-JSON
        line per tick to the server log, and — when ``--obs-log`` is set —
        appended to ``metrics-<pid>.jsonl`` beside the span files."""
        path = (self.spans.directory / f"metrics-{os.getpid()}.jsonl"
                if self.spans is not None else None)
        while True:
            await asyncio.sleep(self.obs_interval)
            line = json.dumps(self.metrics.snapshot(), sort_keys=True,
                              separators=(",", ":"))
            log.info("metrics %s", line)
            if path is not None:
                try:
                    with path.open("a", encoding="utf-8") as fh:
                        fh.write(line + "\n")
                except OSError:
                    pass

    # -- lifecycle ---------------------------------------------------------

    def preload(self, directory: str) -> dict[str, Any]:
        """Warm-start the net cache from every ``*.pn`` under a directory.

        Compiles each net source through the cache (recursively, in
        sorted path order for determinism), so the first job on a known
        net pays the warm-hit latency instead of a cold compile. Parse
        failures are collected, not fatal — a scratch file in the corpus
        must not keep the server from starting. Returns a summary
        (loaded/failed counts, per-file errors, cache counters) for the
        startup log. Synchronous: call before serving traffic (or from a
        thread).
        """
        from pathlib import Path

        root = Path(directory)
        loaded = 0
        errors: list[dict[str, str]] = []
        for path in sorted(root.rglob("*.pn")):
            try:
                source = path.read_text(encoding="utf-8")
                self.cache.lookup(source, self.immediate_budget)
                loaded += 1
            except (OSError, ValueError, PnutError) as error:
                # ValueError covers UnicodeDecodeError: a binary scratch
                # file is a skip, not a startup crash.
                errors.append({"file": str(path), "error": str(error)})
        return {
            "directory": str(root),
            "loaded": loaded,
            "failed": len(errors),
            "errors": errors,
            "cache": self.cache.to_payload(),
        }

    async def start(
        self,
        host: str | None = None,
        port: int | None = None,
        unix_path: str | None = None,
    ) -> str:
        """Bind the listener, start the worker pool, return the address."""
        if (unix_path is None) == (host is None):
            raise ValueError("provide either unix_path or host/port")
        self._loop = asyncio.get_running_loop()
        if self.journal is not None:
            # Recover before the worker pool exists: re-armed jobs land
            # in the queue in their original admission order, ahead of
            # anything the fresh listener accepts.
            self._recover_jobs()
        self._worker_tasks = [
            asyncio.create_task(self._worker(), name=f"pnut-worker-{i}")
            for i in range(self.workers)
        ]
        if self.obs_interval is not None and self.obs_interval > 0:
            self._obs_task = asyncio.create_task(
                self._obs_snapshots(), name="pnut-obs"
            )
        if unix_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_client, path=unix_path, limit=_LINE_LIMIT
            )
            self.address = f"unix:{unix_path}"
        else:
            self._server = await asyncio.start_server(
                self._handle_client, host=host, port=port, limit=_LINE_LIMIT
            )
            bound = self._server.sockets[0].getsockname()
            self.address = f"tcp:{bound[0]}:{bound[1]}"
        if self.http_port is not None:
            from ..obs.httpd import ObsHttpServer

            self.http = ObsHttpServer(
                snapshot=self.metrics.snapshot,
                health=self._health,
                jobs=lambda: [job.to_payload()
                              for job in self.queue.jobs()],
                spans_lookup=(self._spans_lookup
                              if self.spans is not None else None),
            )
            self.http_address = await self.http.start(
                host=self.http_host, port=self.http_port
            )
        return self.address

    async def serve_forever(self) -> None:
        """Block until a ``shutdown`` request (or :meth:`shutdown`)."""
        await self._shutdown.wait()
        await self._close()

    async def shutdown(self) -> None:
        self._shutdown.set()

    def request_shutdown(self) -> None:
        """Thread-safe shutdown trigger (for embedders/harnesses)."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._shutdown.set)

    async def drain(self, grace: float | None = None) -> dict[str, Any]:
        """Stop accepting work; wait for active jobs, bounded by ``grace``.

        Turns on :attr:`draining` (new submissions are rejected with
        error code ``draining``; keyed resubmissions of known jobs still
        attach), then waits for every queued, retrying, and running job
        to finish. Jobs still active when the grace period (default
        :attr:`drain_grace`) expires are cancelled. Returns a summary —
        ``drained`` is True when nothing had to be cancelled.
        """
        self.draining = True
        budget = self.drain_grace if grace is None else grace
        deadline = time.monotonic() + budget
        while self.queue.active > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.05)
        expired = self.queue.active
        if expired:
            log.warning("drain grace (%.1fs) expired with %d active jobs; "
                        "cancelling them", budget, expired)
            for job in self.queue.jobs():
                if not job.state.finished:
                    self.queue.cancel(job.id)
        # A finished job is only drained once its verdict has been
        # *delivered*: wait (within the same grace) for the in-flight
        # result pumps to flush to their subscribers, so a job that
        # completed just as the drain started doesn't lose its result
        # to the server exiting underneath the stream.
        while self._pump_tasks and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        return {"drained": expired == 0, "cancelled": expired}

    def _recover_jobs(self) -> dict[str, Any]:
        """Re-arm the previous lifetime's unfinished jobs from the journal.

        Each live accept record resubmits under a fresh job id with its
        spec, priority, crash-retry budget, folded attempt count, dedupe
        identity and trace id intact — a keyed client reconnecting after
        the restart attaches to the recovered job exactly as it would
        have to the original. A record that no longer parses (protocol
        drift, manual edits) is skipped with a warning, never a startup
        failure; afterwards the journal is rewritten with only the new
        lifetime's records.
        """
        assert self.journal is not None
        recovered: list[tuple[Job, str]] = []
        for record in self.journal.recover():
            op = str(record.get("op"))
            spec_cls = SPEC_CLASSES.get(op)
            if spec_cls is None:
                log.warning("journal: skipping job %s with unknown op %r",
                            record.get("job"), op)
                continue
            try:
                spec = spec_cls.from_payload(record["spec"])
            except ProtocolError as error:
                log.warning("journal: skipping unrecoverable job %s (%s)",
                            record.get("job"), error)
                continue
            max_retries = record.get("max_retries")
            if not isinstance(max_retries, int) or max_retries < 0:
                max_retries = self.max_retries
            identity = record.get("identity")
            try:
                job = self.queue.submit(
                    spec, max_retries=max_retries,
                    identity=identity if isinstance(identity, str) else None,
                )
            except QueueFullError as error:
                log.warning("journal: dropping job %s at recovery (%s)",
                            record.get("job"), error)
                continue
            attempts = record.get("attempts")
            if isinstance(attempts, int) and attempts > 0:
                job.attempts = attempts
            trace = record.get("trace")
            job.trace_id = trace if isinstance(trace, str) else mint_trace_id()
            job.recovered = True
            self.queue.recovered += 1
            if self.spans is not None:
                self.spans.start(job.trace_id, job.id, op,
                                 priority=spec.priority, recovered=True)
                self.spans.annotate(job.trace_id, job.id, "recovered",
                                    from_job=record.get("job"),
                                    attempts=job.attempts)
            recovered.append((job, op))
            log.info("journal: recovered job %s as %s (op=%s, attempts=%d)",
                     record.get("job"), job.id, op, job.attempts)
        # Re-journal under the fresh ids and compact the old lifetime
        # away — the journal now describes exactly the live queue.
        for job, op in recovered:
            self.journal.accept(job, op)
        self.journal.compact()
        summary = {
            "recovered": len(recovered),
            "skipped_records": self.journal.skipped_records,
        }
        if recovered or summary["skipped_records"]:
            log.info("journal: recovery complete (%d job(s) re-armed, "
                     "%d corrupt record(s) skipped)",
                     summary["recovered"], summary["skipped_records"])
        return summary

    async def _close(self) -> None:
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.http is not None:
            await self.http.close()
        # Kill running children, stop pending retries, then the worker
        # tasks themselves.
        for job in self.queue.jobs():
            if job.state is JobState.RUNNING:
                self.queue.cancel(job.id)
        for task in list(self._retry_tasks):
            task.cancel()
        await asyncio.gather(*self._retry_tasks, return_exceptions=True)
        for task in self._worker_tasks:
            task.cancel()
        await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        if self._obs_task is not None:
            self._obs_task.cancel()
            await asyncio.gather(self._obs_task, return_exceptions=True)
        if self.spans is not None:
            self.spans.close()
        if self.journal is not None:
            self.journal.close()
        if self.store is not None:
            self.store.close()

    # -- worker pool -------------------------------------------------------

    async def _worker(self) -> None:
        while True:
            job = await self.queue.get()
            self._busy += 1
            try:
                await self._execute(job)
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 - keep the pool alive
                # Full traceback server-side; clients get a stable code
                # (this is a server bug, not a problem with their net).
                log.exception("internal error executing job %s", job.id)
                self._finish(
                    job, None,
                    f"internal server error while running job {job.id}; "
                    f"see the server log for the traceback",
                    code="internal-error",
                )
            finally:
                self._busy -= 1

    def _resolve(self, compiled: CompiledNet, requested: str,
                 want_stats: bool, compiles: list[float]):
        """The one backend-resolution site, run in the server parent.

        Resolves ``requested`` against the skeleton's safe-class
        verdict and warms the generated loop for ``want_stats``. The
        program stays cached on the skeleton, so every forked job child
        inherits it ready to run, and the compiled code object stays in
        this process's code cache: codegen is paid once per net
        structure per server lifetime, not once per job. With fork the
        ``compile()`` itself runs in a short-lived child, which keeps
        the compiler's peak memory out of this long-lived process. The
        seconds of each compile this paid are appended to ``compiles``.
        """
        started = time.perf_counter()
        resolution = resolve_backend(compiled.template, requested)
        program = resolution[0]
        if program is not None and program.warm(want_stats,
                                                isolate=self.use_fork):
            compiles.append(time.perf_counter() - started)
        return resolution

    def _prepare(self, spec: Any):
        """Thread side of dispatch: find the job's net(s), resolve backends.

        Returns ``(prepared, resolutions, cached, compiles)``: a list of
        ``(point, compiled, net sha)`` triples with one resolution per
        point. An exploration binds every point through the same
        :func:`~repro.dse.explore.bind_space` the in-process driver
        uses (so net hashes match the client's skip keys) and through
        this server's net cache (so a repeated exploration of an
        overlapping grid hits it). The one-point-grid rule: a sweep is
        the exploration of the empty point ``{}``, i.e. the grid
        ``[({}, compiled, sha256(compiled.source))]``, and a submit is
        that grid crossed with its one seed. A sweep's cells store
        under the empty point's key
        (:data:`~repro.dse.store.SWEEP_POINT_KEY`), exactly where the
        in-process :func:`~repro.sim.sweep.run_sweep` keeps them.

        Every point resolves through :meth:`_resolve`, except that a
        subscribed ``trace`` output (which only a submit may carry)
        streams interpreter events, so it resolves to
        :data:`TRACE_OUTPUT` without classifying the net. A submit asks
        for ``auto``.
        """
        compiles: list[float] = []
        want_stats = "stats" in spec.outputs
        if isinstance(spec, ExploreSpec):
            points, entries, net_shas, outcomes = bind_space(
                spec.net_source, spec.space(), self.cache,
                immediate_budget=self.immediate_budget,
            )
        else:
            entry, outcome = self.cache.lookup(spec.net_source,
                                               self.immediate_budget)
            points, entries, outcomes = [{}], [entry], [outcome]
            net_shas = [hashlib.sha256(entry.source.encode("utf-8"))
                        .hexdigest()]
        backend = getattr(spec, "backend", "auto")
        resolutions = [
            TRACE_OUTPUT if "trace" in spec.outputs
            else self._resolve(entry, backend, want_stats, compiles)
            for entry in entries
        ]
        cached = all(outcome != "miss" for outcome in outcomes)
        return (list(zip(points, entries, net_shas)), resolutions, cached,
                compiles)

    def _consult_store(self, job: Job, spec: Any,
                       prepared) -> dict[int, dict[str, Any]]:
        """Scan the server store for this grid job's completed cells.

        Runs on the event loop *before* the fork (SQLite handles must
        not cross one, and the in-memory index lookup is cheap), once
        per attempt — so a retry after a worker crash resumes from
        every cell the crashed attempt managed to checkpoint. Also
        stamps ``job.store_ctx``, the keying context the frame path
        (:meth:`_publish_stream`) and keyed re-attach replay use.
        """
        assert self.store is not None
        job.store_ctx = {
            "net_shas": [sha for _point, _compiled, sha in prepared],
            "point_keys": [point_key(point)
                           for point, _compiled, _sha in prepared],
            "grid": grid_cells(len(prepared), _job_seeds(spec)),
            "skey": stop_key(spec.until, spec.max_events, spec.run_number,
                             "stats" in spec.outputs, ()),
        }
        return self._scan_store(job.store_ctx)

    def _scan_store(self, ctx: dict[str, Any]) -> dict[int, dict[str, Any]]:
        return scan_store(self.store, ctx["grid"], ctx["net_shas"],
                          ctx["point_keys"], ctx["skey"])

    async def _execute(self, job: Job) -> None:
        spec = job.spec
        try:
            prepared, resolutions, cached, compiles = await asyncio.to_thread(
                self._prepare, spec
            )
        except PnutError as error:
            self._finish(job, None, f"net error: {error}", code="net-error")
            return
        for seconds in compiles:
            self.metrics.counter("codegen_compiles_total").inc()
            self.metrics.histogram("codegen_seconds").observe(seconds)
        if job.attempts == 0:
            # A crash retry finds the net its first attempt compiled, so
            # only the first attempt's lookup says whether the job hit
            # the cache; a retried job reports the same bytes as a clean
            # one. A job recovered from the journal after its first
            # attempt keeps ``False``: that lookup ran in a dead server.
            job.cached = cached
        if job.state is JobState.CANCELLED:
            self._finish(job, None, None)
            return

        job.attempts += 1
        attempt = await self._start_grid(job, spec, prepared, resolutions)
        calls = [(execute_grid_job,
                  (prepared, spec, attempt.resolutions, chunk))
                 for chunk in attempt.chunks]

        async def forward(payload: dict[str, Any]) -> None:
            grid_op = _GRID_CHANNELS.get(payload.get("channel"))
            if grid_op is not None:
                attempt.cells[payload["index"]] = grid_op.summary(
                    payload[grid_op.field]
                )
            await self._publish_stream(job, payload)

        error_text: str | None = None
        crash: dict[str, Any] | None = None
        timed_out = False
        if job.state is not JobState.CANCELLED:
            if self.use_fork:
                error_text, crash, timed_out = await self._run_forked(
                    job, calls, forward
                )
            else:
                error_text = await self._run_inline(calls, forward)
        if job.state is JobState.CANCELLED:
            # Cancel wins over everything — including a crash whose
            # SIGKILL *was* the cancellation, and an expired deadline.
            self._finish(job, None, None)
            return
        if timed_out:
            if self.spans is not None and job.trace_id is not None:
                self.spans.annotate(
                    job.trace_id, job.id, "timeout",
                    attempt=job.attempts, deadline=spec.timeout,
                )
            self._finish(
                job, None,
                f"job {job.id} exceeded its {spec.timeout:g}s deadline "
                f"(attempt {job.attempts})",
                code="job-timeout",
            )
            return
        if crash is not None:
            if job.attempts <= job.max_retries:
                self._retry(job, crash)
                return
            self._finish(
                job, None,
                f"{crash.get('error', 'worker crashed')} "
                f"(gave up after {job.attempts} attempts)",
                code="worker-crashed",
            )
            return
        value = (self._grid_result(spec, prepared, attempt)
                 if error_text is None else None)
        self._finish(job, value, error_text)

    async def _start_grid(self, job: Job, spec: Any, prepared,
                          resolutions) -> GridAttempt:
        """Plan one attempt of a grid job and replay its resumed cells.

        Consults the store (per attempt, so a crash retry resumes from
        every cell the crashed attempt checkpointed), then splits the
        fresh cells into one contiguous chunk per worker slot idle right
        now, this job's own included. A loaded server therefore keeps
        one child per job, and a grid with one fresh cell forks once.
        Store-resumed cells stream from here as ordinary cell frames,
        and every cell that will not run gets its zero-length
        ``skipped`` cell span here too; cells the client's ``skip``
        names stream no frame at all. A submit never consults the
        store: its one cell always runs.
        """
        op = GRID_OPS[spec.op]
        stored = (self._consult_store(job, spec, prepared)
                  if self.store is not None and op.stream else {})
        grid = grid_cells(len(prepared), _job_seeds(spec))
        skip = set(getattr(spec, "skip", ()))
        fresh = [index for index, cell in enumerate(grid)
                 if cell not in skip and index not in stored]
        running = {grid[index][0] for index in fresh}
        resolutions = [resolution if point in running else RESUMED
                       for point, resolution in enumerate(resolutions)]
        idle = self.workers - self._busy + 1 if self.use_fork else 1
        width = min(idle, len(fresh))
        attempt = GridAttempt(
            grid=grid, fresh=fresh,
            chunks=contiguous_chunks(fresh, width) if width else [],
            resolutions=resolutions,
            cells={index: op.summary(payload)
                   for index, payload in stored.items()},
            resumed=len(stored),
        )
        replay: list[dict[str, Any]] = []
        fresh_set = set(fresh)
        for index, (point, seed) in enumerate(grid):
            if index in fresh_set:
                continue
            if index in stored:
                replay.append({"channel": op.channel,
                               **op.frame(index, point, stored[index])})
            _program, selected, reason = resolutions[point]
            _emit_cell_span(
                replay.append, op.channel, seed=seed,
                point=point if op.point else None,
                backend=selected, backend_reason=reason, skipped=True,
            )
        for payload in replay:
            await self._publish_stream(job, payload)
        return attempt

    def _grid_result(self, spec: Any, prepared,
                     attempt: GridAttempt) -> dict[str, Any]:
        """A finished grid job's result body, built from its cell payloads.

        Fresh cells come from the frames the chunks streamed, resumed
        ones from the store, and both go through
        :func:`~repro.sim.sweep.summary_from_payload`, so the body does
        not depend on how the cells were chunked or where they came
        from. Also counts the
        resumed and skipped cells and the backend selections, once per
        job (each chunk counted the cells it ran).
        """
        op = GRID_OPS[spec.op]
        grid = attempt.grid
        lost = [index for index in attempt.fresh
                if index not in attempt.cells]
        if lost:
            raise RuntimeError(f"grid chunks returned no cell for indices "
                               f"{lost}")
        cells = [attempt.cells.get(index) for index in range(len(grid))]
        skipped = len(grid) - len(attempt.fresh) - attempt.resumed
        counts = dict(zip(op.counters[1:], (attempt.resumed, skipped)))
        counts.update(backend_counts(op.surface, attempt.resolutions))
        for name, value in counts.items():
            self.metrics.counter(name).inc(value)
        return op.summarize(prepared, list(_job_seeds(spec)), grid, cells,
                            attempt.fresh, attempt.resumed)

    async def _run_forked(self, job: Job, calls, forward):
        """Run each ``(fn, args)`` call in its own forked child.

        Pumps every child's pipe concurrently through ``forward`` and
        returns ``(error text, crash info, timed out)``; the children
        stream everything and return nothing. The job's deadline,
        cancellation (``job.cancel_hook``) and crash verdict cover all
        of its children: the first child to crash, fail or outlive the
        deadline ends the attempt, and every sibling is terminated.
        """
        tasks: list[ForkedTask] = []
        for fn, args in calls:
            started = time.perf_counter()
            tasks.append(ForkedTask(fn, args, label=f"job {job.id}"))
            self.metrics.counter("forks_total").inc()
            self.metrics.histogram("fork_seconds").observe(
                time.perf_counter() - started
            )

        def terminate_all() -> None:
            for task in tasks:
                task.terminate()

        job.cancel_hook = terminate_all
        deadline = (time.monotonic() + job.spec.timeout
                    if job.spec.timeout is not None else None)
        pumps = {asyncio.ensure_future(self._pump_child(task, forward))
                 for task in tasks}
        error_text: str | None = None
        crash: dict[str, Any] | None = None
        timed_out = False
        try:
            while pumps and error_text is None and crash is None:
                budget = None
                if deadline is not None:
                    budget = max(0.0, deadline - time.monotonic())
                done, pumps = await asyncio.wait(
                    pumps, timeout=budget,
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if not done:
                    # Deadline expired mid-read. The abandoned reader
                    # threads wake on the pipe EOF once their children
                    # die and exit harmlessly.
                    timed_out = True
                    break
                for pump in done:
                    kind, payload = pump.result()
                    if kind == "crashed":
                        crash = payload
                    elif kind != "ok":
                        error_text = payload
        finally:
            for pump in pumps:
                pump.cancel()
            if pumps:
                terminate_all()
            await asyncio.to_thread(lambda: [task.join() for task in tasks])
        return error_text, crash, timed_out

    @staticmethod
    async def _pump_child(task: ForkedTask, forward):
        """Forward one child's messages until its terminal one."""
        while True:
            kind, payload = await asyncio.to_thread(task.next_message)
            if kind != "msg":
                return kind, payload
            # Awaiting here pauses the pipe drain, which blocks the
            # child once the pipe fills: streamed traces stay bounded
            # end to end.
            await forward(payload)

    async def _run_inline(self, calls, forward):
        """Run the calls on a thread, one after another (no fork).

        Returns the error text, if any: no crash to detect, no child
        to kill on a deadline or a cancel.
        """
        loop = asyncio.get_running_loop()

        def emit(payload: dict[str, Any]) -> None:
            # Blocks the executor thread until the subscribers have
            # buffer space — the inline twin of the pipe backpressure.
            asyncio.run_coroutine_threadsafe(forward(payload), loop).result()

        try:
            for fn, args in calls:
                await asyncio.to_thread(fn, *args, emit)
        except PnutError as error:
            return str(error)
        return None

    def _retry(self, job: Job, crash: dict[str, Any]) -> None:
        """Park a crashed job and re-arm it after an exponential backoff."""
        self.queue.defer(job)
        if self.journal is not None:
            # Durably fold the attempt count: a server that dies during
            # the backoff recovers the job with its budget spent.
            self.journal.retry(job)
        delay = self._backoff_delay(job)
        log.warning(
            "job %s crashed (%s); retrying (attempt %d of %d) in %.2fs",
            job.id, crash.get("error", "worker crashed"),
            job.attempts + 1, job.max_retries + 1, delay,
        )
        self.metrics.histogram("job_retry_backoff_seconds").observe(delay)
        # A retry stays inside the job's one span: the crash is an
        # annotation on the timeline, not a new span.
        if self.spans is not None and job.trace_id is not None:
            self.spans.annotate(
                job.trace_id, job.id, "retry",
                attempt=job.attempts, delay=round(delay, 6),
                error=crash.get("error", "worker crashed"),
            )
        # The retry frame tells subscribers to discard partial streams:
        # the next attempt restreams the trace from the very first line.
        retry_frame: dict[str, Any] = {
            "type": "retry", "job": job.id, "attempt": job.attempts,
            "max_retries": job.max_retries, "delay": delay,
            "error": crash.get("error", "worker crashed"),
        }
        if job.trace_id is not None:
            retry_frame["trace"] = job.trace_id
        job.publish(retry_frame)
        task = asyncio.create_task(
            self._requeue_later(job, delay), name=f"pnut-retry-{job.id}"
        )
        self._retry_tasks.add(task)
        task.add_done_callback(self._retry_tasks.discard)

    def _backoff_delay(self, job: Job) -> float:
        base = self.RETRY_BACKOFF_BASE
        delay = min(self.RETRY_BACKOFF_CAP, base * 2 ** (job.attempts - 1))
        token = hashlib.sha256(
            f"{job.id}:{job.attempts}".encode("ascii")
        ).hexdigest()[:8]
        return delay + int(token, 16) / 0xFFFFFFFF * base * 0.5

    async def _requeue_later(self, job: Job, delay: float) -> None:
        await asyncio.sleep(delay)
        # No-op if a cancellation landed during the backoff: cancel wins.
        self.queue.requeue(job)

    async def _publish_stream(self, job: Job, payload: dict[str, Any]) -> None:
        channel = payload.get("channel")
        if channel == "obs":
            # Worker-side metrics deltas: folded into the server registry,
            # never forwarded — client-visible streams are byte-identical
            # with or without observability.
            self.metrics.merge(payload.get("deltas") or {})
            return
        if channel == "span":
            # Child-span records from the executing cell: the server
            # stamps the parent identity (the child never learns the
            # trace id — it lives on the Job, not the spec, so result
            # payloads stay byte-identical) and writes the JSONL line.
            # Never forwarded to clients, exactly like obs deltas.
            if self.spans is not None and job.trace_id is not None:
                record = dict(payload.get("record") or {})
                kind = record.pop("kind", "cell")
                seed = record.pop("seed", 0)
                point = record.pop("point", None)
                self.spans.cell(
                    job.trace_id, job.id, kind, seed=seed, point=point,
                    attempt=job.attempts, **record,
                )
            return
        grid_op = _GRID_CHANNELS.get(channel)
        if grid_op is not None:
            if not grid_op.stream:
                return
            self._checkpoint_cell(job, payload["index"],
                                  payload[grid_op.field])
        elif channel != "trace":
            return
        frame: dict[str, Any] = {"type": channel, "job": job.id}
        frame.update((key, value) for key, value in payload.items()
                     if key != "channel")
        if job.trace_id is not None:
            frame["trace"] = job.trace_id
        await job.publish_stream(frame)

    def _checkpoint_cell(self, job: Job, index: int,
                         payload: dict[str, Any]) -> None:
        """Write one streamed cell into the shared store, pre-forward.

        Ordering is the durability contract: a frame a client observed
        implies a committed checkpoint (the server store commits per
        put), so a crash after the frame can never lose the cell. A
        divergent recomputation (the store's byte-identity verify) is
        logged and skipped, never fatal to the job.
        """
        if self.store is None or job.store_ctx is None:
            return
        ctx = job.store_ctx
        point_index, seed = ctx["grid"][index]
        try:
            self.store.put(ctx["net_shas"][point_index],
                           ctx["point_keys"][point_index], seed,
                           ctx["skey"], payload)
        except StoreError as error:
            log.warning("store: dropping checkpoint for job %s cell %d "
                        "(%s)", job.id, index, error)

    def _finish(self, job: Job, value: dict[str, Any] | None,
                error_text: str | None, code: str = "job-failed") -> None:
        cancelled = job.state is JobState.CANCELLED
        if (value is not None and not cancelled
                and isinstance(value.get("summary"), dict)):
            resumed = value["summary"].get("resumed_cells")
            if isinstance(resumed, int):
                self.queue.resumed_cells += resumed
        self.queue.finish(job, value, None if cancelled else error_text,
                          code=None if cancelled else code)
        job.publish(self._terminal_frame(job))
        job.publish(None)

    def _terminal_frame(self, job: Job) -> dict[str, Any]:
        """The terminal frame for a finished job (publish or replay)."""
        if job.state is JobState.CANCELLED:
            frame: dict[str, Any] = {
                "type": "error", "job": job.id, "code": "cancelled",
                "error": f"job {job.id} cancelled",
            }
        elif job.state is JobState.FAILED:
            frame = {
                "type": "error", "job": job.id,
                "code": job.error_code or "job-failed",
                "error": job.error or f"job {job.id} failed",
            }
        else:
            assert job.result is not None
            frame = {
                "type": "result", "job": job.id, "cached": job.cached,
                **job.result,
            }
        if job.recovered:
            frame["recovered"] = True
        if job.trace_id is not None:
            frame["trace"] = job.trace_id
        return frame

    # -- connections -------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        pumps: list[asyncio.Task] = []
        try:
            while True:
                try:
                    line = await reader.readline()
                except ConnectionResetError:
                    break
                except ValueError:
                    # readline() signals an over-limit frame as ValueError
                    # (it swallows LimitOverrunError internally); the
                    # stream is beyond repair at that point.
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    message = decode(line)
                except ProtocolError as error:
                    await self._send(writer, write_lock,
                                     error_frame(None, str(error)))
                    continue
                pump = await self._dispatch(message, writer, write_lock)
                if pump is not None:
                    # Drop completed pumps so a long-lived connection
                    # submitting many jobs doesn't accumulate dead tasks.
                    pumps = [p for p in pumps if not p.done()]
                    pumps.append(pump)
        except asyncio.CancelledError:
            # Loop teardown at shutdown cancels connection handlers; end
            # the task cleanly — a handler left in cancelled state makes
            # asyncio's stream done-callback (task.exception() on a
            # cancelled task) log a spurious "Exception in callback".
            pass
        finally:
            for pump in pumps:
                pump.cancel()
            await asyncio.gather(*pumps, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                # The loop may be tearing down (shutdown) while this
                # close completes; the transport is gone either way.
                pass

    async def _dispatch(
        self,
        message: dict[str, Any],
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> asyncio.Task | None:
        request_id = message.get("id")
        op = message.get("op")
        send = lambda frame: self._send(writer, write_lock, frame)  # noqa: E731

        if op == "ping":
            await send({"type": "pong", "id": request_id,
                        "version": PROTOCOL_VERSION})
            return None
        spec_cls = SPEC_CLASSES.get(op) if isinstance(op, str) else None
        if spec_cls is not None:
            try:
                spec = spec_cls.from_payload(message)
            except ProtocolError as error:
                await send(error_frame(request_id, str(error), "bad-request"))
                return None
            # Keyed resubmission: attach to the original job instead of
            # double-running. Checked before the draining gate so a
            # client retrying over a fresh connection still lands during
            # a drain.
            identity = dedupe_identity(spec)
            duplicate = self.queue.find_duplicate(identity)
            if duplicate is not None:
                self.queue.deduped += 1
                accepted = accepted_frame(
                    request_id, duplicate.id,
                    position=self.queue.to_payload()["pending"],
                )
                accepted["deduped"] = True
                if duplicate.recovered:
                    accepted["recovered"] = True
                if duplicate.trace_id is not None:
                    accepted["trace"] = duplicate.trace_id
                # Subscribe before the first await so no frame can be
                # missed; a finished job has no live stream left, so its
                # terminal frame is replayed instead. With the shared
                # store enabled, the job's checkpointed cell frames are
                # replayed from it first: an attaching client missed the
                # cells streamed before it arrived (cells streamed after
                # the subscription arrive live and simply duplicate a
                # replayed frame — harmless, the client keys by index).
                subscription = duplicate.subscribe()
                if duplicate.state.finished:
                    duplicate.unsubscribe(subscription)
                    await send(accepted)
                    for frame in self._stored_frames(duplicate):
                        await send({**frame, "id": request_id})
                    await send({**self._terminal_frame(duplicate),
                                "id": request_id})
                    return None
                await send(accepted)
                for frame in self._stored_frames(duplicate):
                    await send({**frame, "id": request_id})
                return self._start_pump(duplicate, subscription, request_id,
                                        writer, write_lock)
            if self.draining:
                await send(error_frame(
                    request_id,
                    "server is draining and not accepting new jobs",
                    "draining",
                ))
                return None
            max_retries = (spec.max_retries if spec.max_retries is not None
                           else self.max_retries)
            try:
                job = self.queue.submit(spec, max_retries=max_retries,
                                        identity=identity)
            except QueueFullError as error:
                await send(error_frame(request_id, str(error), "backpressure"))
                return None
            # Every admitted job gets a span: the trace id is minted
            # here (or carried over from the client) and echoed on every
            # frame the job produces from now on.
            job.trace_id = spec.trace_id or mint_trace_id()
            if self.spans is not None:
                fields: dict[str, Any] = {"priority": spec.priority}
                if isinstance(spec, ExploreSpec):
                    fields["cells"] = spec.point_count * len(spec.seeds)
                elif isinstance(spec, SweepSpec):
                    fields["runs"] = len(spec.seeds)
                else:
                    if spec.seed is not None:
                        fields["seed"] = spec.seed
                    if spec.until is not None:
                        fields["until"] = spec.until
                self.spans.start(job.trace_id, job.id, op, **fields)
            # Journal before the client learns the job exists: if the
            # accepted frame was observed, a restarted server recovers
            # the job.
            if self.journal is not None:
                self.journal.accept(job, op)
            # Subscribe before the first await so no frame can be missed.
            subscription = job.subscribe()
            accepted = accepted_frame(
                request_id, job.id,
                position=self.queue.to_payload()["pending"],
            )
            accepted["trace"] = job.trace_id
            await send(accepted)
            if self._kill_server is not None:
                # Chaos hook: SIGKILL this server process after N
                # accepted jobs — after the accept was journaled AND
                # acknowledged, the exact window recovery must cover.
                self._kill_server()
            return self._start_pump(job, subscription, request_id, writer,
                                    write_lock)
        if op == "status":
            job = self.queue.job(str(message.get("job")))
            if job is None:
                await send(error_frame(request_id, "unknown job",
                                       "unknown-job"))
            else:
                await send({"type": "status", "id": request_id,
                            **job.to_payload()})
            return None
        if op == "cancel":
            job_id = str(message.get("job"))
            ok = self.queue.cancel(job_id)
            await send({"type": "cancelled", "id": request_id,
                        "job": job_id, "ok": ok})
            return None
        if op == "jobs":
            await send({
                "type": "jobs", "id": request_id,
                "jobs": [job.to_payload() for job in self.queue.jobs()],
            })
            return None
        if op == "metrics":
            snapshot = self.metrics.snapshot()
            await send({
                "type": "metrics", "id": request_id,
                "metrics": snapshot,
                "text": MetricsRegistry.render_prometheus(snapshot),
            })
            return None
        if op == "server-stats":
            stats = {
                "type": "server-stats", "id": request_id,
                "version": PROTOCOL_VERSION,
                "workers": self.workers,
                "fork": self.use_fork,
                "draining": self.draining,
                "max_retries": self.max_retries,
                "cache": self.cache.to_payload(),
                "queue": self.queue.to_payload(),
            }
            if self.journal is not None:
                stats["journal"] = self.journal.to_payload()
            if self.store is not None:
                stats["store"] = {
                    "path": self.store.path,
                    "cells": len(self.store),
                    "skipped_records": self.store.skipped_records,
                }
            await send(stats)
            return None
        if op == "shutdown":
            if message.get("drain"):
                grace = message.get("grace")
                if grace is not None and (
                    not isinstance(grace, (int, float))
                    or isinstance(grace, bool) or grace <= 0
                ):
                    await send(error_frame(
                        request_id, "'grace' must be a positive number",
                        "bad-request",
                    ))
                    return None
                summary = await self.drain(
                    None if grace is None else float(grace)
                )
                await send({"type": "bye", "id": request_id, **summary})
            else:
                await send({"type": "bye", "id": request_id})
            await self.shutdown()
            return None
        await send(error_frame(request_id, f"unknown op {op!r}", "bad-request"))
        return None

    def _stored_frames(self, job: Job) -> list[dict[str, Any]]:
        """This job's checkpointed cell frames, rebuilt from the store.

        Used when a keyed resubmission attaches to a sweep/explore job:
        the attaching client missed every cell streamed before it
        arrived, but with the server store those cells are durable —
        replaying them (byte-identical to the original frames) makes
        re-attach lossless, including across a server restart. Returns
        nothing when the store is off or the job never consulted it.
        """
        if self.store is None or job.store_ctx is None:
            return []
        op = GRID_OPS[job.spec.op]
        grid = job.store_ctx["grid"]
        frames = [
            {"type": op.channel, "job": job.id,
             **op.frame(index, grid[index][0], payload)}
            for index, payload in self._scan_store(job.store_ctx).items()
        ]
        if job.trace_id is not None:
            for frame in frames:
                frame["trace"] = job.trace_id
        return frames

    def _start_pump(
        self,
        job: Job,
        subscription: asyncio.Queue,
        request_id: Any,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> asyncio.Task:
        """Spawn a result pump, tracked so :meth:`drain` can wait for
        in-flight result frames to reach their subscribers — a job is
        only truly drained once its verdict has been *delivered*."""
        task = asyncio.create_task(
            self._pump(job, subscription, request_id, writer, write_lock)
        )
        self._pump_tasks.add(task)
        task.add_done_callback(self._pump_tasks.discard)
        return task

    async def _pump(
        self,
        job: Job,
        subscription: asyncio.Queue,
        request_id: Any,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        """Forward one job's frames to the submitting connection."""
        dropper = faults.connection_dropper()
        try:
            while True:
                frame = await subscription.get()
                if frame is None:
                    break
                if dropper is not None and dropper():
                    # Chaos hook: hard-abort the transport mid-stream,
                    # exactly like a network partition would.
                    writer.transport.abort()
                    break
                await self._send(writer, write_lock,
                                 {**frame, "id": request_id})
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            job.unsubscribe(subscription)

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        frame: dict[str, Any],
    ) -> None:
        async with write_lock:
            writer.write(encode(frame))
            await writer.drain()


async def run_server(
    host: str | None = None,
    port: int | None = None,
    unix_path: str | None = None,
    workers: int = 2,
    cache_capacity: int = 32,
    max_pending: int = 256,
    max_retries: int = 2,
    drain_grace: float = 30.0,
    preload_dir: str | None = None,
    preload_callback=None,
    ready_callback=None,
    obs_log: str | None = None,
    obs_interval: float | None = None,
    http_port: int | None = None,
    http_host: str = "127.0.0.1",
    http_ready_callback=None,
    state_dir: str | None = None,
    store_path: str | None = None,
    store_skip_corrupt: bool = False,
) -> None:
    """Start a service and serve until shutdown (the ``pnut serve`` body).

    ``preload_dir`` warm-starts the compiled-net cache from every
    ``*.pn`` under the directory before the listener binds; the summary
    (loaded/failed counts, cache counters) goes to ``preload_callback``.
    SIGTERM triggers a graceful drain (finish active jobs up to
    ``drain_grace`` seconds) before exiting; use SIGINT/SIGKILL for an
    immediate stop. ``obs_log`` names a directory for span JSONL
    timelines; ``obs_interval`` logs a metrics snapshot every that many
    seconds (and appends it beside the spans when both are set).
    ``http_port`` (0 picks a free port) binds the HTTP observability
    sidecar on the same loop; its scrape URL goes to
    ``http_ready_callback``. ``state_dir`` turns on the write-ahead job
    journal (and restart recovery); ``store_path`` the server-side
    shared result store — see :mod:`repro.service.journal`.
    """
    service = SimulationService(
        workers=workers,
        cache_capacity=cache_capacity,
        max_pending=max_pending,
        max_retries=max_retries,
        drain_grace=drain_grace,
        obs_log=obs_log,
        obs_interval=obs_interval,
        http_port=http_port,
        http_host=http_host,
        state_dir=state_dir,
        store_path=store_path,
        store_skip_corrupt=store_skip_corrupt,
    )
    if preload_dir is not None:
        summary = await asyncio.to_thread(service.preload, preload_dir)
        if preload_callback is not None:
            preload_callback(summary)

    async def _drain_then_stop() -> None:
        await service.drain()
        await service.shutdown()

    loop = asyncio.get_running_loop()
    sigterm_tasks: list[asyncio.Task] = []  # keep a strong reference
    try:
        loop.add_signal_handler(
            signal.SIGTERM,
            lambda: sigterm_tasks.append(
                asyncio.ensure_future(_drain_then_stop())
            ),
        )
    except (NotImplementedError, RuntimeError):
        pass  # platform without signal handlers (or non-main thread)

    address = await service.start(host=host, port=port, unix_path=unix_path)
    if ready_callback is not None:
        ready_callback(address)
    if http_ready_callback is not None and service.http_address is not None:
        http_ready_callback(service.http_address)
    try:
        await service.serve_forever()
    finally:
        try:
            loop.remove_signal_handler(signal.SIGTERM)
        except (NotImplementedError, RuntimeError):
            pass
