"""Vectorized multi-seed sweeps over one compiled net.

The paper's Figure-5 statistics run is only meaningful in aggregate —
many seeds, many parameterizations. :func:`run_sweep` is the driver for
exactly that workload: it takes **one** pristine :class:`Simulator`
skeleton (or a net, compiled once) and a seed grid, shares the compiled
static structure across every run via :meth:`Simulator.fork` (~15x
cheaper than re-construction), and streams per-run summaries plus
cross-run mean/CI aggregates without ever materializing a trace.

Layout of one sweep:

* each run forks the skeleton with its own seed, attaches a streaming
  :class:`~repro.analysis.stat.StatisticsObserver` plus a
  :class:`TraceHasher` (SHA-256 of the serialized trace), and runs with
  ``keep_events=False`` — memory stays O(places + transitions) per run;
* ``workers > 1`` fans *chunks* of runs over forked workers — one fork
  per chunk, not one per run — and the parent multiplexes the children's
  pipes so per-run summaries stream as they complete;
* aggregates (mean / stdev / CI via the same
  :func:`~repro.sim.experiment.summarize_metric` machinery as
  :class:`Experiment`) are folded in ascending-seed order, so they are
  byte-identical no matter how the seed grid was ordered or chunked.

Determinism contract: a run's summary depends only on
``(net, seed, run_number, until/max_events)`` — the same seed produces a
bit-identical trace whether it ran alone (``pnut sim``), inside a sweep,
serially or on a forked worker, in-process or behind the service.
"""

from __future__ import annotations

import hashlib
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

from ..analysis.report import statistics_payload
from ..analysis.stat import StatisticsObserver, TraceStatistics
from ..core.net import PetriNet
from ..trace.events import TraceEvent, TraceHeader
from ..trace.serialize import encode_event, encode_header
from .engine import SimulationResult, Simulator
from .experiment import (
    MetricSummary,
    contiguous_chunks,
    fork_available,
    map_chunked_forked,
    summarize_metric,
)

#: Aggregate names the driver always computes from the run summaries.
BUILTIN_AGGREGATES = ("events_started", "events_finished", "final_time")


class TraceHasher:
    """Stream a run's trace into a SHA-256 digest, keeping nothing.

    Hashes the compact binary rendering of each event tuple
    (:func:`repro.trace.serialize.encode_event`) rather than the
    formatted trace line — on short sweep runs the ``format_event`` text
    path dominated the whole simulation. The digest therefore no longer
    equals ``sha256`` of a trace *file*; it remains a stable identity of
    the event stream: re-parsing a serialized trace
    (:func:`~repro.trace.serialize.read_trace`) and hashing the parsed
    events yields exactly the live run's digest (see
    :func:`trace_digest`), so cross-path identity stays checkable.
    """

    def __init__(self, header: TraceHeader) -> None:
        self._sha = hashlib.sha256(encode_header(header))
        # Token-delta sections memoized by arc-dict identity: the engine
        # shares its static per-transition dicts across every event.
        self._memo: dict = {}
        self.events = 0

    def on_event(self, event: TraceEvent) -> None:
        self._sha.update(encode_event(event, self._memo))
        self.events += 1

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


def trace_digest(header: TraceHeader, events) -> str:
    """Digest of a complete trace — live events or ``read_trace`` output.

    The reference implementation the identity tests hash standalone runs
    with: feeding a run's events (or the parsed lines of its trace file)
    through one :class:`TraceHasher` must reproduce the ``trace_sha256``
    a sweep/explore/service summary reported for the same seed.
    """
    hasher = TraceHasher(header)
    for event in events:
        hasher.on_event(event)
    return hasher.hexdigest()


@dataclass(frozen=True)
class SweepRunSummary:
    """One run of a sweep, reduced to its streamable summary.

    ``stats`` is the full Figure-5 statistics payload (the dict behind
    ``pnut stat --json``); ``trace_sha256`` pins the run's exact event
    stream (:func:`trace_digest`) without the sweep ever materializing
    a trace. ``elapsed_s`` is the measured wall time of the run —
    execution provenance for the observability layer (per-cell spans),
    excluded from :meth:`to_payload` so payload bytes stay identical
    across backends, workers and repeat runs.
    """

    seed: int
    run_number: int
    final_time: float
    events_started: int
    events_finished: int
    trace_events: int
    trace_sha256: str
    stats: dict[str, Any] | None = None
    elapsed_s: float = 0.0

    def to_payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "seed": self.seed,
            "run": self.run_number,
            "final_time": self.final_time,
            "events_started": self.events_started,
            "events_finished": self.events_finished,
            "trace_events": self.trace_events,
            "trace_sha256": self.trace_sha256,
        }
        if self.stats is not None:
            payload["stats"] = self.stats
        return payload


def summary_from_payload(payload: dict[str, Any]) -> SweepRunSummary:
    """Rebuild a :class:`SweepRunSummary` from its :meth:`to_payload`.

    The inverse the result store needs: a checkpointed cell payload
    round-trips into a summary whose own ``to_payload`` is byte-identical
    (JSON floats round-trip exactly; ``elapsed_s`` was never in the
    payload and stays 0.0 — it is execution provenance, not identity).
    """
    return SweepRunSummary(
        seed=payload["seed"],
        run_number=payload["run"],
        final_time=payload["final_time"],
        events_started=payload["events_started"],
        events_finished=payload["events_finished"],
        trace_events=payload["trace_events"],
        trace_sha256=payload["trace_sha256"],
        stats=payload.get("stats"),
    )


@dataclass
class SweepResult:
    """All runs (in input-seed order) plus the cross-run aggregates.

    ``backend`` records which engine actually ran (``"scalar"`` or
    ``"lockstep"``), ``backend_requested`` what the caller asked for and
    ``backend_reason`` why the selection landed there (``"ok"``,
    ``"requested"``, or a safe-class fallback reason such as
    ``"transition-actions"``). These are execution provenance only —
    :meth:`to_payload` excludes them, so payload bytes are identical
    across backends, exactly like the per-run summaries themselves.
    """

    runs: list[SweepRunSummary]
    metrics: dict[str, MetricSummary]
    backend: str = "scalar"
    backend_requested: str = "scalar"
    backend_reason: str = "requested"
    #: Runs served from a result store instead of simulated (execution
    #: provenance, like ``backend`` — excluded from :meth:`to_payload`,
    #: so a resumed sweep's payload is byte-identical to a cold one).
    resumed: int = 0

    def metric(self, name: str) -> MetricSummary:
        return self.metrics[name]

    def runs_sha256(self) -> str:
        """SHA-256 over the per-run trace digests in ascending-seed
        order: one hash pinning every trace of the sweep, independent of
        how the seed grid was ordered or chunked."""
        return grid_sha256((0, run.seed, run.trace_sha256)
                           for run in self.runs)

    def aggregates_payload(self) -> dict[str, Any]:
        return {name: m.to_payload() for name, m in self.metrics.items()}

    def to_payload(self) -> dict[str, Any]:
        return {
            "runs": [run.to_payload() for run in self.runs],
            "aggregates": self.aggregates_payload(),
            "runs_sha256": self.runs_sha256(),
        }

    def pretty(self) -> str:
        lines = [f"{len(self.runs)} run(s), "
                 f"runs_sha256={self.runs_sha256()[:16]}..."]
        lines += [m.pretty() for m in self.metrics.values()]
        return "\n".join(lines)


def _sweep_one(
    skeleton: Simulator,
    seed: int,
    run_number: int,
    until: float | None,
    max_events: int | None,
    want_stats: bool,
    metrics: dict[str, Callable[[SimulationResult], float]],
    stat_metrics: dict[str, Callable[[TraceStatistics], float]],
    observers: Sequence[Callable[[TraceEvent], Any]] = (),
    profile=None,
) -> tuple[SweepRunSummary, dict[str, float]]:
    """Fork the skeleton, run one seed, reduce to (summary, metric values).

    The one place a scalar run is wired to its statistics and trace-hash
    observers. Extra ``observers`` see every event after those two (the
    service streams trace lines and injects faults through them), and
    ``profile``, a :class:`~repro.obs.metrics.MetricsRegistry`, receives
    the run's scheduler counters as ``sched_*``.
    """
    chain: list[Any] = []
    stats_observer = None
    if want_stats or stat_metrics:
        stats_observer = StatisticsObserver(run_number=run_number)
        chain.append(stats_observer)
    hasher = TraceHasher(TraceHeader(skeleton.net.name, run_number, seed))
    chain.append(hasher.on_event)
    chain.extend(observers)
    sim = skeleton.fork(seed=seed, run_number=run_number, observers=chain)
    run_started = time.perf_counter()
    result = sim.run(until=until, max_events=max_events, keep_events=False)
    elapsed_s = time.perf_counter() - run_started
    if profile is not None:
        sim.publish_profile(profile, prefix="sched_")
    values = {name: fn(result) for name, fn in metrics.items()}
    stats_dict = None
    if stats_observer is not None:
        statistics = stats_observer.result()
        for name, fn in stat_metrics.items():
            values[name] = fn(statistics)
        if want_stats:
            stats_dict = statistics_payload(statistics)
    summary = SweepRunSummary(
        seed=seed,
        run_number=run_number,
        final_time=result.final_time,
        events_started=result.events_started,
        events_finished=result.events_finished,
        trace_events=hasher.events,
        trace_sha256=hasher.hexdigest(),
        stats=stats_dict,
        elapsed_s=elapsed_s,
    )
    return summary, values


def _aggregate(
    pairs: Sequence[tuple[SweepRunSummary, dict[str, float]]],
    user_names: Sequence[str],
    confidence: float,
) -> dict[str, MetricSummary]:
    """Cross-run mean/CI summaries, folded in ascending-seed order.

    Sorting by seed (stable, so duplicate seeds keep input order) makes
    every aggregate independent of how the sweep's seed grid was ordered
    or chunked; the per-seed values themselves depend only on the seed.
    """
    ordered = sorted(
        range(len(pairs)), key=lambda i: (pairs[i][0].seed, i)
    )
    runs = [pairs[i][0] for i in ordered]
    values = [pairs[i][1] for i in ordered]

    aggregates: dict[str, list[float]] = {
        "events_started": [float(r.events_started) for r in runs],
        "events_finished": [float(r.events_finished) for r in runs],
        "final_time": [float(r.final_time) for r in runs],
    }
    if runs[0].stats is not None:
        # Derived per-transition / per-place aggregates over the names
        # present in every run (a transition that never fired under some
        # seed has no row there).
        for kind, section, field in (
            ("throughput", "transitions", "throughput"),
            ("avg_tokens", "places", "avg_tokens"),
        ):
            names = [
                name for name in sorted(runs[0].stats[section])
                if all(r.stats is not None and name in r.stats[section]
                       for r in runs)
            ]
            for name in names:
                aggregates[f"{kind}:{name}"] = [
                    r.stats[section][name][field] for r in runs
                ]
    # User metrics ride on top; their names were checked against the
    # scalar builtins up front and shadow any derived name.
    for name in user_names:
        aggregates[name] = [v[name] for v in values]
    return {
        name: summarize_metric(name, vals, confidence)
        for name, vals in aggregates.items()
    }


def grid_sha256(cells) -> str:
    """One digest pinning a grid's traces, independent of seed order.

    ``cells`` yields ``(point_index, seed, trace_sha256)``; the trace
    digests are folded in (point, seed) order (stable, so duplicate
    seeds keep their input order). A sweep's ``runs_sha256`` is this
    digest of its one-point grid, an exploration's ``cells_sha256``
    the digest of all its cells.
    """
    ordered = sorted(cells, key=lambda cell: cell[:2])
    joined = "".join(digest for _point, _seed, digest in ordered)
    return hashlib.sha256(joined.encode("ascii")).hexdigest()


def grid_cells(n_points: int,
               seeds: Sequence[int]) -> list[tuple[int, int]]:
    """The (point_index, seed) grid in canonical point-major order."""
    return [(point_index, seed)
            for point_index in range(n_points) for seed in seeds]


def scan_store(
    store,
    grid: Sequence[tuple[int, int]],
    net_shas: Sequence[str],
    point_keys: Sequence[str],
    stop: str,
) -> dict[int, dict[str, Any]]:
    """Cell payloads the store already holds, keyed by grid index."""
    stored: dict[int, dict[str, Any]] = {}
    if store is not None:
        for index, (point_index, seed) in enumerate(grid):
            payload = store.get(net_shas[point_index],
                                point_keys[point_index], seed, stop)
            if payload is not None:
                stored[index] = payload
    return stored


def cell_payload(pair: tuple[SweepRunSummary, dict[str, float]],
                 ) -> dict[str, Any]:
    """A cell's stored payload: the run summary plus its metric values."""
    summary, values = pair
    payload = summary.to_payload()
    if values:
        payload["metrics"] = {
            name: float(value) for name, value in values.items()
        }
    return payload


#: The resolution of a grid point with no cell left to run: nothing to
#: compile for, and no backend selection to count.
RESUMED = (None, "scalar", "resumed")


def resolve_point(skeleton: Simulator, backend: str, needed: bool):
    """One grid point's ``(program or None, selected, reason)``:
    :data:`RESUMED` when no cell of the point is ``needed``. The
    lockstep module is imported only when a point asks for it."""
    if not needed:
        return RESUMED
    if backend == "scalar":
        return None, "scalar", "requested"
    from .lockstep import resolve_backend

    # Raises ValueError on an unknown backend name.
    return resolve_backend(skeleton, backend)


def backend_counts(surface: str, resolutions) -> dict[str, int]:
    """Obs-counter deltas for the engines a job's points ran on.

    ``<surface>_backend_<selected>_total`` counts what actually ran;
    a safe-class fallback additionally bumps
    ``<surface>_backend_fallback_<reason>_total`` (reason slugs like
    ``transition-actions`` become Prometheus-safe underscores). A
    :data:`RESUMED` point ran nothing and counts nothing.
    """
    counts: dict[str, int] = {}
    for resolution in resolutions:
        if resolution == RESUMED:
            continue
        _program, selected, reason = resolution
        names = [f"{surface}_backend_{selected}_total"]
        if reason not in ("ok", "requested"):
            names.append(f"{surface}_backend_fallback_"
                         f"{reason.replace('-', '_')}_total")
        for name in names:
            counts[name] = counts.get(name, 0) + 1
    return counts


def cell_runner(
    skeleton: Simulator,
    resolution,
    run_number: int,
    until: float | None,
    max_events: int | None,
    want_stats: bool,
    metrics: dict[str, Callable[[SimulationResult], float]] | None = None,
    stat_metrics: dict[str, Callable[[TraceStatistics], float]] | None = None,
    profile=None,
) -> Callable[..., tuple[SweepRunSummary, dict[str, float]]]:
    """The per-cell runner of one grid point:
    ``(seed, observers=()) -> (summary, values)``.

    Runs the resolved program's generated loop when there is one and
    forks the scalar skeleton otherwise; both give bit-identical
    summaries. The in-process grid and the service's grid executor
    run every cell through this. Per-event ``observers`` and the
    scheduler ``profile`` (see :func:`_sweep_one`) exist only on the
    scalar engine: the generated loop has no per-event hook, so a cell
    that needs its events (a streamed trace) must resolve to scalar.
    """
    program = resolution[0]
    metrics = metrics or {}
    stat_metrics = stat_metrics or {}
    if program is not None:
        return lambda seed, observers=(): program.run_seed(
            seed, run_number, until, max_events, want_stats, metrics,
            stat_metrics,
        )
    return lambda seed, observers=(): _sweep_one(
        skeleton, seed, run_number, until, max_events, want_stats, metrics,
        stat_metrics, observers, profile,
    )


@dataclass
class GridRun:
    """What :func:`run_grid` produced, cells in grid order."""

    pairs: list[tuple[SweepRunSummary, dict[str, float]]]
    stored: set[int]
    resolutions: list[tuple[Any, str, str]]
    stop: str


def run_grid(
    label: str,
    skeletons: Sequence[Simulator],
    seeds: Sequence[int],
    until: float | None,
    max_events: int | None,
    run_number: int,
    workers: int,
    want_stats: bool,
    metrics: dict[str, Callable[[SimulationResult], float]] | None,
    stat_metrics: dict[str, Callable[[TraceStatistics], float]] | None,
    backend: str,
    store=None,
    store_keys: tuple[Sequence[str], Sequence[str]] | None = None,
    on_cell: Callable[[int, tuple[SweepRunSummary, dict[str, float]], bool],
                      Any] | None = None,
) -> GridRun:
    """Run every (point, seed) cell of a grid: the core of both drivers.

    :func:`run_sweep` is the one-point grid of this core and
    :func:`~repro.dse.explore.run_exploration` the many-point one. Each
    point has a pristine skeleton. The core validates the arguments,
    serves the cells ``store`` already holds (keyed by ``store_keys``,
    the per-point net hashes and point keys), resolves each point that
    still has cells to run, and runs those through :func:`cell_runner`.
    With ``workers > 1`` the cells fan out over forked children in
    contiguous chunks, so the seeds of one point stay on one worker.
    Fresh cells are checkpointed in the parent as they complete.
    ``on_cell(index, pair, stored)`` fires for every stored cell first,
    in grid order, then for each fresh cell as it completes.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    if not all(isinstance(seed, int) and not isinstance(seed, bool)
               for seed in seeds):
        raise ValueError(f"{label} seeds must be integers")
    if until is None and max_events is None:
        raise ValueError("provide until=, max_events=, or both")
    if workers < 1:
        raise ValueError("need at least one worker")
    metrics = dict(metrics or {})
    stat_metrics = dict(stat_metrics or {})
    overlap = metrics.keys() & stat_metrics.keys()
    if overlap:
        raise ValueError(f"metric names declared twice: {sorted(overlap)}")
    user_names = list(metrics) + list(stat_metrics)

    from ..dse.store import stop_key

    skey = stop_key(until, max_events, run_number, want_stats, user_names)
    grid = grid_cells(len(skeletons), seeds)
    pairs: dict[int, tuple[SweepRunSummary, dict[str, float]]] = {}
    if store is not None:
        for index, payload in scan_store(store, grid, *store_keys,
                                         skey).items():
            values = {name: float(payload["metrics"][name])
                      for name in user_names}
            pairs[index] = (summary_from_payload(payload), values)
            if on_cell is not None:
                on_cell(index, pairs[index], True)
    stored = set(pairs)
    missing = [index for index in range(len(grid)) if index not in stored]

    needed = {grid[index][0] for index in missing}
    resolutions = [resolve_point(skeleton, backend, point in needed)
                   for point, skeleton in enumerate(skeletons)]
    runners = [
        cell_runner(skeleton, resolution, run_number, until, max_events,
                    want_stats, metrics, stat_metrics)
        for skeleton, resolution in zip(skeletons, resolutions)
    ]

    def run_one(index: int) -> tuple[SweepRunSummary, dict[str, float]]:
        point_index, seed = grid[index]
        return runners[point_index](seed)

    def settle(index: int,
               pair: tuple[SweepRunSummary, dict[str, float]]) -> None:
        """Checkpoint + stream one fresh cell (parent process only)."""
        pairs[index] = pair
        if store is not None:
            point_index, seed = grid[index]
            store.put(store_keys[0][point_index], store_keys[1][point_index],
                      seed, skey, cell_payload(pair))
        if on_cell is not None:
            on_cell(index, pair, False)

    workers = min(workers, max(1, len(missing)))
    if workers > 1 and fork_available():
        map_chunked_forked(run_one, contiguous_chunks(missing, workers),
                           on_result=settle, label=f"{label} worker")
        lost = [index for index in missing if index not in pairs]
        if lost:
            raise RuntimeError(
                f"{label} workers returned no result for cells {lost}"
            )
    else:
        for index in missing:
            settle(index, run_one(index))
    return GridRun(
        pairs=[pairs[index] for index in range(len(grid))],
        stored=stored,
        resolutions=resolutions,
        stop=skey,
    )


def run_sweep(
    skeleton: Simulator | PetriNet,
    seeds: Sequence[int],
    until: float | None = None,
    max_events: int | None = None,
    run_number: int = 1,
    workers: int = 1,
    want_stats: bool = True,
    metrics: dict[str, Callable[[SimulationResult], float]] | None = None,
    stat_metrics: dict[str, Callable[[TraceStatistics], float]] | None = None,
    confidence: float = 0.95,
    on_run: Callable[[int, SweepRunSummary], Any] | None = None,
    backend: str = "auto",
    store=None,
) -> SweepResult:
    """Run one compiled net across a seed grid, sharing the skeleton.

    ``skeleton`` is a pristine (never-run) :class:`Simulator` — or a
    :class:`PetriNet`, compiled here once — forked per run. ``workers >
    1`` batches runs into chunks, one forked child per chunk (falls back
    to serial where fork is unavailable); summaries are byte-identical
    either way. ``on_run(index, summary)`` streams each run's summary as
    it completes (completion order is nondeterministic across workers;
    the returned ``runs`` list is always in input order). ``metrics`` /
    ``stat_metrics`` extend the builtin aggregates exactly as on
    :class:`~repro.sim.experiment.Experiment`; every run is executed
    with ``keep_events=False``, so ``metrics`` callables must not read
    ``result.events``.

    ``backend`` picks the per-run engine: ``"auto"`` (default) compiles
    the net-specialized lockstep loop when the net is in its safe class
    and falls back to the scalar engine otherwise, ``"lockstep"`` asks
    for it explicitly (same silent fallback — the selection is recorded
    on the result, never an error), ``"scalar"`` forces the classic
    engine. Per-seed summaries are bit-identical across backends; see
    :mod:`repro.sim.lockstep`.

    ``store`` (a :class:`~repro.dse.store.ResultStore`) makes sweeps
    incremental exactly like explorations: seeds whose cells the store
    already holds are served from it (``on_run`` still fires, in seed
    position order, before any fresh run), only the missing seeds
    simulate, and fresh summaries are checkpointed as they complete.
    A sweep is the one-point grid of :func:`run_grid`: its cells are
    the explore cells of the empty point
    (:data:`~repro.dse.store.SWEEP_POINT_KEY`), so a sweep resumed from
    a store is byte-identical to a cold one — the ``resumed`` count on
    the result is the only difference, and it is excluded from the
    payload.
    """
    if isinstance(skeleton, PetriNet):
        skeleton = Simulator(skeleton)
    user_names = list(metrics or {}) + list(stat_metrics or {})
    reserved = set(user_names) & set(BUILTIN_AGGREGATES)
    if reserved:
        raise ValueError(
            f"metric names collide with builtin aggregates: {sorted(reserved)}"
        )
    store_keys = None
    if store is not None:
        from ..dse.store import SWEEP_POINT_KEY
        from ..lang.format import format_net
        from ..lang.parser import canonical_net_source

        source = canonical_net_source(format_net(skeleton.net))
        net_sha = hashlib.sha256(source.encode("utf-8")).hexdigest()
        store_keys = ([net_sha], [SWEEP_POINT_KEY])
    run = run_grid(
        "sweep", [skeleton], seeds, until, max_events, run_number, workers,
        want_stats, metrics, stat_metrics, backend, store, store_keys,
        on_cell=(None if on_run is None else
                 lambda index, pair, _stored: on_run(index, pair[0])),
    )
    _program, selected, reason = run.resolutions[0]
    return SweepResult(
        runs=[summary for summary, _values in run.pairs],
        metrics=_aggregate(run.pairs, user_names, confidence),
        backend=selected,
        backend_requested=backend,
        backend_reason=reason,
        resumed=len(run.stored),
    )
