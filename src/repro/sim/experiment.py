"""Multi-run simulation experiments with replication statistics.

The paper's simulator accepts "a few simulation commands that allow a user
to control the duration of one or more simulation experiments" (§4.1).
:class:`Experiment` runs N independent replications with derived seeds and
aggregates any scalar metric extracted from each run, reporting mean,
standard deviation and a normal-approximation confidence interval —
the standard discipline for interpreting stochastic simulation output.

Replications are independent by construction (seed ``base_seed + i``), so
``run(workers=N)`` can fan them across forked processes; results are
byte-identical to the serial path because each replication's simulation
and metric evaluation depend only on its own seed, and the parent
reassembles values in replication order before summarizing.
"""

from __future__ import annotations

import math
import multiprocessing
import signal
import traceback
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

from ..analysis.stat import StatisticsObserver, TraceStatistics
from ..core.net import PetriNet
from .engine import SimulationResult, Simulator

# Two-sided z quantiles for the confidence levels we expose.
_Z = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


# ---------------------------------------------------------------------------
# Forked-worker machinery
# ---------------------------------------------------------------------------
#
# Extracted from Experiment.run(workers=N) so other CPU-bound fan-outs —
# notably the repro.service job workers — reuse the same primitive. Fork
# semantics matter everywhere it is used: the net (with its arbitrary
# predicate / action / delay callables) and any compiled-net cache are
# inherited by memory image, never pickled; only results return through
# the pipe.


def fork_available() -> bool:
    """True when the platform supports the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


class ForkedTask:
    """One callable running in a forked child, messages streamed to the parent.

    The child runs ``fn(*args, emit=emit)``; every ``emit(payload)`` call
    arrives in the parent as ``("msg", payload)``, the return value as
    ``("ok", value)`` and an exception as ``("error", traceback_text)``.
    A child that dies without reporting at all — SIGKILLed, OOM-killed,
    interpreter crash — surfaces as ``("crashed", info)`` where ``info``
    classifies the death by exit code / signal (see :meth:`exit_status`),
    so supervisors can distinguish a crash worth retrying from an
    ordinary exception. :meth:`next_message` blocks on the pipe, so
    drive it from a worker thread when the parent must stay responsive
    (the service does).
    """

    def __init__(self, fn: Callable[..., Any], args: tuple = (),
                 label: str = "forked worker") -> None:
        self.label = label
        ctx = multiprocessing.get_context("fork")
        self._receiver, sender = ctx.Pipe(duplex=False)
        self._process = ctx.Process(
            target=self._child_main, args=(sender, fn, args)
        )
        self._process.start()
        sender.close()

    @staticmethod
    def _child_main(sender, fn, args) -> None:
        try:
            value = fn(*args, emit=lambda payload: sender.send(("msg", payload)))
            sender.send(("ok", value))
        except BaseException:  # noqa: BLE001 - full traceback to parent
            sender.send(("error", traceback.format_exc()))
        finally:
            sender.close()

    @property
    def connection(self):
        """The parent-side pipe end, for multiplexed waits.

        :func:`multiprocessing.connection.wait` over several tasks'
        connections tells the caller which child has a message ready, so
        one thread can stream results from a whole worker fleet (the
        sweep driver does) without blocking on any single pipe.
        """
        return self._receiver

    def exit_status(self) -> tuple[int | None, str | None]:
        """``(exitcode, signal_name)`` of the dead/dying child.

        Joins briefly so the exit code is collected (and the child
        reaped); a negative exit code is translated to its signal name
        (``"SIGKILL"``), the classification crash supervisors key on.
        """
        self._process.join(timeout=self.TERMINATE_GRACE)
        code = self._process.exitcode
        if code is not None and code < 0:
            try:
                name = signal.Signals(-code).name
            except ValueError:
                name = f"signal {-code}"
            return code, name
        return code, None

    def next_message(self) -> tuple[str, Any]:
        """Receive the next ``(kind, payload)``; blocks until one arrives.

        A child that dies without reporting (killed, crashed interpreter)
        surfaces as a ``("crashed", info)`` message rather than hanging:
        ``info`` carries the exit code, the killing signal's name (or
        None for a plain exit), and a human-readable ``error`` line.
        """
        try:
            return self._receiver.recv()
        except EOFError:
            exitcode, signal_name = self.exit_status()
            detail = (f"killed by {signal_name}" if signal_name
                      else f"exit code {exitcode}")
            return ("crashed", {
                "exitcode": exitcode,
                "signal": signal_name,
                "error": f"{self.label} died without a result ({detail})",
            })

    def join(self) -> None:
        self._process.join()
        self._receiver.close()

    #: How long terminate() waits for SIGTERM before escalating. Kept
    #: short: callers may invoke it from latency-sensitive contexts
    #: (the service cancels jobs from its event loop).
    TERMINATE_GRACE = 2.0

    def terminate(self) -> None:
        """Kill the child (job cancellation); safe to call repeatedly.

        SIGTERM first, then SIGKILL after :data:`TERMINATE_GRACE` — a
        child whose inherited net installed its own signal handlers (nets
        carry arbitrary callables) cannot stall the caller. Every join is
        bounded; final reaping happens in :meth:`join`. The receiver is
        left open on purpose: a thread blocked in :meth:`next_message`
        wakes with EOF once the child dies.
        """
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=self.TERMINATE_GRACE)
            if self._process.is_alive():
                self._process.kill()
        self._process.join(timeout=self.TERMINATE_GRACE)


def contiguous_chunks(positions: list[int], workers: int) -> list[list[int]]:
    """Split positions into ``workers`` contiguous, near-equal chunks.

    Contiguity is deliberate: grid cells are enumerated point-major, so
    a contiguous chunk keeps consecutive seeds of one point on one
    worker and each child touches as few compiled skeletons as possible.
    The in-process :func:`~repro.sim.sweep.run_grid`, the service's grid
    jobs and :meth:`Experiment.run` all split their work with this.
    """
    base, extra = divmod(len(positions), workers)
    chunks: list[list[int]] = []
    start = 0
    for w in range(workers):
        size = base + (1 if w < extra else 0)
        chunks.append(positions[start:start + size])
        start += size
    return chunks


def map_chunked_forked(
    run_one: Callable[[int], Any],
    chunks: Sequence[Sequence[int]],
    on_result: Callable[[int, Any], Any] | None = None,
    label: str = "chunk worker",
) -> dict[int, Any]:
    """Run ``run_one(position)`` across forked children, one per chunk.

    Each child executes its positions in order and streams one
    ``(position, result)`` message per completed call; the parent
    multiplexes the children's pipes (so ``on_result`` fires as results
    complete, in nondeterministic cross-chunk order) and returns
    ``{position: result}``. The first child failure is raised as
    ``RuntimeError`` after every child has been joined. This is the
    shared fan-out loop under multi-seed sweeps and design-space
    explorations; ``run_one`` and its closure are inherited by fork,
    never pickled.
    """
    from multiprocessing import connection as _mp_connection

    def chunk_main(positions, emit) -> None:
        for position in positions:
            emit((position, run_one(position)))

    tasks = [
        ForkedTask(chunk_main, (list(chunk),),
                   label=f"{label} for positions {list(chunk)}")
        for chunk in chunks if chunk
    ]
    collected: dict[int, Any] = {}
    failure: str | None = None
    pending = {task.connection: task for task in tasks}
    while pending:
        for conn in _mp_connection.wait(list(pending)):
            task = pending[conn]
            kind, payload = task.next_message()
            if kind == "msg":
                position, result = payload
                collected[position] = result
                if on_result is not None:
                    on_result(position, result)
            elif kind == "ok":
                del pending[conn]
            else:
                if failure is None:
                    failure = (payload["error"] if kind == "crashed"
                               else payload)
                del pending[conn]
    for task in tasks:
        task.join()
    if failure is not None:
        raise RuntimeError(f"{label} failed:\n{failure}")
    return collected


@dataclass(frozen=True)
class MetricSummary:
    """Replication statistics for one scalar metric."""

    name: str
    values: tuple[float, ...]
    mean: float
    stdev: float
    ci_half_width: float
    confidence: float

    @property
    def ci_low(self) -> float:
        return self.mean - self.ci_half_width

    @property
    def ci_high(self) -> float:
        return self.mean + self.ci_half_width

    def pretty(self) -> str:
        return (
            f"{self.name}: mean={self.mean:.6g} sd={self.stdev:.4g} "
            f"{int(self.confidence * 100)}% CI [{self.ci_low:.6g}, {self.ci_high:.6g}] "
            f"(n={len(self.values)})"
        )

    def to_payload(self) -> dict[str, Any]:
        """JSON-ready form; floats verbatim, so equal summaries render
        byte-equal through :func:`~repro.analysis.report.canonical_json`
        no matter which path (in-process or service) computed them."""
        return {
            "mean": self.mean,
            "stdev": self.stdev,
            "ci_half_width": self.ci_half_width,
            "confidence": self.confidence,
            "n": len(self.values),
        }


def summarize_metric(
    name: str, values: Sequence[float], confidence: float = 0.95
) -> MetricSummary:
    """Mean / stdev / CI of replicated observations."""
    if not values:
        raise ValueError(f"metric {name!r} has no observations")
    if confidence not in _Z:
        raise ValueError(f"confidence must be one of {sorted(_Z)}")
    n = len(values)
    mean = sum(values) / n
    if n > 1:
        var = sum((v - mean) ** 2 for v in values) / (n - 1)
    else:
        var = 0.0
    stdev = math.sqrt(var)
    half = _Z[confidence] * stdev / math.sqrt(n) if n > 1 else 0.0
    return MetricSummary(name, tuple(values), mean, stdev, half, confidence)


@dataclass
class ExperimentResult:
    """All replications plus per-metric summaries."""

    runs: list[SimulationResult]
    metrics: dict[str, MetricSummary]

    def metric(self, name: str) -> MetricSummary:
        return self.metrics[name]

    def pretty(self) -> str:
        lines = [f"{len(self.runs)} replication(s)"]
        lines += [m.pretty() for m in self.metrics.values()]
        return "\n".join(lines)


class Experiment:
    """Run a net repeatedly and summarize scalar metrics.

    ``metrics`` maps a metric name to a function of the
    :class:`SimulationResult` for one run. ``stat_metrics`` maps a metric
    name to a function of the streamed
    :class:`~repro.analysis.stat.TraceStatistics` — those are computed by
    a :class:`~repro.analysis.stat.StatisticsObserver` attached to the
    run, so they work even with ``keep_events=False`` (no event list is
    ever materialized). Seeds are ``base_seed + run`` so an experiment is
    exactly reproducible yet runs are independent.
    """

    def __init__(
        self,
        net: PetriNet,
        until: float,
        metrics: dict[str, Callable[[SimulationResult], float]],
        base_seed: int = 1,
        confidence: float = 0.95,
        stat_metrics: dict[str, Callable[[TraceStatistics], float]] | None = None,
    ) -> None:
        if until <= 0:
            raise ValueError("until must be positive")
        self.net = net
        self.until = until
        self.metrics = dict(metrics)
        self.stat_metrics = dict(stat_metrics or {})
        overlap = self.metrics.keys() & self.stat_metrics.keys()
        if overlap:
            raise ValueError(f"metric names declared twice: {sorted(overlap)}")
        self.base_seed = base_seed
        self.confidence = confidence

    # -- one replication ---------------------------------------------------

    def _metric_names(self) -> list[str]:
        return list(self.metrics) + list(self.stat_metrics)

    def _replicate(
        self, index: int, keep_events: bool
    ) -> tuple[SimulationResult, dict[str, float]]:
        """Simulate replication ``index`` and evaluate every metric."""
        observers = []
        stats_observer = None
        if self.stat_metrics:
            stats_observer = StatisticsObserver(
                run_number=index + 1,
                place_names=self.net.place_names(),
                transition_names=self.net.transition_names(),
            )
            observers.append(stats_observer)
        sim = Simulator(
            self.net,
            seed=self.base_seed + index,
            run_number=index + 1,
            observers=observers,
        )
        result = sim.run(until=self.until, keep_events=keep_events)
        values = {name: fn(result) for name, fn in self.metrics.items()}
        if stats_observer is not None:
            statistics = stats_observer.result()
            for name, fn in self.stat_metrics.items():
                values[name] = fn(statistics)
        return result, values

    # -- the experiment ----------------------------------------------------

    def run(
        self,
        replications: int = 5,
        workers: int = 1,
        keep_events: bool = True,
        registry=None,
    ) -> ExperimentResult:
        """Run all replications, serially or across forked workers.

        ``workers > 1`` fans independent replications over processes
        (fork start method; falls back to serial where fork is
        unavailable). Metric values — and therefore every
        :class:`MetricSummary` — are identical to the ``workers=1`` path.
        ``keep_events=False`` drops the per-run event lists (use
        ``stat_metrics`` or counter-based ``metrics`` then); it also
        keeps the parallel path cheap, since events never cross the
        process boundary.

        ``registry`` (a :class:`~repro.obs.metrics.MetricsRegistry`)
        receives experiment-level counters when given — replications
        run, events started/finished — at completion, never inside the
        simulation loop, so a disabled or absent registry costs nothing.
        """
        if replications < 1:
            raise ValueError("need at least one replication")
        if workers < 1:
            raise ValueError("need at least one worker")
        workers = min(workers, replications)
        if workers > 1 and fork_available():
            pairs = self._run_forked(replications, workers, keep_events)
        else:
            pairs = [
                self._replicate(i, keep_events) for i in range(replications)
            ]
        runs = [result for result, _values in pairs]
        if registry is not None:
            registry.counter("experiment_replications_total").inc(len(runs))
            registry.counter("engine_events_started_total").inc(
                sum(run.events_started for run in runs)
            )
            registry.counter("engine_events_finished_total").inc(
                sum(run.events_finished for run in runs)
            )
        summaries = {
            name: summarize_metric(
                name,
                [values[name] for _result, values in pairs],
                self.confidence,
            )
            for name in self._metric_names()
        }
        return ExperimentResult(runs, summaries)

    def sweep(
        self,
        replications: int | None = None,
        seeds: Sequence[int] | None = None,
        workers: int = 1,
        want_stats: bool = True,
        on_run: Callable[[int, Any], Any] | None = None,
        backend: str = "auto",
    ):
        """Run this experiment as a vectorized multi-seed sweep.

        Built on :func:`repro.sim.sweep.run_sweep`: one compiled
        :class:`Simulator` skeleton is shared (forked) across all runs
        instead of recompiling the net per replication, per-run
        summaries stream through ``on_run`` and nothing materializes a
        trace. ``seeds`` defaults to ``base_seed + i`` like :meth:`run`,
        so metric *values* match the classic path seed for seed (sweep
        runs carry ``run_number=1``, matching a standalone ``pnut sim``
        of the same seed). Returns a
        :class:`~repro.sim.sweep.SweepResult` whose aggregates combine
        the builtin summaries with this experiment's ``metrics`` and
        ``stat_metrics``. ``backend`` selects the per-run engine exactly
        as on :func:`~repro.sim.sweep.run_sweep` (``"auto"`` uses the
        lockstep codegen backend when the net is in its safe class).
        """
        from .sweep import run_sweep

        if seeds is None:
            count = 5 if replications is None else replications
            if count < 1:
                raise ValueError("need at least one replication")
            seeds = [self.base_seed + i for i in range(count)]
        return run_sweep(
            Simulator(self.net),
            seeds,
            until=self.until,
            workers=workers,
            want_stats=want_stats,
            metrics=self.metrics,
            stat_metrics=self.stat_metrics,
            confidence=self.confidence,
            on_run=on_run,
            backend=backend,
        )

    def explore(
        self,
        space,
        template,
        replications: int | None = None,
        seeds: Sequence[int] | None = None,
        workers: int = 1,
        want_stats: bool = True,
        store=None,
        cache=None,
        on_cell: Callable[[Any], Any] | None = None,
    ):
        """Run a design-space exploration with this experiment's design.

        Built on :func:`repro.dse.run_exploration`: every point of
        ``space`` is bound through ``template`` (a
        :class:`~repro.dse.NetTemplate`, source text with ``${...}``
        placeholders, or any binder) and crossed with the seed grid —
        this experiment's net is *not* used, only its measurement
        discipline: ``until``, ``metrics`` / ``stat_metrics`` (evaluated
        per cell, persisted on the cell payload) and ``confidence`` for
        the per-point aggregates. ``seeds`` defaults to ``base_seed +
        i`` exactly like :meth:`run`. Returns an
        :class:`~repro.dse.ExplorationResult`.
        """
        from ..dse.explore import run_exploration

        if seeds is None:
            count = 5 if replications is None else replications
            if count < 1:
                raise ValueError("need at least one replication")
            seeds = [self.base_seed + i for i in range(count)]
        return run_exploration(
            template,
            space,
            seeds,
            until=self.until,
            workers=workers,
            want_stats=want_stats,
            metrics=self.metrics,
            stat_metrics=self.stat_metrics,
            confidence=self.confidence,
            store=store,
            cache=cache,
            on_cell=on_cell,
        )

    def _run_forked(
        self, replications: int, workers: int, keep_events: bool
    ) -> list[tuple[SimulationResult, dict[str, float]]]:
        """Fan replications across forked worker processes.

        Each worker takes a contiguous chunk of replication indices
        through :func:`map_chunked_forked`; the parent reassembles the
        (result, values) pairs in replication order.
        """
        pairs = map_chunked_forked(
            lambda index: self._replicate(index, keep_events),
            contiguous_chunks(list(range(replications)), workers),
            label="replication worker",
        )
        return [pairs[index] for index in range(replications)]
