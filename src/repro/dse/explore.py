"""The exploration driver: (point x seed) cells over shared skeletons.

One exploration is a grid: every point of a :class:`ParamSpace` bound
into a net (via a template or binder), crossed with a seed grid. The
driver layers on the PR-3 sweep machinery so the whole grid pays
compilation once per *point* and process setup once per *chunk*:

* each distinct bound source compiles once through a
  :class:`~repro.service.cache.CompiledNetCache` (the same cache class
  the service uses, so repeated explorations of overlapping grids hit);
* every (point, seed) cell forks the point's compiled skeleton
  (:meth:`Simulator.fork`, ~15x cheaper than construction) and runs
  with ``keep_events=False``, streaming a
  :class:`~repro.sim.sweep.SweepRunSummary`-shaped payload;
* ``workers > 1`` fans *contiguous* chunks of cells over forked
  children via :func:`~repro.sim.experiment.map_chunked_forked` —
  contiguous, not strided, so consecutive seeds of one point stay on
  one worker and the parent-compiled skeletons are reused through the
  fork image;
* a :class:`~repro.dse.store.ResultStore` makes re-runs incremental:
  stored cells are skipped (never simulated) and merged back into the
  result, and freshly computed cells append as they stream.

Determinism contract: a cell's payload depends only on (bound net,
seed, run_number, until/max_events) — byte-identical to a standalone
``pnut sim`` / ``pnut stat --json`` of the bound source, whether it ran
serially, on a forked worker, behind the service, or came out of the
store.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..analysis.stat import TraceStatistics
from ..sim.engine import SimulationResult
from ..sim.experiment import MetricSummary
from ..sim.sweep import (
    backend_counts,
    cell_payload,
    grid_cells,
    grid_sha256,
    run_grid,
    scan_store,
)
from .frontier import (
    Objective,
    aggregate_cells,
    frontier_payload,
    frontier_table,
)
from .space import ParamSpace, point_key
from .store import ResultStore, stop_key
from .template import Binder, as_binder

if TYPE_CHECKING:  # imported lazily at run time (the service imports dse)
    from ..service.cache import CompiledNet, CompiledNetCache


@dataclass(frozen=True)
class CellOutcome:
    """One completed (point, seed) cell.

    ``payload`` is the run's summary dict — the exact shape a sweep run
    or a single service submission reports (``stats`` included when
    subscribed); ``stored`` marks cells served from the result store
    instead of simulated.
    """

    index: int
    point_index: int
    seed: int
    payload: dict[str, Any]
    stored: bool = False

    def to_payload(self) -> dict[str, Any]:
        return {
            "cell": self.index,
            "point": self.point_index,
            "stored": self.stored,
            **self.payload,
        }


@dataclass
class ExplorationResult:
    """Everything one exploration produced, cells in grid order."""

    points: list[dict[str, Any]]
    seeds: list[int]
    sources: list[str]
    net_shas: list[str]
    stop: str
    cells: list[CellOutcome]
    confidence: float

    _point_metrics: list[dict[str, MetricSummary]] | None = None

    @property
    def fresh_cells(self) -> int:
        return sum(1 for cell in self.cells if not cell.stored)

    @property
    def stored_cells(self) -> int:
        return sum(1 for cell in self.cells if cell.stored)

    def point_cells(self, point_index: int) -> list[CellOutcome]:
        n = len(self.seeds)
        return self.cells[point_index * n:(point_index + 1) * n]

    def point_metrics(self) -> list[dict[str, MetricSummary]]:
        """Per-point cross-seed aggregates (computed once, cached)."""
        if self._point_metrics is None:
            self._point_metrics = [
                aggregate_cells(
                    [cell.payload for cell in self.point_cells(index)],
                    self.confidence,
                )
                for index in range(len(self.points))
            ]
        return self._point_metrics

    def metric(self, point_index: int, name: str) -> MetricSummary:
        return self.point_metrics()[point_index][name]

    def cells_sha256(self) -> str:
        """One digest pinning every cell's trace, independent of seed
        order: per-cell trace digests folded in (point, seed) order."""
        return grid_sha256((cell.point_index, cell.seed,
                            cell.payload["trace_sha256"])
                           for cell in self.cells)

    def frontier(self, objectives: Sequence[Objective]) -> dict[str, Any]:
        return frontier_payload(self.points, self.point_metrics(),
                                objectives)

    def frontier_table(self, objectives: Sequence[Objective]) -> str:
        return frontier_table(self.points, self.point_metrics(), objectives)

    def aggregates_payload(self) -> list[dict[str, Any]]:
        return [
            {
                "point": index,
                "params": self.points[index],
                "cells": len(self.seeds),
                "metrics": {
                    name: summary.to_payload()
                    for name, summary in metrics.items()
                },
            }
            for index, metrics in enumerate(self.point_metrics())
        ]

    def to_payload(self) -> dict[str, Any]:
        return {
            "points": self.points,
            "seeds": list(self.seeds),
            "net_shas": list(self.net_shas),
            "cells": [cell.to_payload() for cell in self.cells],
            "aggregates": self.aggregates_payload(),
            "cells_sha256": self.cells_sha256(),
        }

    def pretty(self) -> str:
        return (
            f"{len(self.points)} point(s) x {len(self.seeds)} seed(s) = "
            f"{len(self.cells)} cell(s) "
            f"({self.stored_cells} from the store), "
            f"cells_sha256={self.cells_sha256()[:16]}..."
        )


def bind_space(
    template: Binder | str,
    space: ParamSpace,
    cache: "CompiledNetCache | None" = None,
    immediate_budget: int = 10_000,
) -> tuple[list[dict[str, Any]], list["CompiledNet"], list[str], list[str]]:
    """Bind every point and compile each bound source once.

    Returns ``(points, compiled entries, net SHA-256s, cache outcomes)``
    where the hash covers the *canonical* source — formatting variants
    of one net share a hash, exactly as they share a cache entry — and
    each outcome is the cache's ``"hit"`` / ``"canonical_hit"`` /
    ``"miss"`` verdict (the service reports a cached exploration only
    when nothing missed).
    """
    from ..service.cache import CompiledNetCache

    binder = as_binder(template)
    points = space.points()
    if cache is None:
        cache = CompiledNetCache(capacity=max(32, len(points)))
    compiled = []
    outcomes = []
    for point in points:
        entry, outcome = cache.lookup(binder.bind(point), immediate_budget)
        compiled.append(entry)
        outcomes.append(outcome)
    net_shas = [
        hashlib.sha256(entry.source.encode("utf-8")).hexdigest()
        for entry in compiled
    ]
    return points, compiled, net_shas, outcomes


def bind_sources(
    template: Binder | str, space: ParamSpace
) -> tuple[list[dict[str, Any]], list[str], list[str]]:
    """Bind every point to its *canonical* source, without compiling.

    The cheap sibling of :func:`bind_space` for callers that only need
    store keys and wire payloads (``pnut explore --socket`` consults its
    result store with these hashes; the server does the compiling).
    """
    from ..lang.parser import canonical_net_source

    binder = as_binder(template)
    points = space.points()
    sources = [canonical_net_source(binder.bind(point)) for point in points]
    net_shas = [
        hashlib.sha256(source.encode("utf-8")).hexdigest()
        for source in sources
    ]
    return points, sources, net_shas


def assemble_exploration(
    template: Binder | str,
    space: ParamSpace,
    seeds: Sequence[int],
    fetch_missing: Callable[[list[tuple[int, int]], dict[int, dict[str, Any]]],
                            dict[int, dict[str, Any]]],
    until: float | None = None,
    max_events: int | None = None,
    run_number: int = 1,
    store: ResultStore | None = None,
    confidence: float = 0.95,
) -> ExplorationResult:
    """The store-scan/merge skeleton for externally computed cells.

    ``pnut explore --socket`` runs cells on a server but owns the result
    store client-side; this helper keeps its store semantics identical
    to :func:`run_exploration`'s: bind points to canonical sources (no
    compiling — the executor does that), scan the store, hand the grid
    plus the stored indices to ``fetch_missing`` (which returns
    ``{cell index: payload}`` for everything it computed), persist the
    fresh cells, and assemble the result in grid order.
    """
    seeds = list(seeds)
    points, sources, net_shas = bind_sources(template, space)
    skey = stop_key(until, max_events, run_number)
    grid = grid_cells(len(points), seeds)
    point_keys = [point_key(point) for point in points]
    stored = scan_store(store, grid, net_shas, point_keys, skey)
    fresh = fetch_missing(grid, stored)
    cells: list[CellOutcome] = []
    for index, (point_index, seed) in enumerate(grid):
        if index in stored:
            cells.append(CellOutcome(
                index=index, point_index=point_index, seed=seed,
                payload=stored[index], stored=True,
            ))
        else:
            payload = fresh[index]
            if store is not None:
                store.put(net_shas[point_index], point_keys[point_index],
                          seed, skey, payload)
            cells.append(CellOutcome(
                index=index, point_index=point_index, seed=seed,
                payload=payload,
            ))
    return ExplorationResult(
        points=points,
        seeds=seeds,
        sources=sources,
        net_shas=net_shas,
        stop=skey,
        cells=cells,
        confidence=confidence,
    )


def run_exploration(
    template: Binder | str,
    space: ParamSpace,
    seeds: Sequence[int],
    until: float | None = None,
    max_events: int | None = None,
    run_number: int = 1,
    workers: int = 1,
    want_stats: bool = True,
    metrics: dict[str, Callable[[SimulationResult], float]] | None = None,
    stat_metrics: dict[str, Callable[[TraceStatistics], float]] | None = None,
    confidence: float = 0.95,
    store: ResultStore | None = None,
    cache: CompiledNetCache | None = None,
    on_cell: Callable[[CellOutcome], Any] | None = None,
    registry=None,
    backend: str = "auto",
) -> ExplorationResult:
    """Run one design-space exploration: every point x every seed.

    ``template`` is a :class:`~repro.dse.template.NetTemplate` (or raw
    ``${...}`` source), a :class:`~repro.dse.template.PipelineBinder`,
    or anything with ``bind(point) -> source``. Cells already present in
    ``store`` are skipped and merged back (``CellOutcome.stored``);
    fresh cells are appended to the store as they stream through
    ``on_cell`` (completion order is nondeterministic across workers —
    the returned ``cells`` list is always in grid order). ``metrics`` /
    ``stat_metrics`` are evaluated per cell and their values persisted
    on the payload, so stored cells aggregate without re-running the
    callables; they must not read ``result.events`` (cells run with
    ``keep_events=False``).

    ``registry`` (a :class:`~repro.obs.metrics.MetricsRegistry`; note
    the separate ``metrics`` parameter is the per-cell metric
    *callables*) receives grid-level counters at completion: cells run
    fresh, cells served from the store, points bound, and the backend
    selected per point.

    ``backend`` selects the per-cell engine exactly as on
    :func:`~repro.sim.sweep.run_sweep`, resolved per *point* (each
    bound template compiles separately, so safe-class eligibility can
    differ across points); cell payloads are bit-identical either way.
    The cells run through :func:`~repro.sim.sweep.run_grid`, the core
    :func:`~repro.sim.sweep.run_sweep` shares.
    """
    seeds = list(seeds)
    points, compiled, net_shas, _cache_outcomes = bind_space(
        template, space, cache
    )
    grid = grid_cells(len(points), seeds)

    def outcome(index: int, pair, stored: bool) -> CellOutcome:
        point_index, seed = grid[index]
        return CellOutcome(index=index, point_index=point_index, seed=seed,
                           payload=cell_payload(pair), stored=stored)

    def stream(index: int, pair, stored: bool) -> None:
        # Only fresh cells stream; stored ones come back on the result.
        if not stored:
            on_cell(outcome(index, pair, stored))

    run = run_grid(
        "explore", [entry.template for entry in compiled], seeds, until,
        max_events, run_number, workers, want_stats, metrics, stat_metrics,
        backend, store, (net_shas, [point_key(point) for point in points]),
        on_cell=None if on_cell is None else stream,
    )
    result = ExplorationResult(
        points=points,
        seeds=seeds,
        sources=[entry.source for entry in compiled],
        net_shas=net_shas,
        stop=run.stop,
        cells=[outcome(index, pair, index in run.stored)
               for index, pair in enumerate(run.pairs)],
        confidence=confidence,
    )
    if registry is not None:
        registry.counter("dse_cells_run_total").inc(result.fresh_cells)
        registry.counter("dse_cells_stored_total").inc(result.stored_cells)
        registry.counter("dse_points_total").inc(len(points))
        for name, count in backend_counts("explore",
                                          run.resolutions).items():
            registry.counter(name).inc(count)
    return result
