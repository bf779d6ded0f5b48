"""Absolute pins on the (points x seeds) grid, in-process and served.

The identity tests elsewhere compare the service path with the
in-process drivers, so a fault shared by both would pass them. The
digests here are fixed values of the Figure-5 sweep and of the explore
smoke grid: a change to either grid path, to the per-cell runner, or to
how cells are ordered, stored or digested moves them. Each pin is
checked on both engines, in-process and through a ``ServerThread`` with
one worker slot and with two (where a grid job's cells split over two
forked children).

The hypothesis property below pins the grid orchestration itself:
whatever the seed list (duplicates allowed), whichever cells a result
store already holds, however many workers and whichever backend, every
cell payload and the grid digest equal a cold scalar run's.
"""

import functools
import hashlib
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.report import canonical_json
from repro.dse import ParamSpace
from repro.dse.explore import bind_sources, run_exploration
from repro.dse.smoke import TEMPLATE
from repro.dse.space import point_key
from repro.dse.store import SWEEP_POINT_KEY, open_store, stop_key
from repro.lang.format import format_net
from repro.lang.parser import parse_net
from repro.processor import build_pipeline_net
from repro.service import ServerThread
from repro.sim import fork_available
from repro.sim.sweep import run_sweep

BACKENDS = ("scalar", "lockstep")

#: Figure 5, seeds 1-4, 500 cycles.
SWEEP_SEEDS = [1, 2, 3, 4]
SWEEP_UNTIL = 500
SWEEP_RUNS_SHA256 = (
    "e38bc4f2fe14cf4cdc6d070c0c63140656815fec0fcf80374ba516cc1cd8673b"
)

#: The explore smoke grid: tokens=2,4 x delay=1,2, seeds 1-2, 80 cycles.
EXPLORE_PARAMS = {"tokens": [2, 4], "delay": [1, 2]}
EXPLORE_SEEDS = [1, 2]
EXPLORE_UNTIL = 80
EXPLORE_CELLS_SHA256 = (
    "9afbf25e565a3ba58dc3f36bba00526976a3ad8a9ab5c3de8b5b4736e4c0c732"
)


def explore_space(params=EXPLORE_PARAMS):
    space = ParamSpace()
    for name, values in params.items():
        space.values(name, values)
    return space


@pytest.fixture(scope="module")
def fig5_source():
    return format_net(build_pipeline_net())


@pytest.fixture(scope="module", params=[1, 2], ids=lambda n: f"workers{n}")
def server(request):
    """A one-slot server, and a two-slot one whose idle slot splits each
    grid job's cells over two forked children."""
    thread = ServerThread(workers=request.param)
    yield thread
    thread.stop()


class TestSweepPin:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_in_process(self, fig5_source, backend):
        result = run_sweep(parse_net(fig5_source), SWEEP_SEEDS,
                           until=SWEEP_UNTIL, backend=backend)
        assert result.runs_sha256() == SWEEP_RUNS_SHA256

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_served(self, server, fig5_source, backend):
        with server.client() as client:
            outcome = client.sweep(fig5_source, SWEEP_SEEDS,
                                   until=SWEEP_UNTIL, backend=backend)
        assert outcome.runs_sha256 == SWEEP_RUNS_SHA256
        assert [run["seed"] for run in outcome.runs] == SWEEP_SEEDS
        assert outcome.summary["runs"] == len(SWEEP_SEEDS)


class TestExplorePin:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_in_process(self, backend):
        result = run_exploration(TEMPLATE, explore_space(), EXPLORE_SEEDS,
                                 until=EXPLORE_UNTIL, backend=backend)
        assert result.cells_sha256() == EXPLORE_CELLS_SHA256

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_served(self, server, backend):
        with server.client() as client:
            outcome = client.explore(
                TEMPLATE, explore_space().to_payload(), EXPLORE_SEEDS,
                until=EXPLORE_UNTIL, backend=backend,
            )
        assert outcome.summary["run_cells_sha256"] == EXPLORE_CELLS_SHA256
        assert outcome.summary["cells_run"] == 8
        assert sorted(outcome.cells) == list(range(8))

    def test_served_resumed(self, tmp_path):
        # The digest covers every cell the job returns: a rerun served
        # wholly from the server's store reports the cold value.
        store_path = str(tmp_path / "cells.sqlite")
        with ServerThread(store_path=store_path) as thread:
            with thread.client() as client:
                outcomes = [
                    client.explore(TEMPLATE, explore_space().to_payload(),
                                   EXPLORE_SEEDS, until=EXPLORE_UNTIL)
                    for _ in range(2)
                ]
        assert [outcome.summary["run_cells_sha256"]
                for outcome in outcomes] == [EXPLORE_CELLS_SHA256] * 2
        assert [outcome.summary["resumed_cells"]
                for outcome in outcomes] == [0, 8]
        assert outcomes[1].cells == outcomes[0].cells


# ---------------------------------------------------------------------------
# The orchestration property
# ---------------------------------------------------------------------------

#: Two points of the smoke template, short horizon: cheap cells.
PROPERTY_PARAMS = {"tokens": [2, 3], "delay": [1]}
PROPERTY_UNTIL = 30
PROPERTY_SEEDS = range(1, 6)


@functools.cache
def cold_cells():
    """Cold scalar payload of every (point, seed) the property draws."""
    result = run_exploration(TEMPLATE, explore_space(PROPERTY_PARAMS),
                             list(PROPERTY_SEEDS), until=PROPERTY_UNTIL,
                             backend="scalar")
    return {(cell.point_index, cell.seed): cell.payload
            for cell in result.cells}


POINTS, SOURCES, NET_SHAS = bind_sources(TEMPLATE,
                                         explore_space(PROPERTY_PARAMS))
STOP = stop_key(PROPERTY_UNTIL, None, 1)


def _digest(cells):
    """The grid digest: trace digests folded in (point, seed) order."""
    ordered = sorted(cells, key=lambda cell: cell[:2])
    joined = "".join(cold_cells()[point, seed]["trace_sha256"]
                     for point, seed in ordered)
    return hashlib.sha256(joined.encode("ascii")).hexdigest()


@settings(max_examples=40, deadline=None)
@given(
    op=st.sampled_from(["sweep", "explore"]),
    seeds=st.lists(st.sampled_from(list(PROPERTY_SEEDS)), min_size=1,
                   max_size=5),
    stored=st.sets(st.tuples(st.integers(0, 1),
                             st.sampled_from(list(PROPERTY_SEEDS)))),
    workers=st.sampled_from([1, 2] if fork_available() else [1]),
    backend=st.sampled_from(BACKENDS),
)
def test_grid_matches_cold_scalar(op, seeds, stored, workers, backend):
    points = [0] if op == "sweep" else [0, 1]
    with tempfile.TemporaryDirectory(prefix="pnut-grid-") as tmp:
        store = open_store(os.path.join(tmp, "cells.jsonl"))
        for point, seed in sorted(stored):
            if point in points:
                key = (SWEEP_POINT_KEY if op == "sweep"
                       else point_key(POINTS[point]))
                store.put(NET_SHAS[point], key, seed, STOP,
                          cold_cells()[point, seed])
        if op == "sweep":
            result = run_sweep(parse_net(SOURCES[0]), seeds,
                               until=PROPERTY_UNTIL, workers=workers,
                               backend=backend, store=store)
            got = [(0, run.seed, run.to_payload()) for run in result.runs]
            digest = result.runs_sha256()
            resumed = result.resumed
        else:
            result = run_exploration(TEMPLATE, explore_space(PROPERTY_PARAMS),
                                     seeds, until=PROPERTY_UNTIL,
                                     workers=workers, backend=backend,
                                     store=store)
            got = [(cell.point_index, cell.seed, cell.payload)
                   for cell in result.cells]
            digest = result.cells_sha256()
            resumed = result.stored_cells
        store.close()
    want = [(point, seed) for point in points for seed in seeds]
    assert [(point, seed) for point, seed, _payload in got] == want
    assert resumed == sum(1 for cell in want if cell in stored)
    for point, seed, payload in got:
        assert canonical_json(payload) == \
            canonical_json(cold_cells()[point, seed])
    assert digest == _digest(want)
