"""Durable state: journal recovery, store resume, restart attach.

The tentpole contract of ``pnut serve --state/--store``, exercised
in-process (the subprocess SIGKILL paths live in the chaos and restart
smokes): a successor server sharing the predecessor's state directory
re-arms its unfinished jobs, sweep/explore jobs resume from the cells
the shared result store already holds, and everything resumed is
*byte-identical* to a cold run.
"""

import os
import threading

import pytest

from repro.lang.format import format_net
from repro.processor import build_pipeline_net
from repro.service import ServerThread
from repro.sim.sweep import run_sweep

#: Short horizon: long enough that runs do real work, short enough that
#: a recovery test re-running a handful of them stays snappy.
HORIZON = 1_000.0
SEEDS = (1, 2, 3)

EXPLORE_TEMPLATE = """\
net gridco
place pool = ${tokens}
place free = 1
work [fire=${delay}]: pool + free -> free + done
drain [fire=1]: done -> 0
"""


def explore_params():
    from repro.dse import ParamSpace

    return (ParamSpace().values("tokens", [2, 4]).values("delay", [1, 2]))


@pytest.fixture(scope="module")
def pipeline_source():
    return format_net(build_pipeline_net())


@pytest.fixture(scope="module")
def cold_sweep():
    """The reference: a storeless in-process sweep of the full grid."""
    return run_sweep(build_pipeline_net(), list(SEEDS), until=HORIZON)


class TestInProcessStoreResume:
    def test_sweep_resumes_stored_seeds_byte_identically(self, tmp_path,
                                                         cold_sweep):
        from repro.dse.store import open_store

        with open_store(str(tmp_path / "cells.sqlite")) as store:
            first = run_sweep(build_pipeline_net(), list(SEEDS[:2]),
                              until=HORIZON, store=store)
            assert first.resumed == 0
            warm = run_sweep(build_pipeline_net(), list(SEEDS),
                             until=HORIZON, store=store)
        assert warm.resumed == 2
        # The resumed sweep is indistinguishable from the cold one.
        assert warm.runs_sha256() == cold_sweep.runs_sha256()
        assert warm.to_payload() == cold_sweep.to_payload()


class TestServerSideStoreSharing:
    """``pnut serve --store``: checkpoints outlive the server."""

    def test_sweep_resumes_across_servers(self, tmp_path, pipeline_source,
                                          cold_sweep):
        store_path = str(tmp_path / "fleet.sqlite")
        with ServerThread(workers=1, store_path=store_path) as first:
            with first.client() as client:
                outcome = client.sweep(pipeline_source, SEEDS[:2],
                                       until=HORIZON)
                assert outcome.resumed_cells == 0

        with ServerThread(workers=1, store_path=store_path) as second:
            with second.client() as client:
                warm = client.sweep(pipeline_source, SEEDS, until=HORIZON)
                stats = client.server_stats()
        assert warm.resumed_cells == 2
        assert not warm.recovered  # fresh submission, not a re-armed job
        assert warm.runs_sha256 == cold_sweep.runs_sha256()
        assert stats["queue"]["resumed_cells"] == 2

    def test_resumed_sweep_counts_no_engine_work(self, tmp_path,
                                                 pipeline_source):
        # A fully resumed sweep replays stored runs without simulating
        # them, so the engine counters must not move: only the
        # resumed-runs counter does.
        seeds = (1, 2, 3, 4)
        store_path = str(tmp_path / "fleet.sqlite")
        with ServerThread(workers=1, store_path=store_path) as server:
            with server.client() as client:
                client.sweep(pipeline_source, seeds, until=500.0)
                before = client.metrics()["metrics"]["counters"]
                warm = client.sweep(pipeline_source, seeds, until=500.0)
                after = client.metrics()["metrics"]["counters"]
        assert warm.resumed_cells == len(seeds)

        def delta(name):
            return after.get(name, 0) - before.get(name, 0)

        assert delta("sweep_runs_resumed_total") == len(seeds)
        assert delta("sweep_runs_total") == 0
        assert delta("engine_runs_total") == 0
        assert delta("engine_events_started_total") == 0
        assert delta("engine_events_finished_total") == 0

    def test_explore_resumes_across_servers(self, tmp_path):
        store_path = str(tmp_path / "fleet.sqlite")
        params = explore_params().to_payload()
        with ServerThread(workers=1, store_path=store_path) as first:
            with first.client() as client:
                cold = client.explore(EXPLORE_TEMPLATE, params, (1, 2),
                                      until=50.0)
        assert cold.resumed_cells == 0

        with ServerThread(workers=1, store_path=store_path) as second:
            with second.client() as client:
                warm = client.explore(EXPLORE_TEMPLATE, params, (1, 2),
                                      until=50.0)
        # Every cell came out of the store, and the payloads are the
        # same bytes the cold exploration produced.
        assert warm.resumed_cells == len(cold.cells)
        assert warm.cells == cold.cells
        assert warm.summary["cells_run"] == 0


class TestJournalRecovery:
    """``pnut serve --state``: unfinished jobs survive the process."""

    def test_queued_sweep_recovers_and_resumes_from_the_store(
            self, tmp_path, pipeline_source, cold_sweep):
        state = str(tmp_path / "state")
        store_path = str(tmp_path / "fleet.sqlite")
        first = ServerThread(workers=1, state_dir=state,
                             store_path=store_path)
        try:
            with first.client() as client:
                # Seed the store with two of the three cells.
                client.sweep(pipeline_source, SEEDS[:2], until=HORIZON)
                # Pin the single worker, then queue the keyed sweep
                # behind it: the stop below drops both mid-flight, so
                # their journal accepts have no matching ends.
                client.submit_nowait(pipeline_source, until=200_000,
                                     seed=999)
                client.sweep_nowait(pipeline_source, SEEDS, until=HORIZON,
                                    key="resume-me")
        finally:
            first.stop()

        second = ServerThread(workers=2, state_dir=state,
                              store_path=store_path)
        try:
            with second.client() as client:
                stats = client.server_stats()
                assert stats["queue"]["recovered"] == 2
                assert stats["journal"]["skipped_records"] == 0
                # The keyed duplicate attaches to the re-armed job.
                outcome = client.sweep(pipeline_source, SEEDS,
                                       until=HORIZON, key="resume-me")
        finally:
            second.stop()
        assert outcome.recovered
        assert outcome.resumed_cells == 2
        assert outcome.runs_sha256 == cold_sweep.runs_sha256()

    def test_recovered_jobs_keep_identity_and_retry_budget(
            self, tmp_path, pipeline_source):
        state = str(tmp_path / "state")
        first = ServerThread(workers=1, state_dir=state)
        try:
            with first.client() as client:
                client.submit_nowait(pipeline_source, until=200_000,
                                     seed=999)
                client.submit_nowait(pipeline_source, until=10.0, seed=5,
                                     key="keyed", priority=4,
                                     max_retries=3)
        finally:
            first.stop()

        second = ServerThread(workers=1, state_dir=state)
        try:
            with second.client() as client:
                recovered = [job for job in client.jobs()
                             if job.get("recovered")]
                assert len(recovered) == 2
                # Priority and the crash-retry budget survived the
                # restart on the keyed job.
                keyed = [job for job in recovered
                         if job.get("priority") == 4]
                assert len(keyed) == 1
                assert keyed[0]["max_retries"] == 3
                # Re-submitting the same key attaches instead of
                # re-running: dedupe identity was journalled too.
                result = client.submit(pipeline_source, until=10.0, seed=5,
                                       key="keyed", priority=4,
                                       max_retries=3)
                assert result.recovered
        finally:
            second.stop()


class TestReconnectAcrossRestart:
    def test_keyed_submit_attaches_through_a_restart(self, tmp_path,
                                                     pipeline_source):
        """A blocking ``submit(key=..., reconnect=N)`` rides out the
        server dying under it: the successor re-arms the journalled job
        and the reconnected client attaches to it by key."""
        state = str(tmp_path / "state")
        socket_path = str(tmp_path / "pnut.sock")
        first = ServerThread(socket_path=socket_path, workers=1,
                             state_dir=state)
        results: list = []
        errors: list[BaseException] = []
        client = first.client(timeout=60.0)

        def blocked_submit():
            try:
                results.append(client.submit(
                    pipeline_source, until=10.0, seed=7,
                    key="restart-me", priority=0, reconnect=8,
                ))
            except BaseException as error:  # noqa: BLE001 - asserted below
                errors.append(error)

        # Pin the worker so the keyed job is still queued when the
        # server goes down, then kill the server under the live client.
        client.submit_nowait(pipeline_source, until=300_000, seed=999)
        thread = threading.Thread(target=blocked_submit)
        thread.start()
        try:
            import time
            time.sleep(0.5)  # let the keyed submit reach the journal
            first.stop()
            # The predecessor never unlinks its socket; clear the stale
            # path so the successor can bind exactly where it lived.
            if os.path.exists(socket_path):
                os.remove(socket_path)
            second = ServerThread(socket_path=socket_path, workers=2,
                                  state_dir=state)
            try:
                thread.join(timeout=60)
                assert not thread.is_alive()
            finally:
                second.stop()
        finally:
            client.close()
        assert not errors, errors[0]
        assert len(results) == 1
        assert results[0].recovered
        assert results[0].summary["events_started"] > 0
