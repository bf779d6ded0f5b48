"""The supervision layer: crashes, retries, deadlines, drain, faults.

Companion to ``test_service.py``. The contract under test here is not
"the service answers" but "the service answers *the same bytes* after
its worker was SIGKILLed mid-job" — plus the bounded-retry, deadline,
drain and idempotent-resubmission semantics around it.
"""

import asyncio
import io
import logging
import multiprocessing
import os
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.analysis.report import canonical_json
from repro.lang.format import format_net
from repro.obs.spans import cell_spans, read_spans, spans_by_trace
from repro.processor import build_pipeline_net
from repro.service import (
    ClientDisconnected,
    ExploreSpec,
    JobQueue,
    JobSpec,
    ProtocolError,
    RemoteError,
    ServerThread,
    SweepSpec,
    dedupe_identity,
    parse_faults,
)
from repro.service.faults import (
    FAULTS_ENV,
    STATE_DIR_ENV,
    Fault,
    FaultConfigError,
    claim,
)
from repro.service.protocol import decode, encode
from repro.service.queue import JobState
from repro.service.server import SimulationService
from repro.sim import fork_available, simulate
from repro.trace.serialize import write_trace

SMALL_NET = """\
net smallco
place a = 3
place free = 1
work [fire=2]: a + free -> free + done
drain [fire=1]: done -> 0
"""


def small_spec(**overrides):
    fields = dict(net_source=SMALL_NET, until=50.0, seed=7)
    fields.update(overrides)
    return JobSpec(**fields)


@pytest.fixture(scope="module")
def pipeline_source():
    return format_net(build_pipeline_net())


def _await_state(client, job_id, state, deadline=15.0):
    limit = time.monotonic() + deadline
    while client.status(job_id)["state"] != state:
        assert time.monotonic() < limit, (
            f"job {job_id} never reached {state}"
        )
        time.sleep(0.02)


def _raw_frames(socket_path, request, deadline=60.0):
    """Every frame the server answers ``request`` with, up to the
    terminal one, read off a bare socket (retry frames included)."""
    frames = []
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(deadline)
        sock.connect(socket_path)
        reader = sock.makefile("rb")
        sock.sendall(encode(request))
        while not frames or frames[-1]["type"] not in ("result", "error"):
            frames.append(decode(reader.readline()))
    return frames


def _await_no_forked_children(deadline=10.0):
    """Every forked worker child must be reaped (no zombies)."""
    limit = time.monotonic() + deadline
    while multiprocessing.active_children():
        assert time.monotonic() < limit, (
            f"forked children never reaped: "
            f"{multiprocessing.active_children()}"
        )
        time.sleep(0.05)


def _proc_children():
    """PIDs listed as children of any thread of this process (/proc;
    empty where the platform has none)."""
    children = set()
    tasks = Path(f"/proc/{os.getpid()}/task")
    for task in tasks.iterdir() if tasks.is_dir() else ():
        try:
            children.update(int(pid)
                            for pid in (task / "children").read_text().split())
        except OSError:
            pass  # the thread exited while we listed
    return children


def _await_no_new_proc_children(before, deadline=10.0):
    """No child forked since ``before`` may survive, zombies included:
    /proc lists a child until its parent reaps it."""
    limit = time.monotonic() + deadline
    while _proc_children() - before:
        assert time.monotonic() < limit, (
            f"children never reaped: {sorted(_proc_children() - before)}"
        )
        time.sleep(0.05)


# ---------------------------------------------------------------------------
# Fault configuration: parsing, planning, :once latches
# ---------------------------------------------------------------------------


class TestFaultConfig:
    def test_parse_entries(self):
        faults = parse_faults("kill-child=2000:once, stall-worker=1.5")
        assert faults["kill-child"] == Fault("kill-child", "2000", True)
        assert faults["stall-worker"] == Fault("stall-worker", "1.5", False)

    def test_parse_bare_point(self):
        faults = parse_faults("drop-connection")
        assert faults["drop-connection"] == Fault("drop-connection",
                                                  None, False)

    def test_parse_rejects_unknown_point(self):
        with pytest.raises(FaultConfigError, match="unknown fault point"):
            parse_faults("kill-parent=1")

    def test_claim_is_inert_without_env(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert claim("kill-child") is None

    def test_once_requires_latch_dir(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "kill-child:once")
        monkeypatch.delenv(STATE_DIR_ENV, raising=False)
        with pytest.raises(FaultConfigError, match=STATE_DIR_ENV):
            claim("kill-child")

    def test_once_latch_single_winner(self, monkeypatch, tmp_path):
        monkeypatch.setenv(FAULTS_ENV, "kill-child=5:once")
        monkeypatch.setenv(STATE_DIR_ENV, str(tmp_path))
        assert claim("kill-child") == Fault("kill-child", "5", True)
        assert claim("kill-child") is None  # latch already claimed
        assert (tmp_path / "pnut-fault-kill-child.fired").exists()

    def test_non_once_fires_every_time(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "stall-worker=9")
        assert claim("stall-worker") is not None
        assert claim("stall-worker") is not None


# ---------------------------------------------------------------------------
# Supervision fields on the wire specs
# ---------------------------------------------------------------------------


class TestSupervisionSpecs:
    @pytest.mark.parametrize("field,bad", [
        ("timeout", 0), ("timeout", -2.0), ("timeout", "soon"),
        ("max_retries", -1), ("max_retries", 1.5), ("max_retries", True),
        ("key", ""), ("key", 42), ("key", "k" * 201),
    ])
    def test_rejects_bad_values(self, field, bad):
        with pytest.raises(ProtocolError):
            small_spec(**{field: bad})

    def test_round_trip_preserves_supervision_fields(self):
        for spec in (
            small_spec(timeout=2.5, max_retries=3, key="cell-a"),
            SweepSpec(net_source=SMALL_NET, seeds=(1, 2), until=10.0,
                      timeout=9, max_retries=0, key="sw"),
        ):
            clone = type(spec).from_payload(spec.to_payload())
            assert clone.timeout == float(spec.timeout)
            assert clone.max_retries == spec.max_retries
            assert clone.key == spec.key

    def test_defaults_stay_off_the_wire(self):
        payload = small_spec().to_payload()
        assert "timeout" not in payload
        assert "max_retries" not in payload
        assert "key" not in payload

    def test_dedupe_identity_requires_a_key(self):
        assert dedupe_identity(small_spec()) is None
        a = dedupe_identity(small_spec(key="k1"))
        b = dedupe_identity(small_spec(key="k1"))
        c = dedupe_identity(small_spec(key="k2"))
        d = dedupe_identity(small_spec(key="k1", seed=8))
        assert a == b
        assert len({a, c, d}) == 3


# ---------------------------------------------------------------------------
# Queue mechanics: defer/requeue, cancel-wins, robustness counters
# ---------------------------------------------------------------------------


class TestQueueSupervision:
    def run(self, coro):
        asyncio.run(coro)

    def test_defer_and_requeue_cycle(self):
        async def scenario():
            queue = JobQueue()
            job = queue.submit(small_spec(), max_retries=2)
            assert job.max_retries == 2
            assert await queue.get() is job
            queue.defer(job)
            assert job.state is JobState.QUEUED
            assert queue.active == 1  # deferred jobs still count as work
            assert queue.requeue(job) is True
            assert await queue.get() is job
            assert queue.requeue(job) is False  # RUNNING again: no-op
            queue.finish(job, {"summary": {}}, None)
            assert queue.to_payload()["retried"] == 1

        self.run(scenario())

    def test_cancel_during_backoff_wins(self):
        async def scenario():
            queue = JobQueue()
            job = queue.submit(small_spec(), max_retries=1)
            await queue.get()
            queue.defer(job)
            assert queue.cancel(job.id) is True
            assert job.state is JobState.CANCELLED
            assert queue.requeue(job) is False
            assert queue.active == 0

        self.run(scenario())

    def test_finish_codes_feed_counters(self):
        async def scenario():
            queue = JobQueue()
            first = queue.submit(small_spec())
            await queue.get()
            queue.finish(first, None, "too slow", code="job-timeout")
            second = queue.submit(small_spec(seed=8))
            await queue.get()
            queue.finish(second, None, "boom", code="worker-crashed")
            payload = queue.to_payload()
            assert payload["timed_out"] == 1
            assert payload["crashed"] == 1
            assert first.to_payload()["code"] == "job-timeout"
            assert second.to_payload()["code"] == "worker-crashed"

        self.run(scenario())

    def test_find_duplicate_tracks_identity(self):
        async def scenario():
            queue = JobQueue()
            spec = small_spec(key="cell")
            identity = dedupe_identity(spec)
            job = queue.submit(spec, identity=identity)
            assert queue.find_duplicate(identity) is job
            assert queue.find_duplicate(None) is None
            await queue.get()
            queue.finish(job, {"summary": {}}, None)
            # Finished jobs stay addressable for terminal-frame replay.
            assert queue.find_duplicate(identity) is job

        self.run(scenario())


# ---------------------------------------------------------------------------
# Crash recovery end to end (forked workers + kill-child fault)
# ---------------------------------------------------------------------------


@pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
class TestCrashRecovery:
    def test_killed_worker_retries_to_identical_bytes(self, monkeypatch,
                                                      tmp_path,
                                                      pipeline_source):
        monkeypatch.setenv(FAULTS_ENV, "kill-child=500:once")
        monkeypatch.setenv(STATE_DIR_ENV, str(tmp_path))
        retries = []
        thread = ServerThread(workers=1)
        try:
            with thread.client() as client:
                result = client.submit(
                    pipeline_source, until=2_000, seed=1988,
                    outputs=("trace",), collect_trace=True,
                    on_retry=retries.append,
                )
                stats = client.server_stats()["queue"]
        finally:
            thread.stop()
        assert len(retries) == 1
        assert retries[0]["attempt"] == 1
        assert "SIGKILL" in retries[0]["error"]
        local = simulate(build_pipeline_net(), until=2_000, seed=1988)
        buffer = io.StringIO()
        write_trace(buffer, local.header, local.events)
        assert "\n".join(result.trace_lines) + "\n" == buffer.getvalue()
        assert stats["retried"] == 1
        assert stats["crashed"] == 0

    def test_killed_worker_retry_is_one_span(self, monkeypatch, tmp_path,
                                             pipeline_source):
        # Span discipline under fault injection: a crash-and-retry is
        # ONE span (the retry is an annotation inside it), ending with
        # attempts=2 — never a second span-start for the second attempt.
        monkeypatch.setenv(FAULTS_ENV, "kill-child=500:once")
        monkeypatch.setenv(STATE_DIR_ENV, str(tmp_path))
        obs_dir = tmp_path / "obs"
        thread = ServerThread(workers=1, obs_log=str(obs_dir))
        try:
            with thread.client() as client:
                result = client.submit(pipeline_source, until=2_000,
                                       seed=1988)
        finally:
            thread.stop()
        assert result.trace_id
        timelines = spans_by_trace(read_spans(obs_dir))
        timeline = timelines[result.trace_id]
        events = [record["event"] for record in timeline]
        assert events.count("span-start") == 1
        assert events.count("span-end") == 1
        retry_notes = [record for record in timeline
                       if record["event"] == "annotation"
                       and record["kind"] == "retry"]
        assert len(retry_notes) == 1
        assert retry_notes[0]["attempt"] == 1
        assert "SIGKILL" in retry_notes[0]["error"]
        end = timeline[-1]
        assert end["event"] == "span-end"
        assert end["verdict"] == "done"
        assert end["attempts"] == 2
        assert end["queued_s"] >= 0
        assert end["run_s"] > 0

    def test_killed_sweep_cell_spans_dedupe_across_retry(
            self, monkeypatch, tmp_path, pipeline_source):
        # The hierarchical layer under the same fault: the crash lands
        # mid-sweep, after at least one seed already streamed its
        # cell-span, so the retry re-emits those seeds under the SAME
        # deterministic span ids. The reader must collapse them to one
        # span per seed (highest attempt wins) while the parent stays a
        # single span-start/span-end pair.
        monkeypatch.setenv(FAULTS_ENV, "kill-child=500:once")
        monkeypatch.setenv(STATE_DIR_ENV, str(tmp_path))
        seeds = [1, 2, 3, 4]
        obs_dir = tmp_path / "obs"
        thread = ServerThread(workers=1, obs_log=str(obs_dir))
        try:
            with thread.client() as client:
                outcome = client.sweep(pipeline_source, seeds, until=300)
        finally:
            thread.stop()
        assert outcome.trace_id
        records = read_spans(obs_dir)

        parent = spans_by_trace(records)[outcome.trace_id]
        events = [record["event"] for record in parent]
        assert events.count("span-start") == 1
        assert events.count("span-end") == 1
        assert parent[-1]["attempts"] == 2

        raw = [record for record in records
               if record.get("event") == "cell-span"
               and record.get("trace_id") == outcome.trace_id]
        assert len(raw) > len(seeds)  # attempt-1 duplicates were logged

        cells = cell_spans(records)[outcome.trace_id]
        assert sorted(cell["seed"] for cell in cells) == seeds
        assert len({cell["span_id"] for cell in cells}) == len(seeds)
        for cell in cells:
            assert cell["attempt"] == 2  # retry's emission won the dedupe
            assert cell["kind"] == "sweep-run"
            assert cell["backend"] in ("lockstep", "scalar")
            assert cell["backend_reason"]
            assert not cell["skipped"]
            assert cell["elapsed_s"] > 0

    def test_killed_explore_retries_to_identical_cells(self, monkeypatch,
                                                       tmp_path):
        # Explore jobs run the same grid executor as sweeps, so the
        # kill-child fault reaches them too: the SIGKILL lands mid-grid
        # (after 20 engine events, inside the fifth of eight cells), the
        # retry restreams every cell, and the result equals a clean run.
        from repro.dse import ParamSpace
        from repro.dse.smoke import TEMPLATE

        params = (ParamSpace().values("tokens", [2, 4])
                  .values("delay", [1, 2]).to_payload())
        spec = ExploreSpec(net_source=TEMPLATE, params=params,
                           seeds=(1, 2), until=80)
        with ServerThread(workers=1) as clean_server:
            with clean_server.client() as client:
                clean = client.explore(TEMPLATE, params, (1, 2), until=80)

        monkeypatch.setenv(FAULTS_ENV, "kill-child=20:once")
        monkeypatch.setenv(STATE_DIR_ENV, str(tmp_path))
        obs_dir = tmp_path / "obs"
        thread = ServerThread(workers=1, obs_log=str(obs_dir))
        try:
            frames = _raw_frames(thread.socket_path,
                                 {"op": "explore", "id": 1,
                                  **spec.to_payload()})
        finally:
            thread.stop()
        kinds = [frame["type"] for frame in frames]
        assert kinds.count("retry") == 1
        retry = kinds.index("retry")
        assert 0 < kinds[:retry].count("explore-cell") < 8
        cells = {frame["index"]: frame["cell"] for frame in frames[retry:]
                 if frame["type"] == "explore-cell"}
        assert cells == clean.cells
        result = frames[-1]
        assert result["type"] == "result"
        assert result["summary"]["run_cells_sha256"] == \
            clean.summary["run_cells_sha256"]

        timeline = spans_by_trace(read_spans(obs_dir))[result["trace"]]
        events = [record["event"] for record in timeline]
        assert events.count("span-start") == 1
        assert events.count("span-end") == 1
        assert timeline[-1]["attempts"] == 2

    def test_repeated_crashes_quarantine_the_job(self, monkeypatch,
                                                 pipeline_source):
        # No :once — the child dies on every attempt.
        monkeypatch.setenv(FAULTS_ENV, "kill-child=200")
        monkeypatch.setattr(SimulationService, "RETRY_BACKOFF_BASE", 0.01)
        thread = ServerThread(workers=1, max_retries=1)
        try:
            with thread.client() as client:
                with pytest.raises(RemoteError) as excinfo:
                    client.submit(pipeline_source, until=2_000, seed=3)
                stats = client.server_stats()["queue"]
        finally:
            thread.stop()
        assert excinfo.value.code == "worker-crashed"
        assert "gave up after 2 attempts" in str(excinfo.value)
        assert stats["retried"] == 1
        assert stats["crashed"] == 1
        _await_no_forked_children()

    def test_cancel_during_retry_backoff_wins(self, monkeypatch, tmp_path,
                                              pipeline_source):
        monkeypatch.setenv(FAULTS_ENV, "kill-child=200:once")
        monkeypatch.setenv(STATE_DIR_ENV, str(tmp_path))
        monkeypatch.setattr(SimulationService, "RETRY_BACKOFF_BASE", 1.0)
        thread = ServerThread(workers=1)
        try:
            with thread.client() as controller:
                job_id = controller.submit_nowait(pipeline_source,
                                                  until=2_000, seed=3)
                limit = time.monotonic() + 15.0
                while True:  # wait for crash -> deferred-for-retry
                    status = controller.status(job_id)
                    if (status["state"] == "queued"
                            and status.get("attempts") == 1):
                        break
                    assert time.monotonic() < limit
                    time.sleep(0.02)
                assert controller.cancel(job_id)
                # Outlive the ~1s backoff: the requeue must no-op.
                time.sleep(1.8)
                status = controller.status(job_id)
                assert status["state"] == "cancelled"
                stats = controller.server_stats()["queue"]
                assert stats["running"] == 0
                assert stats["pending"] == 0
        finally:
            thread.stop()
        _await_no_forked_children()


# ---------------------------------------------------------------------------
# Deadlines (forked workers + stall-worker fault)
# ---------------------------------------------------------------------------


@pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
class TestDeadlines:
    def test_stalled_job_times_out_and_child_is_reaped(self, monkeypatch,
                                                       pipeline_source):
        monkeypatch.setenv(FAULTS_ENV, "stall-worker=30")
        thread = ServerThread(workers=1)
        try:
            with thread.client() as client:
                with pytest.raises(RemoteError) as excinfo:
                    client.submit(pipeline_source, until=2_000, seed=1,
                                  timeout=0.5)
                stats = client.server_stats()["queue"]
        finally:
            thread.stop()
        assert excinfo.value.code == "job-timeout"
        assert "0.5s deadline" in str(excinfo.value)
        assert stats["timed_out"] == 1
        _await_no_forked_children()

    def test_fast_job_beats_its_deadline(self, pipeline_source):
        thread = ServerThread(workers=1)
        try:
            with thread.client() as client:
                result = client.submit(pipeline_source, until=200, seed=1,
                                       timeout=60.0)
                assert result.summary["events_started"] > 0
        finally:
            thread.stop()


# ---------------------------------------------------------------------------
# Chunked grid jobs: one job, several children, one supervision verdict
# ---------------------------------------------------------------------------


def _forks(client):
    return client.metrics()["metrics"]["counters"].get("forks_total", 0)


def _result_bytes(frames):
    """The result frame without the per-job identity fields."""
    result = dict(frames[-1])
    for field in ("id", "job", "trace"):
        result.pop(field, None)
    return canonical_json(result)


@pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
class TestChunkedJobs:
    SEEDS = tuple(range(1, 9))

    def sweep_request(self, source):
        spec = SweepSpec(net_source=source, seeds=self.SEEDS, until=300.0)
        return {"op": "sweep", "id": 1, **spec.to_payload()}

    def test_killed_chunk_retries_the_job_to_identical_bytes(
            self, monkeypatch, tmp_path, pipeline_source):
        with ServerThread(workers=2) as clean_server:
            clean = _raw_frames(clean_server.socket_path,
                                self.sweep_request(pipeline_source))
        before = _proc_children()
        # ~290 events per cell: the SIGKILL lands after the second cell
        # of whichever chunk gets there first.
        monkeypatch.setenv(FAULTS_ENV, "kill-child=500:once")
        monkeypatch.setenv(STATE_DIR_ENV, str(tmp_path))
        thread = ServerThread(workers=2)
        try:
            frames = _raw_frames(thread.socket_path,
                                 self.sweep_request(pipeline_source))
            with thread.client() as client:
                forks = _forks(client)
        finally:
            thread.stop()
        kinds = [frame["type"] for frame in frames]
        assert kinds.count("retry") == 1
        retry = kinds.index("retry")
        assert 0 < kinds[:retry].count("sweep-run") < len(self.SEEDS)
        assert forks == 4  # two chunks per attempt
        runs = {frame["index"]: frame["run"] for frame in frames[retry:]
                if frame["type"] == "sweep-run"}
        assert runs == {frame["index"]: frame["run"] for frame in clean
                        if frame["type"] == "sweep-run"}
        assert frames[-1]["type"] == "result"
        assert _result_bytes(frames) == _result_bytes(clean)
        _await_no_new_proc_children(before)

    def test_timed_out_chunked_sweep_fails_and_reaps(self, monkeypatch,
                                                      pipeline_source):
        before = _proc_children()
        monkeypatch.setenv(FAULTS_ENV, "stall-worker=30")
        thread = ServerThread(workers=2)
        try:
            with thread.client() as client:
                started = time.monotonic()
                with pytest.raises(RemoteError) as excinfo:
                    client.sweep(pipeline_source, self.SEEDS, until=300,
                                 timeout=0.5)
                # Both stalled chunks were killed at the deadline, not
                # waited out.
                assert time.monotonic() - started < 10.0
                forks = _forks(client)
                stats = client.server_stats()["queue"]
        finally:
            thread.stop()
        assert excinfo.value.code == "job-timeout"
        assert forks == 2
        assert stats["timed_out"] == 1
        _await_no_new_proc_children(before)

    def test_cancelled_chunked_sweep_reaps_every_child(self,
                                                       pipeline_source):
        before = _proc_children()
        thread = ServerThread(workers=2)
        try:
            with thread.client() as client:
                job_id = client.sweep_nowait(pipeline_source,
                                             seeds=list(self.SEEDS),
                                             until=50_000_000)
                _await_state(client, job_id, "running")
                limit = time.monotonic() + 15.0
                while _forks(client) < 2:
                    assert time.monotonic() < limit
                    time.sleep(0.02)
                assert client.cancel(job_id)
                _await_state(client, job_id, "cancelled")
                assert _forks(client) == 2
        finally:
            thread.stop()
        _await_no_new_proc_children(before)


# ---------------------------------------------------------------------------
# Graceful drain
# ---------------------------------------------------------------------------


@pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
class TestDrain:
    def test_drain_finishes_queued_jobs_then_exits(self, pipeline_source):
        thread = ServerThread(workers=1)
        try:
            with thread.client() as client:
                job_ids = [
                    client.submit_nowait(pipeline_source, until=2_000,
                                         seed=seed)
                    for seed in (1, 2, 3)
                ]
                bye = client.shutdown(drain=True, grace=60.0)
            assert bye["type"] == "bye"
            assert bye["drained"] is True
            assert bye["cancelled"] == 0
            assert len(job_ids) == 3
        finally:
            thread.stop()

    def test_cancel_during_drain_unblocks_it(self, pipeline_source):
        thread = ServerThread(workers=1)
        try:
            with thread.client() as submitter, \
                    thread.client() as controller:
                blocker = submitter.submit_nowait(
                    pipeline_source, until=50_000_000.0, seed=1,
                )
                _await_state(controller, blocker, "running")
                bye_holder = {}

                def _drain():
                    with thread.client() as drainer:
                        bye_holder.update(
                            drainer.shutdown(drain=True, grace=60.0)
                        )

                drain_thread = threading.Thread(target=_drain)
                drain_thread.start()
                limit = time.monotonic() + 10.0
                while not controller.server_stats()["draining"]:
                    assert time.monotonic() < limit
                    time.sleep(0.02)
                # A draining server refuses new work with a stable code…
                with pytest.raises(RemoteError) as excinfo:
                    controller.submit(SMALL_NET, until=10, seed=1)
                assert excinfo.value.code == "draining"
                # …while cancellation still works, and completes the
                # drain without the grace deadline force-cancelling.
                assert controller.cancel(blocker)
                drain_thread.join(timeout=30.0)
                assert not drain_thread.is_alive()
                assert bye_holder.get("drained") is True
                assert bye_holder.get("cancelled") == 0
        finally:
            thread.stop()
        _await_no_forked_children()


# ---------------------------------------------------------------------------
# Idempotent resubmission + client resilience
# ---------------------------------------------------------------------------


class TestDedupeAndReconnect:
    def test_keyed_resubmission_replays_finished_job(self):
        thread = ServerThread(workers=1)
        try:
            with thread.client() as client:
                first = client.submit(SMALL_NET, until=50, seed=7,
                                      key="cell-1")
                second = client.submit(SMALL_NET, until=50, seed=7,
                                       key="cell-1")
                stats = client.server_stats()["queue"]
            assert first.stats_json() == second.stats_json()
            assert stats["deduped"] == 1
            assert stats["completed"] == 1
        finally:
            thread.stop()

    def test_duplicate_attaches_to_live_job(self, pipeline_source):
        thread = ServerThread(workers=1)
        try:
            with thread.client() as submitter, \
                    thread.client() as attacher, \
                    thread.client() as controller:
                blocker = submitter.submit_nowait(
                    pipeline_source, until=50_000_000.0, seed=1,
                )
                _await_state(controller, blocker, "running")
                queued = submitter.submit_nowait(SMALL_NET, until=50,
                                                 seed=7, key="dup")
                spec = small_spec(key="dup")
                request_id = attacher._request("submit",
                                               **spec.to_payload())
                accepted = attacher._wait(request_id)
                assert accepted["type"] == "accepted"
                assert accepted["job"] == queued
                assert accepted.get("deduped") is True
                assert controller.cancel(blocker)
                while True:  # the attached stream delivers the verdict
                    frame = attacher._wait(request_id)
                    if frame.get("type") == "result":
                        break
                assert frame["summary"]["trace_events"] > 0
        finally:
            thread.stop()

    @pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
    def test_reconnect_resubmits_after_dropped_connection(
            self, monkeypatch, tmp_path, pipeline_source):
        monkeypatch.setenv(FAULTS_ENV, "drop-connection=2:once")
        monkeypatch.setenv(STATE_DIR_ENV, str(tmp_path))
        thread = ServerThread(workers=1)
        try:
            with thread.client() as client:
                result = client.submit(
                    pipeline_source, until=2_000, seed=1988,
                    outputs=("trace", "stats"), key="rc-1", reconnect=3,
                )
        finally:
            thread.stop()
        local = simulate(build_pipeline_net(), until=2_000, seed=1988)
        assert result.summary["trace_events"] == len(local.events)
        assert (tmp_path / "pnut-fault-drop-connection.fired").exists()

    def test_unkeyed_disconnect_reports_last_seen_state(
            self, monkeypatch, tmp_path, pipeline_source):
        monkeypatch.setenv(FAULTS_ENV, "drop-connection=2:once")
        monkeypatch.setenv(STATE_DIR_ENV, str(tmp_path))
        thread = ServerThread(workers=1)
        try:
            with thread.client() as client:
                with pytest.raises(ClientDisconnected) as excinfo:
                    client.submit(pipeline_source, until=2_000, seed=1,
                                  outputs=("trace",))
        finally:
            thread.stop()
        assert "last seen" in str(excinfo.value)
        assert excinfo.value.last_state is not None

    def test_dead_server_turns_into_prompt_error(self):
        thread = ServerThread(workers=1)
        client = thread.client()
        try:
            assert client.ping()["type"] == "pong"
            thread.stop()
            with pytest.raises(ClientDisconnected):
                client.ping()
        finally:
            client.close()
            thread.stop()


# ---------------------------------------------------------------------------
# Worker exceptions become stable internal-error verdicts
# ---------------------------------------------------------------------------


class TestInternalError:
    def test_unexpected_exception_yields_internal_error(self, monkeypatch,
                                                        caplog):
        async def explode(self, job):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(SimulationService, "_execute", explode)
        thread = ServerThread(workers=1)
        try:
            with caplog.at_level(logging.ERROR, logger="repro.service"):
                with thread.client() as client:
                    with pytest.raises(RemoteError) as excinfo:
                        client.submit(SMALL_NET, until=10, seed=1)
                    stats = client.server_stats()["queue"]
        finally:
            thread.stop()
        assert excinfo.value.code == "internal-error"
        assert "internal server error" in str(excinfo.value)
        assert stats["failed"] == 1
        # The traceback lands server-side, not in the client's error.
        assert "wires crossed" not in str(excinfo.value)
        records = [r for r in caplog.records if r.exc_info]
        assert records and "wires crossed" in str(records[0].exc_info[1])
