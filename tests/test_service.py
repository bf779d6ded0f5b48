"""The simulation service: protocol, cache, queue, server, client.

The heavyweight guarantee under test is *byte identity*: a job run behind
``pnut serve`` must produce exactly the trace bytes and statistics JSON
of the in-process `simulate()` / CLI path, while the compiled-net cache
and forked worker pool only change *how fast* that answer arrives.
"""

import asyncio
import io
import sys
import threading
import time

import pytest

from repro.analysis.report import canonical_json, statistics_payload
from repro.analysis.stat import compute_statistics
from repro.cli import main as cli_main
from repro.lang.format import format_net
from repro.lang.parser import canonical_net_source, parse_net
from repro.processor import build_pipeline_net
from repro.service import (
    CompiledNetCache,
    ExploreSpec,
    JobQueue,
    JobSpec,
    ProtocolError,
    QueueFullError,
    RemoteError,
    ServerThread,
    SweepSpec,
    decode,
    encode,
)
from repro.service.queue import Job, JobState
from repro.sim import ForkedTask, Simulator, fork_available, map_forked, simulate
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


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_encode_decode_round_trip(self):
        frame = {"op": "submit", "id": 3, "net": "place a = 1\n", "until": 5}
        assert decode(encode(frame)) == frame

    def test_decode_rejects_bad_json(self):
        with pytest.raises(ProtocolError):
            decode(b"{nope\n")

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            decode(b"[1, 2]\n")

    def test_spec_requires_a_stop_condition(self):
        with pytest.raises(ProtocolError):
            JobSpec(net_source=SMALL_NET)

    def test_spec_rejects_unknown_outputs(self):
        with pytest.raises(ProtocolError):
            JobSpec(net_source=SMALL_NET, until=1, outputs=("waveform",))

    def test_payload_round_trip(self):
        spec = JobSpec(net_source=SMALL_NET, until=100.0, seed=3,
                       run_number=2, outputs=("stats", "trace"), priority=5)
        assert JobSpec.from_payload(spec.to_payload()) == spec

    @pytest.mark.parametrize("payload", [
        {},
        {"net": 7, "until": 1},
        {"net": "place a = 1", "until": "soon"},
        {"net": "place a = 1", "until": 1, "seed": 1.5},
        {"net": "place a = 1", "until": 1, "outputs": "stats"},
        {"net": "place a = 1", "until": 1, "priority": "high"},
    ])
    def test_from_payload_validation(self, payload):
        with pytest.raises(ProtocolError):
            JobSpec.from_payload(payload)


# ---------------------------------------------------------------------------
# Canonicalization + compiled-net cache
# ---------------------------------------------------------------------------


class TestCanonicalSource:
    def test_formatting_variants_share_a_canonical_form(self):
        noisy = "# a comment\n" + SMALL_NET.replace(
            "work [fire=2]: a + free -> free + done",
            "work   [fire=2]:  a+free ->   free + done  # inline",
        )
        assert canonical_net_source(noisy) == canonical_net_source(SMALL_NET)

    def test_canonical_form_is_a_fixed_point(self):
        canonical = canonical_net_source(SMALL_NET)
        assert canonical_net_source(canonical) == canonical


class TestCompiledNetCache:
    def test_miss_then_raw_hit(self):
        cache = CompiledNetCache()
        entry, outcome = cache.lookup(SMALL_NET)
        assert outcome == "miss"
        again, outcome = cache.lookup(SMALL_NET)
        assert outcome == "hit"
        assert again is entry
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_reformatted_source_is_a_canonical_hit(self):
        cache = CompiledNetCache()
        entry, _ = cache.lookup(SMALL_NET)
        variant = "# reformatted\n" + SMALL_NET
        aliased, outcome = cache.lookup(variant)
        assert outcome == "canonical_hit"
        assert aliased is entry
        # The alias is now warm: same bytes -> raw hit.
        assert cache.lookup(variant)[1] == "hit"

    def test_options_are_part_of_the_key(self):
        cache = CompiledNetCache()
        a, _ = cache.lookup(SMALL_NET, immediate_budget=10_000)
        b, outcome = cache.lookup(SMALL_NET, immediate_budget=99)
        assert outcome == "miss"
        assert a is not b

    def test_alias_growth_is_bounded(self):
        cache = CompiledNetCache()
        cache.lookup(SMALL_NET)
        for i in range(3 * CompiledNetCache.MAX_ALIASES_PER_ENTRY):
            cache.lookup(f"# variant {i}\n" + SMALL_NET)
        assert len(cache) == 1
        assert len(cache._raw_alias) <= CompiledNetCache.MAX_ALIASES_PER_ENTRY
        # Evicted aliases recompile as canonical hits, never as misses.
        assert cache.stats.misses == 1

    def test_lru_eviction_drops_aliases(self):
        cache = CompiledNetCache(capacity=1)
        cache.lookup(SMALL_NET)
        other = SMALL_NET.replace("smallco", "other")
        cache.lookup(other)
        assert cache.stats.evictions == 1
        assert len(cache) == 1
        # The evicted net recompiles rather than resolving a stale alias.
        assert cache.lookup(SMALL_NET)[1] == "miss"

    def test_forked_runs_are_bit_identical_to_fresh_construction(self):
        cache = CompiledNetCache()
        entry, _ = cache.lookup(SMALL_NET)
        fresh = Simulator(parse_net(SMALL_NET), seed=11).run(until=200)
        for _ in range(2):  # the template is reusable run after run
            forked = entry.simulator(seed=11).run(until=200)
            assert [repr(e) for e in forked.events] == [
                repr(e) for e in fresh.events
            ]

    def test_template_stays_pristine(self):
        cache = CompiledNetCache()
        entry, _ = cache.lookup(SMALL_NET)
        entry.simulator(seed=1).run(until=10)
        assert not entry.template._started


class TestSimulatorFork:
    def test_fork_after_run_is_rejected(self):
        sim = Simulator(parse_net(SMALL_NET), seed=1)
        sim.run(until=10)
        from repro.core.errors import SimulationError

        with pytest.raises(SimulationError):
            sim.fork(seed=2)

    def test_fork_matches_figure5_reference(self):
        net = build_pipeline_net()
        direct = simulate(net, until=2_000, seed=1988)
        forked = Simulator(net).fork(seed=1988).run(until=2_000)
        assert [repr(e) for e in direct.events] == [
            repr(e) for e in forked.events
        ]


# ---------------------------------------------------------------------------
# Forked-task machinery (extracted from Experiment)
# ---------------------------------------------------------------------------


def _child_streams(n, emit):
    for i in range(n):
        emit({"i": i})
    return n * 10


def _child_fails(emit):
    raise ValueError("deliberate failure")


def _child_hangs(emit):
    emit("alive")
    time.sleep(600)


@pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
class TestForkedTask:
    def test_streams_then_result(self):
        task = ForkedTask(_child_streams, (3,))
        messages = []
        while True:
            kind, payload = task.next_message()
            if kind != "msg":
                break
            messages.append(payload)
        assert messages == [{"i": 0}, {"i": 1}, {"i": 2}]
        assert (kind, payload) == ("ok", 30)
        task.join()

    def test_map_forked_orders_and_raises(self):
        assert map_forked(_child_streams, [(2,), (5,)]) == [20, 50]
        with pytest.raises(RuntimeError, match="deliberate failure"):
            map_forked(_child_fails, [()])

    def test_terminate_surfaces_as_crash(self):
        task = ForkedTask(_child_hangs, (), label="hanging job")
        assert task.next_message() == ("msg", "alive")
        task.terminate()
        kind, payload = task.next_message()
        assert kind == "crashed"
        assert "hanging job" in payload["error"]
        assert payload["signal"] in ("SIGTERM", "SIGKILL")
        assert payload["exitcode"] is not None and payload["exitcode"] < 0
        task.join()


# ---------------------------------------------------------------------------
# Job queue
# ---------------------------------------------------------------------------


class TestJobQueue:
    def run(self, coroutine):
        return asyncio.run(coroutine)

    def test_priority_then_fifo(self):
        async def scenario():
            queue = JobQueue()
            low = queue.submit(small_spec(priority=0))
            high = queue.submit(small_spec(priority=5))
            mid_a = queue.submit(small_spec(priority=1))
            mid_b = queue.submit(small_spec(priority=1))
            order = [await queue.get() for _ in range(4)]
            assert [job.id for job in order] == [
                high.id, mid_a.id, mid_b.id, low.id,
            ]

        self.run(scenario())

    def test_backpressure(self):
        async def scenario():
            queue = JobQueue(max_pending=2)
            queue.submit(small_spec())
            queue.submit(small_spec())
            with pytest.raises(QueueFullError):
                queue.submit(small_spec())
            # Draining one admits one more.
            await queue.get()
            queue.submit(small_spec())

        self.run(scenario())

    def test_cancel_queued_job_is_skipped(self):
        async def scenario():
            queue = JobQueue()
            first = queue.submit(small_spec())
            second = queue.submit(small_spec())
            assert queue.cancel(first.id)
            got = await queue.get()
            assert got.id == second.id
            assert first.state is JobState.CANCELLED
            assert queue.to_payload()["cancelled"] == 1

        self.run(scenario())

    def test_slow_consumer_is_dropped_with_a_verdict(self, monkeypatch):
        """A subscriber that stops draining gets evicted after the
        timeout — backlog cleared, terminal error + end marker in its
        place — instead of buffering a whole trace server-side."""
        monkeypatch.setattr(Job, "SLOW_CONSUMER_TIMEOUT", 0.05)

        async def scenario():
            queue = JobQueue()
            job = queue.submit(small_spec(outputs=("trace",)))
            subscription = job.subscribe()
            for i in range(Job.SUBSCRIBER_BUFFER_FRAMES):
                await job.publish_stream({"type": "trace", "lines": [str(i)]})
            assert subscription.full()
            await job.publish_stream({"type": "trace", "lines": ["overflow"]})
            assert subscription not in job._subscribers
            frames = []
            while True:
                frame = subscription.get_nowait()
                frames.append(frame)
                if frame is None:
                    break
            assert frames[-2]["code"] == "slow-consumer"
            # Terminal publish to the remaining (zero) subscribers is a
            # no-op, not an error.
            job.publish(None)

        asyncio.run(scenario())

    def test_cancel_unknown_or_finished(self):
        async def scenario():
            queue = JobQueue()
            job = queue.submit(small_spec())
            await queue.get()
            queue.finish(job, {"summary": {}}, None)
            assert not queue.cancel(job.id)
            assert not queue.cancel("j999")

        self.run(scenario())


# ---------------------------------------------------------------------------
# End-to-end: server + client
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def server():
    thread = ServerThread(workers=2)
    yield thread
    thread.stop()


@pytest.fixture(scope="module")
def pipeline_source():
    return format_net(build_pipeline_net())


def run_cli(args, stdin_text=None):
    old_out, old_in = sys.stdout, sys.stdin
    sys.stdout = io.StringIO()
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        code = cli_main(args)
        return code, sys.stdout.getvalue()
    finally:
        sys.stdout, sys.stdin = old_out, old_in


class TestServerEndToEnd:
    def test_ping(self, server):
        with server.client() as client:
            assert client.ping()["type"] == "pong"

    def test_stats_byte_identical_to_in_process(self, server,
                                                pipeline_source):
        with server.client() as client:
            result = client.submit(pipeline_source, until=2_000, seed=1988)
        local = simulate(build_pipeline_net(), until=2_000, seed=1988)
        expected = canonical_json(
            statistics_payload(compute_statistics(local.events))
        )
        assert result.stats_json() == expected
        assert result.summary["events_started"] == local.events_started

    def test_trace_byte_identical_to_cli_and_library(self, server,
                                                     pipeline_source):
        with server.client() as client:
            result = client.submit(
                pipeline_source, until=400, seed=5,
                outputs=("trace",), collect_trace=True,
            )
        service_text = "\n".join(result.trace_lines) + "\n"

        local = simulate(build_pipeline_net(), until=400, seed=5)
        buffer = io.StringIO()
        write_trace(buffer, local.header, local.events)
        assert service_text == buffer.getvalue()

        code, cli_text = run_cli(
            ["sim", "-", "--until", "400", "--seed", "5"],
            stdin_text=pipeline_source,
        )
        assert code == 0
        assert service_text == cli_text

    def test_warm_submission_hits_cache(self, server, pipeline_source):
        with server.client() as client:
            before = client.server_stats()["cache"]
            first = client.submit(pipeline_source, until=100, seed=1)
            warm = client.submit(pipeline_source, until=150, seed=2)
            after = client.server_stats()["cache"]
        assert warm.cached
        assert after["hits"] > before["hits"]
        # The model was already compiled by earlier tests in this module,
        # so no new compile happened at all.
        assert after["misses"] == before["misses"]
        assert first.summary["cache_key"] == warm.summary["cache_key"]

    def test_parse_error_is_reported(self, server):
        with server.client() as client:
            with pytest.raises(RemoteError) as excinfo:
                client.submit("this is : not a net ->", until=10)
        assert excinfo.value.code == "net-error"

    def test_unknown_op_and_job(self, server):
        with server.client() as client:
            client._request("frobnicate")
            with pytest.raises(RemoteError) as excinfo:
                client._wait(client._next_id)
            assert excinfo.value.code == "bad-request"
            with pytest.raises(RemoteError) as excinfo:
                client.status("j31337")
            assert excinfo.value.code == "unknown-job"

    def test_jobs_listing_and_status(self, server, pipeline_source):
        with server.client() as client:
            result = client.submit(pipeline_source, until=50, seed=3)
            records = {record["job"]: record for record in client.jobs()}
            assert records[result.job_id]["state"] == "done"
            status = client.status(result.job_id)
            assert status["state"] == "done"
            assert status["seed"] == 3

    def test_seed_variation_changes_the_trace(self, server, pipeline_source):
        with server.client() as client:
            a = client.submit(pipeline_source, until=300, seed=1)
            b = client.submit(pipeline_source, until=300, seed=2)
        assert a.trace_sha256 != b.trace_sha256


# ---------------------------------------------------------------------------
# Backend selection for submits: compiled when stats-only and safe
# ---------------------------------------------------------------------------

#: Outside the lockstep safe class: a transition action.
ACTION_NET = """\
net actco
var x = 0
place a = 2
work [fire=1, action: x = x + 1]: a -> a
"""


def _counters(client):
    return client.metrics()["metrics"]["counters"]


def _delta(before, after, name):
    return after.get(name, 0) - before.get(name, 0)


def _sweep_one_run(until, max_events, seed):
    from repro.sim.sweep import _sweep_one

    run, _values = _sweep_one(Simulator(build_pipeline_net()), seed, 1,
                              until, max_events, True, {}, {})
    return run


def _assert_same_run(result, run):
    assert result.trace_sha256 == run.trace_sha256
    for field in ("final_time", "events_started", "events_finished",
                  "trace_events"):
        assert result.summary[field] == getattr(run, field)
    assert result.stats_json() == canonical_json(run.stats)


class TestSubmitBackend:
    def test_stats_submits_run_compiled_and_byte_identical(self, server,
                                                           pipeline_source):
        cases = [(2_000.0, None, 1), (2_000.0, None, 7),
                 (2_000.0, None, 1988), (None, 3_000, 11)]
        with server.client() as client:
            before = _counters(client)
            results = [
                client.submit(pipeline_source, until=until,
                              max_events=max_events, seed=seed)
                for until, max_events, seed in cases
            ]
            after = _counters(client)
        for (until, max_events, seed), result in zip(cases, results):
            _assert_same_run(result, _sweep_one_run(until, max_events, seed))
        assert _delta(before, after,
                      "submit_backend_lockstep_total") == len(cases)
        assert _delta(before, after, "submit_backend_scalar_total") == 0

    def test_trace_submit_stays_on_the_interpreter(self, server,
                                                   pipeline_source):
        with server.client() as client:
            before = _counters(client)
            result = client.submit(
                pipeline_source, until=400, seed=5,
                outputs=("stats", "trace"), collect_trace=True,
            )
            after = _counters(client)
        code, cli_text = run_cli(
            ["sim", "-", "--until", "400", "--seed", "5"],
            stdin_text=pipeline_source,
        )
        assert code == 0
        assert "\n".join(result.trace_lines) + "\n" == cli_text
        _assert_same_run(result, _sweep_one_run(400.0, None, 5))
        assert _delta(before, after, "submit_backend_scalar_total") == 1
        assert _delta(before, after,
                      "submit_backend_fallback_trace_output_total") == 1

    def test_action_net_falls_back_with_counted_reason(self, server):
        with server.client() as client:
            before = _counters(client)
            result = client.submit(ACTION_NET, until=50, seed=3)
            after = _counters(client)
        local = simulate(parse_net(ACTION_NET), until=50, seed=3)
        assert result.stats_json() == canonical_json(
            statistics_payload(compute_statistics(local.events))
        )
        assert _delta(before, after, "submit_backend_scalar_total") == 1
        assert _delta(
            before, after,
            "submit_backend_fallback_transition_actions_total",
        ) == 1

    @pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
    def test_kill_child_lands_between_runs_and_retries_identically(
            self, monkeypatch, tmp_path, pipeline_source):
        from repro.service.faults import FAULTS_ENV, STATE_DIR_ENV

        # The compiled loop has no per-event observers: the kill-child
        # budget drains after the run, before the result is reported.
        monkeypatch.setenv(FAULTS_ENV, "kill-child=500:once")
        monkeypatch.setenv(STATE_DIR_ENV, str(tmp_path))
        retries = []
        thread = ServerThread(workers=1)
        try:
            with thread.client() as client:
                result = client.submit(pipeline_source, until=2_000,
                                       seed=1988, on_retry=retries.append)
                counters = _counters(client)
        finally:
            thread.stop()
        assert len(retries) == 1
        assert "SIGKILL" in retries[0]["error"]
        _assert_same_run(result, _sweep_one_run(2_000.0, None, 1988))
        # Only the retried attempt lived to report its obs deltas.
        assert counters["submit_backend_lockstep_total"] == 1

    def test_codegen_is_paid_once_per_server(self, monkeypatch,
                                             pipeline_source):
        from repro.sim import lockstep

        # Earlier tests in this process compiled Figure 5 already.
        monkeypatch.setattr(lockstep, "_code_cache", {})
        thread = ServerThread(workers=2)
        try:
            with thread.client() as client:
                for seed in (1, 2, 3):
                    client.submit(pipeline_source, until=200, seed=seed)
                    client.sweep(pipeline_source, [seed, seed + 10],
                                 until=200)
                snapshot = client.metrics()["metrics"]
        finally:
            thread.stop()
        counters = snapshot["counters"]
        assert counters["codegen_compiles_total"] == 1
        assert snapshot["histograms"]["codegen_seconds"]["count"] == 1
        assert counters["submit_backend_lockstep_total"] == 3
        assert counters["sweep_backend_lockstep_total"] == 3

    @pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
    def test_idle_slots_split_a_sweep(self, pipeline_source):
        # On an idle two-slot server a sweep splits over both slots; a
        # one-cell sweep and a submit fork one child each.
        thread = ServerThread(workers=2)
        try:
            with thread.client() as client:
                forks = []
                for request in (
                    lambda: client.sweep(pipeline_source, list(range(1, 17)),
                                         until=100),
                    lambda: client.sweep(pipeline_source, [1], until=100),
                    lambda: client.submit(pipeline_source, until=100,
                                          seed=1),
                ):
                    before = client.metrics()["metrics"]
                    request()
                    after = client.metrics()["metrics"]
                    forks.append((
                        _delta(before["counters"], after["counters"],
                               "forks_total"),
                        after["histograms"]["fork_seconds"]["count"]
                        - before["histograms"].get(
                            "fork_seconds", {"count": 0})["count"],
                    ))
        finally:
            thread.stop()
        assert forks == [(2, 2), (1, 1), (1, 1)]


@pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
class TestCancellationAndBackpressure:
    def test_running_and_queued_jobs_cancel(self):
        thread = ServerThread(workers=1, max_pending=1)
        try:
            with thread.client() as client:
                # Worker busy with a very long job, one more queued: the
                # next submission bounces off the backpressure bound.
                running = client.submit_nowait(
                    format_net(build_pipeline_net()),
                    until=50_000_000, seed=1,
                )
                deadline = time.monotonic() + 10
                while client.status(running)["state"] != "running":
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
                queued = client.submit_nowait(SMALL_NET, until=10_000_000)
                with pytest.raises(RemoteError) as excinfo:
                    client.submit_nowait(SMALL_NET, until=10)
                assert excinfo.value.code == "backpressure"

                assert client.cancel(queued)
                assert client.cancel(running)
                deadline = time.monotonic() + 15
                while client.status(running)["state"] != "cancelled":
                    assert time.monotonic() < deadline
                    time.sleep(0.05)
                assert client.status(queued)["state"] == "cancelled"
                stats = client.server_stats()["queue"]
                assert stats["cancelled"] == 2
                # The worker survives: a fresh job still completes.
                ok = client.submit(SMALL_NET, until=50, seed=1)
                assert ok.summary["events_started"] > 0
        finally:
            thread.stop()

    def test_cancel_unblocks_a_waiting_submit(self):
        """A client blocked in submit() on a queued job must get a
        'cancelled' verdict, not a socket timeout."""
        thread = ServerThread(workers=1)
        outcome = {}
        try:
            with thread.client() as control:
                running = control.submit_nowait(
                    format_net(build_pipeline_net()),
                    until=50_000_000, seed=1,
                )
                deadline = time.monotonic() + 10
                while control.status(running)["state"] != "running":
                    assert time.monotonic() < deadline
                    time.sleep(0.02)

                def blocked_submit():
                    try:
                        with thread.client(timeout=30) as waiter:
                            waiter.submit(SMALL_NET, until=10)
                    except RemoteError as error:
                        outcome["code"] = error.code

                submitter = threading.Thread(target=blocked_submit)
                submitter.start()
                deadline = time.monotonic() + 10
                queued_id = None
                while queued_id is None:
                    assert time.monotonic() < deadline
                    queued_id = next(
                        (record["job"] for record in control.jobs()
                         if record["state"] == "queued"), None,
                    ) or (time.sleep(0.02) or None)
                assert control.cancel(queued_id)
                submitter.join(timeout=10)
                assert not submitter.is_alive()
                assert outcome.get("code") == "cancelled"
                control.cancel(running)
        finally:
            thread.stop()


# ---------------------------------------------------------------------------
# Sweeps: one frame, N seeds, one cancellable job
# ---------------------------------------------------------------------------


class TestSweepSpec:
    def test_requires_seeds_and_stop_condition(self):
        with pytest.raises(ProtocolError, match="seed"):
            SweepSpec(net_source=SMALL_NET, until=10)
        with pytest.raises(ProtocolError, match="until"):
            SweepSpec(net_source=SMALL_NET, seeds=(1,))
        with pytest.raises(ProtocolError, match="integers"):
            SweepSpec(net_source=SMALL_NET, seeds=(1, "2"), until=10)
        with pytest.raises(ProtocolError, match="integers"):
            SweepSpec(net_source=SMALL_NET, seeds=(True,), until=10)

    def test_rejects_oversized_grids_and_trace_output(self):
        from repro.service.protocol import MAX_SWEEP_SEEDS

        with pytest.raises(ProtocolError, match="exceeds"):
            SweepSpec(net_source=SMALL_NET,
                      seeds=tuple(range(MAX_SWEEP_SEEDS + 1)), until=10)
        with pytest.raises(ProtocolError, match="outputs"):
            SweepSpec(net_source=SMALL_NET, seeds=(1,), until=10,
                      outputs=("trace",))

    def test_payload_round_trip(self):
        spec = SweepSpec(net_source=SMALL_NET, seeds=(3, 1, 4), until=50.0,
                         run_number=2, priority=5)
        assert SweepSpec.from_payload(spec.to_payload()) == spec

    def test_from_payload_validation(self):
        for payload in (
            {"net": SMALL_NET, "until": 10},                  # no seeds
            {"net": SMALL_NET, "seeds": "1..4", "until": 10},  # not a list
            {"net": SMALL_NET, "seeds": [1], "until": "x"},
            {"net": SMALL_NET, "seeds": [1], "until": 10, "outputs": "stats"},
        ):
            with pytest.raises(ProtocolError):
                SweepSpec.from_payload(payload)


class TestSweepEndToEnd:
    def test_per_seed_byte_identity(self, server, pipeline_source):
        """Every run of a service sweep reports exactly what a
        standalone submission (and the in-process driver) would."""
        from repro.sim import Simulator, run_sweep

        seeds = [1, 2, 3]
        streamed = []
        with server.client() as client:
            outcome = client.sweep(
                pipeline_source, seeds, until=400,
                on_run=lambda index, run: streamed.append(index),
            )
        assert sorted(streamed) == [0, 1, 2]
        assert [run["seed"] for run in outcome.runs] == seeds

        # until travels the wire as a float; match it for byte identity.
        local = run_sweep(
            Simulator(parse_net(pipeline_source)), seeds, until=400.0,
        )
        assert canonical_json(outcome.runs) == canonical_json(
            [run.to_payload() for run in local.runs]
        )
        assert canonical_json(outcome.aggregates) == canonical_json(
            local.aggregates_payload()
        )
        assert outcome.runs_sha256 == local.runs_sha256()

        for index, seed in enumerate(seeds):
            single = simulate(build_pipeline_net(), until=400, seed=seed)
            expected = canonical_json(
                statistics_payload(compute_statistics(single.events))
            )
            assert outcome.run_stats_json(index) == expected

    def test_sweep_is_one_job(self, server, pipeline_source):
        with server.client() as client:
            before = client.server_stats()["queue"]["completed"]
            outcome = client.sweep(pipeline_source, [1, 2, 3, 4], until=50)
            after = client.server_stats()["queue"]["completed"]
            record = client.status(outcome.job_id)
        assert after == before + 1
        assert record["state"] == "done"
        assert record["runs"] == 4
        assert "seed" not in record
        assert outcome.summary["events_started"] == sum(
            run["events_started"] for run in outcome.runs
        )

    def test_sweep_rides_the_compiled_net_cache(self, server,
                                                pipeline_source):
        with server.client() as client:
            client.submit(pipeline_source, until=10, seed=1)  # ensure warm
            before = client.server_stats()["cache"]
            outcome = client.sweep(pipeline_source, [8, 9], until=50)
            after = client.server_stats()["cache"]
        assert outcome.cached
        assert after["misses"] == before["misses"]
        assert after["hits"] == before["hits"] + 1

    def test_sweep_protocol_errors(self, server):
        with server.client() as client:
            with pytest.raises(RemoteError) as excinfo:
                client._request("sweep", net=SMALL_NET, until=10)
                client._wait(client._next_id)
            assert excinfo.value.code == "bad-request"
            with pytest.raises(RemoteError) as excinfo:
                client.sweep("not a net ->", [1], until=10)
            assert excinfo.value.code == "net-error"


@pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
class TestSweepCancellation:
    def test_running_sweep_cancels_as_one_job(self):
        thread = ServerThread(workers=1)
        try:
            with thread.client() as client:
                job_id = client.sweep_nowait(
                    format_net(build_pipeline_net()),
                    seeds=list(range(64)), until=50_000_000,
                )
                deadline = time.monotonic() + 10
                while client.status(job_id)["state"] != "running":
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
                assert client.cancel(job_id)
                deadline = time.monotonic() + 15
                while client.status(job_id)["state"] != "cancelled":
                    assert time.monotonic() < deadline
                    time.sleep(0.05)
                # The worker survives: a fresh sweep still completes.
                outcome = client.sweep(SMALL_NET, [1, 2], until=50)
                assert outcome.summary["runs"] == 2
        finally:
            thread.stop()


# ---------------------------------------------------------------------------
# Design-space explorations over the wire
# ---------------------------------------------------------------------------

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


class TestExploreSpec:
    def spec(self, **overrides):
        fields = dict(
            net_source=EXPLORE_TEMPLATE,
            params=explore_params().to_payload(),
            seeds=(1, 2),
            until=50.0,
        )
        fields.update(overrides)
        return ExploreSpec(**fields)

    def test_payload_round_trip(self):
        spec = self.spec(priority=2, run_number=3, skip=((0, 1), (3, 2)))
        assert ExploreSpec.from_payload(spec.to_payload()) == spec

    def test_wire_normalizes_until_to_float(self):
        assert self.spec(until=50).until == 50.0

    def test_requires_a_stop_condition_and_seeds(self):
        with pytest.raises(ProtocolError, match="until"):
            self.spec(until=None)
        with pytest.raises(ProtocolError, match="seed"):
            self.spec(seeds=())
        with pytest.raises(ProtocolError, match="integers"):
            self.spec(seeds=(1.5,))

    def test_rejects_bad_params_and_skip(self):
        with pytest.raises(ProtocolError, match="params"):
            self.spec(params={"axes": []})
        with pytest.raises(ProtocolError, match="skip"):
            self.spec(skip=((99, 1),))
        with pytest.raises(ProtocolError, match="skip"):
            self.spec(skip=((0, 777),))  # seed outside the grid

    def test_rejects_oversized_grids(self):
        from repro.dse import ParamSpace

        big = (ParamSpace().span("a", 1, 64).span("b", 1, 64))
        with pytest.raises(ProtocolError, match="cells exceeds"):
            self.spec(params=big.to_payload(), seeds=(1, 2, 3))
        # Too many points is rejected up front too (even with one
        # seed the frame must never be scheduled and fail late).
        wide = (ParamSpace().span("a", 1, 80).span("b", 1, 64))
        with pytest.raises(ProtocolError, match="points exceeds"):
            self.spec(params=wide.to_payload(), seeds=(1,))

    def test_rejects_unknown_outputs(self):
        with pytest.raises(ProtocolError, match="outputs"):
            self.spec(outputs=("trace",))

    def test_from_payload_validation(self):
        for payload in (
            {"params": {}, "seeds": [1], "until": 10},
            {"net": EXPLORE_TEMPLATE, "seeds": [1], "until": 10},
            {"net": EXPLORE_TEMPLATE, "params": [], "seeds": [1],
             "until": 10},
            {"net": EXPLORE_TEMPLATE,
             "params": explore_params().to_payload(), "seeds": [1],
             "until": 10, "skip": [[0]]},
        ):
            with pytest.raises(ProtocolError):
                ExploreSpec.from_payload(payload)


class TestExploreEndToEnd:
    def test_per_cell_byte_identity(self, server):
        """Every cell of a service exploration reports exactly what the
        in-process driver (and a standalone submission of the bound
        net) would."""
        from repro.dse import NetTemplate, run_exploration

        space = explore_params()
        seeds = [1, 2]
        streamed = []
        with server.client() as client:
            outcome = client.explore(
                EXPLORE_TEMPLATE, space.to_payload(), seeds, until=50,
                on_cell=lambda index, point, cell: streamed.append(index),
            )
        assert sorted(streamed) == list(range(8))
        assert outcome.summary["cells"] == 8
        assert outcome.summary["cells_skipped"] == 0

        local = run_exploration(EXPLORE_TEMPLATE, space, seeds, until=50.0)
        for cell in local.cells:
            assert canonical_json(outcome.cells[cell.index]) == \
                canonical_json(cell.payload)
        assert outcome.summary["run_cells_sha256"] == local.cells_sha256()
        assert outcome.net_shas == local.net_shas

        # One cell cross-checked against a standalone submission of the
        # bound source: the exploration invents nothing.
        template = NetTemplate(EXPLORE_TEMPLATE)
        bound = template.bind(local.points[3])
        with server.client() as client:
            single = client.submit(bound, until=50, seed=2)
        assert single.summary["trace_sha256"] == \
            outcome.cells[7]["trace_sha256"]
        assert single.stats_json() == canonical_json(
            outcome.cells[7]["stats"]
        )

    def test_skip_cells_are_never_simulated(self, server):
        space = explore_params()
        with server.client() as client:
            outcome = client.explore(
                EXPLORE_TEMPLATE, space.to_payload(), [1, 2], until=50,
                skip=[[0, 1], [3, 2]],
            )
        assert outcome.summary["cells_run"] == 6
        assert outcome.summary["cells_skipped"] == 2
        assert 0 not in outcome.cells and 7 not in outcome.cells
        assert sorted(outcome.cells) == [1, 2, 3, 4, 5, 6]

    def test_explore_is_one_job_and_rides_the_cache(self, server):
        space = explore_params()
        with server.client() as client:
            before_queue = client.server_stats()["queue"]["completed"]
            first = client.explore(EXPLORE_TEMPLATE, space.to_payload(),
                                   [5], until=30)
            cache_before = client.server_stats()["cache"]
            second = client.explore(EXPLORE_TEMPLATE, space.to_payload(),
                                    [5], until=30)
            cache_after = client.server_stats()["cache"]
            after_queue = client.server_stats()["queue"]["completed"]
            record = client.status(second.job_id)
        assert after_queue == before_queue + 2
        assert second.cached
        assert cache_after["misses"] == cache_before["misses"]
        assert record["state"] == "done"
        assert record["points"] == 4
        assert record["cells"] == 4
        assert "seed" not in record
        assert canonical_json(first.cells) == canonical_json(second.cells)

    def test_explore_net_errors(self, server):
        with server.client() as client:
            with pytest.raises(RemoteError) as excinfo:
                client.explore("no placeholders here",
                               explore_params().to_payload(), [1],
                               until=10)
            assert excinfo.value.code == "net-error"
            with pytest.raises(RemoteError) as excinfo:
                client.explore(
                    "place a = ${tokens} ->",
                    ParamSpaceFor("tokens"), [1], until=10,
                )
            assert excinfo.value.code == "net-error"


def ParamSpaceFor(name):
    from repro.dse import ParamSpace

    return ParamSpace().values(name, [1]).to_payload()


# ---------------------------------------------------------------------------
# Cache warm-start (pnut serve --preload)
# ---------------------------------------------------------------------------


class TestPreload:
    def test_preload_compiles_and_reports(self, tmp_path):
        from repro.service import SimulationService

        (tmp_path / "a.pn").write_text(SMALL_NET)
        # A formatting variant of the same net: parsed, compile shared.
        (tmp_path / "b.pn").write_text("# variant\n" + SMALL_NET)
        (tmp_path / "nested").mkdir()
        (tmp_path / "nested" / "fig.pn").write_text(
            format_net(build_pipeline_net())
        )
        (tmp_path / "broken.pn").write_text("not a net ->")
        (tmp_path / "binary.pn").write_bytes(b"\xff\xfe not utf-8 \x9c")
        (tmp_path / "ignored.txt").write_text("not even close")

        service = SimulationService(workers=1)
        summary = service.preload(str(tmp_path))
        assert summary["loaded"] == 3
        assert summary["failed"] == 2
        failed = sorted(item["file"] for item in summary["errors"])
        assert failed[0].endswith("binary.pn")  # UnicodeDecodeError skip
        assert failed[1].endswith("broken.pn")
        cache = summary["cache"]
        assert cache["entries"] == 2
        assert cache["misses"] == 2
        assert cache["canonical_hits"] == 1

    def test_first_job_on_preloaded_net_hits_cache(self, tmp_path,
                                                   pipeline_source):
        (tmp_path / "fig.pn").write_text(pipeline_source)
        thread = ServerThread(workers=1)
        try:
            assert thread.service is not None
            summary = thread.service.preload(str(tmp_path))
            assert summary["loaded"] == 1
            with thread.client() as client:
                result = client.submit(pipeline_source, until=20, seed=1)
                assert result.cached
                counters = client.server_stats()["cache"]
                assert counters["misses"] == 1
                assert counters["hits"] == 1
        finally:
            thread.stop()


# ---------------------------------------------------------------------------
# Cancellation edge cases: mid-chunk kills, partial-frame drains, and a
# queue that stays open for business
# ---------------------------------------------------------------------------


@pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
class TestCancellationEdgeCases:
    def _await_state(self, client, job_id, state, deadline=15.0):
        limit = time.monotonic() + deadline
        while client.status(job_id)["state"] != state:
            assert time.monotonic() < limit, (
                f"job {job_id} never reached {state}"
            )
            time.sleep(0.02)

    def test_sweep_cancel_mid_grid_drains_partial_frames(self,
                                                         pipeline_source):
        """Cancel a sweep after some seeds completed: the streamed
        partial sweep-run frames drain cleanly, the submitting
        connection gets the cancelled verdict, and both the connection
        and the queue keep working."""
        thread = ServerThread(workers=1)
        try:
            with thread.client() as submitter, \
                    thread.client() as controller:
                spec = SweepSpec(
                    net_source=pipeline_source,
                    seeds=tuple(range(1, 65)), until=20_000.0,
                )
                request_id = submitter._request("sweep",
                                                **spec.to_payload())
                accepted = submitter._wait(request_id)
                assert accepted["type"] == "accepted"
                job_id = accepted["job"]
                # Drain at least two per-seed frames mid-run, then kill.
                seen = 0
                while seen < 2:
                    frame = submitter._wait(request_id)
                    if frame.get("type") == "sweep-run":
                        seen += 1
                assert controller.cancel(job_id)
                with pytest.raises(RemoteError) as excinfo:
                    while True:
                        submitter._wait(request_id)
                assert excinfo.value.code == "cancelled"
                self._await_state(controller, job_id, "cancelled")
                # The forked chunk worker is dead, the pool is not: the
                # same connection immediately runs a fresh job.
                result = submitter.submit(SMALL_NET, until=50, seed=7)
                assert result.summary["trace_events"] > 0
                stats = controller.server_stats()["queue"]
                assert stats["cancelled"] >= 1
        finally:
            thread.stop()

    def test_explore_cancel_mid_grid(self):
        """Cancelling a running exploration kills the forked child mid
        (point x seed) grid and leaves the queue accepting new work."""
        thread = ServerThread(workers=1)
        try:
            with thread.client() as submitter, \
                    thread.client() as controller:
                from repro.dse import ParamSpace

                space = ParamSpace().values("tokens", [2, 3, 4, 5])
                template = EXPLORE_TEMPLATE.replace("${delay}", "1")
                spec = ExploreSpec(
                    net_source=template,
                    params=space.to_payload(),
                    seeds=tuple(range(1, 9)),
                    until=100_000_000.0,
                )
                request_id = submitter._request("explore",
                                                **spec.to_payload())
                accepted = submitter._wait(request_id)
                job_id = accepted["job"]
                self._await_state(controller, job_id, "running")
                assert controller.cancel(job_id)
                with pytest.raises(RemoteError) as excinfo:
                    while True:
                        submitter._wait(request_id)
                assert excinfo.value.code == "cancelled"
                self._await_state(controller, job_id, "cancelled")
                outcome = submitter.explore(
                    template, space.to_payload(), [1], until=40,
                )
                assert outcome.summary["cells_run"] == 4
        finally:
            thread.stop()

    def test_queued_sweep_and_explore_cancel_before_running(self):
        """Cancellation of still-queued grid jobs is lazy but complete:
        the entries never run, their submitters get verdicts, and
        later submissions schedule normally."""
        thread = ServerThread(workers=1, max_pending=8)
        try:
            with thread.client() as client, \
                    thread.client() as controller:
                # The pipeline net never deadlocks, so this job really
                # holds the single worker for the whole test.
                blocker = client.submit_nowait(
                    format_net(build_pipeline_net()),
                    until=50_000_000.0, seed=1,
                )
                self._await_state(controller, blocker, "running")
                queued_sweep = client.sweep_nowait(
                    SMALL_NET, [1, 2, 3], until=100.0)
                queued_explore = client.explore_nowait(
                    EXPLORE_TEMPLATE, explore_params().to_payload(),
                    [1], until=100.0)
                assert controller.cancel(queued_sweep)
                assert controller.cancel(queued_explore)
                assert controller.status(queued_sweep)["state"] == \
                    "cancelled"
                assert controller.status(queued_explore)["state"] == \
                    "cancelled"
                assert controller.cancel(blocker)
                self._await_state(controller, blocker, "cancelled")
                outcome = controller.sweep(SMALL_NET, [1, 2], until=50)
                assert outcome.summary["runs"] == 2
        finally:
            thread.stop()
