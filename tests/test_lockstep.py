"""The lockstep codegen backend (repro.sim.lockstep).

The guarantees under test: the safe-class analysis names a truthful
reason for every fallback edge (actions, predicates, non-constant
enabling, data delays — including the mid-run integral-to-heap
migration net), ``resolve_backend`` silently selects the scalar engine
on those edges and the selection is observable (``SweepResult``
provenance, ``--profile``, obs counters) without ever changing a
payload byte, and the generated source holds the structural promises
the speedup rests on (per-transition unrolling with a binary dispatch
tree for small nets, generic loops beyond the unroll cap, one compiled
program per skeleton).
"""

import sys
import threading

import pytest

from repro.core.builder import NetBuilder
from repro.core.errors import TraceError
from repro.core.time_model import DataDelay, ExponentialDelay, UniformDelay
from repro.dse import ParamSpace, run_exploration
from repro.obs.metrics import MetricsRegistry
from repro.processor import build_pipeline_net
from repro.sim import (
    BACKEND_CHOICES,
    Simulator,
    classify,
    compile_lockstep,
    resolve_backend,
    run_sweep,
)
from repro.sim.lockstep import _UNROLL_MAX_TRANS
from repro.sim.sweep import _sweep_one


def plain_net(**event_kwargs):
    """One-transition cycle net, customizable per fallback edge."""
    b = NetBuilder("edge")
    b.place("a", tokens=1)
    kwargs = dict(inputs={"a": 1}, outputs={"a": 1}, firing_time=1)
    kwargs.update(event_kwargs)
    b.event("t", **kwargs)
    return b.build()


def migration_net():
    """The differential harness's integral-to-heap migration case."""

    def two_phase(env):
        env["n"] = n = env["n"] + 1
        return 2 if n <= 3 else 2.5

    b = NetBuilder("migrating")
    b.variable("n", 0)
    b.place("a", tokens=1)
    b.event("t", inputs={"a": 1}, outputs={"a": 1},
            firing_time=DataDelay(two_phase, "two-phase"))
    return b.build()


# ---------------------------------------------------------------------------
# Safe-class analysis and fallback edges
# ---------------------------------------------------------------------------


class TestClassify:
    def test_pipeline_net_is_eligible(self):
        decision = classify(Simulator(build_pipeline_net()))
        assert decision.eligible and decision.reason == "ok"

    def test_action_net_falls_back(self):
        def bump(env):
            env["x"] = env["x"] + 1

        b = NetBuilder()
        b.variable("x", 0)
        b.place("a", tokens=1)
        b.event("t", inputs={"a": 1}, outputs={"a": 1}, firing_time=1,
                action=bump)
        decision = classify(Simulator(b.build()))
        assert not decision.eligible
        assert decision.reason == "transition-actions"

    def test_predicate_net_falls_back(self):
        net = plain_net(predicate=lambda env: True)
        decision = classify(Simulator(net))
        assert not decision.eligible
        assert decision.reason == "predicates"

    def test_stochastic_enabling_falls_back(self):
        net = plain_net(enabling_time=UniformDelay(0.5, 1.5))
        decision = classify(Simulator(net))
        assert not decision.eligible
        assert decision.reason == "non-constant-enabling"

    def test_migration_net_falls_back_as_data_delay(self):
        decision = classify(Simulator(migration_net()))
        assert not decision.eligible
        assert decision.reason == "data-delays"

    def test_stochastic_firing_stays_eligible(self):
        net = plain_net(firing_time=ExponentialDelay(1.3))
        assert classify(Simulator(net)).eligible


class TestResolveBackend:
    def test_scalar_request_never_compiles(self):
        program, selected, reason = resolve_backend(
            Simulator(build_pipeline_net()), "scalar"
        )
        assert program is None
        assert (selected, reason) == ("scalar", "requested")

    def test_eligible_net_resolves_to_lockstep(self):
        for requested in ("auto", "lockstep"):
            program, selected, reason = resolve_backend(
                Simulator(build_pipeline_net()), requested
            )
            assert program is not None
            assert (selected, reason) == ("lockstep", "ok")

    def test_fallback_is_silent_and_named(self):
        program, selected, reason = resolve_backend(
            Simulator(migration_net()), "lockstep"
        )
        assert program is None
        assert (selected, reason) == ("scalar", "data-delays")

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend(Simulator(build_pipeline_net()), "bogus")
        assert "auto" in BACKEND_CHOICES

    def test_program_is_cached_per_skeleton(self):
        skeleton = Simulator(build_pipeline_net())
        assert compile_lockstep(skeleton) is compile_lockstep(skeleton)


# ---------------------------------------------------------------------------
# Bit-identity through the batch surfaces
# ---------------------------------------------------------------------------


class TestSweepIdentity:
    def test_payloads_identical_across_backends(self):
        net = build_pipeline_net()
        results = {
            backend: run_sweep(Simulator(net), [1, 2, 3], until=60.0,
                               backend=backend)
            for backend in BACKEND_CHOICES
        }
        payloads = {b: r.to_payload() for b, r in results.items()}
        assert payloads["auto"] == payloads["scalar"] == payloads["lockstep"]
        # Provenance rides the result object, never the payload.
        assert "backend" not in payloads["auto"]
        assert results["auto"].backend == "lockstep"
        assert results["auto"].backend_requested == "auto"
        assert results["auto"].backend_reason == "ok"
        assert results["scalar"].backend == "scalar"
        assert results["scalar"].backend_reason == "requested"

    def test_fallback_net_selects_scalar_silently(self):
        result = run_sweep(Simulator(migration_net()), [1, 2], until=30.0,
                           backend="lockstep")
        assert result.backend == "scalar"
        assert result.backend_requested == "lockstep"
        assert result.backend_reason == "data-delays"
        baseline = run_sweep(Simulator(migration_net()), [1, 2], until=30.0,
                             backend="scalar")
        assert result.to_payload() == baseline.to_payload()

    def test_run_seed_matches_sweep_one(self):
        skeleton = Simulator(build_pipeline_net())
        program = compile_lockstep(skeleton)
        for seed in (1, 7, 23):
            scalar, _ = _sweep_one(
                Simulator(build_pipeline_net()), seed, 1, 80.0, None,
                True, {}, {},
            )
            lock, _ = program.run_seed(seed, 1, 80.0, None, True, {}, {})
            assert lock.to_payload() == scalar.to_payload()

    def test_negative_horizon_rejected_like_scalar(self):
        program = compile_lockstep(Simulator(build_pipeline_net()))
        with pytest.raises(TraceError, match="backwards"):
            program.run_seed(1, 1, -1.0, None, True, {}, {})

    def test_run_seed_is_reentrant_across_threads(self):
        # A warm program is shared by every job of one net in a server,
        # and jobs run on threads where fork is unavailable.
        program = compile_lockstep(Simulator(build_pipeline_net()))
        seeds = [1, 2, 3, 4, 5, 6]

        def run(seed):
            return program.run_seed(seed, 1, 500.0, None, True, {},
                                    {})[0].to_payload()

        serial = {seed: run(seed) for seed in seeds}
        # Switch threads as often as the interpreter allows, so the two
        # threads' runs interleave inside the generated loop.
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        results: dict[int, list] = {seed: [] for seed in seeds}
        barrier = threading.Barrier(2)

        def worker(chunk):
            barrier.wait()
            for _ in range(4):
                for seed in chunk:
                    results[seed].append(run(seed))

        threads = [threading.Thread(target=worker, args=(seeds[i::2],))
                   for i in range(2)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(previous)
        for seed in seeds:
            assert results[seed] == [serial[seed]] * 4


# ---------------------------------------------------------------------------
# Generated-source structure
# ---------------------------------------------------------------------------


def wide_net(n_trans):
    b = NetBuilder("wide")
    b.place("a", tokens=2)
    for i in range(n_trans):
        b.event(f"t{i}", inputs={"a": 1}, outputs={"a": 1},
                firing_time=1 + (i % 3))
    return b.build()


class TestCodegen:
    def test_small_net_is_unrolled(self):
        program = compile_lockstep(Simulator(build_pipeline_net()))
        source = program.source()
        # Binary dispatch tree over transition indices; the generic
        # per-arc loops are compiled out entirely.
        assert "if ti <" in source
        assert "for pi, w in" not in source

    def test_beyond_the_unroll_cap_uses_generic_loops(self):
        net = wide_net(_UNROLL_MAX_TRANS + 1)
        program = compile_lockstep(Simulator(net))
        assert "for pi, w in" in program.source()
        lock, _ = program.run_seed(5, 1, 20.0, None, True, {}, {})
        scalar, _ = _sweep_one(
            Simulator(wide_net(_UNROLL_MAX_TRANS + 1)), 5, 1, 20.0, None,
            True, {}, {},
        )
        assert lock.to_payload() == scalar.to_payload()


# ---------------------------------------------------------------------------
# Observability of the selection
# ---------------------------------------------------------------------------


EDGE_TEMPLATE = """\
net gridedge
place pool = ${tokens}
work [fire=1]: pool -> 0
"""

#: The same grid with a transition action — outside the safe class, so
#: every point must fall back (and the counters must say why).
ACTION_TEMPLATE = """\
net gridact
var x = 0
place pool = ${tokens}
work [fire=1, action: x = x + 1]: pool -> 0
"""


class TestSelectionObservability:
    def test_explore_counters_name_the_fallback(self):
        registry = MetricsRegistry()
        space = ParamSpace().values("tokens", [1, 2])
        run_exploration(ACTION_TEMPLATE, space, [1], until=10.0,
                        registry=registry, backend="auto")
        counters = registry.snapshot()["counters"]
        assert counters["explore_backend_scalar_total"] == 2
        assert counters["explore_backend_fallback_transition_actions_total"] \
            == 2

    def test_explore_counters_count_lockstep(self):
        registry = MetricsRegistry()
        space = ParamSpace().values("tokens", [1, 2])
        run_exploration(EDGE_TEMPLATE, space, [1], until=10.0,
                        registry=registry, backend="auto")
        counters = registry.snapshot()["counters"]
        assert counters["explore_backend_lockstep_total"] == 2

    def test_cli_profile_reports_fallback(self, tmp_path, capsys):
        from repro.cli import main as cli_main
        from repro.lang.format import format_net

        path = tmp_path / "fig5.net"
        path.write_text(format_net(build_pipeline_net()))
        code = cli_main([
            "sweep", str(path), "--seeds", "1..2", "--until", "20",
            "--backend", "lockstep", "--profile",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "requested=lockstep selected=lockstep reason=ok" in err

    def test_cli_profile_reports_fallback_reason(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        path = tmp_path / "act.net"
        path.write_text(
            "net gridact\n"
            "var x = 0\n"
            "place pool = 3\n"
            "work [fire=1, action: x = x + 1]: pool -> 0\n"
        )
        code = cli_main([
            "sweep", str(path), "--seeds", "1..2", "--until", "20",
            "--backend", "lockstep", "--profile",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert ("requested=lockstep selected=scalar "
                "reason=transition-actions") in err
