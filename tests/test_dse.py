"""The design-space exploration subsystem (repro.dse).

The guarantees under test: parameter spaces enumerate deterministically,
bound points compile into ordinary nets whose cells are byte-identical
to standalone runs (same trace digest, same statistics payload), forked
chunked execution changes nothing but wall-clock, the result store makes
re-runs incremental *and byte-checkable*, and frontier analysis reduces
per-point aggregates to the paper's Pareto question.
"""

import io

import pytest

from repro.analysis.report import canonical_json, statistics_payload
from repro.analysis.stat import compute_statistics
from repro.dse import (
    NetTemplate,
    Objective,
    ParamSpace,
    ParamSpaceError,
    PipelineBinder,
    StoreError,
    StoreWarning,
    TemplateError,
    open_store,
    parse_axis_spec,
    parse_objectives,
    pareto_indices,
    run_exploration,
    stop_key,
)
from repro.lang.format import format_net
from repro.lang.parser import parse_net
from repro.sim import sweep as sweep_module
from repro.processor import (
    CacheConfig,
    PipelineConfig,
    build_cached_pipeline_net,
    build_pipeline_net,
)
from repro.sim import Experiment, simulate, summarize_metric, trace_digest

TEMPLATE = """\
net gridco
place pool = ${tokens}
place free = 1
work [fire=${delay}]: pool + free -> free + done
drain [fire=1]: done -> 0
"""


def small_space() -> ParamSpace:
    return ParamSpace().values("tokens", [2, 4]).span("delay", 1, 2)


# ---------------------------------------------------------------------------
# Parameter spaces
# ---------------------------------------------------------------------------


class TestParamSpace:
    def test_product_enumeration_order(self):
        points = small_space().points()
        assert points == [
            {"tokens": 2, "delay": 1},
            {"tokens": 2, "delay": 2},
            {"tokens": 4, "delay": 1},
            {"tokens": 4, "delay": 2},
        ]
        assert len(small_space()) == 4

    def test_span_and_log_span(self):
        space = ParamSpace().span("m", 2, 10, step=4)
        assert space.points() == [{"m": 2}, {"m": 6}, {"m": 10}]
        log = ParamSpace().log_span("r", 1, 64, count=7)
        values = [point["r"] for point in log.points()]
        assert values[0] == 1.0 and values[-1] == 64.0
        ratios = [b / a for a, b in zip(values, values[1:])]
        assert all(abs(r - 2.0) < 1e-9 for r in ratios)

    def test_zip_advances_in_lockstep(self):
        space = (ParamSpace()
                 .values("a", [1, 2])
                 .values("b", [10, 20])
                 .values("c", ["x", "y"])
                 .zip("a", "b"))
        points = space.points()
        assert len(space) == 4
        assert points == [
            {"a": 1, "b": 10, "c": "x"},
            {"a": 1, "b": 10, "c": "y"},
            {"a": 2, "b": 20, "c": "x"},
            {"a": 2, "b": 20, "c": "y"},
        ]

    def test_payload_round_trip(self):
        space = (ParamSpace().values("a", [1, 2]).values("b", [3, 4])
                 .zip("a", "b"))
        rebuilt = ParamSpace.from_payload(space.to_payload())
        assert rebuilt.points() == space.points()
        assert rebuilt.to_payload() == space.to_payload()

    def test_rejects_bad_spaces(self):
        with pytest.raises(ParamSpaceError, match="no axes"):
            ParamSpace().points()
        with pytest.raises(ParamSpaceError, match="duplicate"):
            ParamSpace().values("a", [1]).values("a", [2])
        with pytest.raises(ParamSpaceError, match="no values"):
            ParamSpace().values("a", [])
        with pytest.raises(ParamSpaceError, match="unequal"):
            ParamSpace().values("a", [1]).values("b", [1, 2]).zip("a", "b")
        with pytest.raises(ParamSpaceError, match="unknown axis"):
            ParamSpace().values("a", [1, 2]).zip("a", "missing")
        with pytest.raises(ParamSpaceError, match="exceeds"):
            ParamSpace().span("a", 1, 100).span("b", 1, 100).points()
        with pytest.raises(ParamSpaceError, match="name"):
            ParamSpace().values("2bad", [1])

    def test_axis_spec_grammar(self):
        assert parse_axis_spec("m=2..6:2").values == (2, 4, 6)
        assert parse_axis_spec("m=2..4").values == (2, 3, 4)
        assert parse_axis_spec("m=1,2.5,hi,true").values == (1, 2.5, "hi", True)
        assert parse_axis_spec("m=7").values == (7,)
        log = parse_axis_spec("m=log:1..16:5")
        assert log.values[0] == 1.0 and log.values[-1] == 16.0
        assert len(log.values) == 5
        for bad in ("m", "m=", "=1", "m=4..1", "m=1..2:0", "m=log:1..8",
                    "bad name=1"):
            with pytest.raises(ParamSpaceError):
                parse_axis_spec(bad)


# ---------------------------------------------------------------------------
# Templates and binders
# ---------------------------------------------------------------------------


class TestTemplates:
    def test_bind_substitutes_and_validates(self):
        template = NetTemplate(TEMPLATE)
        assert template.params == {"tokens", "delay"}
        bound = template.bind({"tokens": 3, "delay": 2})
        net = parse_net(bound)
        assert net.place("pool").initial_tokens == 3

    def test_bind_errors(self):
        template = NetTemplate(TEMPLATE)
        with pytest.raises(TemplateError, match="missing"):
            template.bind({"tokens": 3})
        with pytest.raises(TemplateError, match="unknown"):
            template.bind({"tokens": 3, "delay": 1, "extra": 9})
        with pytest.raises(TemplateError, match="placeholders"):
            NetTemplate("place a = 1\n")

    def test_bad_bound_value_fails_at_bind_time(self):
        from repro.core.errors import PnutError

        template = NetTemplate(TEMPLATE)
        with pytest.raises(PnutError):
            template.bind({"tokens": "not a count", "delay": 1})

    def test_pipeline_binder_matches_builders(self):
        binder = PipelineBinder()
        source = binder.bind({"memory_cycles": 3, "buffer_words": 4})
        expected = format_net(build_pipeline_net(
            PipelineConfig(memory_cycles=3, buffer_words=4)
        ))
        assert source == expected

    def test_pipeline_binder_routes_cache_fields(self):
        binder = PipelineBinder()
        source = binder.bind({"instruction_hit_ratio": 0.5})
        expected = format_net(build_cached_pipeline_net(
            PipelineConfig(), cache=CacheConfig(instruction_hit_ratio=0.5)
        ))
        assert source == expected
        with pytest.raises(TemplateError, match="neither"):
            binder.bind({"warp_factor": 9})


# ---------------------------------------------------------------------------
# The result store
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("filename", ["cells.db", "cells.jsonl"])
class TestResultStore:
    def test_round_trip_and_reopen(self, tmp_path, filename):
        path = str(tmp_path / filename)
        payload = {"seed": 1, "x": 1.5}
        with open_store(path) as store:
            assert not store.have("sha", "pk", 1, "stop")
            assert store.put("sha", "pk", 1, "stop", payload)
            assert not store.put("sha", "pk", 1, "stop", payload)
            assert store.have("sha", "pk", 1, "stop")
            assert len(store) == 1
        with open_store(path) as store:
            assert store.get("sha", "pk", 1, "stop") == payload
            assert store.get("sha", "pk", 2, "stop") is None
            assert [key for key, _payload in store.cells()] == [
                ("sha", "pk", 1, "stop")
            ]

    def test_divergent_recomputation_raises(self, tmp_path, filename):
        path = str(tmp_path / filename)
        with open_store(path) as store:
            store.put("sha", "pk", 1, "stop", {"x": 1})
            with pytest.raises(StoreError, match="recomputed differently"):
                store.put("sha", "pk", 1, "stop", {"x": 2})
            # Unverified put is a silent skip (first write wins).
            assert not store.put("sha", "pk", 1, "stop", {"x": 2},
                                 verify=False)
            assert store.get("sha", "pk", 1, "stop") == {"x": 1}

    def test_stop_key_distinguishes_horizons(self, tmp_path, filename):
        path = str(tmp_path / filename)
        with open_store(path) as store:
            store.put("sha", "pk", 1, stop_key(100.0, None, 1), {"x": 1})
            assert not store.have("sha", "pk", 1, stop_key(200.0, None, 1))
            assert not store.have("sha", "pk", 1, stop_key(100.0, 5, 1))
            assert not store.have("sha", "pk", 1, stop_key(100.0, None, 2))


def test_corrupt_jsonl_store_raises(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"net_sha256": "x"}\n')
    with pytest.raises(StoreError, match="corrupt"):
        open_store(str(path))


def test_non_sqlite_file_raises_store_error(tmp_path):
    path = tmp_path / "cells.db"
    path.write_text("this is not a database\n" * 10)
    with pytest.raises(StoreError, match="not a usable result store"):
        open_store(str(path))


def test_corrupt_error_names_the_escape_hatch(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("{torn write\n")
    with pytest.raises(StoreError, match="--store-skip-corrupt"):
        open_store(str(path))


def test_skip_corrupt_jsonl_warns_and_keeps_good_records(tmp_path):
    path = tmp_path / "mixed.jsonl"
    with open_store(str(path)) as store:
        store.put("sha", "pk", 1, "stop", {"x": 1})
        store.put("sha", "pk", 2, "stop", {"x": 2})
    text = path.read_text()
    lines = text.splitlines()
    path.write_text("\n".join([lines[0], "{torn write", lines[1]]) + "\n")
    with pytest.warns(StoreWarning, match="mixed.jsonl:2"):
        with open_store(str(path), skip_corrupt=True) as store:
            assert store.skipped_records == 1
            assert len(store) == 2
            assert store.get("sha", "pk", 1, "stop") == {"x": 1}
            assert store.get("sha", "pk", 2, "stop") == {"x": 2}


def test_skip_corrupt_sqlite_warns_and_keeps_good_records(tmp_path):
    import sqlite3

    path = tmp_path / "cells.db"
    with open_store(str(path)) as store:
        store.put("sha", "pk", 1, "stop", {"x": 1})
    connection = sqlite3.connect(str(path))
    connection.execute(
        "INSERT INTO cells VALUES ('sha', 'pk', 2, 'stop', '{torn')"
    )
    connection.commit()
    connection.close()
    with pytest.raises(StoreError, match="corrupt payload for cell"):
        open_store(str(path))
    with pytest.warns(StoreWarning, match="corrupt payload"):
        with open_store(str(path), skip_corrupt=True) as store:
            assert store.skipped_records == 1
            assert len(store) == 1
            assert store.get("sha", "pk", 1, "stop") == {"x": 1}
            # The skipped cell simply recomputes and re-stores.
            assert store.put("sha", "pk", 2, "stop", {"x": 2})
    with open_store(str(path)) as store:
        assert store.get("sha", "pk", 2, "stop") == {"x": 2}


# ---------------------------------------------------------------------------
# The exploration driver
# ---------------------------------------------------------------------------


class TestRunExploration:
    def test_cells_byte_identical_to_standalone_runs(self):
        result = run_exploration(TEMPLATE, small_space(), [1, 2], until=60)
        template = NetTemplate(TEMPLATE)
        assert len(result.cells) == 8
        for cell in result.cells:
            bound = parse_net(template.bind(result.points[cell.point_index]))
            local = simulate(bound, until=60, seed=cell.seed)
            assert cell.payload["trace_sha256"] == trace_digest(
                local.header, local.events
            )
            assert canonical_json(cell.payload["stats"]) == canonical_json(
                statistics_payload(compute_statistics(local.events))
            )
            assert cell.payload["events_started"] == local.events_started
            assert cell.payload["final_time"] == local.final_time

    def test_forked_equals_serial(self):
        serial = run_exploration(TEMPLATE, small_space(), [1, 2, 3],
                                 until=60)
        forked = run_exploration(TEMPLATE, small_space(), [1, 2, 3],
                                 until=60, workers=3)
        assert canonical_json(serial.to_payload()) == canonical_json(
            forked.to_payload()
        )

    def test_serial_fallback_without_fork(self, monkeypatch):
        expected = run_exploration(TEMPLATE, small_space(), [1], until=40)
        # The fan-out decision lives in the grid core both drivers share.
        monkeypatch.setattr(sweep_module, "fork_available", lambda: False)
        fallback = run_exploration(TEMPLATE, small_space(), [1], until=40,
                                   workers=4)
        assert canonical_json(expected.to_payload()) == canonical_json(
            fallback.to_payload()
        )

    def test_on_cell_streams_every_cell(self):
        streamed = []
        run_exploration(
            TEMPLATE, small_space(), [1, 2], until=40, workers=2,
            on_cell=lambda cell: streamed.append(
                (cell.index, cell.point_index, cell.seed)
            ),
        )
        assert sorted(streamed) == [
            (0, 0, 1), (1, 0, 2), (2, 1, 1), (3, 1, 2),
            (4, 2, 1), (5, 2, 2), (6, 3, 1), (7, 3, 2),
        ]

    def test_store_makes_reruns_incremental(self, tmp_path):
        path = str(tmp_path / "cells.db")
        with open_store(path) as store:
            first = run_exploration(TEMPLATE, small_space(), [1, 2],
                                    until=60, store=store)
            assert first.fresh_cells == 8 and first.stored_cells == 0
        with open_store(path) as store:
            second = run_exploration(TEMPLATE, small_space(), [1, 2],
                                     until=60, store=store)
            assert second.fresh_cells == 0 and second.stored_cells == 8
            # A third seed only simulates the new column.
            third = run_exploration(TEMPLATE, small_space(), [1, 2, 9],
                                    until=60, store=store)
            assert third.fresh_cells == 4 and third.stored_cells == 8
        assert first.cells_sha256() == second.cells_sha256()
        for a, b in zip(first.cells, second.cells):
            assert canonical_json(a.payload) == canonical_json(b.payload)

    def test_store_keys_distinguish_measurement_config(self, tmp_path):
        """A cell computed without stats (or with user metrics) must
        never be served to an exploration expecting a different payload
        shape — the measurement configuration is part of the key."""
        path = str(tmp_path / "cells.db")
        space = ParamSpace().values("tokens", [2]).values("delay", [1])
        with open_store(path) as store:
            bare = run_exploration(TEMPLATE, space, [1], until=40,
                                   want_stats=False, store=store)
            assert bare.fresh_cells == 1
            full = run_exploration(TEMPLATE, space, [1], until=40,
                                   store=store)
            assert full.fresh_cells == 1 and full.stored_cells == 0
            assert full.cells[0].payload["stats"] is not None
            withm = run_exploration(
                TEMPLATE, space, [1], until=40, store=store,
                metrics={"s": lambda r: float(r.events_started)},
            )
            assert withm.fresh_cells == 1
            assert len(store) == 3

    def test_pipeline_binder_cells_match_direct_builds(self):
        space = ParamSpace().values("memory_cycles", [2, 8])
        result = run_exploration(PipelineBinder(), space, [5], until=200)
        for cell, memory in zip(result.cells, (2, 8)):
            net = build_pipeline_net(PipelineConfig(memory_cycles=memory))
            local = simulate(net, until=200, seed=5)
            assert cell.payload["trace_sha256"] == trace_digest(
                local.header, local.events
            )

    def test_aggregates_reuse_summarize_metric(self):
        result = run_exploration(TEMPLATE, small_space(), [1, 2, 3],
                                 until=60)
        metrics = result.point_metrics()[0]
        started = [cell.payload["events_started"]
                   for cell in result.point_cells(0)]
        expected = summarize_metric(
            "events_started", [float(v) for v in started], 0.95
        )
        assert metrics["events_started"].mean == expected.mean
        assert metrics["events_started"].ci_half_width == \
            expected.ci_half_width
        assert "throughput:work" in metrics
        assert "avg_tokens:free" in metrics

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="seed"):
            run_exploration(TEMPLATE, small_space(), [], until=10)
        with pytest.raises(ValueError, match="integers"):
            run_exploration(TEMPLATE, small_space(), [True], until=10)
        with pytest.raises(ValueError, match="until"):
            run_exploration(TEMPLATE, small_space(), [1])
        with pytest.raises(ValueError, match="worker"):
            run_exploration(TEMPLATE, small_space(), [1], until=10,
                            workers=0)

    def test_worker_failure_is_raised(self):
        with pytest.raises(RuntimeError, match="explore worker failed"):
            run_exploration(TEMPLATE, small_space(), [1, 2], until=-1,
                            workers=2)


class TestExperimentExplore:
    def test_metrics_persist_through_the_store(self, tmp_path):
        experiment = Experiment(
            build_pipeline_net(),  # the design, not the explored net
            until=60,
            metrics={"started": lambda r: float(r.events_started)},
            base_seed=3,
            stat_metrics={"pool": lambda s: s.places["pool"].avg_tokens},
        )
        space = ParamSpace().values("tokens", [2, 3]).values("delay", [1])
        path = str(tmp_path / "cells.db")
        with open_store(path) as store:
            first = experiment.explore(space, TEMPLATE, replications=3,
                                       store=store)
        with open_store(path) as store:
            second = experiment.explore(space, TEMPLATE, replications=3,
                                        store=store)
        assert [cell.seed for cell in first.point_cells(0)] == [3, 4, 5]
        assert second.stored_cells == 6
        # User metrics aggregate identically from stored payloads.
        for index in range(2):
            assert first.metric(index, "started").values == \
                second.metric(index, "started").values
            assert first.metric(index, "pool").values == \
                second.metric(index, "pool").values

    def test_rejects_zero_replications(self):
        experiment = Experiment(build_pipeline_net(), until=10, metrics={})
        with pytest.raises(ValueError):
            experiment.explore(small_space(), TEMPLATE, replications=0)


# ---------------------------------------------------------------------------
# Frontier analysis
# ---------------------------------------------------------------------------


class TestFrontier:
    def rows(self, pairs):
        return [
            {
                "ipc": summarize_metric("ipc", [ipc]),
                "bus": summarize_metric("bus", [bus]),
            }
            for ipc, bus in pairs
        ]

    def test_pareto_indices(self):
        rows = self.rows([(0.2, 0.5), (0.3, 0.6), (0.1, 0.2), (0.3, 0.7)])
        objectives = [Objective("ipc", True), Objective("bus", False)]
        assert pareto_indices(rows, objectives) == [0, 1, 2]

    def test_ties_survive(self):
        rows = self.rows([(0.2, 0.5), (0.2, 0.5)])
        objectives = [Objective("ipc", True), Objective("bus", False)]
        assert pareto_indices(rows, objectives) == [0, 1]

    def test_objective_parsing(self):
        objectives = parse_objectives(
            "max:throughput:Issue, min:avg_tokens:Bus_busy"
        )
        assert objectives[0] == Objective("throughput:Issue", True)
        assert objectives[1] == Objective("avg_tokens:Bus_busy", False)
        from repro.dse import FrontierError
        for bad in ("", "up:ipc", "max:", "nope"):
            with pytest.raises(FrontierError):
                parse_objectives(bad)

    def test_exploration_frontier_payload_and_table(self):
        result = run_exploration(TEMPLATE, small_space(), [1, 2], until=60)
        objectives = parse_objectives(
            "max:throughput:work,min:avg_tokens:pool"
        )
        payload = result.frontier(objectives)
        assert payload["objectives"][0] == {
            "metric": "throughput:work", "direction": "max",
        }
        surviving = {entry["point"] for entry in payload["points"]}
        assert surviving  # something is always on the frontier
        table = result.frontier_table(objectives)
        assert "tokens" in table.splitlines()[0]
        assert any(line.startswith("*") for line in table.splitlines()[1:])
        from repro.dse import FrontierError
        with pytest.raises(FrontierError, match="unknown frontier metric"):
            result.frontier(parse_objectives("max:no_such_metric"))


# ---------------------------------------------------------------------------
# The CLI (in-process path; the service path is covered by
# tests/test_service.py and the explore smoke)
# ---------------------------------------------------------------------------


class TestExploreCli:
    def run_cli(self, args, stdin_text=None):
        import sys

        from repro.cli import main

        old_out, old_err, old_in = sys.stdout, sys.stderr, sys.stdin
        sys.stdout = io.StringIO()
        sys.stderr = io.StringIO()
        if stdin_text is not None:
            sys.stdin = io.StringIO(stdin_text)
        try:
            code = main(args)
            return code, sys.stdout.getvalue(), sys.stderr.getvalue()
        finally:
            sys.stdout, sys.stderr, sys.stdin = old_out, old_err, old_in

    @pytest.fixture()
    def template_file(self, tmp_path):
        path = tmp_path / "grid.pn"
        path.write_text(TEMPLATE)
        return str(path)

    def parse_lines(self, out):
        import json

        records = [json.loads(line) for line in out.splitlines()]
        by_kind: dict = {}
        for record in records:
            by_kind.setdefault(record["kind"], []).append(record)
        return by_kind

    def test_explore_end_to_end(self, template_file):
        code, out, err = self.run_cli(
            ["explore", template_file,
             "--param", "tokens=2,4", "--param", "delay=1..2",
             "--seeds", "1..2", "--until", "60",
             "--frontier", "max:throughput:work"]
        )
        assert code == 0
        records = self.parse_lines(out)
        assert len(records["cell"]) == 8
        assert len(records["point"]) == 4
        assert len(records["frontier"]) == 1
        assert records["cell"][0]["params"] == {"tokens": 2, "delay": 1}
        assert "cells_sha256=" in err
        # Matches the library path byte for byte.
        result = run_exploration(TEMPLATE, small_space(), [1, 2],
                                 until=60.0)
        assert canonical_json(records["cell"][0]) == canonical_json({
            "kind": "cell", "params": result.points[0],
            **result.cells[0].to_payload(),
        })

    def test_store_rerun_skips(self, template_file, tmp_path):
        store_path = str(tmp_path / "cells.jsonl")
        args = ["explore", template_file, "--param", "tokens=2,4",
                "--param", "delay=1", "--seeds", "1..2", "--until", "40",
                "--store", store_path]
        code, _out, err = self.run_cli(args)
        assert code == 0 and "stored=0" in err
        code, _out, err = self.run_cli(args)
        assert code == 0 and "stored=4" in err

    def test_bad_arguments_exit_two(self, template_file):
        for extra in (
            ["--param", "tokens=2", "--seeds", "nope"],
            ["--param", "tokens=4..1", "--seeds", "1"],
            ["--param", "tokens=2", "--seeds", "1"],  # no stop condition
            ["--param", "tokens=2", "--seeds", "1", "--until", "10",
             "--frontier", "sideways:ipc"],
        ):
            code, _out, err = self.run_cli(["explore", template_file] + extra)
            assert code == 2, extra
            assert "pnut explore" in err

    def test_missing_template_param_exits_two(self, template_file):
        code, _out, err = self.run_cli(
            ["explore", template_file, "--param", "tokens=2",
             "--seeds", "1", "--until", "10"]
        )
        assert code == 2
        assert "missing" in err
