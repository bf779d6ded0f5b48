"""Unit tests for the trajectory summarizer (``make bench-report``)."""

from __future__ import annotations

import json

import bench_report
import conftest


HISTORY = [
    {"timestamp": "2026-01-02T10:00:00+00:00", "model": "m",
     "events_per_sec_streaming": 100_000, "peak_rss_kb": 50_000},
    {"timestamp": "2026-03-04T10:00:00+00:00", "model": "m",
     "events_per_sec_streaming": 250_000, "peak_rss_kb": 80_000,
     "sweep_speedup_x": 2.5},
    {"timestamp": "2026-05-06T10:00:00+00:00", "model": "m",
     "events_per_sec_streaming": 300_000, "note": "not-a-measurement",
     "runner": "somewhere-else"},
]


class TestCollect:
    def test_first_latest_and_run_counts(self):
        rows = {r["metric"]: r for r in bench_report.collect(HISTORY)}
        stream = rows["events_per_sec_streaming"]
        assert (stream["runs"], stream["first"], stream["latest"]) == (
            3, 100_000, 300_000
        )
        assert stream["first_at"].startswith("2026-01-02")
        assert stream["latest_at"].startswith("2026-05-06")
        assert rows["sweep_speedup_x"]["runs"] == 1

    def test_non_measurement_keys_ignored(self):
        rows = {r["metric"] for r in bench_report.collect(HISTORY)}
        assert "note" not in rows
        assert "runner" not in rows
        assert "model" not in rows

    def test_runner_defaults_to_unknown(self):
        rows = {r["metric"]: r for r in bench_report.collect(HISTORY)}
        stream = rows["events_per_sec_streaming"]
        assert stream["first_runner"] == "unknown"  # record predates it
        assert stream["latest_runner"] == "somewhere-else"
        # Both records of peak_rss_kb lack a fingerprint: not a change.
        rss = rows["peak_rss_kb"]
        assert rss["first_runner"] == rss["latest_runner"] == "unknown"

    def test_runner_nested_in_extra_info(self):
        entry = {"extra_info": {"runner": "ci-box"}}
        assert bench_report._runner(entry) == "ci-box"
        assert bench_report._runner({"extra_info": "bogus"}) == "unknown"
        assert bench_report._runner({"runner": ""}) == "unknown"
        assert bench_report._runner({}) == "unknown"


class TestRender:
    def test_table_carries_speedup_column(self):
        out = bench_report.render(HISTORY)
        line = next(s for s in out.splitlines()
                    if s.startswith("events_per_sec_streaming"))
        assert "3.00x" in line          # 300k over 100k
        assert "2026-05-06" in line
        assert "(3 trajectory records" in out

    def test_single_run_metrics_show_no_change(self):
        out = bench_report.render(HISTORY)
        line = next(s for s in out.splitlines()
                    if s.startswith("sweep_speedup_x"))
        assert line.rstrip().split()[-2] == "-"

    def test_cost_metrics_growth_is_flagged(self):
        out = bench_report.render(HISTORY)
        line = next(s for s in out.splitlines()
                    if s.startswith("peak_rss_kb"))
        assert "1.60x (!)" in line

    def test_cross_runner_changes_are_starred(self):
        out = bench_report.render(HISTORY)
        line = next(s for s in out.splitlines()
                    if s.startswith("events_per_sec_streaming"))
        assert "3.00x*" in line  # first on unknown, latest elsewhere
        assert "unknown -> somewhere-else" in out  # footnote names them
        rss_line = next(s for s in out.splitlines()
                        if s.startswith("peak_rss_kb"))
        assert "*" not in rss_line  # same (unknown) runner throughout

    def test_empty_history(self):
        assert bench_report.render([]) == "no measurements recorded"


class TestMain:
    def test_reads_explicit_path(self, tmp_path, capsys):
        path = tmp_path / "hist.json"
        path.write_text(json.dumps(HISTORY))
        assert bench_report.main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "events_per_sec_streaming" in out

    def test_missing_file_fails(self, tmp_path, capsys):
        assert bench_report.main([str(tmp_path / "nope.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_malformed_json_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert bench_report.main([str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_default_path_is_repo_trajectory(self, capsys):
        assert bench_report.main([]) == 0
        assert "events_per_sec" in capsys.readouterr().out


def _rec(stamp_day, runner=None, **measurements):
    entry = {"timestamp": f"2026-01-{stamp_day:02d}T10:00:00+00:00",
             "model": "m", **measurements}
    if runner is not None:
        entry["runner"] = runner
    return entry


class TestCheck:
    def test_within_tolerance_passes(self):
        history = [
            _rec(1, "box-a", runs_per_sec=100.0),
            _rec(2, "box-a", runs_per_sec=80.0),  # -20%, inside 25%
        ]
        assert bench_report.check(history) == []

    def test_same_runner_regression_fails(self):
        history = [
            _rec(1, "box-a", runs_per_sec=100.0),
            _rec(2, "box-a", runs_per_sec=70.0),  # -30%
        ]
        violations = bench_report.check(history)
        assert len(violations) == 1
        assert "runs_per_sec" in violations[0]
        assert "box-a" in violations[0]

    def test_cross_runner_pair_is_exempt(self):
        history = [
            _rec(1, "box-a", runs_per_sec=100.0),
            _rec(2, "box-b", runs_per_sec=10.0),  # slower machine, not a bug
        ]
        assert bench_report.check(history) == []

    def test_compares_against_last_same_runner_record(self):
        # box-b's slow interlude must not shield box-a's regression.
        history = [
            _rec(1, "box-a", runs_per_sec=100.0),
            _rec(2, "box-b", runs_per_sec=10.0),
            _rec(3, "box-a", runs_per_sec=60.0),  # -40% vs day 1
        ]
        assert len(bench_report.check(history)) == 1

    def test_cost_metrics_fail_on_growth(self):
        history = [
            _rec(1, "box-a", cold_lookup_ms=1.0),
            _rec(2, "box-a", cold_lookup_ms=1.4),  # +40%
        ]
        violations = bench_report.check(history)
        assert len(violations) == 1 and "grew" in violations[0]
        shrinking = [
            _rec(1, "box-a", cold_lookup_ms=1.0),
            _rec(2, "box-a", cold_lookup_ms=0.4),  # shrinking is fine
        ]
        assert bench_report.check(shrinking) == []

    def test_process_wide_rss_is_never_judged(self):
        # peak_rss_kb is ru_maxrss of the whole pytest process: a bench
        # run standalone vs inside the full suite differs 2x with no
        # engine change, so same-runner is not same-config for it.
        history = [
            _rec(1, "box-a", peak_rss_kb=50_000),
            _rec(2, "box-a", peak_rss_kb=130_000),
        ]
        assert bench_report.check(history) == []

    def test_first_measurement_has_nothing_to_compare(self):
        assert bench_report.check([_rec(1, "box-a", runs_per_sec=5.0)]) == []

    def test_unfingerprinted_records_are_exempt(self):
        # Pre-fingerprint records all read "unknown"; two unknowns may
        # be two different machines, so they never form a gate pair.
        history = [
            _rec(1, runs_per_sec=100.0),
            _rec(2, runs_per_sec=10.0),
        ]
        assert bench_report.check(history) == []

    def test_main_check_flag_gates(self, tmp_path, capsys):
        path = tmp_path / "hist.json"
        path.write_text(json.dumps([
            _rec(1, "box-a", runs_per_sec=100.0),
            _rec(2, "box-a", runs_per_sec=70.0),
        ]))
        assert bench_report.main([str(path), "--check"]) == 1
        out = capsys.readouterr().out
        assert "regression beyond tolerance" in out
        path.write_text(json.dumps([
            _rec(1, "box-a", runs_per_sec=100.0),
            _rec(2, "box-a", runs_per_sec=95.0),
        ]))
        assert bench_report.main([str(path), "--check"]) == 0
        assert "no same-runner regressions" in capsys.readouterr().out

    def test_repo_trajectory_is_clean(self, capsys):
        assert bench_report.main(["--check"]) == 0
        assert "no same-runner regressions" in capsys.readouterr().out


class TestRecordOptIn:
    """``append_trajectory`` writes only under ``BENCH_RECORD=1``."""

    def _copy(self, tmp_path, monkeypatch):
        path = tmp_path / "BENCH_engine.json"
        path.write_text(json.dumps([_rec(1, "box-a", runs_per_sec=5.0)]))
        monkeypatch.setattr(conftest, "BENCH_JSON", path)
        return path

    def test_unset_leaves_file_untouched(self, tmp_path, monkeypatch):
        path = self._copy(tmp_path, monkeypatch)
        before = path.read_bytes()
        monkeypatch.delenv("BENCH_RECORD", raising=False)
        conftest.append_trajectory(_rec(2, "box-a", runs_per_sec=6.0))
        assert path.read_bytes() == before

    def test_set_appends_one_record(self, tmp_path, monkeypatch):
        path = self._copy(tmp_path, monkeypatch)
        monkeypatch.setenv("BENCH_RECORD", "1")
        conftest.append_trajectory(_rec(2, "box-a", runs_per_sec=6.0))
        history = json.loads(path.read_text())
        assert len(history) == 2
        assert history[-1]["runs_per_sec"] == 6.0
