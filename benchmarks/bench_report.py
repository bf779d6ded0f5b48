"""Summarize the ``BENCH_engine.json`` perf trajectory as one table.

Under ``make bench`` (``BENCH_RECORD=1``) every benchmark module
appends measurement records to the trajectory file (see
``conftest.append_trajectory``); other runs, tier-1 included, leave the
file as committed. This tool reduces the history to a per-metric view — first recorded value, latest value, and
the latest/first speedup — so the perf story of the repo is readable
without opening the JSON::

    $ make bench-report
    metric                                    runs      first     latest  change
    events_per_sec_materialized                  9     222163     388609   1.75x
    ...

Pure stdlib; runs anywhere the repo checks out (CI invokes it right
after uploading the trajectory artifact, so the table lands in the
workflow log next to the uploaded file).

``--check`` turns the summary into a regression gate: for every metric
whose two most recent records were measured on the *same* runner
fingerprint, the latest value may not regress more than 25% against its
predecessor (drop for rate/speedup metrics, growth for cost metrics
like ``_ms``/``_kb``). Pairs spanning different runners — the starred
rows of the table — are exempt: a slower machine is not a slower
engine.
"""

from __future__ import annotations

import json
import os
import sys
from datetime import datetime
from pathlib import Path

#: A key is a measurement when it ends in one of these (the same rule
#: the schema gate applies) — everything else is envelope/context.
MEASUREMENT_SUFFIXES = (
    "_per_sec", "_per_sec_materialized", "_per_sec_streaming",
    "_speedup_x", "_ms", "_kb", "_probes", "_instants", "_avoided",
)

#: Keys where growth is a cost, not a win (flagged instead of celebrated).
LOWER_IS_BETTER = ("_ms", "_kb")


def _is_measurement(key: str, value) -> bool:
    return (
        key.endswith(MEASUREMENT_SUFFIXES)
        and isinstance(value, (int, float))
        and not isinstance(value, bool)
    )


def _runner(entry: dict) -> str:
    """The machine fingerprint a record was measured on.

    Records predating the fingerprint (and pytest-benchmark exports,
    which nest it under ``extra_info``) default to ``"unknown"`` rather
    than crashing or silently comparing across machines.
    """
    runner = entry.get("runner")
    if not isinstance(runner, str) or not runner:
        extra = entry.get("extra_info")
        runner = extra.get("runner") if isinstance(extra, dict) else None
    if not isinstance(runner, str) or not runner:
        return "unknown"
    return runner


def collect(history: list[dict]) -> list[dict]:
    """Reduce the record list to one summary row per metric key."""
    metrics: dict[str, dict] = {}
    for entry in history:
        stamp = entry.get("timestamp", "")
        runner = _runner(entry)
        for key, value in entry.items():
            if not _is_measurement(key, value):
                continue
            row = metrics.get(key)
            if row is None:
                metrics[key] = {
                    "metric": key, "runs": 1,
                    "first": value, "first_at": stamp,
                    "first_runner": runner,
                    "latest": value, "latest_at": stamp,
                    "latest_runner": runner,
                }
            else:
                row["runs"] += 1
                row["latest"] = value
                row["latest_at"] = stamp
                row["latest_runner"] = runner
    return [metrics[key] for key in sorted(metrics)]


#: ``--check``: a metric may lose at most this fraction against its
#: previous same-runner record before the gate fails.
CHECK_TOLERANCE = 0.25

#: Keys the gate never judges. ``peak_rss_kb`` is ``ru_maxrss`` of the
#: whole pytest process, so its value depends on which tests ran in the
#: process before the benchmark (a standalone bench run vs the full
#: suite differ 2x without any engine change) — same-runner is not
#: same-config for it. It stays in the table for eyeballing.
CHECK_EXEMPT = frozenset({"peak_rss_kb"})


def check(history: list[dict]) -> list[str]:
    """Same-runner regression check; returns the violation messages.

    For each measurement key, the comparison pair is the latest record
    carrying the key and the most recent *earlier* record carrying it
    on the same runner fingerprint. No same-runner predecessor (first
    measurement, or a machine change — the table's starred rows) means
    nothing to compare, never a failure; records without a fingerprint
    (``"unknown"``) cannot claim to share a machine and are likewise
    exempt, as are the process-wide cost keys in :data:`CHECK_EXEMPT`.
    """
    series: dict[str, list[tuple[str, float, str]]] = {}
    for entry in history:
        runner = _runner(entry)
        stamp = entry.get("timestamp", "")
        for key, value in entry.items():
            if _is_measurement(key, value):
                series.setdefault(key, []).append((runner, value, stamp))
    violations = []
    for key in sorted(series):
        if key in CHECK_EXEMPT:
            continue
        records = series[key]
        runner, latest, stamp = records[-1]
        if runner == "unknown":
            continue
        previous = next(
            (value for r, value, _s in reversed(records[:-1]) if r == runner),
            None,
        )
        if previous is None or previous <= 0:
            continue
        if key.endswith(LOWER_IS_BETTER):
            regressed = latest > previous * (1 + CHECK_TOLERANCE)
            direction = "grew"
        else:
            regressed = latest < previous * (1 - CHECK_TOLERANCE)
            direction = "dropped"
        if regressed:
            violations.append(
                f"{key}: {direction} {_fmt_value(previous)} -> "
                f"{_fmt_value(latest)} on {runner} ({stamp or 'undated'}), "
                f"beyond the {CHECK_TOLERANCE:.0%} tolerance"
            )
    return violations


def _fmt_value(value) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.2f}"
    return f"{int(value)}"


def _cross_runner(row: dict) -> bool:
    return row["runs"] >= 2 and row["first_runner"] != row["latest_runner"]


def _fmt_change(row: dict) -> str:
    first, latest = row["first"], row["latest"]
    if row["runs"] < 2:
        return "-"
    if not first:
        return "n/a"
    ratio = latest / first
    flag = ""
    if row["metric"].endswith(LOWER_IS_BETTER) and ratio > 1.25:
        flag = " (!)"
    if _cross_runner(row):
        flag += "*"
    return f"{ratio:.2f}x{flag}"


def _fmt_date(stamp: str) -> str:
    try:
        return datetime.fromisoformat(stamp).strftime("%Y-%m-%d")
    except ValueError:
        return "?"


def render(history: list[dict]) -> str:
    rows = collect(history)
    if not rows:
        return "no measurements recorded"
    header = ("metric", "runs", "first", "latest", "change", "last run")
    table = [header] + [
        (
            row["metric"], str(row["runs"]), _fmt_value(row["first"]),
            _fmt_value(row["latest"]), _fmt_change(row),
            _fmt_date(row["latest_at"]),
        )
        for row in rows
    ]
    widths = [max(len(line[col]) for line in table)
              for col in range(len(header))]
    out = []
    for line in table:
        cells = [line[0].ljust(widths[0])]
        cells += [line[col].rjust(widths[col])
                  for col in range(1, len(header))]
        out.append("  ".join(cells).rstrip())
    span = "{} .. {}".format(
        _fmt_date(history[0].get("timestamp", "")),
        _fmt_date(history[-1].get("timestamp", "")),
    )
    out.append(f"({len(history)} trajectory records, {span})")
    crossed = [row for row in rows if _cross_runner(row)]
    if crossed:
        out.append(
            "* first/latest measured on different machines ({}); the "
            "change ratio is not an engine comparison".format(
                ", ".join(sorted({
                    f"{row['first_runner']} -> {row['latest_runner']}"
                    for row in crossed
                }))
            )
        )
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    run_check = "--check" in args
    args = [a for a in args if a != "--check"]
    path = Path(args[0]) if args else (
        Path(__file__).resolve().parent.parent / "BENCH_engine.json"
    )
    if not path.exists():
        print(f"bench-report: {path} not found", file=sys.stderr)
        return 2
    try:
        history = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        print(f"bench-report: {path} is not valid JSON: {exc}",
              file=sys.stderr)
        return 2
    if not isinstance(history, list):
        print(f"bench-report: {path} must hold a JSON list", file=sys.stderr)
        return 2
    try:
        print(render(history))
        if run_check:
            violations = check(history)
            if violations:
                print("bench-check: regression beyond tolerance:")
                for line in violations:
                    print(f"  {line}")
                return 1
            print("bench-check: no same-runner regressions")
    except BrokenPipeError:
        # Downstream pipe (e.g. `make bench-report | head`) closed early:
        # not an error. Point stdout at devnull so the interpreter's exit
        # flush does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
