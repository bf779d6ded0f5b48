"""Schema gate for the perf-trajectory file (``BENCH_engine.json``).

Under ``make bench`` (``BENCH_RECORD=1``) every benchmark module
appends one record per run via ``conftest.append_trajectory``; future
PRs read the file to compare against the recorded trajectory. A
malformed append — missing keys, a non-ISO timestamp, clock skew
producing out-of-order records — would silently poison those
comparisons, so this module (run by ``make bench-co`` and therefore by
CI) fails fast instead.

The schema is deliberately small: the *common* envelope every record
must carry, plus shape checks on the measurements. Individual benchmark
modules own their record-specific keys.
"""

from __future__ import annotations

import json
from datetime import datetime

from conftest import BENCH_JSON

#: Keys every trajectory record must carry.
REQUIRED_KEYS = ("timestamp", "model")

#: At least one of these measurement keys must be present — a record
#: with an envelope but no number measures nothing.
MEASUREMENT_SUFFIXES = ("_per_sec", "_per_sec_materialized",
                        "_per_sec_streaming", "_speedup_x", "_ms", "_kb")


def load_history() -> list[dict]:
    assert BENCH_JSON.exists(), (
        f"{BENCH_JSON} missing: the perf trajectory is part of the repo"
    )
    history = json.loads(BENCH_JSON.read_text())
    assert isinstance(history, list) and history, (
        "BENCH_engine.json must be a non-empty JSON list"
    )
    return history


def test_every_entry_has_the_envelope():
    for index, entry in enumerate(load_history()):
        assert isinstance(entry, dict), f"entry {index} is not an object"
        for key in REQUIRED_KEYS:
            assert key in entry, f"entry {index} lacks required key {key!r}"
        assert isinstance(entry["model"], str) and entry["model"], (
            f"entry {index} has a bad model name: {entry['model']!r}"
        )


def test_every_entry_carries_a_measurement():
    for index, entry in enumerate(load_history()):
        numeric = [
            key for key, value in entry.items()
            if key.endswith(MEASUREMENT_SUFFIXES)
            and isinstance(value, (int, float)) and not isinstance(value, bool)
        ]
        assert numeric, f"entry {index} has no measurement key: {entry}"
        bad = [key for key in numeric if entry[key] <= 0]
        assert not bad, f"entry {index} has non-positive measurements {bad}"


def test_timestamps_are_iso_and_monotonic():
    previous = None
    for index, entry in enumerate(load_history()):
        stamp = entry["timestamp"]
        assert isinstance(stamp, str), f"entry {index} timestamp not a string"
        parsed = datetime.fromisoformat(stamp)  # raises on malformed input
        assert parsed.tzinfo is not None, (
            f"entry {index} timestamp {stamp!r} is not timezone-aware"
        )
        if previous is not None:
            assert parsed >= previous, (
                f"entry {index} timestamp {stamp!r} precedes its predecessor"
            )
        previous = parsed
