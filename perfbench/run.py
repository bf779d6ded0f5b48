"""Repo benchmark: four user-facing workloads of the P-NUT tool chain.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve_submit --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics of one workload; ``--trace
1`` runs the separate traced pass that times each layer from outside and
prints the workload's layer ledger. Every metric is also printed on its
own ``metric {...}`` line with its provenance; the last line of standard
output is the JSON result. See ``perfbench/README.md`` for why each
workload exists and which layer should move which metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    CYCLES,
    REFERENCE_EVENT_SHA256,
    REFERENCE_SEED,
    ROOT,
    BenchError,
    Session,
    fig5_error_pct,
    provenance_line,
    require_sources,
    revision,
    runner_fingerprint,
)

#: Seeds whose pooled Figure-5 statistics give ``fig5_error_pct``: fixed,
#: so the accuracy figure is the same on every run of a revision.
ACCURACY_SEEDS = list(range(REFERENCE_SEED, REFERENCE_SEED + 8))

#: name -> (unit, better) of the end-to-end metrics, in BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "request_p50_ms": ("ms", "lower"),
    "request_p90_ms": ("ms", "lower"),
    "runs_per_s": ("1/s", "higher"),
    "events_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "fig5_error_pct": ("%", "lower"),
}


def check_reference_path() -> None:
    """The in-process reference path must reproduce the pinned run."""
    from repro.lang.parser import parse_net
    from repro.sim import simulate
    from workloads import fig5_source

    result = simulate(parse_net(fig5_source()), until=CYCLES,
                      seed=REFERENCE_SEED)
    digest = hashlib.sha256()
    for e in result.events:
        digest.update(repr((
            e.seq, e.time, e.kind.value, e.transition,
            sorted(e.removed.items()), sorted(e.added.items()),
            sorted(e.variables.items()),
        )).encode())
    if digest.hexdigest() != REFERENCE_EVENT_SHA256:
        raise BenchError("reference path drifted: seed 1988 hashes to "
                         f"{digest.hexdigest()}")


def accuracy() -> float:
    from workloads import fig5_source, scalar_runs

    runs = scalar_runs(fig5_source(), ACCURACY_SEEDS, CYCLES).runs
    return fig5_error_pct([run.stats for run in runs])


def end_to_end(workload, session, seconds, tally) -> tuple[dict, dict]:
    from workloads import run_cli, run_serve

    if workload.uses_server:
        loop = run_serve(workload, session, seconds, tally)
    else:
        loop = run_cli(workload, session, seconds, tally)
    print("request_ms "
          + json.dumps([round(ms, 3) for ms in loop["latencies"]]))
    return {
        "setup_s": loop["setup_s"],
        "request_p50_ms": loop["p50"],
        "request_p90_ms": loop["p90"],
        "runs_per_s": loop["runs_per_s"],
        "events_per_s": loop["events_per_s"],
        "peak_rss_mb": loop["peak_rss_mb"],
    }, {"samples": len(loop["latencies"]),
        "raw_request_p50_ms": loop["raw_p50"],
        "raw_request_p90_ms": loop["raw_p90"],
        "host_factor": loop["host_factor"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        require_sources()
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    from workloads import WORKLOADS, Tally

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    runner, rev = runner_fingerprint(), revision()
    workload = WORKLOADS[args.workload](args.seed)
    tally = Tally()
    session = Session()
    try:
        check_reference_path()
        error_pct = accuracy()
        started = time.perf_counter()
        workload.prepare()
        print(f"references for {workload.name} (seed {args.seed}): "
              f"{time.perf_counter() - started:.2f} s", flush=True)
        if args.trace:
            from layers import traced

            values, units, extra = traced(workload, session, args.seconds,
                                          tally)
        else:
            values, extra = end_to_end(workload, session, args.seconds,
                                       tally)
            values["fig5_error_pct"] = error_pct
            units = END_TO_END
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        leaked = session.survivors()
        for pid in leaked:
            tally.fail(f"leaked process {pid}")
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass  # it exited on its own meanwhile
        deadline = time.monotonic() + 10.0
        while leaked and session.survivors() and time.monotonic() < deadline:
            time.sleep(0.05)
        session.close()

    for name, value in values.items():
        unit, better = units[name][:2]
        layer = units[name][2] if len(units[name]) > 2 else "e2e"
        print(provenance_line(name, value, unit, better, layer,
                              workload.name, runner, rev, seed=args.seed,
                              **extra))
    for reason in tally.reasons:
        print(f"failure: {reason}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
