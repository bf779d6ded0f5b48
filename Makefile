# One-command entry points for the two suites (and a collection smoke
# check so a broken benchmark import fails fast without paying for the
# full run). PYTHONPATH is set here so no install step is needed.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench bench-co bench-report perf-smoke differential \
        coverage test-all serve-smoke explore-smoke chaos-smoke \
        restart-smoke obs-smoke spans-smoke lint

## tier-1: the unit/integration suite plus benchmarks (the repo gate),
## then the end-to-end service, exploration and fault-injection smokes
## (real `pnut serve` subprocesses)
test:
	$(PYTHON) -m pytest -x -q
	$(MAKE) serve-smoke
	$(MAKE) explore-smoke
	$(MAKE) chaos-smoke
	$(MAKE) restart-smoke
	$(MAKE) obs-smoke
	$(MAKE) spans-smoke

## boot a pnut server, run the Figure-5 job, check the pinned trace
## SHA-256 and the compiled-net cache counters, shut down cleanly
serve-smoke:
	$(PYTHON) -m repro.service.smoke

## boot a pnut server, run a 2x2 parameter grid through `pnut explore
## --socket --store`, verify byte identity with the in-process path and
## the result-store round trip
explore-smoke:
	$(PYTHON) -m repro.dse.smoke

## fault injection against a real server: SIGKILL the worker mid
## Figure-5 job (retry must reproduce the pinned trace SHA-256), stall a
## worker past its deadline (job-timeout, child reaped), drain on
## shutdown (queued jobs finish before exit), SIGKILL the whole server
## between accepts (restart on the same --state/--store must resume
## byte-identically), and recover past a torn journal tail
chaos-smoke:
	$(PYTHON) -m repro.service.chaos

## durability end to end: SIGKILL a real `pnut serve --state --store`
## subprocess mid-sweep (no fault injection — an external kill), restart
## on the same directories, and require the journal-recovered sweep to
## resume the checkpointed cells with a byte-identical runs_sha256
restart-smoke:
	$(PYTHON) -m repro.service.restart_smoke

## end-to-end observability: boot a server with --obs-log, run the
## Figure-5 job, assert the `metrics` op schema (canonical JSON +
## Prometheus text), validate the span JSONL, render a live `pnut top`
## frame
obs-smoke:
	$(PYTHON) -m repro.obs.smoke

## hierarchical spans end to end: a sweep and a twice-run 2x2
## exploration (second pass all store skips) must land one child
## cell-span per seed/cell under the job's trace, then round-trip
## through `pnut spans` (Gantt) and `pnut spans --stats --json`
spans-smoke:
	$(PYTHON) -m repro.obs.spans_smoke

## the benchmark/experiment suite only; this target, and no other,
## records its measurements to BENCH_engine.json (BENCH_RECORD=1) —
## `make test` and plain pytest runs leave the trajectory as committed
bench:
	BENCH_RECORD=1 $(PYTHON) -m pytest benchmarks -q

## smoke check: benchmarks must collect cleanly and the perf-trajectory
## file (BENCH_engine.json) must satisfy its schema
bench-co:
	$(PYTHON) -m pytest benchmarks -q --co
	$(PYTHON) -m pytest benchmarks/test_bench_schema.py -q

## one-table summary of the BENCH_engine.json perf trajectory
## (per-metric first vs latest, speedup column); CHECK=1 turns it into
## a gate — the latest record of each metric may not regress more than
## 25% against its predecessor on the same runner fingerprint
## (cross-runner pairs, the starred rows, are exempt)
bench-report:
	$(PYTHON) benchmarks/bench_report.py $(if $(CHECK),--check)

## the randomized differential harness at CI strength: hypothesis's
## `ci` profile (more examples, derandomized so a red run reproduces
## locally with HYPOTHESIS_PROFILE=ci), slowest examples printed —
## scalar-bucket vs scalar-heap vs lockstep must stay bit-identical,
## and the grid orchestration (seed lists, stored subsets, workers,
## backends) must reproduce a cold scalar run cell for cell
differential:
	HYPOTHESIS_PROFILE=ci $(PYTHON) -m pytest -q --durations=10 \
	    tests/test_schedule_differential.py \
	    tests/test_lockstep.py \
	    tests/test_properties.py \
	    tests/test_grid.py

## tier-1 under coverage.py (pinned in requirements-dev.txt; config
## .coveragerc): line coverage over src/repro with an 80% floor, plus
## the HTML report CI uploads as an artifact (htmlcov/)
coverage:
	$(PYTHON) -m coverage run -m pytest -x -q
	$(PYTHON) -m coverage report --fail-under=80
	$(PYTHON) -m coverage html

## CI perf smoke: the engine hotpath, scheduler and lockstep benchmarks
## at a short horizon with 2x-slack regression gates (PERF_SMOKE=1), so
## a hot-path regression fails the PR even on shared runners that are
## slower than the reference container
perf-smoke:
	PERF_SMOKE=1 $(PYTHON) -m pytest -q \
	    benchmarks/test_bench_engine_hotpath.py \
	    benchmarks/test_bench_scheduler.py \
	    benchmarks/test_bench_lockstep.py

## static checks (ruff, pinned in requirements-dev.txt; config ruff.toml)
lint:
	$(PYTHON) -m ruff check src tests benchmarks examples setup.py

## unit tests, then the benchmark collection smoke check
test-all: bench-co
	$(PYTHON) -m pytest tests -q
