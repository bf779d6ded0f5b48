"""Synchronous client for the simulation service.

Thin by design: one socket, NDJSON frames, blocking reads. ``pnut
submit`` / ``pnut jobs`` and the tests drive it; anything the in-process
toolchain computes (statistics, traces) arrives byte-identical through
here, so the examples and query/report tools can run against a server
without changing their output.
"""

from __future__ import annotations

import os
import socket
import time
from dataclasses import dataclass
from typing import Any, Callable

from ..analysis.report import canonical_json
from .protocol import (
    ExploreSpec,
    JobSpec,
    ServiceError,
    SweepSpec,
    decode,
    encode,
)


class RemoteError(ServiceError):
    """An error frame returned by the server."""

    def __init__(self, message: str, code: str = "error") -> None:
        super().__init__(message)
        self.code = code


class ClientDisconnected(ServiceError):
    """The server connection died mid-conversation (EOF, reset, timeout).

    ``last_state`` describes the last thing the client knew about the
    in-flight request — so a caller that sees this mid-job knows what
    was confirmed before the link went down."""

    def __init__(self, message: str, last_state: str | None = None) -> None:
        super().__init__(message)
        self.last_state = last_state


@dataclass
class JobResult:
    """A completed submission as seen by the client."""

    job_id: str
    cached: bool
    summary: dict[str, Any]
    stats: dict[str, Any] | None = None
    trace_lines: list[str] | None = None
    #: Tracing span id the server minted (or echoed) for this job.
    trace_id: str | None = None
    #: True when the server re-armed this job from its write-ahead
    #: journal after a restart (``pnut serve --state``).
    recovered: bool = False

    @property
    def trace_sha256(self) -> str:
        return self.summary["trace_sha256"]

    def stats_json(self) -> str:
        """Canonical JSON of the statistics — byte-comparable with
        ``pnut stat --json`` over the same run."""
        if self.stats is None:
            raise ServiceError("job was submitted without the 'stats' output")
        return canonical_json(self.stats)


@dataclass
class SweepOutcome:
    """A completed multi-seed sweep as seen by the client.

    ``runs`` holds one payload per seed in submission order — each is
    exactly the summary an individual submission of that seed would
    report (``stats`` dict, ``trace_sha256``); ``aggregates`` carries
    the server-computed cross-run mean/CI summaries.
    """

    job_id: str
    cached: bool
    summary: dict[str, Any]
    aggregates: dict[str, Any]
    runs: list[dict[str, Any]]
    trace_id: str | None = None
    #: True when the server re-armed this job from its write-ahead
    #: journal after a restart (``pnut serve --state``).
    recovered: bool = False

    @property
    def resumed_cells(self) -> int:
        """Runs served from the server-side result store instead of
        being re-simulated (0 on a cold run or a store-less server)."""
        return int(self.summary.get("resumed_cells", 0))

    @property
    def runs_sha256(self) -> str:
        return self.summary["runs_sha256"]

    def run_stats_json(self, index: int) -> str:
        """Canonical JSON of one run's statistics — byte-comparable with
        ``pnut stat --json`` over the same seed's standalone run."""
        stats = self.runs[index].get("stats")
        if stats is None:
            raise ServiceError(
                "sweep was submitted without the 'stats' output"
            )
        return canonical_json(stats)


@dataclass
class ExploreOutcome:
    """A completed design-space exploration as seen by the client.

    ``cells`` maps cell index (point-major grid order) to the cell
    payload — exactly the summary an individual submission of that
    point's bound net and seed would report. Cells the request listed in
    ``skip`` are absent here; the caller (``pnut explore``) merges them
    back from its result store.
    """

    job_id: str
    cached: bool
    summary: dict[str, Any]
    cells: dict[int, dict[str, Any]]
    trace_id: str | None = None
    #: True when the server re-armed this job from its write-ahead
    #: journal after a restart (``pnut serve --state``).
    recovered: bool = False

    @property
    def resumed_cells(self) -> int:
        """Cells served from the server-side result store instead of
        being re-simulated (0 on a cold run or a store-less server)."""
        return int(self.summary.get("resumed_cells", 0))

    @property
    def net_shas(self) -> list[str]:
        return self.summary["net_shas"]

    def cell_stats_json(self, index: int) -> str:
        """Canonical JSON of one cell's statistics — byte-comparable
        with ``pnut stat --json`` over the bound net and seed."""
        stats = self.cells[index].get("stats")
        if stats is None:
            raise ServiceError(
                "exploration was submitted without the 'stats' output"
            )
        return canonical_json(stats)


class ServiceClient:
    """Blocking NDJSON client over a Unix or TCP socket."""

    #: Reconnect backoff: min(cap, base * 2^(attempt-1)) seconds between
    #: reconnection attempts after a dropped connection.
    RECONNECT_BACKOFF_BASE = 0.2
    RECONNECT_BACKOFF_CAP = 2.0

    def __init__(
        self,
        unix_path: str | None = None,
        host: str | None = None,
        port: int | None = None,
        timeout: float | None = None,
    ) -> None:
        if (unix_path is None) == (host is None):
            raise ValueError("provide either unix_path or host/port")
        self._unix_path = unix_path
        self._host = host
        self._port = port
        self._timeout = timeout
        self._next_id = 0
        self._connect()

    # -- plumbing ----------------------------------------------------------

    def _connect(self) -> None:
        if self._unix_path is not None:
            self._socket = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            if self._timeout is not None:
                self._socket.settimeout(self._timeout)
            self._socket.connect(self._unix_path)
        else:
            self._socket = socket.create_connection(
                (self._host, self._port), timeout=self._timeout
            )
        self._file = self._socket.makefile("rwb")

    def _reestablish(self, attempt: int) -> None:
        """Close the dead socket and reconnect after a capped backoff."""
        try:
            self.close()
        except OSError:
            pass
        time.sleep(min(self.RECONNECT_BACKOFF_CAP,
                       self.RECONNECT_BACKOFF_BASE * 2 ** (attempt - 1)))
        try:
            self._connect()
        except OSError as error:
            raise ClientDisconnected(
                f"reconnect attempt {attempt} failed: {error}"
            ) from None

    def _request(self, op: str, **fields: Any) -> int:
        self._next_id += 1
        frame = {"op": op, "id": self._next_id, **fields}
        try:
            self._file.write(encode(frame))
            self._file.flush()
        except OSError as error:
            raise ClientDisconnected(
                f"server connection lost while sending {op!r}: {error}"
            ) from None
        return self._next_id

    def _read_frame(self) -> dict[str, Any]:
        try:
            line = self._file.readline()
        except TimeoutError:
            raise ClientDisconnected(
                "timed out waiting for a server frame"
            ) from None
        except OSError as error:
            raise ClientDisconnected(
                f"server connection lost: {error}"
            ) from None
        if not line:
            raise ClientDisconnected("connection closed by server")
        return decode(line)

    def _wait(self, request_id: int,
              last_state: str | None = None) -> dict[str, Any]:
        """Next frame for this request; raises on error frames.

        ``last_state`` (when given) is folded into the
        :class:`ClientDisconnected` raised if the server goes away while
        waiting, so mid-job failures report what was last confirmed
        instead of hanging or failing opaquely.
        """
        while True:
            try:
                frame = self._read_frame()
            except ClientDisconnected as error:
                if last_state is None:
                    raise
                raise ClientDisconnected(
                    f"{error} (last seen: {last_state})",
                    last_state=last_state,
                ) from None
            if frame.get("id") != request_id:
                continue  # a frame for an abandoned request
            if frame.get("type") == "error":
                raise RemoteError(frame.get("error", "unknown error"),
                                  frame.get("code", "error"))
            return frame

    def _send_spec(self, spec) -> tuple[int, dict[str, Any]]:
        """Send one job spec; return ``(request id, accepted frame)``."""
        request_id = self._request(spec.op, **spec.to_payload())
        accepted = self._wait(request_id, f"{spec.op} sent, not yet accepted")
        if accepted.get("type") != "accepted":
            raise ServiceError(f"expected accepted frame, got {accepted!r}")
        return request_id, accepted

    def _run_grid(self, spec, channel: str, field: str,
                  on_frame: Callable[[dict[str, Any]], None] | None):
        """Send a grid spec and collect its cell frames until the result.

        Returns ``(job id, accepted frame, result frame, {index:
        payload})``. A ``retry`` frame drops the cells collected so far:
        the retried attempt restreams every cell.
        """
        request_id, accepted = self._send_spec(spec)
        job_id = accepted["job"]
        cells: dict[int, dict[str, Any]] = {}
        while True:
            frame = self._wait(
                request_id, f"{spec.op} {job_id}: {len(cells)} cells seen"
            )
            kind = frame.get("type")
            if kind == channel:
                cells[frame["index"]] = frame[field]
                if on_frame is not None:
                    on_frame(frame)
            elif kind == "retry":
                cells.clear()
            elif kind == "result":
                return job_id, accepted, frame, cells
            else:
                raise ServiceError(
                    f"unexpected frame {kind!r} while waiting for {job_id}"
                )

    def close(self) -> None:
        try:
            self._file.close()
        except OSError:
            pass  # closing flushes; a dead server makes that a no-op
        finally:
            self._socket.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- operations --------------------------------------------------------

    def ping(self) -> dict[str, Any]:
        return self._wait(self._request("ping"))

    def server_stats(self) -> dict[str, Any]:
        return self._wait(self._request("server-stats"))

    def metrics(self) -> dict[str, Any]:
        """One metrics snapshot: ``{"metrics": {...}, "text": "..."}``
        with the canonical-JSON registry snapshot and its Prometheus
        text rendering (see ``pnut metrics``)."""
        return self._wait(self._request("metrics"))

    def jobs(self) -> list[dict[str, Any]]:
        return self._wait(self._request("jobs"))["jobs"]

    def status(self, job_id: str) -> dict[str, Any]:
        return self._wait(self._request("status", job=job_id))

    def cancel(self, job_id: str) -> bool:
        return bool(self._wait(self._request("cancel", job=job_id))["ok"])

    def shutdown(self, drain: bool = False,
                 grace: float | None = None) -> dict[str, Any]:
        """Stop the server; with ``drain=True`` it first finishes every
        active job (bounded by ``grace`` seconds, server default when
        omitted) and the returned ``bye`` frame reports the drain
        summary (``drained``/``cancelled``)."""
        fields: dict[str, Any] = {}
        if drain:
            fields["drain"] = True
            if grace is not None:
                fields["grace"] = grace
        return self._wait(self._request("shutdown", **fields))

    def submit(
        self,
        net_source: str,
        until: float | None = None,
        max_events: int | None = None,
        seed: int | None = None,
        run_number: int = 1,
        outputs: tuple[str, ...] = ("stats",),
        priority: int = 0,
        timeout: float | None = None,
        max_retries: int | None = None,
        key: str | None = None,
        reconnect: int = 0,
        on_trace_line: Callable[[str], None] | None = None,
        on_retry: Callable[[dict[str, Any]], None] | None = None,
        collect_trace: bool = False,
    ) -> JobResult:
        """Submit one job and block until its result.

        Trace lines (when the ``trace`` output is subscribed) stream
        through ``on_trace_line`` as batches arrive and/or accumulate in
        ``JobResult.trace_lines`` when ``collect_trace`` is true.

        ``timeout`` is the server-enforced per-job deadline;
        ``max_retries`` bounds server-side crash retries (None uses the
        server default). When the server retries a crashed job it sends
        one ``retry`` frame per attempt — any partially collected trace
        is discarded (the retry restreams from the first line) and
        ``on_retry`` observes the frame.

        ``reconnect`` allows that many reconnect-and-resubmit rounds
        after a dropped connection. Resubmission is idempotent: it rides
        on ``key`` (auto-generated when reconnecting without one), which
        the server dedupes on — a retry lands on the original job
        instead of double-running it. Trace lines streamed before the
        drop are not re-delivered, so combine ``reconnect`` with the
        server-computed ``trace_sha256`` rather than client-side trace
        collection when byte-level provenance matters.
        """
        if reconnect > 0 and key is None:
            key = f"auto-{os.urandom(16).hex()}"
        spec = JobSpec(
            net_source=net_source,
            until=until,
            max_events=max_events,
            seed=seed,
            run_number=run_number,
            outputs=tuple(outputs),
            priority=priority,
            timeout=timeout,
            max_retries=max_retries,
            key=key,
        )
        last_error: ClientDisconnected | None = None
        for attempt in range(reconnect + 1):
            try:
                if attempt:
                    self._reestablish(attempt)
                return self._submit_once(spec, on_trace_line, on_retry,
                                         collect_trace)
            except ClientDisconnected as error:
                if spec.key is None:
                    raise  # resubmission without a key could double-run
                last_error = error
        assert last_error is not None
        raise last_error

    def _submit_once(
        self,
        spec: JobSpec,
        on_trace_line: Callable[[str], None] | None,
        on_retry: Callable[[dict[str, Any]], None] | None,
        collect_trace: bool,
    ) -> JobResult:
        request_id, accepted = self._send_spec(spec)
        job_id = accepted["job"]
        last_state = f"job {job_id} accepted"
        trace_lines: list[str] | None = [] if collect_trace else None
        while True:
            frame = self._wait(request_id, last_state)
            kind = frame.get("type")
            if kind == "trace":
                for line in frame.get("lines", ()):
                    if on_trace_line is not None:
                        on_trace_line(line)
                    if trace_lines is not None:
                        trace_lines.append(line)
                if trace_lines is not None:
                    last_state = (f"job {job_id} streaming "
                                  f"({len(trace_lines)} trace lines)")
                else:
                    last_state = f"job {job_id} streaming"
            elif kind == "retry":
                # The server lost this job's worker and is re-running it;
                # everything streamed so far belongs to the dead attempt.
                if trace_lines is not None:
                    trace_lines.clear()
                last_state = (f"job {job_id} retrying "
                              f"(attempt {frame.get('attempt')} crashed)")
                if on_retry is not None:
                    on_retry(frame)
            elif kind == "result":
                return JobResult(
                    job_id=job_id,
                    cached=bool(frame.get("cached")),
                    summary=frame.get("summary", {}),
                    stats=frame.get("stats"),
                    trace_lines=trace_lines,
                    trace_id=frame.get("trace"),
                    recovered=bool(frame.get("recovered")
                                   or accepted.get("recovered")),
                )
            else:
                raise ServiceError(
                    f"unexpected frame {kind!r} while waiting for {job_id}"
                )

    def sweep(
        self,
        net_source: str,
        seeds: tuple[int, ...] | list[int],
        until: float | None = None,
        max_events: int | None = None,
        run_number: int = 1,
        outputs: tuple[str, ...] = ("stats",),
        priority: int = 0,
        timeout: float | None = None,
        max_retries: int | None = None,
        key: str | None = None,
        on_run: Callable[[int, dict[str, Any]], None] | None = None,
        backend: str = "auto",
    ) -> SweepOutcome:
        """Submit one sweep frame for N seeds, block until its result.

        Per-seed summaries stream through ``on_run(index, run_payload)``
        as the server completes them and always accumulate in
        :attr:`SweepOutcome.runs` (reassembled in submission order even
        if frames interleave). ``backend`` requests the server-side
        engine (``"auto"``/``"scalar"``/``"lockstep"``); results are
        bit-identical across backends.
        """
        spec = SweepSpec(
            net_source=net_source,
            seeds=tuple(seeds),
            until=until,
            max_events=max_events,
            run_number=run_number,
            outputs=tuple(outputs),
            priority=priority,
            timeout=timeout,
            max_retries=max_retries,
            key=key,
            backend=backend,
        )
        job_id, accepted, frame, runs = self._run_grid(
            spec, "sweep-run", "run",
            None if on_run is None
            else lambda frame: on_run(frame["index"], frame["run"]),
        )
        missing = [i for i in range(len(spec.seeds)) if i not in runs]
        if missing:
            raise ServiceError(
                f"sweep {job_id} finished without runs {missing}"
            )
        return SweepOutcome(
            job_id=job_id,
            cached=bool(frame.get("cached")),
            summary=frame.get("summary", {}),
            aggregates=frame.get("aggregates", {}),
            runs=[runs[i] for i in range(len(spec.seeds))],
            trace_id=frame.get("trace"),
            recovered=bool(frame.get("recovered")
                           or accepted.get("recovered")),
        )

    def explore(
        self,
        net_source: str,
        params: dict[str, Any],
        seeds: tuple[int, ...] | list[int],
        until: float | None = None,
        max_events: int | None = None,
        run_number: int = 1,
        outputs: tuple[str, ...] = ("stats",),
        priority: int = 0,
        skip: tuple[tuple[int, int], ...] | list = (),
        timeout: float | None = None,
        max_retries: int | None = None,
        key: str | None = None,
        on_cell: Callable[[int, int, dict[str, Any]], None] | None = None,
        backend: str = "auto",
    ) -> ExploreOutcome:
        """Submit one explore frame (template + parameter space + seeds),
        block until its result.

        Per-cell payloads stream through ``on_cell(index, point_index,
        cell_payload)`` as the server completes them and accumulate in
        :attr:`ExploreOutcome.cells` keyed by cell index (point-major
        grid order). ``skip`` cells are never simulated server-side and
        never appear here.
        """
        spec = ExploreSpec(
            net_source=net_source,
            params=params,
            seeds=tuple(seeds),
            until=until,
            max_events=max_events,
            run_number=run_number,
            outputs=tuple(outputs),
            priority=priority,
            skip=tuple((int(p), int(s)) for p, s in skip),
            timeout=timeout,
            max_retries=max_retries,
            key=key,
            backend=backend,
        )
        job_id, accepted, frame, cells = self._run_grid(
            spec, "explore-cell", "cell",
            None if on_cell is None
            else lambda frame: on_cell(frame["index"], frame["point"],
                                       frame["cell"]),
        )
        summary = frame.get("summary", {})
        expected = summary.get("cells_run")
        if expected is not None:
            # Store-resumed cells stream as explore-cell frames too, so
            # the client sees fresh + resumed together.
            expected += int(summary.get("resumed_cells", 0))
        if expected is not None and expected != len(cells):
            raise ServiceError(
                f"exploration {job_id} finished with "
                f"{len(cells)} of {expected} cells"
            )
        return ExploreOutcome(
            job_id=job_id,
            cached=bool(frame.get("cached")),
            summary=summary,
            cells=cells,
            trace_id=frame.get("trace"),
            recovered=bool(frame.get("recovered")
                           or accepted.get("recovered")),
        )

    def explore_nowait(self, net_source: str, params: dict[str, Any],
                       seeds, **kwargs: Any) -> str:
        """Fire-and-forget explore submission; returns the job id.

        Like :meth:`submit_nowait`: poll :meth:`status` / :meth:`jobs`
        to observe completion — used for queue-management flows
        (cancelling a running exploration mid-grid).
        """
        spec = ExploreSpec(net_source=net_source, params=params,
                           seeds=tuple(seeds), **kwargs)
        return self._send_spec(spec)[1]["job"]

    def sweep_nowait(self, net_source: str, seeds, **kwargs: Any) -> str:
        """Fire-and-forget sweep submission; returns the job id.

        Like :meth:`submit_nowait`: poll :meth:`status` / :meth:`jobs`
        to observe completion — used for queue-management flows
        (cancelling a running sweep mid-grid).
        """
        spec = SweepSpec(net_source=net_source, seeds=tuple(seeds), **kwargs)
        return self._send_spec(spec)[1]["job"]

    def submit_nowait(self, net_source: str, **kwargs: Any) -> str:
        """Fire-and-forget submission; returns the job id.

        The result frames for this request are discarded by later waits,
        so poll :meth:`status` / :meth:`jobs` to observe completion. Used
        for queue-management flows (priorities, cancellation).
        """
        spec = JobSpec(net_source=net_source, **kwargs)
        return self._send_spec(spec)[1]["job"]
