"""NDJSON wire protocol shared by the service server and client.

One JSON object per line, UTF-8, ``\\n``-terminated — the service twin of
the paper's "one event per line" trace format, so requests and responses
stream through sockets exactly as traces stream through pipes.

Requests carry an ``op`` and a client-chosen ``id`` echoed on every
response for that request::

    {"op": "submit", "id": 1, "net": "...", "until": 10000, "seed": 1988,
     "outputs": ["stats", "trace"], "priority": 0}
    {"op": "sweep", "id": 2, "net": "...", "until": 10000,
     "seeds": [1, 2, 3], "outputs": ["stats"], "priority": 0}
    {"op": "status", "id": 3, "job": "j1"}
    {"op": "cancel", "id": 4, "job": "j1"}
    {"op": "jobs", "id": 5}
    {"op": "server-stats", "id": 6}
    {"op": "ping", "id": 7}
    {"op": "shutdown", "id": 8, "drain": true, "grace": 30.0}

Specs may carry supervision fields: ``timeout`` (per-job wall-clock
deadline, enforced server-side as error code ``job-timeout``),
``max_retries`` (crash-retry budget; None uses the server default) and
``key`` (opts into idempotent resubmission — a keyed spec resubmitted
after a dropped connection attaches to the original job instead of
double-running; see :func:`dedupe_identity`). When a forked worker
crashes and the job is retried, subscribers receive one
``{"type": "retry", "job": ..., "attempt": n, "max_retries": m,
"delay": s, "error": ...}`` frame per attempt — the signal to discard
any partially streamed trace, because the retry restreams from the
start. A ``shutdown`` with ``drain=true`` stops accepting new work,
finishes running and pending jobs up to ``grace`` seconds (server
default when omitted), and only then answers ``bye`` and exits.

A ``submit`` answers ``{"type": "accepted", "job": "j1", ...}``, then —
for subscribed outputs — streams ``{"type": "trace", "lines": [...]}``
batches as the forked worker produces them, and finishes with one
``{"type": "result", ...}`` (or ``{"type": "error", ...}``). Statistics
inside results are rendered with
:func:`repro.analysis.report.canonical_json`, byte-comparable with
``pnut stat --json``.

A ``sweep`` is **one frame for N seeds** and travels the queue as one
schedulable, cancellable job: after ``accepted`` the server streams one
``{"type": "sweep-run", "index": i, "run": {...}}`` frame per completed
seed (each ``run`` payload carries the same statistics dict and trace
SHA-256 an individual ``submit`` of that seed would report) and
finishes with a ``result`` frame holding the cross-run aggregates.

An ``explore`` is one frame for a whole **parameter grid**: a templated
net source plus a :class:`~repro.dse.space.ParamSpace` payload and a
seed grid. It travels the queue as one cancellable job; the server
binds and compiles every point through its net cache, streams one
``{"type": "explore-cell", "index": i, "point": p, "cell": {...}}``
frame per completed (point, seed) cell (each ``cell`` payload is
exactly what a ``submit`` of the bound source with that seed would
report) and finishes with a ``result`` frame summarizing the grid.
``skip`` lists ``[point_index, seed]`` cells the client already holds
(its result store), which the server never simulates — that is how
re-runs stay incremental across the wire.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, ClassVar

from ..core.errors import PnutError
from ..dse.space import MAX_POINTS, ParamSpace, ParamSpaceError


class ServiceError(PnutError):
    """Base class for simulation-service failures."""


class ProtocolError(ServiceError):
    """A malformed frame or request payload."""


#: Version 3 adds durable-state signals: jobs recovered from the write-
#: ahead journal after a server restart (or attached to one) carry
#: ``"recovered": true`` on their ``accepted``/terminal frames, and
#: sweep/explore result summaries report ``resumed_cells`` — how many
#: cells were served from the server-side result store instead of
#: simulated. Both are additive; a version-2 client simply ignores them.
PROTOCOL_VERSION = 3

#: Job keys (idempotent resubmission) are opaque client strings; bound
#: so a hostile key cannot bloat frames or the server's dedupe index.
MAX_KEY_LENGTH = 200

#: Result channels a job may subscribe to. ``summary`` (counters, final
#: time, trace SHA-256) is always included in the result frame.
VALID_OUTPUTS = ("stats", "trace")

#: Trace lines are batched into frames of this many lines so the full
#: trace is never materialized server-side (streaming granularity).
TRACE_BATCH_LINES = 512

#: Result channels a sweep may subscribe to. Traces are deliberately
#: not streamable per sweep run — each run's summary pins its trace by
#: SHA-256 instead; replay a seed through ``submit`` to see the bytes.
VALID_SWEEP_OUTPUTS = ("stats",)

#: Hard bound on seeds per sweep frame: one frame is one queue entry,
#: so an absurd grid must be rejected up front, not scheduled.
MAX_SWEEP_SEEDS = 4096

#: Result channels an exploration may subscribe to (per-cell summaries
#: always stream; traces are pinned by digest, replayed via ``submit``).
VALID_EXPLORE_OUTPUTS = ("stats",)

#: Hard bound on (point x seed) cells per explore frame.
MAX_EXPLORE_CELLS = 8192

#: Engine backends a sweep/explore frame may request (mirrors
#: ``repro.sim.lockstep.BACKEND_CHOICES`` without importing the sim
#: stack into the wire layer). "auto"/"lockstep" select the codegen
#: backend when the net is in its safe class and silently fall back to
#: the scalar engine otherwise — results are bit-identical either way,
#: so the field never changes payload bytes, only execution speed.
VALID_BACKENDS = ("auto", "scalar", "lockstep")


def encode(message: dict[str, Any]) -> bytes:
    """One message -> one NDJSON frame (UTF-8 bytes including ``\\n``)."""
    return (json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8")


def decode(line: bytes | str) -> dict[str, Any]:
    """One NDJSON frame -> message dict; raises :class:`ProtocolError`."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"bad JSON frame: {error}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(message).__name__}"
        )
    return message


def _require(payload: dict, key: str, kinds, what: str):
    value = payload.get(key)
    if not isinstance(value, kinds):
        raise ProtocolError(f"submit needs {key!r}: {what}")
    return value


def _check_supervision_fields(spec, what: str) -> None:
    """Validate/normalize the fields every spec kind shares with the
    supervision layer: per-job ``timeout``, crash-retry budget
    ``max_retries`` (None defers to the server default), and the
    client-supplied idempotency ``key``."""
    if spec.timeout is not None:
        if (not isinstance(spec.timeout, (int, float))
                or isinstance(spec.timeout, bool) or spec.timeout <= 0):
            raise ProtocolError(
                f"{what} 'timeout' must be a positive number of seconds"
            )
        object.__setattr__(spec, "timeout", float(spec.timeout))
    if spec.max_retries is not None:
        if (not isinstance(spec.max_retries, int)
                or isinstance(spec.max_retries, bool)
                or spec.max_retries < 0):
            raise ProtocolError(
                f"{what} 'max_retries' must be a non-negative integer"
            )
    if spec.key is not None:
        if (not isinstance(spec.key, str) or not spec.key
                or len(spec.key) > MAX_KEY_LENGTH):
            raise ProtocolError(
                f"{what} 'key' must be a non-empty string of at most "
                f"{MAX_KEY_LENGTH} characters"
            )
    if spec.trace_id is not None:
        if (not isinstance(spec.trace_id, str) or not spec.trace_id
                or len(spec.trace_id) > MAX_KEY_LENGTH):
            raise ProtocolError(
                f"{what} 'trace' must be a non-empty string of at most "
                f"{MAX_KEY_LENGTH} characters"
            )


def _supervision_to_payload(spec, payload: dict[str, Any]) -> None:
    if spec.timeout is not None:
        payload["timeout"] = spec.timeout
    if spec.max_retries is not None:
        payload["max_retries"] = spec.max_retries
    if spec.key is not None:
        payload["key"] = spec.key
    if spec.trace_id is not None:
        payload["trace"] = spec.trace_id


def _run_fields(payload: dict[str, Any]) -> dict[str, Any]:
    """Parse the wire fields every spec kind shares into constructor
    keyword arguments: the stop condition, ``run``, ``outputs``,
    ``priority`` and the supervision fields (validated by the spec)."""
    until = payload.get("until")
    if until is not None and not isinstance(until, (int, float)):
        raise ProtocolError("'until' must be a number")
    max_events = payload.get("max_events")
    if max_events is not None and not isinstance(max_events, int):
        raise ProtocolError("'max_events' must be an integer")
    run_number = payload.get("run", 1)
    if not isinstance(run_number, int):
        raise ProtocolError("'run' must be an integer")
    outputs = payload.get("outputs", ["stats"])
    if not isinstance(outputs, list) or not all(
        isinstance(o, str) for o in outputs
    ):
        raise ProtocolError("'outputs' must be a list of channel names")
    priority = payload.get("priority", 0)
    if not isinstance(priority, int):
        raise ProtocolError("'priority' must be an integer")
    return {
        "until": float(until) if until is not None else None,
        "max_events": max_events,
        "run_number": run_number,
        "outputs": tuple(outputs),
        "priority": priority,
        "timeout": payload.get("timeout"),
        "max_retries": payload.get("max_retries"),
        "key": payload.get("key"),
        "trace_id": payload.get("trace"),
    }


def _grid_fields(payload: dict[str, Any]) -> dict[str, Any]:
    """:func:`_run_fields` plus the ``seeds`` and ``backend`` fields a
    sweep and an exploration share."""
    seeds = payload.get("seeds")
    if not isinstance(seeds, list):
        raise ProtocolError("'seeds' must be a list of integers")
    fields = _run_fields(payload)
    backend = payload.get("backend", "auto")
    if not isinstance(backend, str):
        raise ProtocolError("'backend' must be a string")
    return {"seeds": tuple(seeds), "backend": backend, **fields}


def _check_grid_spec(spec, what: str) -> None:
    """Validate/normalize the fields a sweep and an exploration share."""
    if spec.until is None and spec.max_events is None:
        raise ProtocolError(f"{what} needs until=, max_events=, or both")
    if spec.backend not in VALID_BACKENDS:
        raise ProtocolError(
            f"unknown backend {spec.backend!r}: use one of "
            f"{list(VALID_BACKENDS)}"
        )
    if spec.until is not None:
        # The wire carries `until` as a float; normalizing here makes a
        # client-built spec identical to the server's reconstruction
        # (and so cell payloads byte-identical across paths).
        object.__setattr__(spec, "until", float(spec.until))
    if not spec.seeds:
        raise ProtocolError(f"{what} needs at least one seed")
    if not all(isinstance(seed, int) and not isinstance(seed, bool)
               for seed in spec.seeds):
        raise ProtocolError(f"{what} seeds must be integers")


def dedupe_identity(spec) -> str | None:
    """The server-side dedupe identity of a keyed spec, or None.

    Only keyed specs participate in idempotent resubmission. The
    identity is SHA-256 over the spec's full canonical wire payload —
    which embeds the net source bytes and the key — so a resubmission
    after a dropped connection lands on the original job exactly when
    *everything* about it matches, and two different jobs that happen
    to reuse a key never collide silently. The tracing ``trace`` id is
    excluded: a resubmission carries a fresh trace id by design, and it
    must still attach to the original job.
    """
    if spec.key is None:
        return None
    payload = spec.to_payload()
    payload.pop("trace", None)
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class JobSpec:
    """Everything one simulation job needs, as carried on the wire.

    ``outputs`` picks the streamed channels (see :data:`VALID_OUTPUTS`);
    ``priority`` orders the queue (higher first, FIFO within a level);
    ``seed`` pins the run — the service never invents seeds, so a spec
    replays bit-identically in-process and behind the service.
    ``timeout`` is the per-job wall-clock deadline enforced server-side
    (``job-timeout`` error code); ``max_retries`` bounds automatic
    crash retries (None defers to the server default); ``key`` opts the
    spec into idempotent resubmission (see :func:`dedupe_identity`).
    """

    net_source: str
    until: float | None = None
    max_events: int | None = None
    seed: int | None = None
    run_number: int = 1
    outputs: tuple[str, ...] = ("stats",)
    priority: int = 0
    timeout: float | None = None
    max_retries: int | None = None
    key: str | None = None
    #: Client-supplied tracing span id (``trace`` on the wire); the
    #: server mints one at submit when absent. A protocol-2-compatible
    #: extension: peers that predate it ignore the key.
    trace_id: str | None = None
    #: The wire op that carries this spec.
    op: ClassVar[str] = "submit"

    def __post_init__(self) -> None:
        if self.until is None and self.max_events is None:
            raise ProtocolError("job needs until=, max_events=, or both")
        bad = [o for o in self.outputs if o not in VALID_OUTPUTS]
        if bad:
            raise ProtocolError(
                f"unknown outputs {bad}; valid: {list(VALID_OUTPUTS)}"
            )
        _check_supervision_fields(self, "job")

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "JobSpec":
        net_source = _require(payload, "net", str, "the net source text")
        seed = payload.get("seed")
        if seed is not None and not isinstance(seed, int):
            raise ProtocolError("'seed' must be an integer")
        return cls(net_source=net_source, seed=seed, **_run_fields(payload))

    def to_payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"net": self.net_source}
        if self.until is not None:
            payload["until"] = self.until
        if self.max_events is not None:
            payload["max_events"] = self.max_events
        if self.seed is not None:
            payload["seed"] = self.seed
        if self.run_number != 1:
            payload["run"] = self.run_number
        payload["outputs"] = list(self.outputs)
        if self.priority:
            payload["priority"] = self.priority
        _supervision_to_payload(self, payload)
        return payload


@dataclass(frozen=True)
class SweepSpec:
    """One vectorized multi-seed sweep, as carried on the wire.

    The seed grid shares one compiled net (and one forked ``Simulator``
    skeleton) server-side; every run is pinned by its seed exactly as a
    :class:`JobSpec` run would be, so per-seed results replay
    bit-identically against N individual submissions. ``run_number``
    applies to every run (default 1, matching a standalone
    ``pnut sim``).
    """

    net_source: str
    seeds: tuple[int, ...] = ()
    until: float | None = None
    max_events: int | None = None
    run_number: int = 1
    outputs: tuple[str, ...] = ("stats",)
    priority: int = 0
    timeout: float | None = None
    max_retries: int | None = None
    key: str | None = None
    trace_id: str | None = None
    backend: str = "auto"
    op: ClassVar[str] = "sweep"

    def __post_init__(self) -> None:
        _check_grid_spec(self, "sweep")
        if len(self.seeds) > MAX_SWEEP_SEEDS:
            raise ProtocolError(
                f"sweep of {len(self.seeds)} seeds exceeds the per-frame "
                f"bound of {MAX_SWEEP_SEEDS}"
            )
        bad = [o for o in self.outputs if o not in VALID_SWEEP_OUTPUTS]
        if bad:
            raise ProtocolError(
                f"unknown sweep outputs {bad}; valid: "
                f"{list(VALID_SWEEP_OUTPUTS)}"
            )
        _check_supervision_fields(self, "sweep")

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "SweepSpec":
        net_source = _require(payload, "net", str, "the net source text")
        return cls(net_source=net_source, **_grid_fields(payload))

    def to_payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "net": self.net_source,
            "seeds": list(self.seeds),
        }
        if self.until is not None:
            payload["until"] = self.until
        if self.max_events is not None:
            payload["max_events"] = self.max_events
        if self.run_number != 1:
            payload["run"] = self.run_number
        payload["outputs"] = list(self.outputs)
        if self.priority:
            payload["priority"] = self.priority
        if self.backend != "auto":
            payload["backend"] = self.backend
        _supervision_to_payload(self, payload)
        return payload


@dataclass(frozen=True)
class ExploreSpec:
    """One design-space exploration, as carried on the wire.

    ``net_source`` is a *template* (``${name}`` placeholders) bound per
    point of the :class:`~repro.dse.space.ParamSpace` described by
    ``params``; every (point, seed) cell replays bit-identically against
    an individual submission of the bound source. ``skip`` names cells
    the client already holds — ``(point_index, seed)`` pairs the server
    acknowledges in the result summary but never simulates.
    """

    net_source: str
    params: dict[str, Any] = field(default_factory=dict)
    seeds: tuple[int, ...] = ()
    until: float | None = None
    max_events: int | None = None
    run_number: int = 1
    outputs: tuple[str, ...] = ("stats",)
    priority: int = 0
    skip: tuple[tuple[int, int], ...] = ()
    timeout: float | None = None
    max_retries: int | None = None
    key: str | None = None
    trace_id: str | None = None
    backend: str = "auto"
    op: ClassVar[str] = "explore"

    def __post_init__(self) -> None:
        _check_grid_spec(self, "explore")
        try:
            points = len(self.space())
        except ParamSpaceError as error:
            raise ProtocolError(f"bad explore params: {error}") from None
        if points > MAX_POINTS:
            # points() enforces this too, but only when the server binds
            # — an absurd grid must be rejected up front, not scheduled
            # and then failed as a misleading net-error.
            raise ProtocolError(
                f"exploration of {points} points exceeds the per-space "
                f"bound of {MAX_POINTS}"
            )
        # Cached for status/jobs listings: the grid size is immutable
        # once validated, so nothing should re-parse the space for it.
        # (Not a dataclass field: equality and the wire payload are
        # unaffected.)
        object.__setattr__(self, "point_count", points)
        cells = points * len(self.seeds)
        if cells > MAX_EXPLORE_CELLS:
            raise ProtocolError(
                f"exploration of {cells} cells exceeds the per-frame "
                f"bound of {MAX_EXPLORE_CELLS}"
            )
        seed_set = set(self.seeds)
        for pair in self.skip:
            ok = (
                isinstance(pair, tuple) and len(pair) == 2
                and all(isinstance(v, int) and not isinstance(v, bool)
                        for v in pair)
                and 0 <= pair[0] < points and pair[1] in seed_set
            )
            if not ok:
                raise ProtocolError(
                    f"bad skip entry {pair!r}: use [point_index, seed] "
                    f"pairs inside the grid"
                )
        bad = [o for o in self.outputs if o not in VALID_EXPLORE_OUTPUTS]
        if bad:
            raise ProtocolError(
                f"unknown explore outputs {bad}; valid: "
                f"{list(VALID_EXPLORE_OUTPUTS)}"
            )
        _check_supervision_fields(self, "explore")

    def space(self) -> ParamSpace:
        return ParamSpace.from_payload(self.params)

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "ExploreSpec":
        net_source = _require(payload, "net", str, "the net template text")
        params = payload.get("params")
        if not isinstance(params, dict):
            raise ProtocolError("'params' must be a parameter-space object")
        fields = _grid_fields(payload)
        skip = payload.get("skip", [])
        if not isinstance(skip, list) or not all(
            isinstance(pair, list) and len(pair) == 2 for pair in skip
        ):
            raise ProtocolError(
                "'skip' must be a list of [point_index, seed] pairs"
            )
        return cls(net_source=net_source, params=params,
                   skip=tuple((pair[0], pair[1]) for pair in skip), **fields)

    def to_payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "net": self.net_source,
            "params": self.params,
            "seeds": list(self.seeds),
        }
        if self.until is not None:
            payload["until"] = self.until
        if self.max_events is not None:
            payload["max_events"] = self.max_events
        if self.run_number != 1:
            payload["run"] = self.run_number
        payload["outputs"] = list(self.outputs)
        if self.priority:
            payload["priority"] = self.priority
        if self.skip:
            payload["skip"] = [list(pair) for pair in self.skip]
        if self.backend != "auto":
            payload["backend"] = self.backend
        _supervision_to_payload(self, payload)
        return payload


#: Wire op -> spec class, for the server's dispatch and journal recovery.
SPEC_CLASSES: dict[str, Any] = {
    cls.op: cls for cls in (JobSpec, SweepSpec, ExploreSpec)
}


# ---------------------------------------------------------------------------
# Response frame constructors (server side; the client pattern-matches on
# the ``type`` field).
# ---------------------------------------------------------------------------


def error_frame(request_id: Any, message: str, code: str = "error",
                job_id: str | None = None) -> dict[str, Any]:
    frame: dict[str, Any] = {
        "type": "error", "id": request_id, "code": code, "error": message,
    }
    if job_id is not None:
        frame["job"] = job_id
    return frame


def accepted_frame(request_id: Any, job_id: str,
                   position: int) -> dict[str, Any]:
    return {
        "type": "accepted", "id": request_id, "job": job_id,
        "position": position,
    }
