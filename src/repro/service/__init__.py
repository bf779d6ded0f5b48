"""The simulation service: nets as serveable programs (ROADMAP north star).

The paper's P-NUT workflow is a pipeline of small one-shot tools; this
package grows it into a long-lived entry point that multiplexes many
clients over one process:

* :mod:`~repro.service.protocol` — the NDJSON wire format shared by
  server and client;
* :mod:`~repro.service.cache` — a compiled-net cache keyed by SHA-256 of
  the canonical net source, so repeated jobs on the same model skip
  parse/validate/compile and share one immutable :class:`Simulator`
  skeleton cheaply forked per run;
* :mod:`~repro.service.queue` — a priority job queue with cancellation
  and backpressure;
* :mod:`~repro.service.server` — the asyncio NDJSON-over-TCP/Unix-socket
  server (``pnut serve``) whose worker pool reuses the forked-worker
  machinery of :mod:`repro.sim.experiment` for CPU-bound runs;
* :mod:`~repro.service.client` — a thin synchronous client
  (``pnut submit`` / ``pnut jobs``) producing output byte-identical to
  the in-process path;
* :mod:`~repro.service.faults` — env-gated fault injection (kill the
  forked child mid-job, stall a worker past its deadline, drop a client
  connection mid-stream) driven by the chaos tests to prove the
  supervision layer: crashed jobs retry with backoff and reproduce the
  clean run's trace SHA-256, deadline overruns fail as ``job-timeout``,
  and ``shutdown drain=true`` finishes active work before exit.
"""

from .._lazy import lazy_exports

# Lazy, so a client command (``pnut submit``, ``pnut jobs``) does not
# import the server, and with it the engines every forked job runs.
__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "cache": ("CompiledNet", "CompiledNetCache"),
    "client": (
        "ClientDisconnected",
        "ExploreOutcome",
        "JobResult",
        "RemoteError",
        "ServiceClient",
        "SweepOutcome",
    ),
    "faults": ("Fault", "FaultConfigError", "parse_faults"),
    "harness": ("ServerThread",),
    "protocol": (
        "ExploreSpec",
        "JobSpec",
        "ProtocolError",
        "ServiceError",
        "SweepSpec",
        "decode",
        "dedupe_identity",
        "encode",
    ),
    "queue": ("Job", "JobQueue", "JobState", "QueueFullError"),
    "server": ("SimulationService", "run_server"),
})
