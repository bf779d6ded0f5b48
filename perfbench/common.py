"""Plumbing shared by the workloads and the traced layer run.

Everything here runs in the benchmark process: locating the checkout's
source tree, spawning ``pnut`` subprocesses with a marker in their
environment, scanning ``/proc`` for survivors that still carry it,
reading a process's peak RSS, order statistics, and the provenance
stamped on every printed metric.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: The checkout root: this file lives in ``<root>/perfbench/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Figure 5 of the paper, 10 000 cycles (the same values as
#: ``PAPER_FIGURE5`` in ``benchmarks/conftest.py``). ``Decoder_ready``
#: is left out of the error figure: the paper reports it as 0.0014, so
#: its relative error is dominated by a near-zero denominator and the
#: repo's own Figure-5 benchmark checks it with an absolute bound only.
PAPER_FIGURE5 = {
    ("transitions", "Issue", "throughput"): 0.1238,
    ("places", "Bus_busy", "avg_tokens"): 0.6582,
    ("places", "pre_fetching", "avg_tokens"): 0.3107,
    ("places", "fetching", "avg_tokens"): 0.2275,
    ("places", "storing", "avg_tokens"): 0.12,
    ("places", "Full_I_buffers", "avg_tokens"): 4.621,
    ("places", "Empty_I_buffers", "avg_tokens"): 0.7576,
    ("places", "Execution_unit", "avg_tokens"): 0.2739,
}

#: The paper's run length.
CYCLES = 10_000

#: The Figure-5 reference run (seed 1988, 10 000 cycles) hashes to this
#: over its ``(seq, time, kind, transition, removed, added, variables)``
#: tuples; ``REFERENCE_EVENT_SHA256`` in
#: ``benchmarks/test_bench_engine_hotpath.py`` pins the same value.
REFERENCE_SEED = 1988
REFERENCE_EVENT_SHA256 = (
    "170d3d009e13034beceedd868be7f36fcdd652153c225bc2fec32c2b12d39c22"
)

#: Environment variable every spawned process carries; a process still
#: holding this run's token after the workload ended has leaked.
MARKER_ENV = "PERFBENCH_RUN"


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, dead server)."""


def require_sources() -> None:
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchError(f"no repro sources under {SRC}; run the benchmark "
                         "from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


class Session:
    """Scratch directory, subprocess environment and leak scan of one run.

    The scratch directory sits inside the checkout (``.perfbench_tmp``)
    and its paths are used relative to the checkout root, which keeps
    Unix socket paths short wherever the checkout lives.
    """

    def __init__(self) -> None:
        self.token = os.urandom(8).hex()
        self.tmp = Path(".perfbench_tmp") / f"{os.getpid()}-{self.token}"
        self.tmp.mkdir(parents=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + self.env["PYTHONPATH"]
            if self.env.get("PYTHONPATH") else "")
        self.env[MARKER_ENV] = self.token
        # One string-hash layout for every spawned process, so dict
        # layouts do not differ from one run to the next.
        self.env["PYTHONHASHSEED"] = "0"
        self._serial = 0

    def path(self, name: str) -> str:
        self._serial += 1
        return str(self.tmp / f"{self._serial}-{name}")

    def pnut(self, *args: str) -> list[str]:
        return [sys.executable, "-m", "repro.cli", *args]

    def survivors(self) -> list[int]:
        """PIDs other than this one whose environment holds the token."""
        needle = f"{MARKER_ENV}={self.token}".encode()
        found = []
        for entry in Path("/proc").iterdir():
            if not entry.name.isdigit() or int(entry.name) == os.getpid():
                continue
            try:
                environ = (entry / "environ").read_bytes()
            except OSError:
                continue
            if needle in environ.split(b"\0"):
                found.append(int(entry.name))
        return found

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.tmp.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there


class Server:
    """One ``pnut serve --workers 2`` subprocess on a private socket."""

    def __init__(self, session: Session, extra: tuple[str, ...] = ()) -> None:
        self.socket = session.path("pnut.sock")
        self.log_path = session.path("serve.log")
        self._log = open(self.log_path, "wb")
        self.process = subprocess.Popen(
            session.pnut("serve", "--socket", self.socket, "--workers", "2",
                         *extra),
            stdout=self._log, stderr=subprocess.STDOUT, env=session.env,
        )

    def connect(self, budget: float = 60.0):
        """A client on the server's socket, once it accepts connections."""
        from repro.service.client import ServiceClient

        deadline = time.monotonic() + budget
        while True:
            try:
                return ServiceClient(unix_path=self.socket, timeout=120.0)
            except (FileNotFoundError, ConnectionRefusedError):
                pass  # not bound, or bound but not listening yet
            if self.process.poll() is not None or time.monotonic() > deadline:
                raise BenchError("pnut serve did not come up:\n"
                                 + Path(self.log_path).read_text()[-2000:])
            time.sleep(0.002)

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.process.pid)

    def stop(self, client=None) -> bool:
        """Shut down with the ``shutdown`` op; True on a clean exit."""
        clean = False
        try:
            if client is not None:
                client.shutdown()
                client.close()
            clean = self.process.wait(timeout=30.0) == 0
        except Exception:  # noqa: BLE001 - any failure means unclean
            clean = False
        finally:
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait()
            self._log.close()
        return clean


def vm_hwm_mb(pid: int) -> float:
    """High-water resident set of ``pid`` in MiB, from /proc."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def quantile(values: list[float], q: float) -> float:
    """The q-quantile with linear interpolation (q in [0, 1])."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


#: What :func:`calibrate` takes on the reference host: the development
#: VM (2 vCPUs at 2.1 GHz, CPython 3.11.7) when the host is quiet.
CALIBRATION_REFERENCE_MS = 5.0


def calibrate() -> float:
    """Time a fixed pure-Python workload that uses no repo code (ms).

    Host contention on a shared machine changes CPU speed for minutes at
    a time, and every timing moves with it. Timed right after each
    request, this workload measures the host's speed at that moment, so
    a request's time can be restated as its time on the reference host.
    """
    start = time.perf_counter()
    rng = random.Random(7)
    values = [rng.random() for _ in range(16_000)]
    values.sort()
    table: dict[int, float] = {}
    for index, value in enumerate(values):
        table[index & 511] = table.get(index & 511, 0.0) + value
    return (time.perf_counter() - start) * 1000.0


def median_ms(fn, repeats: int) -> float:
    """Median wall time of ``fn()`` in milliseconds."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(samples)


def fig5_error_pct(stats_payloads: list[dict]) -> float:
    """Largest relative error (%) of the pooled mean Figure-5 statistics
    against the paper's values."""
    worst = 0.0
    for (section, name, field), paper in PAPER_FIGURE5.items():
        mean = statistics.mean(p[section][name][field]
                               for p in stats_payloads)
        worst = max(worst, abs(mean - paper) / paper)
    return worst * 100.0


def runner_fingerprint() -> str:
    """Machine/interpreter identity, as ``benchmarks/conftest.py`` has it."""
    return "{}-{}-cpython{}.{}.{}".format(
        platform.system().lower(), platform.machine(), *sys.version_info[:3]
    )


def revision() -> str:
    """``git describe`` of the checkout, or a digest of its sources when
    the checkout is not a git repository."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
                capture_output=True, text=True, timeout=10,
            )
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def provenance_line(metric: str, value: float, unit: str, better: str,
                    layer: str, workload: str, runner: str, rev: str,
                    **extra) -> str:
    record = {"metric": metric, "value": value, "unit": unit,
              "better": better, "layer": layer, "workload": workload,
              "runner": runner, "rev": rev, **extra}
    return "metric " + json.dumps(record, sort_keys=True)
