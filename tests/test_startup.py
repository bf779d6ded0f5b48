"""Start-up import hygiene: each entry point imports only what it runs.

The paper's tools are small programs joined by traces (``pnut sim |
pnut stat``), so their start-up cost is paid on every invocation. The
simulator, the trace tools and the service are stdlib-only; only the
reachability analyzers need the ``analysis`` extra (numpy, networkx,
scipy). Every check runs in a fresh interpreter, so no module imported
by an earlier test can hide an import.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.lang.format import format_net
from repro.processor import build_pipeline_net

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: The ``analysis`` extra: absent from a stdlib-only install.
ANALYSIS_EXTRA = ("networkx", "numpy", "scipy")

#: Python statements that make the extra unimportable.
BLOCK_EXTRA = "import sys; " + "".join(
    f"sys.modules[{name!r}] = None; " for name in ANALYSIS_EXTRA)

#: Packages whose ``__init__`` re-exports its submodules lazily.
LAZY_PACKAGES = ("repro", "repro.analysis", "repro.dse",
                 "repro.reachability", "repro.service", "repro.sim")

#: Subsystems neither ``pnut sim`` nor ``pnut stat`` runs.
NOT_IN_PIPELINE = ("repro.animation", "repro.dse", "repro.reachability",
                   "repro.service")

# Runs one `pnut` command with the given modules made unimportable, then
# writes the loaded module names to a report file. Usage:
#   python -c RUNNER '{"blocked": [...], "argv": [...], "report": PATH}'
RUNNER = """
import json, sys
job = json.loads(sys.argv[1])
for name in job["blocked"]:
    sys.modules[name] = None
from repro.cli import main
code = main(job["argv"])
with open(job["report"], "w") as report:
    json.dump(sorted(sys.modules), report)
sys.exit(code)
"""


def _python(args, stdin=b"", check=True):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    process = subprocess.run([sys.executable, *args], input=stdin,
                             capture_output=True, env=env, timeout=120)
    if check:
        assert process.returncode == 0, process.stderr.decode()[-2000:]
    return process


def _pnut(argv, report, *, blocked=(), stdin=b""):
    """Run one command; return its stdout and the modules it loaded."""
    job = {"blocked": list(blocked), "argv": argv, "report": str(report)}
    process = _python(["-c", RUNNER, json.dumps(job)], stdin=stdin)
    return process.stdout, set(json.loads(report.read_text()))


def _pipeline(net_file, tmp_path, *, blocked=()):
    """``pnut sim NET --until 50 --seed 1 | pnut stat - --json``."""
    trace, sim_modules = _pnut(
        ["sim", str(net_file), "--until", "50", "--seed", "1"],
        tmp_path / "sim.json", blocked=blocked)
    stats, stat_modules = _pnut(["stat", "-", "--json"],
                                tmp_path / "stat.json", blocked=blocked,
                                stdin=trace)
    return trace, stats, sim_modules, stat_modules


def _modules_after(module):
    """The modules a fresh interpreter holds after ``import module``."""
    out = _python(["-c", f"import sys, {module}; "
                         "print(' '.join(sorted(sys.modules)))"]).stdout
    return set(out.decode().split())


def _loaded(modules, prefix):
    return sorted(m for m in modules
                  if m == prefix or m.startswith(prefix + "."))


@pytest.fixture(scope="module")
def net_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup") / "fig5.pn"
    path.write_text(format_net(build_pipeline_net()))
    return path


def test_pipeline_runs_without_the_analysis_extra(net_file, tmp_path):
    trace, stats, _sim, _stat = _pipeline(net_file, tmp_path)
    blocked_trace, blocked_stats, _sim, _stat = _pipeline(
        net_file, tmp_path, blocked=ANALYSIS_EXTRA)
    assert blocked_trace == trace
    assert blocked_stats == stats
    assert json.loads(stats)["run"]["events_started"] > 0


def test_pipeline_loads_only_its_own_subsystems(net_file, tmp_path):
    _trace, _stats, sim_modules, stat_modules = _pipeline(net_file,
                                                          tmp_path)
    for command, modules in (("sim", sim_modules), ("stat", stat_modules)):
        for package in (*NOT_IN_PIPELINE, *ANALYSIS_EXTRA):
            assert not _loaded(modules, package), (command, package)


@pytest.mark.parametrize("module", ["repro.cli", "repro.service.server"])
def test_entry_points_import_without_the_analysis_extra(module):
    _python(["-c", f"{BLOCK_EXTRA}import {module}"])


@pytest.mark.parametrize("module", ["repro.cli", "repro.service.server"])
def test_entry_points_leave_the_analysis_extra_unloaded(module):
    pytest.importorskip("numpy")
    assert not _modules_after(module) & set(ANALYSIS_EXTRA)


def test_server_preloads_what_forked_jobs_run():
    # Job children inherit the parent's modules; anything imported only
    # on first use would be imported again in every child.
    loaded = _modules_after("repro.service.server")
    for module in ("repro.analysis.report", "repro.analysis.stat",
                   "repro.dse.explore", "repro.sim.engine",
                   "repro.sim.lockstep", "repro.sim.sweep",
                   "repro.trace.serialize"):
        assert module in loaded, module


def test_client_does_not_import_the_server():
    loaded = _modules_after("repro.service.client")
    for package in ("repro.service.server", "repro.sim", "repro.dse.explore"):
        assert not _loaded(loaded, package), package


def test_reach_without_the_extra_fails_with_import_error(net_file):
    process = _python(
        ["-c", f"{BLOCK_EXTRA}from repro.cli import main; "
               f"main(['reach', {str(net_file)!r}])"],
        check=False)
    assert process.returncode != 0
    assert b"ModuleNotFoundError" in process.stderr


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_exports_resolve(package):
    # A stale name -> module table fails here, not at a user's import.
    script = (
        "import importlib, sys\n"
        f"package = importlib.import_module({package!r})\n"
        "missing = [n for n in package.__all__ if not hasattr(package, n)]\n"
        "assert not missing, missing\n"
        "assert len(set(package.__all__)) == len(package.__all__)\n"
        "assert set(package.__all__) <= set(dir(package))\n"
        f"exec('from {package} import *', {{}})\n"
    )
    _python(["-c", script])
