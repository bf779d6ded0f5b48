"""Discrete-event simulation of extended Timed Petri Nets (paper §4.1)."""

from .._lazy import lazy_exports

# Lazy, so ``pnut sim`` (which runs only the engine) does not import the
# lockstep code generator, the sweep runner and the analysis tools.
__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "commands": ("CommandScript", "execute_commands", "run_script_text"),
    "engine": ("Observer", "SimulationResult", "Simulator", "simulate"),
    "experiment": (
        "Experiment",
        "ExperimentResult",
        "ForkedTask",
        "MetricSummary",
        "fork_available",
        "map_chunked_forked",
        "summarize_metric",
    ),
    "lockstep": (
        "BACKEND_CHOICES",
        "LockstepDecision",
        "LockstepProgram",
        "classify",
        "compile_lockstep",
        "resolve_backend",
    ),
    "sweep": (
        "SweepResult",
        "SweepRunSummary",
        "TraceHasher",
        "run_sweep",
        "trace_digest",
    ),
})
