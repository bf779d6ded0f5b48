"""repro — a reproduction of Razouk's P-NUT system (DAC 1988).

Extended Timed Petri Nets for modeling pipelined processors, plus the
tool suite the paper describes: simulator, trace filter, statistical
analysis, tracertool (timing analysis and trace verification),
reachability-graph analyzers with temporal logic, and an animator.

Quickstart::

    from repro import build_pipeline_net, simulate, compute_statistics

    net = build_pipeline_net()
    result = simulate(net, until=10_000, seed=1)
    stats = compute_statistics(result.events)
    print(stats.transitions["Issue"].throughput)   # instructions / cycle
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

# Names resolve on first use, so ``import repro.sim.engine`` (or the
# ``pnut`` CLI) does not import every subpackage just to reach one.
__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "analysis.report": ("full_report",),
    "analysis.stat": ("compute_statistics",),
    "core.builder": ("NetBuilder",),
    "core.errors": ("PnutError",),
    "core.inscription": ("Environment",),
    "core.marking": ("Marking",),
    "core.net": ("PetriNet", "Place", "Transition"),
    "core.validate": ("validate_net",),
    "processor.config": ("PAPER_CONFIG", "PipelineConfig"),
    "processor.model": ("build_pipeline_net",),
    "sim.engine": ("SimulationResult", "Simulator", "simulate"),
    "sim.experiment": ("Experiment",),
    "trace.filter": ("TraceFilter",),
    "trace.serialize": ("read_trace", "write_trace"),
    "trace.states": ("fold_states",),
})
__all__.append("__version__")
