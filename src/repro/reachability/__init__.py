"""Reachability graph analyzers: untimed [MR87], timed [RP84], CTL."""

from .._lazy import lazy_exports

# Lazy, so importing one analyzer (say ``reachability.graph``) does not
# pull in numpy through ``markov`` or networkx through ``properties``.
__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "coverability": (
        "OMEGA",
        "CoverabilityNode",
        "build_coverability_tree",
        "structural_bounds",
        "unbounded_places",
    ),
    "ctl": ("CtlChecker", "RgChecker"),
    "graph": ("Edge", "ReachabilityGraph"),
    "markov": (
        "SteadyState",
        "analytic_figure5",
        "compare_with_simulation",
        "steady_state",
    ),
    "properties": (
        "NetProperties",
        "analyze_net",
        "dead_transitions",
        "deadlock_markings",
        "home_states",
        "is_bounded",
        "is_reversible",
        "is_safe",
        "live_transitions",
        "place_bounds",
        "quasi_live_transitions",
        "verify_invariant",
        "verify_p_invariant",
    ),
    "timed": (
        "ADVANCE",
        "TimedExplorer",
        "TimedState",
        "build_timed_graph",
        "earliest_time",
    ),
    "untimed": ("build_untimed_graph", "enumerate_markings", "fire_atomic"),
})
