"""Design-space exploration: the paper's opening question, as a subsystem.

"Memory speed and processor clock rate can have a strong yet difficult
to predict impact on the performance of microprocessor-based computer
systems" — answering that takes a *grid* of models, not one model. This
package turns the repo's per-net machinery into a parameter-space tool:

* :mod:`~repro.dse.space` — :class:`ParamSpace`: named axes (lists,
  spans, log sweeps), product/zip composition, deterministic point
  enumeration, a wire format and the ``--param`` CLI grammar;
* :mod:`~repro.dse.template` — binding a point into net source text:
  ``${name}`` templates over the net language, or
  :class:`PipelineBinder` onto the paper's §2/§3 configs;
* :mod:`~repro.dse.explore` — :func:`run_exploration`: (point x seed)
  cells over shared compiled skeletons and chunked forked workers,
  streaming per-cell Figure-5 summaries;
* :mod:`~repro.dse.store` — :class:`ResultStore`: a persistent
  (SQLite or JSONL) cell store keyed by (net SHA-256, point, seed,
  stop), so re-runs are incremental and recomputation is
  byte-checkable;
* :mod:`~repro.dse.frontier` — per-point mean/CI aggregates and Pareto
  frontiers over chosen metrics, as a table and canonical JSON.

Entry points: :func:`run_exploration` here,
:meth:`repro.sim.Experiment.explore`, the service's ``explore`` op
(:meth:`repro.service.ServiceClient.explore`) and ``pnut explore``.
"""

from .._lazy import lazy_exports

# Lazy, so the service protocol (which parses ``ParamSpace`` payloads)
# does not import the exploration runner and the processor binders.
__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "explore": (
        "CellOutcome",
        "ExplorationResult",
        "assemble_exploration",
        "bind_sources",
        "bind_space",
        "run_exploration",
    ),
    "frontier": (
        "FrontierError",
        "Objective",
        "aggregate_cells",
        "frontier_payload",
        "frontier_table",
        "pareto_indices",
        "parse_objectives",
    ),
    "space": (
        "MAX_POINTS",
        "ParamAxis",
        "ParamSpace",
        "ParamSpaceError",
        "parse_axis_spec",
        "point_key",
    ),
    "store": ("ResultStore", "StoreError", "StoreWarning", "open_store",
              "stop_key"),
    "template": (
        "Binder",
        "NetTemplate",
        "PipelineBinder",
        "TemplateError",
        "as_binder",
    ),
})
