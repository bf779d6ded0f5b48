"""Analysis tools consuming traces: stat, reports, tracertool, queries."""

from .._lazy import lazy_exports

# Lazy, so ``pnut stat`` (statistics and the report) does not import
# the query language, the tracertool and the waveform renderer.
__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "batch_means": (
        "BatchMeansResult",
        "batch_means",
        "batch_means_from_signal",
        "suggest_warmup",
        "throughput_batch_means",
    ),
    "query": ("QueryResult", "TraceChecker", "check_trace", "parse_query"),
    "report": (
        "event_section",
        "full_report",
        "place_section",
        "run_section",
        "troff_report",
    ),
    "stat": (
        "PlaceStats",
        "RunStats",
        "StatisticsObserver",
        "TraceStatistics",
        "TransitionStats",
        "compute_statistics",
    ),
    "tracer": (
        "Marker",
        "MarkerSet",
        "Signal",
        "SignalObserver",
        "TracerSession",
        "combine",
        "extract_signals",
        "sum_signals",
    ),
    "waveform": ("WaveformOptions", "render_waveforms", "sample_table"),
})
