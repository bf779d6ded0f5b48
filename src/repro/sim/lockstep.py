"""Lockstep replication backend: net-specialized codegen for seed grids.

The interpreter (:mod:`repro.sim.engine`) pays, on every event, for
generality it almost never uses on the paper's nets: predicate checks,
action dispatch, ``TraceEvent`` tuple construction, observer fan-out and
the dict-keyed statistics/hash observers. Batch workloads — Figure-5
replication runs, ``run_sweep`` grids, DSE cells — run the *same*
compiled skeleton across many seeds, so the per-net work of stripping
that generality away amortizes perfectly. Following Reshadi/Dutt's
model-specialized-simulator-generation argument (PAPERS.md), this module
**compiles one net into Python source** for a specialized run loop and
``exec``-compiles it once per skeleton:

* the skeleton's watcher tables, arc deltas, constant delays, conflict
  frequencies and fused-completion flags are baked into the generated
  loop as closure constants — no predicate/action/fusion branches
  survive into the emitted code;
* the scheduler variant is chosen at codegen time from the delay
  declarations: an inlined fixed-size bucket ring (integral constant /
  discrete delays — the ring can never overflow, so the migration slow
  path is compiled *out*) or an inlined ``heapq`` future-event set;
* trace hashing is inlined: for a safe-class net every event's binary
  encoding is constant per ``(kind, transition)`` except the packed
  time, so the loop appends three precomputed byte segments to a buffer
  instead of calling :func:`~repro.trace.serialize.encode_event`;
* the Figure-5 statistics accumulate in flat parallel arrays with the
  exact float-operation sequence of
  :class:`~repro.analysis.stat._TimeWeighted` — bit-identical means,
  stdevs and extrema, no dict lookups, no dataclass rows.

The N seeds of one skeleton then run one after another through this
single compiled loop, each with its own RNG; the per-seed conflict
draw — plus any sampled firing delay — is the only divergence point
between seeds. The speedup is specialization plus inlined observers,
not vectorization.

**Codegen cost.** ``compile()`` of the generated module dominates
codegen, so code objects are cached process-wide keyed on the net's
structure. :meth:`LockstepProgram.warm` can run that ``compile()`` in a
short-lived forked child and load the marshalled code object, which
keeps the compiler's transient memory out of a long-lived parent such
as ``pnut serve``.

**Safe class.** The specialization is legal only when the stripped
branches are provably dead: no transition actions, no predicates,
constant enabling delays, and firing delays of known distribution types
(constant / discrete / uniform / exponential — *not* ``DataDelay`` or
custom ``Delay`` implementations, whose samples may depend on the
environment or go non-integral mid-run and force the interpreter's
bucket-to-heap migration). :func:`classify` renders the verdict with a
machine-readable reason; every caller (``run_sweep``, the service ops,
DSE) falls back to the scalar engine silently and reports the reason
through ``--profile`` / the :mod:`repro.obs` counters.

**Contract.** For an eligible net, :meth:`LockstepProgram.run_seed`
returns a ``(SweepRunSummary, metric values)`` pair byte-identical to
:func:`repro.sim.sweep._sweep_one` for the same seed: same trace
SHA-256, same event count, same statistics payload floats, same final
marking. The three-way differential harness
(``tests/test_schedule_differential.py``) and the pinned Figure-5
digests enforce this.
"""

from __future__ import annotations

import hashlib
import marshal
import math
import random
import time
from collections.abc import Callable
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any

from ..analysis.report import statistics_payload
from ..analysis.stat import (
    PlaceStats,
    RunStats,
    TraceStatistics,
    TransitionStats,
)
from ..core.errors import TraceError
from ..core.marking import Marking
from ..core.time_model import (
    ConstantDelay,
    DiscreteDelay,
    ExponentialDelay,
    UniformDelay,
)
from ..trace.events import TraceEvent, TraceHeader
from ..trace.serialize import (
    _encode_mappings,
    _PACK_DOUBLE,
    encode_event,
    encode_header,
)
from .engine import (
    _DRAW_MEMO_CAP,
    ImmediateLoopError,
    SimulationError,
    SimulationResult,
    Simulator,
)
from .schedule import select_backend

#: Valid ``backend=`` choices on every batch surface.
BACKEND_CHOICES = ("auto", "scalar", "lockstep")

#: Firing-delay distributions the generated loop can sample verbatim.
_KNOWN_DELAYS = (ConstantDelay, DiscreteDelay, UniformDelay,
                 ExponentialDelay)

_PROGRAM_ATTR = "_lockstep_program_cache"

#: The skeleton attributes a program reads. The program keeps these
#: (shared, never copied) rather than the skeleton itself: the skeleton
#: caches its program, so a back-reference would make the pair a cycle
#: that outlives a net-cache eviction until the cyclic GC next runs.
_SKELETON_FIELDS = (
    "net", "immediate_budget", "_transitions", "_tnames", "_pnames",
    "_in_arcs", "_out_arcs", "_fire_arcs", "_start_arcs", "_watchers",
    "_inputs_dict", "_outputs_dict", "_freq", "_draw_memo", "_deficit",
    "_enabling_const", "_firing_const", "_max_concurrent", "_tbit",
)


@dataclass(frozen=True)
class LockstepDecision:
    """Verdict of the safe-class analysis for one skeleton.

    ``reason`` is machine-readable (it becomes an obs counter suffix and
    the ``--profile`` fallback reason): ``"ok"``, or one of
    ``transition-actions``, ``predicates``, ``non-constant-enabling``,
    ``data-delays``, ``unknown-delay-type``.
    """

    eligible: bool
    reason: str


def classify(skeleton: Simulator) -> LockstepDecision:
    """Decide whether ``skeleton``'s net is in the lockstep safe class."""
    if any(skeleton._has_action):
        return LockstepDecision(False, "transition-actions")
    if any(skeleton._predicated):
        return LockstepDecision(False, "predicates")
    if any(c is None for c in skeleton._enabling_const):
        return LockstepDecision(False, "non-constant-enabling")
    for transition in skeleton._transitions:
        delay = transition.firing_time
        if not isinstance(delay, _KNOWN_DELAYS):
            # DataDelay (environment-coupled samples, the mid-run
            # integral-to-heap migration case) and custom Delay types.
            if hasattr(delay, "sample_in_context"):
                return LockstepDecision(False, "data-delays")
            return LockstepDecision(False, "unknown-delay-type")
    return LockstepDecision(True, "ok")


def _indent(snippet: str, levels: int) -> str:
    pad = "    " * levels
    return "\n".join(
        pad + line if line else line for line in snippet.splitlines()
    )


# -- codegen -----------------------------------------------------------------
#
# The settle pass is the hottest code in the loop (it runs once per
# firing and once per completion instant, over every deficit-crossing),
# so it is specialized twice over on top of the safe-class guarantees:
#
# * ``zero_enabling`` — every enabling delay is the constant 0 (the
#   common processor-model case, Figure 5 included). Then
#   ``enabled_since``/``ready_at`` are write-only bookkeeping (no delay
#   is ever computed from them, READY wake-ups are never scheduled, and
#   a past ``ready_at`` can never exceed ``time_``), so both arrays and
#   the whole enabling branch vanish: startability is just the deficit
#   test plus the concurrency cap.
# * ``no_caps`` — every ``max_concurrent`` is None (infinite-server
#   semantics), so the cap test and the ``in_flight`` array vanish too.
#
# Neither specialization touches the RNG stream, the schedule contents,
# or any emitted byte, so the traces stay bit-identical (the three-way
# differential harness covers capped, delayed-enabling and plain nets).

_SETTLE_HEAD = """\
if len(pend) > 1:
    pend.sort()
prev = -1
for tj in pend:
    if tj == prev:
        continue
    prev = tj
"""

_SETTLE_GENERIC = """\
    if deficit[tj] == 0:
        ready = ready_at[tj]
        if ready is None:
            d = ENC[tj]
            if d == 0:
                ready = time_
                ready_at[tj] = ready
            else:
                ready = time_ + d
                ready_at[tj] = ready
$PUSH_READY$
        if ready > time_:
            startable = False
        else:
$CAP_CHECK$
    else:
        ready_at[tj] = None
        startable = False
    if startable != startable_flags[tj]:
        startable_flags[tj] = startable
        startable_mask ^= TBIT[tj]\
"""

_SETTLE_ZERO_CAPPED = """\
    if deficit[tj] == 0:
        cap = MAXC[tj]
        startable = cap is None or in_flight[tj] < cap
    else:
        startable = False
    if startable != startable_flags[tj]:
        startable_flags[tj] = startable
        startable_mask ^= TBIT[tj]\
"""

_SETTLE_ZERO_UNCAPPED = """\
    startable = deficit[tj] == 0
    if startable != startable_flags[tj]:
        startable_flags[tj] = startable
        startable_mask ^= TBIT[tj]\
"""

_CAP_CHECK = """\
cap = MAXC[tj]
startable = cap is None or in_flight[tj] < cap\
"""

_CAP_CHECK_NONE = """\
startable = True\
"""


def _settle_snippet(zero_enabling: bool, no_caps: bool,
                    push_ready: str) -> str:
    if zero_enabling:
        body = _SETTLE_ZERO_UNCAPPED if no_caps else _SETTLE_ZERO_CAPPED
        return _SETTLE_HEAD + body
    body = _SETTLE_GENERIC.replace("$PUSH_READY$", _indent(push_ready, 4))
    body = body.replace(
        "$CAP_CHECK$",
        _indent(_CAP_CHECK_NONE if no_caps else _CAP_CHECK, 3),
    )
    return _SETTLE_HEAD + body

# Bucket pushes: codegen-proven in range (the ring is sized past the
# largest declared delay and delays in the bucket class are integral),
# so the interpreter's refusal/migration branches are compiled out.
_PUSH_READY_BUCKET = """\
slot = int(ready) & RMASK
b = ring[slot]
if b is None:
    ring[slot] = b = pool.pop() if pool else ([], [])
b[1].append(tj)
pending += 1\
"""

_PUSH_READY_HEAP = """\
ready_seq += 1
heappush(heap, (ready, 1, ready_seq, tj))\
"""

_PUSH_END_BUCKET = """\
slot = int(t_end) & RMASK
b = ring[slot]
if b is None:
    ring[slot] = b = pool.pop() if pool else ([], [])
b[0].append(ti)
pending += 1\
"""

_PUSH_END_HEAP = """\
end_seq += 1
heappush(heap, (t_end, 0, end_seq, ti))\
"""

_ADVANCE_BUCKET = """\
if not pending:
    break
t_int = cursor + 1
slot = t_int & RMASK
bucket = ring[slot]
while bucket is None:
    t_int += 1
    slot = t_int & RMASK
    bucket = ring[slot]
next_time = float(t_int)
if next_time > until_lim:
    break
if events_started >= events_lim:
    break
time_ = next_time
tb = PACK(time_)
cursor = t_int
ring[slot] = None
ends, readys = bucket
pending -= len(ends) + len(readys)\
"""

_ADVANCE_HEAP = """\
if not heap:
    break
next_time = heap[0][0]
if next_time > until_lim:
    break
if events_started >= events_lim:
    break
time_ = next_time
tb = PACK(time_)
ends.clear()
readys.clear()
while heap and heap[0][0] == next_time:
    item = heappop(heap)
    if item[1]:
        readys.append(item[3])
    else:
        ends.append(item[3])\
"""

_RECYCLE_BUCKET = """\
ends.clear()
readys.clear()
if len(pool) < 32:
    pool.append(bucket)\
"""

# Statistics snippets replicate _TimeWeighted.update()/the observer's
# per-kind handling operation for operation (same order, same float
# ops) so the finalized means/stdevs are bit-identical. Three observer
# behaviors are provably redundant and compiled out: transition minima
# (rows start at 0 and concurrency never goes negative), the extremum
# check against the direction a constant-sign arc cannot move (consume
# ops only ever lower a count, produce ops only ever raise it), and the
# first-touch row bookkeeping (row existence is derived after the run
# from the start/end counters; row *order* is unobservable — summary
# dicts compare unordered and every serialization runs through
# ``canonical_json``'s sorted keys).
_STAT_CONSUME = """\
for pi, d in SOPS_S[ti]:
    pv = p_val[pi]
    dt = time_ - p_last[pi]
    if dt:
        p_area[pi] += pv * dt
        p_asq[pi] += pv * pv * dt
        p_last[pi] = time_
    pv += d
    p_val[pi] = pv
    if pv < p_min[pi]:
        p_min[pi] = pv\
"""

_STAT_PRODUCE = """\
for pi, d in SOPS_E[ti]:
    pv = p_val[pi]
    dt = time_ - p_last[pi]
    if dt:
        p_area[pi] += pv * dt
        p_asq[pi] += pv * pv * dt
        p_last[pi] = time_
    pv += d
    p_val[pi] = pv
    if pv > p_max[pi]:
        p_max[pi] = pv\
"""

# START/END place updates ride inside the arc-application loop (the
# ``old`` there is the observer's pre-event ``p_val``, since the two
# track the same token counts). FIRE cannot fuse: its token delta is the
# per-place *net* change while the observer sees remove-then-add with
# the intermediate value's min/max checks, so it keeps the two-pass form
# over the separate ``p_val`` mirror (kept in sync by all three paths).
_STAT_PLACE_S = """\
dt = time_ - p_last[pi]
if dt:
    p_area[pi] += old * dt
    p_asq[pi] += old * old * dt
    p_last[pi] = time_
p_val[pi] = new
if new < p_min[pi]:
    p_min[pi] = new\
"""

_STAT_PLACE_E = """\
dt = time_ - p_last[pi]
if dt:
    p_area[pi] += old * dt
    p_asq[pi] += old * old * dt
    p_last[pi] = time_
p_val[pi] = new
if new > p_max[pi]:
    p_max[pi] = new\
"""

_STAT_FIRE = _STAT_CONSUME + "\n" + _STAT_PRODUCE + """
tv = t_val[ti]
dt = time_ - t_last[ti]
if dt:
    t_area[ti] += tv * dt
    t_asq[ti] += tv * tv * dt
    t_last[ti] = time_
tv1 = tv + 1
if tv1 > t_max[ti]:
    t_max[ti] = tv1
t_starts[ti] += 1
t_ends[ti] += 1\
"""

_STAT_TRANS_S = """\
tv = t_val[ti]
dt = time_ - t_last[ti]
if dt:
    t_area[ti] += tv * dt
    t_asq[ti] += tv * tv * dt
    t_last[ti] = time_
tv += 1
t_val[ti] = tv
if tv > t_max[ti]:
    t_max[ti] = tv
t_starts[ti] += 1\
"""

_STAT_TRANS_E = """\
tv = t_val[ti]
dt = time_ - t_last[ti]
if dt:
    t_area[ti] += tv * dt
    t_asq[ti] += tv * tv * dt
    t_last[ti] = time_
t_val[ti] = tv - 1
t_ends[ti] += 1\
"""

_STAT_SETUP = """\
p_val = list(TOKENS0)
p_min = list(TOKENS0)
p_max = list(TOKENS0)
p_last = [0.0] * N_PLACES
p_area = [0.0] * N_PLACES
p_asq = [0.0] * N_PLACES
t_val = [0] * N_TRANS
t_max = [0] * N_TRANS
t_last = [0.0] * N_TRANS
t_area = [0.0] * N_TRANS
t_asq = [0.0] * N_TRANS
t_starts = [0] * N_TRANS
t_ends = [0] * N_TRANS\
"""

_STAT_RETURN = """\
(p_val, p_min, p_max, p_last, p_area, p_asq,
 t_val, t_max, t_last, t_area, t_asq, t_starts, t_ends)\
"""

# The table bindings ride in as keyword-only parameter defaults: inside
# the loop every lookup is then a LOAD_FAST instead of a LOAD_GLOBAL
# (the same trick the interpreter's run() plays with its one-time local
# binding block, but paid at def time instead of per run).
_TEMPLATE = """\
def lockstep_run(rng, until, max_events, immediate_budget, *,
                 WATCH=WATCH, FIREA=FIREA, STARTA=STARTA, OUTA=OUTA,
                 ENC=ENC, FIRC=FIRC, SAMP=SAMP, MAXC=MAXC, TBIT=TBIT,
                 TNAMES=TNAMES, PNAMES=PNAMES, TOKENS0=TOKENS0,
                 DEFICIT0=DEFICIT0, N_TRANS=N_TRANS, N_PLACES=N_PLACES,
                 RMASK=RMASK, RING_SIZE=RING_SIZE,
                 SOPS_S=SOPS_S, SOPS_E=SOPS_E, SOPS_F=SOPS_F,
                 SUF_S=SUF_S, SUF_E=SUF_E, SUF_F=SUF_F,
                 START_TAG=START_TAG, END_TAG=END_TAG, FIRE_TAG=FIRE_TAG,
                 MEMO_GET=MEMO_GET, draw_entry=draw_entry, bisect=bisect,
                 heappush=heappush, heappop=heappop, PACK=PACK, INF=INF):
    rng_random = rng.random
    tokens = list(TOKENS0)
    deficit = list(DEFICIT0)
    startable_flags = [False] * N_TRANS
$STATE_EXTRA$
    startable_mask = 0
    time_ = 0.0
    tb = PACK(0.0)
    until_lim = INF if until is None else until
    events_lim = INF if max_events is None else max_events
    events_started = 0
    events_finished = 0
    n_events = 0
    buf = bytearray()
$SCHED_SETUP$
$STAT_SETUP$
    pend = list(range(N_TRANS))
$SETTLE1$
    pend = []
    while True:
        if startable_mask:
            budget = immediate_budget
            fired = []
            while startable_mask:
                m = startable_mask
                if m & (m - 1):
                    entry = MEMO_GET(m)
                    if entry is None:
                        entry = draw_entry(m)
                    cand, cum, total, hi = entry
                    ti = cand[bisect(cum, rng_random() * total, 0, hi)]
                else:
                    ti = m.bit_length() - 1
                duration = FIRC[ti]
                if duration is None:
                    duration = SAMP[ti](rng)
                    if duration < 0:
                        raise SimulationError(
                            "firing time of %r sampled negative: %r"
                            % (TNAMES[ti], duration)
                        )
                pend.clear()
                if duration == 0:
$FIRE_APPLY$
                    events_started += 1
$DISARM$
                    pend.append(ti)
                    events_finished += 1
                    buf += FIRE_TAG
                    buf += tb
                    buf += SUF_F[ti]
                    n_events += 1
$STAT_FIRE$
                    if $FAST_COND$:
$FAST_ARM$
                        fired.append(ti)
                        budget -= 1
                        if budget <= 0:
                            raise ImmediateLoopError(
                                time_, [TNAMES[t] for t in fired],
                                immediate_budget,
                            )
                        continue
                else:
$START_APPLY$
                    events_started += 1
$DISARM$
                    pend.append(ti)
$INF_INC$
                    buf += START_TAG
                    buf += tb
                    buf += SUF_S[ti]
                    n_events += 1
$STAT_TRANS_S$
                    t_end = time_ + duration
$PUSH_END$
$SETTLE3$
                fired.append(ti)
                budget -= 1
                if budget <= 0:
                    raise ImmediateLoopError(
                        time_, [TNAMES[t] for t in fired], immediate_budget
                    )
$ADVANCE$
        for ti in ends:
$END_APPLY$
$INF_DEC$
            events_finished += 1
            pend.append(ti)
            buf += END_TAG
            buf += tb
            buf += SUF_E[ti]
            n_events += 1
$STAT_TRANS_E$
        if pend:
$SETTLE2$
            pend = []
$READYS$
$RECYCLE$
    final_time = until if until is not None else time_
    return (final_time, events_started, events_finished, n_events,
            tokens, bytes(buf),
$STAT_RETURN$)
"""

_SCHED_SETUP_BUCKET = """\
ring = [None] * RING_SIZE
pool = []
cursor = 0
pending = 0\
"""

_SCHED_SETUP_HEAP = """\
heap = []
end_seq = 0
ready_seq = 0
ends = []
readys = []\
"""

# READY wake-ups only exist when some enabling delay is nonzero, so the
# whole recheck loop vanishes under ``zero_enabling``.
_READYS_GENERIC = """\
for tj in readys:
    ready = ready_at[tj]
    if ready is None or ready > time_:
        startable = False
    else:
$CAP_CHECK$
    if startable != startable_flags[tj]:
        startable_flags[tj] = startable
        startable_mask ^= TBIT[tj]\
"""

_STATE_ENABLING = """\
ready_at = [None] * N_TRANS\
"""

_STATE_INFLIGHT = """\
in_flight = [0] * N_TRANS\
"""

_DISARM = """\
ready_at[ti] = None\
"""

_FAST_ARM = """\
ready_at[ti] = time_\
"""


# Arc application, generic form: one table-driven loop per event kind.
# Small nets get the unrolled form below instead (constant indices and
# weights per transition, selected by a binary dispatch tree on ``ti``).
_FIRE_APPLY_GENERIC = """\
for pi, w in FIREA[ti]:
    old = tokens[pi]
    new = old + w
    if new < 0:
        raise SimulationError(
            "firing %r would drive place %r negative"
            % (TNAMES[ti], PNAMES[pi])
        )
    tokens[pi] = new
    for tj, thr, sign in WATCH[pi]:
        if (old >= thr) != (new >= thr):
            od = deficit[tj]
            nd = od + (sign if new >= thr else -sign)
            deficit[tj] = nd
            if od == 0 or nd == 0:
                pend.append(tj)\
"""

_START_APPLY_GENERIC = """\
for pi, w in STARTA[ti]:
    old = tokens[pi]
    new = old + w
    if new < 0:
        raise SimulationError(
            "firing %r would drive place %r negative"
            % (TNAMES[ti], PNAMES[pi])
        )
    tokens[pi] = new
    for tj, thr, sign in WATCH[pi]:
        if (old >= thr) != (new >= thr):
            od = deficit[tj]
            nd = od + (sign if new >= thr else -sign)
            deficit[tj] = nd
            if od == 0 or nd == 0:
                pend.append(tj)
$STAT_PLACE_S$\
"""

_END_APPLY_GENERIC = """\
for pi, w in OUTA[ti]:
    old = tokens[pi]
    new = old + w
    tokens[pi] = new
    for tj, thr, sign in WATCH[pi]:
        if (old >= thr) != (new >= thr):
            od = deficit[tj]
            nd = od + (sign if new >= thr else -sign)
            deficit[tj] = nd
            if od == 0 or nd == 0:
                pend.append(tj)
$STAT_PLACE_E$\
"""

# -- per-transition unrolling ------------------------------------------------
#
# For nets up to _UNROLL_MAX_TRANS transitions the three arc loops are
# unrolled per transition: every place index, arc weight and watcher
# threshold becomes a literal, the per-arc iterator/tuple-unpack
# machinery disappears, and the dead negative-token check on positive
# deltas is compiled out (tokens are never negative, so ``old + k`` with
# ``k > 0`` cannot trip it).  A balanced ``if ti < mid`` tree picks the
# block in ~log2(n) integer compares.  Statistics updates ride inside
# the same leaf (constant indices again); reordering them before the
# shared counter/trace epilogue is unobservable — they touch disjoint
# state.

_UNROLL_MAX_TRANS = 64

# Process-wide codegen caches: structurally identical nets — same arc
# tables, same codegen flags — generate byte-identical source, so both
# the text and its compiled code object are shared across programs,
# keyed on that structure. This is what keeps per-job codegen off the
# hot path for DSE grids (every bound point is the same structure with
# different constants) and for repeated compiles of the same net in
# fresh skeletons. Cleared wholesale at the cap; a process juggling
# that many distinct net structures is re-paying a cost it was already
# paying before caching.
_CODEGEN_CACHE_CAP = 64
_source_cache: dict[tuple, str] = {}
_code_cache: dict[tuple, Any] = {}


def _compile(program: LockstepProgram, want_stats: bool) -> Any:
    return compile(program.source(want_stats), "<lockstep>", "exec")


def _marshalled_code(program: LockstepProgram, want_stats: bool,
                     emit) -> bytes:
    """Child side of :func:`_compile_isolated` (``emit`` is unused)."""
    return marshal.dumps(_compile(program, want_stats))


def _compile_isolated(program: LockstepProgram, want_stats: bool) -> Any:
    """Generate and ``compile()`` the module in a short-lived forked child.

    The child ships the code object back marshalled (~150 KB for the
    Figure-5 loop, loaded in ~0.1 ms), so the 250 KB source text and
    the compiler's transient memory — ~12 MB of peak RSS for that
    module — are spent in a process that exits right away. Without
    fork, or if the child fails for any reason, the compile runs here
    instead: the code object is the same.
    """
    from .experiment import ForkedTask, fork_available

    if fork_available():
        task = ForkedTask(_marshalled_code, (program, want_stats),
                          label="lockstep codegen")
        try:
            kind, payload = task.next_message()
        finally:
            task.join()
        if kind == "ok":
            return marshal.loads(payload)
    return _compile(program, want_stats)


def _emit_apply_leaf(ti, arcs, watch, check_negative, place_stat,
                     want_stats):
    """Unrolled token application + watcher updates for one transition.

    ``place_stat`` is ``"S"``/``"E"`` to fold the observer's per-place
    update into the arc block (START tracks minima, END maxima), or
    None for FIRE (which keeps its two-pass form, emitted separately).
    """
    lines = []
    for pi, w in arcs:
        lines.append(f"old = tokens[{pi}]")
        if w >= 0:
            lines.append(f"new = old + {w}")
        else:
            lines.append(f"new = old - {-w}")
        if check_negative and w < 0:
            lines += [
                "if new < 0:",
                "    raise SimulationError(",
                '        "firing %r would drive place %r negative"',
                f"        % (TNAMES[{ti}], PNAMES[{pi}])",
                "    )",
            ]
        lines.append(f"tokens[{pi}] = new")
        for tj, thr, sign in watch[pi]:
            lines += [
                f"if (old >= {thr}) != (new >= {thr}):",
                f"    od = deficit[{tj}]",
                f"    nd = od + ({sign} if new >= {thr} else {-sign})",
                f"    deficit[{tj}] = nd",
                "    if od == 0 or nd == 0:",
                f"        pend.append({tj})",
            ]
        if want_stats and place_stat is not None:
            cmp_, ext = ("<", "p_min") if place_stat == "S" else (">", "p_max")
            lines += [
                f"dt = time_ - p_last[{pi}]",
                "if dt:",
                f"    p_area[{pi}] += old * dt",
                f"    p_asq[{pi}] += old * old * dt",
                f"    p_last[{pi}] = time_",
                f"p_val[{pi}] = new",
                f"if new {cmp_} {ext}[{pi}]:",
                f"    {ext}[{pi}] = new",
            ]
    return "\n".join(lines)


def _emit_fire_stat_leaf(ti, sops_s, sops_e):
    """Unrolled FIRE statistics: the observer's remove-then-add two-pass
    over the ``p_val`` mirror, then the transition's start+end pulse."""
    lines = []
    for ops, cmp_, ext in ((sops_s, "<", "p_min"), (sops_e, ">", "p_max")):
        for pi, d in ops:
            lines += [
                f"pv = p_val[{pi}]",
                f"dt = time_ - p_last[{pi}]",
                "if dt:",
                f"    p_area[{pi}] += pv * dt",
                f"    p_asq[{pi}] += pv * pv * dt",
                f"    p_last[{pi}] = time_",
                f"pv -= {-d}" if d < 0 else f"pv += {d}",
                f"p_val[{pi}] = pv",
                f"if pv {cmp_} {ext}[{pi}]:",
                f"    {ext}[{pi}] = pv",
            ]
    lines += [
        f"tv = t_val[{ti}]",
        f"dt = time_ - t_last[{ti}]",
        "if dt:",
        f"    t_area[{ti}] += tv * dt",
        f"    t_asq[{ti}] += tv * tv * dt",
        f"    t_last[{ti}] = time_",
        "tv1 = tv + 1",
        f"if tv1 > t_max[{ti}]:",
        f"    t_max[{ti}] = tv1",
        f"t_starts[{ti}] += 1",
        f"t_ends[{ti}] += 1",
    ]
    return "\n".join(lines)


def _emit_trans_stat_leaf(ti, kind):
    """Unrolled START/END transition-concurrency update."""
    lines = [
        f"tv = t_val[{ti}]",
        f"dt = time_ - t_last[{ti}]",
        "if dt:",
        f"    t_area[{ti}] += tv * dt",
        f"    t_asq[{ti}] += tv * tv * dt",
        f"    t_last[{ti}] = time_",
    ]
    if kind == "S":
        lines += [
            "tv += 1",
            f"t_val[{ti}] = tv",
            f"if tv > t_max[{ti}]:",
            f"    t_max[{ti}] = tv",
            f"t_starts[{ti}] += 1",
        ]
    else:
        lines += [
            f"t_val[{ti}] = tv - 1",
            f"t_ends[{ti}] += 1",
        ]
    return "\n".join(lines)


def _dispatch_tree(leaves):
    """Balanced binary dispatch on ``ti`` over per-transition leaves."""
    if not leaves:
        return "pass"

    def build(lo, hi):
        if hi - lo == 1:
            return leaves[lo] or "pass"
        mid = (lo + hi) // 2
        return (
            f"if ti < {mid}:\n" + _indent(build(lo, mid), 1)
            + "\nelse:\n" + _indent(build(mid, hi), 1)
        )

    return build(0, len(leaves))


def _unrolled_bodies(tables, want_stats):
    """The three dispatch trees (FIRE/START/END) for a small net."""
    firea, starta, outa = (
        tables["FIREA"], tables["STARTA"], tables["OUTA"],
    )
    watch = tables["WATCH"]
    sops_s, sops_e = tables["SOPS_S"], tables["SOPS_E"]
    n = len(firea)
    fire_leaves = []
    start_leaves = []
    end_leaves = []
    for ti in range(n):
        fire = _emit_apply_leaf(ti, firea[ti], watch, True, None, False)
        if want_stats:
            stat = _emit_fire_stat_leaf(ti, sops_s[ti], sops_e[ti])
            fire = fire + "\n" + stat if fire else stat
        fire_leaves.append(fire)
        start = _emit_apply_leaf(ti, starta[ti], watch, True, "S",
                                 want_stats)
        end = _emit_apply_leaf(ti, outa[ti], watch, False, "E", want_stats)
        if want_stats:
            start_tail = _emit_trans_stat_leaf(ti, "S")
            end_tail = _emit_trans_stat_leaf(ti, "E")
            start = start + "\n" + start_tail if start else start_tail
            end = end + "\n" + end_tail if end else end_tail
        start_leaves.append(start)
        end_leaves.append(end)
    return (
        _dispatch_tree(fire_leaves),
        _dispatch_tree(start_leaves),
        _dispatch_tree(end_leaves),
    )


def _generate_source(use_bucket: bool, want_stats: bool,
                     zero_enabling: bool, no_caps: bool,
                     tables=None) -> str:
    """Assemble the specialized run-loop source for one net class."""
    push_ready = _PUSH_READY_BUCKET if use_bucket else _PUSH_READY_HEAP
    settle = _settle_snippet(zero_enabling, no_caps, push_ready)
    source = _TEMPLATE
    state_lines = []
    if not zero_enabling:
        state_lines.append(_STATE_ENABLING)
    if not no_caps:
        state_lines.append(_STATE_INFLIGHT)
    source = source.replace(
        "$STATE_EXTRA$", _indent("\n".join(state_lines), 1)
    )
    source = source.replace(
        "$DISARM$", "" if zero_enabling else _indent(_DISARM, 5)
    )
    source = source.replace(
        "$FAST_COND$",
        "len(pend) == 1" if zero_enabling
        else "len(pend) == 1 and ENC[ti] == 0",
    )
    source = source.replace(
        "$FAST_ARM$", "" if zero_enabling else _indent(_FAST_ARM, 6)
    )
    source = source.replace(
        "$INF_INC$", "" if no_caps else _indent("in_flight[ti] += 1", 5)
    )
    source = source.replace(
        "$INF_DEC$", "" if no_caps else _indent("in_flight[ti] -= 1", 3)
    )
    if zero_enabling:
        readys = ""
    else:
        readys = _indent(
            _READYS_GENERIC.replace(
                "$CAP_CHECK$",
                _indent(_CAP_CHECK_NONE if no_caps else _CAP_CHECK, 2),
            ),
            2,
        )
    source = source.replace("$READYS$", readys)
    source = source.replace(
        "$SCHED_SETUP$",
        _indent(_SCHED_SETUP_BUCKET if use_bucket else _SCHED_SETUP_HEAP, 1),
    )
    source = source.replace(
        "$STAT_SETUP$", _indent(_STAT_SETUP if want_stats else "pass", 1)
    )
    source = source.replace("$SETTLE1$", _indent(settle, 1))
    source = source.replace("$SETTLE3$", _indent(settle, 4))
    source = source.replace("$SETTLE2$", _indent(settle, 3))
    source = source.replace(
        "$PUSH_END$",
        _indent(_PUSH_END_BUCKET if use_bucket else _PUSH_END_HEAP, 5),
    )
    source = source.replace(
        "$ADVANCE$",
        _indent(_ADVANCE_BUCKET if use_bucket else _ADVANCE_HEAP, 2),
    )
    source = source.replace(
        "$RECYCLE$",
        _indent(_RECYCLE_BUCKET if use_bucket else "pass", 2),
    )
    if tables is not None:
        fire_body, start_body, end_body = _unrolled_bodies(
            tables, want_stats
        )
        stat_fire = stat_trans_s = stat_trans_e = ""
    else:
        fire_body = _FIRE_APPLY_GENERIC
        start_body = _START_APPLY_GENERIC.replace(
            "$STAT_PLACE_S$",
            _indent(_STAT_PLACE_S, 1) if want_stats else "",
        )
        end_body = _END_APPLY_GENERIC.replace(
            "$STAT_PLACE_E$",
            _indent(_STAT_PLACE_E, 1) if want_stats else "",
        )
        stat_fire = _indent(_STAT_FIRE if want_stats else "pass", 5)
        stat_trans_s = _indent(_STAT_TRANS_S, 5) if want_stats else ""
        stat_trans_e = _indent(_STAT_TRANS_E, 3) if want_stats else ""
    source = source.replace("$FIRE_APPLY$", _indent(fire_body, 5))
    source = source.replace("$START_APPLY$", _indent(start_body, 5))
    source = source.replace("$END_APPLY$", _indent(end_body, 3))
    source = source.replace("$STAT_FIRE$", stat_fire)
    source = source.replace("$STAT_TRANS_S$", stat_trans_s)
    source = source.replace("$STAT_TRANS_E$", stat_trans_e)
    source = source.replace(
        "$STAT_RETURN$",
        _indent(_STAT_RETURN if want_stats else "None", 3),
    )
    return source


class LockstepProgram:
    """One net's compiled lockstep runner (a cached, exec-built loop).

    Built by :func:`compile_lockstep`; cached on the skeleton object so
    the service's compiled-net cache and repeated sweeps pay codegen
    once per net per process. ``source(want_stats)`` exposes the
    generated text for inspection and the codegen tests.
    :meth:`run_seed` keeps no per-run state on the program, so one
    warm program may serve several threads at once.
    """

    def __init__(self, skeleton: Simulator) -> None:
        decision = classify(skeleton)
        if not decision.eligible:
            raise SimulationError(
                f"net {skeleton.net.name!r} is outside the lockstep safe "
                f"class: {decision.reason}"
            )
        self._sk = SimpleNamespace(**{
            name: getattr(skeleton, name) for name in _SKELETON_FIELDS
        })
        self.decision = decision
        backend, ring_size = select_backend(skeleton._transitions)
        self.scheduler = backend
        self._ring_size = ring_size
        self._tokens0 = tuple(skeleton._tokens)
        self._pnames = skeleton._pnames
        self._tnames = skeleton._tnames
        self._in_places = [
            tuple(pi for pi, _w in skeleton._in_arcs[ti])
            for ti in range(len(self._tnames))
        ]
        self._out_places = [
            tuple(pi for pi, _w in skeleton._out_arcs[ti])
            for ti in range(len(self._tnames))
        ]
        self._zero_enabling = all(
            c == 0 for c in skeleton._enabling_const
        )
        self._no_caps = all(
            c is None for c in skeleton._max_concurrent
        )
        self._fns: dict[bool, Callable] = {}
        self._sources: dict[bool, str] = {}
        self._init_cache: tuple[dict, bytes] | None = None
        self._eot_cache: tuple[float, bytes] | None = None

    # -- codegen ----------------------------------------------------------

    def _stat_ops(self):
        sk = self._sk
        n = len(sk._tnames)
        sops_s = [
            tuple((pi, -w) for pi, w in sk._in_arcs[ti]) for ti in range(n)
        ]
        sops_e = [
            tuple((pi, w) for pi, w in sk._out_arcs[ti]) for ti in range(n)
        ]
        return sops_s, sops_e

    def _codegen_key(self, want_stats: bool):
        """``(cache key, unrolled tables)`` of the generated module.

        The generated text depends only on the net's *structure* (arc
        tables and the codegen flags) — numeric constants travel
        through the exec globals — so structurally identical nets
        (e.g. every point of a DSE grid over delays/tokens) share one
        key, one source string and one compiled code object.
        """
        sk = self._sk
        tables = None
        key_tables = None
        if 0 < len(sk._tnames) <= _UNROLL_MAX_TRANS:
            sops_s, sops_e = self._stat_ops()
            tables = {
                "FIREA": sk._fire_arcs,
                "STARTA": sk._start_arcs,
                "OUTA": sk._out_arcs,
                "WATCH": sk._watchers,
                "SOPS_S": sops_s,
                "SOPS_E": sops_e,
            }
            key_tables = tuple(
                tuple(tuple(row) for row in tables[name])
                for name in ("FIREA", "STARTA", "OUTA", "WATCH",
                             "SOPS_S", "SOPS_E")
            )
        key = (self.scheduler == "bucket", want_stats,
               self._zero_enabling, self._no_caps, key_tables)
        return key, tables

    def source(self, want_stats: bool = True) -> str:
        if want_stats not in self._sources:
            key, tables = self._codegen_key(want_stats)
            cached = _source_cache.get(key)
            if cached is None:
                cached = _generate_source(
                    self.scheduler == "bucket", want_stats,
                    self._zero_enabling, self._no_caps, tables,
                )
                if len(_source_cache) >= _CODEGEN_CACHE_CAP:
                    _source_cache.clear()
                _source_cache[key] = cached
            self._sources[want_stats] = cached
        return self._sources[want_stats]

    def _globals(self) -> dict[str, Any]:
        sk = self._sk
        tags = {
            "INIT": b"I", "START": b"S", "END": b"E", "FIRE": b"F",
        }
        suf_s = []
        suf_e = []
        suf_f = []
        for ti, name in enumerate(sk._tnames):
            tname = name.encode("utf-8") + b"\x00"
            suf_s.append(
                tname + _encode_mappings(sk._inputs_dict[ti], {}) + b"\x03"
            )
            suf_e.append(
                tname + _encode_mappings({}, sk._outputs_dict[ti]) + b"\x03"
            )
            suf_f.append(
                tname
                + _encode_mappings(sk._inputs_dict[ti], sk._outputs_dict[ti])
                + b"\x03"
            )
        sops_s, sops_e = self._stat_ops()
        sops_f = [sops_s[ti] + sops_e[ti] for ti in range(len(sk._tnames))]
        freq = sk._freq
        memo = sk._draw_memo

        def draw_entry(mask: int):
            # Inline replica of Simulator._draw_entry over the shared
            # (append-only) memo: entries are identical either way.
            cand: list[int] = []
            cum: list[float] = []
            total = 0.0
            m = mask
            while m:
                bit = m & -m
                tj = bit.bit_length() - 1
                cand.append(tj)
                total += freq[tj]
                cum.append(total)
                m ^= bit
            entry = (cand, cum, cum[-1] + 0.0, len(cand) - 1)
            if len(memo) < _DRAW_MEMO_CAP:
                memo[mask] = entry
            return entry

        from bisect import bisect
        from heapq import heappop, heappush

        return {
            "__builtins__": __builtins__,
            "bisect": bisect,
            "heappush": heappush,
            "heappop": heappop,
            "PACK": _PACK_DOUBLE,
            "INF": float("inf"),
            "SimulationError": SimulationError,
            "ImmediateLoopError": ImmediateLoopError,
            "N_TRANS": len(sk._tnames),
            "N_PLACES": len(sk._pnames),
            "RING_SIZE": self._ring_size,
            "RMASK": self._ring_size - 1 if self._ring_size else 0,
            "TOKENS0": self._tokens0,
            "DEFICIT0": tuple(sk._deficit),
            "WATCH": tuple(sk._watchers),
            "FIREA": tuple(sk._fire_arcs),
            "STARTA": tuple(sk._start_arcs),
            "OUTA": tuple(sk._out_arcs),
            "ENC": tuple(sk._enabling_const),
            "FIRC": tuple(sk._firing_const),
            "SAMP": tuple(
                None if sk._firing_const[ti] is not None
                else sk._transitions[ti].firing_time.sample
                for ti in range(len(sk._tnames))
            ),
            "MAXC": tuple(sk._max_concurrent),
            "TBIT": tuple(sk._tbit),
            "TNAMES": tuple(sk._tnames),
            "PNAMES": tuple(sk._pnames),
            "SOPS_S": tuple(sops_s),
            "SOPS_E": tuple(sops_e),
            "SOPS_F": tuple(sops_f),
            "SUF_S": tuple(suf_s),
            "SUF_E": tuple(suf_e),
            "SUF_F": tuple(suf_f),
            "START_TAG": tags["START"],
            "END_TAG": tags["END"],
            "FIRE_TAG": tags["FIRE"],
            "MEMO_GET": memo.get,
            "draw_entry": draw_entry,
        }

    def _fn(self, want_stats: bool) -> Callable:
        fn = self._fns.get(want_stats)
        if fn is None:
            self.warm(want_stats)
            fn = self._fns[want_stats]
        return fn

    def warm(self, want_stats: bool, isolate: bool = False) -> bool:
        """Build the run loop for ``want_stats`` now, once per program.

        Returns True when this call paid the ``compile()`` of the
        generated module (~25-55 ms for Figure 5) and False when the
        loop was already built or its code object was already in the
        process-wide cache. That cache is keyed on the net's structure
        (:meth:`_codegen_key`), so ``compile()`` is paid once per net
        *structure* per process, not once per program. ``isolate=True``
        generates and compiles in a forked child (see
        :func:`_compile_isolated`), for long-lived processes whose peak
        RSS matters.
        """
        if want_stats in self._fns:
            return False
        key = self._codegen_key(want_stats)[0]
        code = _code_cache.get(key)
        compiled = code is None
        if compiled:
            code = (_compile_isolated(self, want_stats) if isolate
                    else _compile(self, want_stats))
            if len(_code_cache) >= _CODEGEN_CACHE_CAP:
                _code_cache.clear()
            _code_cache[key] = code
        namespace = self._globals()
        exec(code, namespace)
        # Popped, not read: the function's globals are this namespace,
        # and leaving it there would be a reference cycle.
        self._fns[want_stats] = namespace.pop("lockstep_run")
        return compiled

    # -- execution --------------------------------------------------------

    def run_seed(
        self,
        seed: int,
        run_number: int,
        until: float | None,
        max_events: int | None,
        want_stats: bool,
        metrics: dict[str, Callable[[SimulationResult], float]],
        stat_metrics: dict[str, Callable[[TraceStatistics], float]],
    ):
        """Run one seed through the compiled loop.

        Returns the same ``(SweepRunSummary, values)`` pair as
        :func:`repro.sim.sweep._sweep_one` — bit-identical trace digest,
        statistics payload and metric values.
        """
        from .sweep import SweepRunSummary

        if until is not None and until < 0:
            # The scalar engine rejects a negative horizon (the stats
            # observer refuses to finalize a clock that ran backwards);
            # refusing here keeps error behavior aligned across backends
            # instead of silently returning an empty run.
            raise TraceError(f"trace time went backwards at {until}")
        sk = self._sk
        need_stats = want_stats or bool(stat_metrics)
        # A per-call RNG (same stream as reseeding a shared one) keeps
        # concurrent runs on one program from interleaving draws.
        rng = random.Random(seed)
        env = sk.net.initial_environment(rng=rng)
        header = TraceHeader(sk.net.name, run_number, seed)
        sha = hashlib.sha256(encode_header(header))
        # The INIT and EOT events are identical across the seeds of one
        # grid (same initial marking/variables; same ``until``), so their
        # encodings are memoized by value.
        scalars = env.snapshot_scalars()
        init_cache = self._init_cache
        if init_cache is None or init_cache[0] != scalars:
            init_cache = (scalars, encode_event(TraceEvent.init(
                dict(zip(self._pnames, self._tokens0)), scalars
            )))
            self._init_cache = init_cache
        sha.update(init_cache[1])
        run_started = time.perf_counter()
        out = self._fn(need_stats)(rng, until, max_events,
                                   sk.immediate_budget)
        elapsed_s = time.perf_counter() - run_started
        (final_time, events_started, events_finished, n_events,
         tokens, tail, stat_state) = out
        sha.update(tail)
        eot_cache = self._eot_cache
        if eot_cache is None or eot_cache[0] != final_time:
            eot_cache = (final_time,
                         encode_event(TraceEvent.eot(0, final_time)))
            self._eot_cache = eot_cache
        sha.update(eot_cache[1])

        values: dict[str, float] = {}
        if metrics:
            result = SimulationResult(
                header=header,
                events=[],
                final_time=final_time,
                events_started=events_started,
                events_finished=events_finished,
                final_marking=Marking(dict(zip(self._pnames, tokens))),
                final_variables=env.snapshot_scalars(),
            )
            values = {name: fn(result) for name, fn in metrics.items()}
        stats_dict = None
        if stat_metrics:
            statistics = self._finalize_stats(
                run_number, final_time, events_started, events_finished,
                stat_state,
            )
            for name, fn in stat_metrics.items():
                values[name] = fn(statistics)
            if want_stats:
                stats_dict = statistics_payload(statistics)
        elif want_stats:
            # Fast path: assemble the payload dict straight from the
            # arrays — same floats, no intermediate dataclass rows.
            stats_dict = self._stats_payload(
                run_number, final_time, events_started, events_finished,
                stat_state,
            )
        summary = SweepRunSummary(
            seed=seed,
            run_number=run_number,
            final_time=final_time,
            events_started=events_started,
            events_finished=events_finished,
            trace_events=n_events + 2,
            trace_sha256=sha.hexdigest(),
            stats=stats_dict,
            elapsed_s=elapsed_s,
        )
        return summary, values

    def _finalize_stats(
        self,
        run_number: int,
        final_time: float,
        events_started: int,
        events_finished: int,
        stat_state: tuple,
    ) -> TraceStatistics:
        """Close the integration windows — the array twin of
        :meth:`~repro.analysis.stat.StatisticsObserver.result`, float op
        for float op (the final ``update(end_time, value)`` inside
        ``finalize`` included)."""
        (p_val, p_min, p_max, p_last, p_area, p_asq,
         t_val, t_max, t_last, t_area, t_asq, t_starts, t_ends) = stat_state
        length = final_time - 0.0
        # Row existence, reconstructed from the counters: the observer
        # grows a row on first touch, and a node is touched iff its
        # initial marking was nonzero (INIT rows) or some event moved
        # tokens through it (inputs move on START/FIRE, i.e. when the
        # transition counted a start; outputs on END/FIRE, a finish).
        p_exists = [t != 0 for t in self._tokens0]
        t_exists = [False] * len(self._tnames)
        for ti in range(len(self._tnames)):
            if t_starts[ti]:
                t_exists[ti] = True
                for pi in self._in_places[ti]:
                    p_exists[pi] = True
            if t_ends[ti]:
                t_exists[ti] = True
                for pi in self._out_places[ti]:
                    p_exists[pi] = True
        places: dict[str, PlaceStats] = {}
        for pi in range(len(self._pnames)):
            if not p_exists[pi]:
                continue
            name = self._pnames[pi]
            value = p_val[pi]
            dt = final_time - p_last[pi]
            area = p_area[pi] + value * dt
            asq = p_asq[pi] + value * value * dt
            if length <= 0:
                mean, stdev = float(value), 0.0
            else:
                mean = area / length
                variance = max(asq / length - mean * mean, 0.0)
                stdev = math.sqrt(variance)
            places[name] = PlaceStats(name, p_min[pi], p_max[pi], mean,
                                      stdev)
        transitions: dict[str, TransitionStats] = {}
        for ti in range(len(self._tnames)):
            if not t_exists[ti]:
                continue
            name = self._tnames[ti]
            value = t_val[ti]
            dt = final_time - t_last[ti]
            area = t_area[ti] + value * dt
            asq = t_asq[ti] + value * value * dt
            if length <= 0:
                mean, stdev = float(value), 0.0
            else:
                mean = area / length
                variance = max(asq / length - mean * mean, 0.0)
                stdev = math.sqrt(variance)
            throughput = t_ends[ti] / length if length > 0 else 0.0
            transitions[name] = TransitionStats(
                name, 0, t_max[ti], mean, stdev,
                t_starts[ti], t_ends[ti], throughput,
            )
        return TraceStatistics(
            run=RunStats(run_number, 0.0, length, events_started,
                         events_finished),
            places=places,
            transitions=transitions,
        )

    def _stats_payload(
        self,
        run_number: int,
        final_time: float,
        events_started: int,
        events_finished: int,
        stat_state: tuple,
    ) -> dict[str, Any]:
        """:func:`~repro.analysis.report.statistics_payload`, assembled
        directly from the arrays: the same finalize arithmetic as
        :meth:`_finalize_stats` with the dataclass rows skipped (payload
        dicts compare and serialize unordered, so nothing observable is
        lost)."""
        (p_val, p_min, p_max, p_last, p_area, p_asq,
         t_val, t_max, t_last, t_area, t_asq, t_starts, t_ends) = stat_state
        length = final_time - 0.0
        p_exists = [t != 0 for t in self._tokens0]
        t_exists = [False] * len(self._tnames)
        for ti in range(len(self._tnames)):
            if t_starts[ti]:
                t_exists[ti] = True
                for pi in self._in_places[ti]:
                    p_exists[pi] = True
            if t_ends[ti]:
                t_exists[ti] = True
                for pi in self._out_places[ti]:
                    p_exists[pi] = True
        places: dict[str, dict[str, Any]] = {}
        for pi in range(len(self._pnames)):
            if not p_exists[pi]:
                continue
            value = p_val[pi]
            dt = final_time - p_last[pi]
            area = p_area[pi] + value * dt
            asq = p_asq[pi] + value * value * dt
            if length <= 0:
                mean, stdev = float(value), 0.0
            else:
                mean = area / length
                variance = max(asq / length - mean * mean, 0.0)
                stdev = math.sqrt(variance)
            places[self._pnames[pi]] = {
                "min_tokens": p_min[pi],
                "max_tokens": p_max[pi],
                "avg_tokens": mean,
                "stdev_tokens": stdev,
            }
        transitions: dict[str, dict[str, Any]] = {}
        for ti in range(len(self._tnames)):
            if not t_exists[ti]:
                continue
            value = t_val[ti]
            dt = final_time - t_last[ti]
            area = t_area[ti] + value * dt
            asq = t_asq[ti] + value * value * dt
            if length <= 0:
                mean, stdev = float(value), 0.0
            else:
                mean = area / length
                variance = max(asq / length - mean * mean, 0.0)
                stdev = math.sqrt(variance)
            transitions[self._tnames[ti]] = {
                "min_concurrent": 0,
                "max_concurrent": t_max[ti],
                "avg_concurrent": mean,
                "stdev_concurrent": stdev,
                "starts": t_starts[ti],
                "ends": t_ends[ti],
                "throughput": t_ends[ti] / length if length > 0 else 0.0,
            }
        return {
            "run": {
                "run_number": run_number,
                "initial_clock": 0.0,
                "length": length,
                "events_started": events_started,
                "events_finished": events_finished,
            },
            "transitions": transitions,
            "places": places,
        }


def compile_lockstep(skeleton: Simulator) -> LockstepProgram:
    """Compile (once, cached on the skeleton) the lockstep program.

    Raises :class:`~repro.core.errors.SimulationError` when the net is
    outside the safe class — call :func:`classify` (or
    :func:`resolve_backend`) first for the silent-fallback path.
    """
    program = getattr(skeleton, _PROGRAM_ATTR, None)
    if program is None:
        program = LockstepProgram(skeleton)
        setattr(skeleton, _PROGRAM_ATTR, program)
    return program


def resolve_backend(
    skeleton: Simulator, requested: str
) -> tuple[LockstepProgram | None, str, str]:
    """Resolve a ``backend=`` request against the safe-class analysis.

    Returns ``(program or None, selected backend, reason)`` where
    ``selected`` is ``"lockstep"`` or ``"scalar"``. ``"auto"`` and
    ``"lockstep"`` both select lockstep when eligible and fall back to
    the scalar engine silently otherwise (the reason says why — the
    fallback edges are a documented, counted behavior, never an error).
    """
    if requested not in BACKEND_CHOICES:
        raise ValueError(
            f"unknown backend {requested!r}: use one of "
            f"{list(BACKEND_CHOICES)}"
        )
    if requested == "scalar":
        return None, "scalar", "requested"
    decision = classify(skeleton)
    if not decision.eligible:
        return None, "scalar", decision.reason
    return compile_lockstep(skeleton), "lockstep", "ok"
