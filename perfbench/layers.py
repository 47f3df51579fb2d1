"""The traced run's per-layer breakdown.

Two sources feed it.  The spans the program already emits (``plan-lookup``,
``refresh``, ``column-selection``, ``group-index``, ``sampling``, ``solve``,
``execute``, ``shard:<i>``) are reduced to self times -- a span's duration
minus the union of its children's intervals, since shard spans overlap --
plus the work counters attributed to each span's subtree.  Public entry
points with no span are timed by :class:`EntryPointTimers`, wrappers
installed from here around ``UserDefinedFunction.evaluate_rows``,
``TableStore.save/open/append``, the journal write, ``append_columns`` and
group-index extension.

:data:`LAYER_MAP` records, for every per-layer metric, the end-to-end metric
and workloads it is expected to move.
"""

from __future__ import annotations

import os
import threading
import time
from collections import defaultdict
from typing import Dict, List, Tuple

from harness import self_time

#: Span name -> layer prefix of the per-layer metrics.
SPAN_LAYERS = {
    "plan-lookup": "serving.plan_lookup",
    "refresh": "serving.refresh",
    "column-selection": "column_selection",
    "group-index": "index.group_index",
    "sampling": "sampling",
    "solve": "solve",
    "execute": "execute",
}

#: Per-layer metric -> (end-to-end metrics it should move, on which workloads).
LAYER_MAP: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {}


def _map(metrics: str, moves: str, workloads: str) -> None:
    for metric in metrics.split():
        LAYER_MAP[metric] = (tuple(moves.split()), tuple(workloads.split()))


ALL = "adhoc churn outofcore-pyudf"
_map("import.repro_s", "setup_s", ALL)
_map("procpool.first_query_s procpool.fallbacks", "setup_s ok_share", "outofcore-pyudf")
_map("procpool.shard_ms procpool.fold_ms", "query_p50_ms", "outofcore-pyudf")
_map("shm.exported_segments", "query_p50_ms", "outofcore-pyudf")
_map(
    "serving.plan_lookup_ms serving.plan_hit_rate serving.stats_hit_rate",
    "throughput_qps query_p50_ms",
    "churn",
)
_map("serving.refreshes serving.refresh_ms", "query_p90_ms", "churn")
_map("column_selection.ms column_selection.udf_evals", "query_p50_ms cost_per_query", "adhoc")
_map("sampling.ms sampling.udf_evals", "query_p50_ms cost_per_query", "adhoc")
_map("solve.ms solve.calls", "query_p50_ms query_p90_ms", "adhoc churn")
_map("execute.ms execute.rows_returned execute.udf_evals", "query_p50_ms", "churn adhoc")
_map(
    "udf.calls udf.bulk_calls udf.row_calls udf.memo_hit_rate "
    "udf.evals_per_returned_row udf.eval_ms",
    "udf_calls_per_query cpu_ms_per_query",
    ALL,
)
_map("index.builds index.extensions index.ms", "query_p90_ms throughput_qps", "churn")
_map(
    "storage.append_p50_ms storage.append_ms storage.journal_ms storage.apply_ms "
    "storage.journal_bytes_per_user_byte",
    "throughput_qps",
    "churn",
)
_map("storage.save_s storage.open_s", "setup_s", "churn outofcore-pyudf")
_map(
    "residency.maps residency.evictions residency.refaults residency.refault_ratio "
    "residency.map_ms residency.peak_resident_bytes",
    "query_p90_ms peak_rss_mb",
    "outofcore-pyudf",
)
_map(
    "resilience.breaker_opened resilience.retried_spans resilience.failed_share "
    "resilience.degraded_share",
    "ok_share",
    ALL,
)
_map("quality.violation_rate", "promise_met_share", ALL)
_map("obs.trace_overhead", "throughput_qps", ALL)


class EntryPointTimers:
    """Timing wrappers around public entry points that emit no span.

    Wrappers time only while :attr:`active` is set, and a call nested inside
    another call of the same key (a sharded table appending to its tail
    shard) is not counted twice.
    """

    def __init__(self) -> None:
        self.active = False
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.journal_bytes = 0
        self._depth = threading.local()
        self._patched: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        self.seconds.clear()
        self.calls.clear()
        self.journal_bytes = 0

    def install(self) -> None:
        from repro.db.index import GroupIndex, MergedGroupIndex
        from repro.db.sharding import ShardedTable
        from repro.db.storage import TableStore
        from repro.db.storage import journal
        from repro.db.table import Table
        from repro.db.udf import UserDefinedFunction

        self._wrap(UserDefinedFunction, "evaluate_rows", "udf.eval")
        self._wrap(TableStore, "save", "storage.save")
        self._wrap(TableStore, "open", "storage.open")
        self._wrap(TableStore, "append", "storage.append")
        self._wrap(journal, "append_record", "storage.journal", journal_path=True)
        self._wrap(Table, "append_columns", "storage.apply")
        self._wrap(ShardedTable, "append_columns", "storage.apply")
        self._wrap(GroupIndex, "extended_by", "index.extend")
        self._wrap(MergedGroupIndex, "extended_by", "index.extend")

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    def _wrap(self, owner, attribute: str, key: str, journal_path: bool = False) -> None:
        original = owner.__dict__[attribute]
        timers = self

        def timed(*args, **kwargs):
            depth = getattr(timers._depth, key, 0)
            if not timers.active or depth:
                return original(*args, **kwargs)
            setattr(timers._depth, key, 1)
            journal_before = (
                os.path.getsize(args[0]) if journal_path and os.path.exists(args[0]) else 0
            )
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                timers.seconds[key] += time.perf_counter() - started
                timers.calls[key] += 1
                if journal_path:
                    timers.journal_bytes += os.path.getsize(args[0]) - journal_before
                setattr(timers._depth, key, 0)

        setattr(owner, attribute, timed)
        self._patched.append((owner, attribute, original))


class SpanTotals:
    """Self time and subtree work per layer, summed over traced queries."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.work: Dict[str, float] = defaultdict(float)

    def add(self, trace) -> None:
        spans = [span for span in trace.spans if span.duration_s is not None]
        children = defaultdict(list)
        for span in spans:
            if span.parent_id is not None:
                children[span.parent_id].append(span)

        def interval(span):
            return span.started_at, span.started_at + span.duration_s

        def subtree_evals(span) -> float:
            total = span.work.get("udf_evals", 0)
            for child in children[span.span_id]:
                total += subtree_evals(child)
            return total

        for span in spans:
            if span.name.startswith("shard:"):
                layer = "procpool.shard"
            else:
                layer = SPAN_LAYERS.get(span.name)
                if layer is None:
                    continue
            start, end = interval(span)
            own = self_time(start, end, (interval(c) for c in children[span.span_id]))
            self.seconds[layer] += own
            if layer in ("column_selection", "sampling", "execute"):
                self.work[layer] += subtree_evals(span)
