"""One fresh interpreter of a benchmark run: set up, and optionally measure.

``run.py`` starts this script several times per run, so every set-up --
``import repro`` included -- is timed in a fresh interpreter.  With
``--measure`` the same process then runs the closed loop and prints its
metrics and answer checks as one JSON line on stdout.

Usage (from the root of a checkout)::

    python3 perfbench/session.py --workload adhoc --seed 1 --workdir DIR \
        [--measure --seconds 15 --trace 0]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
for entry in (str(HERE), str(SRC)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import harness  # noqa: E402

#: End-to-end timings are medians over consecutive chunks of this many
#: queries (the last chunk takes the remainder), so a burst of load from
#: elsewhere on the host moves one chunk, not the run.  A chunk holds at
#: least 10 samples beyond its p90, and so does every run.
CHUNK_QUERIES = 100

#: Traced and untraced blocks of this many operations alternate in the
#: pattern traced, untraced, untraced, traced, so both halves see the same
#: mix of tables and query shapes and drift over the run cancels out.
TRACE_BLOCK = 4

#: A run may miss alpha or beta on k of n queries only while
#: P(Binomial(n, 1 - rho) >= k) stays above this.
PROMISE_P_VALUE = 1e-6


def traced_op(index: int) -> bool:
    return (index // TRACE_BLOCK) % 4 in (0, 3)


def _import_program() -> float:
    started = time.perf_counter()
    import repro

    elapsed = time.perf_counter() - started
    location = Path(repro.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise SystemExit(f"imported repro from {location}, not from {SRC}")
    return elapsed


class Loop:
    """The measured closed loop and everything it records."""

    def __init__(self, workload, timers, trace: bool):
        self.workload = workload
        self.timers = timers
        self.trace = trace
        self.service = workload.service
        #: ``(answered query?, seconds)`` of every operation, in order.
        self.op_seconds = []
        self.cpu_seconds = 0.0
        self.attempted = self.failed = self.degraded = self.fallbacks = 0
        self.errors = []
        self.failures = []
        self.queries = 0
        self.udf = dict.fromkeys(
            ("calls", "cache_hits", "cache_misses", "row_calls", "bulk_calls"), 0
        )
        self.cost = 0.0
        self.rows = 0
        self.violations = 0
        self.exports = 0
        self.digests = {}
        # Traced run: [queries, seconds] on each side, and the appends.
        self.traced = [0, 0.0]
        self.untraced = [0, 0.0]
        self.append_user_bytes = 0
        self.untraced_appends = []
        if trace:
            from repro.obs import CollectingTraceSink

            from layers import SpanTotals

            self.sink = CollectingTraceSink(capacity=4)
            self.spans = SpanTotals()

    def counters(self):
        """Cumulative program counters the run's deltas are taken from."""
        from repro.db.index import GroupIndex

        stats = self.service.stats()
        statistics = [stats.stats_cache[kind] for kind in ("labeled_samples", "sample_outcomes")]
        snapshot = {
            "plan_hits": stats.serving["plan_hits"],
            "plan_misses": stats.serving["plan_misses"],
            "stats_hits": sum(entry["hits"] for entry in statistics),
            "stats_misses": sum(entry["misses"] for entry in statistics),
            "refreshes": stats.serving["plan_refreshes"],
            "solver_calls": stats.serving.get("solver_calls", 0),
            "retried_spans": stats.serving.get("retried_spans", 0),
            "breaker_opened": stats.resilience.get("opened_count", 0),
            "index_builds": GroupIndex.builds_total,
            "index_extensions": GroupIndex.extensions_total,
        }
        residency = stats.storage.get("residency") or {}
        for key in ("maps", "evictions", "refaults", "map_seconds_total"):
            snapshot[f"residency_{key}"] = residency.get(key, 0)
        return snapshot

    def run(self, seconds: float):
        """Run ``workload.ops_for(seconds)`` operations, then read the counters."""
        from repro.db.shm import exported_segment_count

        workload = self.workload
        fallbacks = workload.fallbacks
        me = os.getpid()
        workers = harness.child_pids(me)
        for pid in [me] + workers:
            harness.reset_peak_rss(pid)
        workers_cpu_before = sum(harness.cpu_seconds(pid) for pid in workers)
        self.start_counters = self.counters()
        for index in range(workload.ops_for(seconds)):
            op = workload.op(index)
            traced = self.trace and traced_op(index)
            if self.trace:
                self.service.set_trace_sink(self.sink if traced else None)
                self.timers.active = traced
            udf_before = op.udf.counter_snapshot() if op.udf is not None else None
            fallbacks_before = fallbacks()
            self.attempted += 1
            result = error = None
            cpu_started = time.process_time()
            started = time.perf_counter()
            try:
                if op.kind == "append":
                    workload.append(op.delta)
                else:
                    result = self.service.submit(op.query, seed=op.seed)
            except Exception as exc:  # counted against the attempts, reported below
                error = exc
            elapsed = time.perf_counter() - started
            self.cpu_seconds += time.process_time() - cpu_started
            if self.trace:
                self.timers.active = False
            self.op_seconds.append((result is not None, elapsed))
            fell_back = fallbacks() - fallbacks_before
            self.fallbacks += fell_back
            self.degraded += bool(fell_back) or (
                result is not None and "degraded" in result.metadata
            )
            self.exports = max(self.exports, exported_segment_count())
            self._record(index, op, result, error, elapsed, traced, udf_before)
        self.end_counters = self.counters()
        workers = harness.child_pids(me)
        self.workers_cpu = (
            sum(harness.cpu_seconds(pid) for pid in workers) - workers_cpu_before
        )
        self.peak_rss_kb = sum(harness.peak_rss_kb(pid) for pid in [me] + workers)
        if self.trace:
            self.service.set_trace_sink(None)

    def _record(self, index, op, result, error, elapsed, traced, udf_before):
        if error is not None:
            self.failed += 1
            self.failures.append(f"op {index} ({op.kind}): {type(error).__name__}: {error}")
            return
        if op.kind == "append":
            if traced:
                self.append_user_bytes += sum(values.nbytes for values in op.delta.values())
            else:
                self.untraced_appends.append(elapsed)
            return
        side = self.traced if traced else self.untraced
        side[0] += 1
        side[1] += elapsed
        if traced:
            for finished in self.sink.traces:
                self.spans.add(finished)
            self.sink.clear()
        problem = harness.check_row_ids(result.row_ids, self.workload.num_rows(op.table))
        if problem is not None:
            self.errors.append(f"op {index}: {problem}")
        precision, recall = harness.realised_quality(result.row_ids, op.truth())
        self.violations += precision < op.query.alpha or recall < op.query.beta
        self.queries += 1
        self.cost += harness.charged_cost(result.ledger)
        self.rows += len(result.row_ids)
        delta = op.udf.counter_delta(udf_before)
        for key in self.udf:
            self.udf[key] += delta[key]
        self.digests.setdefault(self.workload.executor, harness.AnswerDigest()).add(
            result.row_ids
        )

    # -- reports -----------------------------------------------------------------
    def delta(self, key: str) -> float:
        return self.end_counters[key] - self.start_counters[key]

    def chunks(self):
        """``(query latencies, operation seconds)`` per chunk of the run."""
        chunks, latencies, seconds = [], [], 0.0
        for answered, elapsed in self.op_seconds:
            seconds += elapsed
            if answered:
                latencies.append(elapsed)
            if len(latencies) == CHUNK_QUERIES:
                chunks.append((latencies, seconds))
                latencies, seconds = [], 0.0
        if latencies and chunks:
            last, last_seconds = chunks.pop()
            chunks.append((last + latencies, last_seconds + seconds))
        elif latencies:
            chunks.append((latencies, seconds))
        return chunks

    def end_to_end(self):
        """End-to-end metrics; ``setup_s`` is added by ``run.py``."""
        chunks = self.chunks()
        p50s, p90s, tails = [], [], []
        for latencies, _ in chunks:
            p50s.append(harness.percentile(latencies, 0.5)[0])
            p90, tail = harness.percentile(latencies, 0.9)
            p90s.append(p90)
            tails.append(tail)
        queries = max(1, self.queries)
        metrics = {
            "throughput_qps": (
                harness.median([len(lat) / seconds for lat, seconds in chunks]), "q/s"
            ),
            "query_p50_ms": (harness.median(p50s) * 1e3, "ms"),
            "query_p90_ms": (harness.median(p90s) * 1e3, "ms"),
            "cpu_ms_per_query": ((self.cpu_seconds + self.workers_cpu) * 1e3 / queries, "ms"),
            "udf_calls_per_query": (self.udf["calls"] / queries, "calls"),
            "cost_per_query": (self.cost / queries, "cost"),
            "promise_met_share": (1.0 - self.violations / queries, "share"),
            "ok_share": (1.0 - (self.failed + self.degraded) / self.attempted, "share"),
            "peak_rss_mb": (self.peak_rss_kb / 1024.0, "MB"),
        }
        samples = {
            "queries": self.queries,
            "chunks": len(chunks),
            "min_p90_tail_per_chunk": min(tails),
        }
        return metrics, samples

    def per_layer(self):
        """Per-layer metrics; ``import.repro_s`` is added by ``run.py``."""
        workload, timers, spans, udf = self.workload, self.timers, self.spans, self.udf
        traced_queries = max(1, self.traced[0])
        appends = timers.calls.get("storage.append", 0)
        per_append = max(1, appends)
        queries = max(1, self.queries)

        def ms_per(seconds, count):
            return seconds * 1e3 / count

        lookups = sum(map(self.delta, ("plan_hits", "plan_misses", "refreshes")))
        stats_lookups = self.delta("stats_hits") + self.delta("stats_misses")
        maps = self.delta("residency_maps")
        residency = workload.service.stats().storage.get("residency") or {}
        process = workload.executor == "process"
        untraced_mean = self.untraced[1] / max(1, self.untraced[0])
        traced_mean = self.traced[1] / traced_queries
        return {
            "procpool.first_query_s": (workload.setup_parts.get("first_query_s", 0.0), "s"),
            "procpool.fallbacks": (self.fallbacks, "count"),
            "procpool.shard_ms": (
                ms_per(spans.seconds["procpool.shard"], traced_queries) if process else 0.0,
                "ms",
            ),
            "procpool.fold_ms": (
                ms_per(spans.seconds["execute"], traced_queries) if process else 0.0,
                "ms",
            ),
            "shm.exported_segments": (self.exports, "count"),
            "serving.plan_lookup_ms": (
                ms_per(spans.seconds["serving.plan_lookup"], traced_queries), "ms"
            ),
            "serving.plan_hit_rate": (self.delta("plan_hits") / max(1, lookups), "share"),
            "serving.stats_hit_rate": (
                self.delta("stats_hits") / max(1, stats_lookups), "share"
            ),
            "serving.refreshes": (self.delta("refreshes"), "count"),
            "serving.refresh_ms": (ms_per(spans.seconds["serving.refresh"], traced_queries), "ms"),
            "column_selection.ms": (
                ms_per(spans.seconds["column_selection"], traced_queries), "ms"
            ),
            "column_selection.udf_evals": (
                spans.work["column_selection"] / traced_queries, "evals"
            ),
            "sampling.ms": (ms_per(spans.seconds["sampling"], traced_queries), "ms"),
            "sampling.udf_evals": (spans.work["sampling"] / traced_queries, "evals"),
            "solve.ms": (ms_per(spans.seconds["solve"], traced_queries), "ms"),
            "solve.calls": (self.delta("solver_calls") / queries, "calls"),
            "execute.ms": (ms_per(spans.seconds["execute"], traced_queries), "ms"),
            "execute.rows_returned": (self.rows / queries, "rows"),
            "execute.udf_evals": (spans.work["execute"] / traced_queries, "evals"),
            "udf.calls": (udf["calls"] / queries, "calls"),
            "udf.bulk_calls": (udf["bulk_calls"] / queries, "calls"),
            "udf.row_calls": (udf["row_calls"] / queries, "calls"),
            "udf.memo_hit_rate": (
                udf["cache_hits"] / max(1, udf["cache_hits"] + udf["cache_misses"]), "share"
            ),
            "udf.evals_per_returned_row": (udf["calls"] / max(1, self.rows), "ratio"),
            "udf.eval_ms": (ms_per(timers.seconds["udf.eval"], traced_queries), "ms"),
            "index.builds": (self.delta("index_builds"), "count"),
            "index.extensions": (self.delta("index_extensions"), "count"),
            "index.ms": (
                ms_per(
                    spans.seconds["index.group_index"] + timers.seconds["index.extend"],
                    traced_queries + appends,
                ),
                "ms",
            ),
            "storage.append_p50_ms": (
                harness.percentile(self.untraced_appends, 0.5)[0] * 1e3
                if self.untraced_appends
                else 0.0,
                "ms",
            ),
            "storage.append_ms": (ms_per(timers.seconds["storage.append"], per_append), "ms"),
            "storage.journal_ms": (ms_per(timers.seconds["storage.journal"], per_append), "ms"),
            "storage.apply_ms": (ms_per(timers.seconds["storage.apply"], per_append), "ms"),
            "storage.journal_bytes_per_user_byte": (
                timers.journal_bytes / max(1, self.append_user_bytes), "ratio"
            ),
            "storage.save_s": (workload.setup_parts.get("save_s", 0.0), "s"),
            "storage.open_s": (workload.setup_parts.get("open_s", 0.0), "s"),
            "residency.maps": (maps, "count"),
            "residency.evictions": (self.delta("residency_evictions"), "count"),
            "residency.refaults": (self.delta("residency_refaults"), "count"),
            "residency.refault_ratio": (self.delta("residency_refaults") / max(1, maps), "ratio"),
            "residency.map_ms": (
                ms_per(self.delta("residency_map_seconds_total"), queries), "ms"
            ),
            "residency.peak_resident_bytes": (residency.get("peak_resident_bytes", 0), "bytes"),
            "resilience.breaker_opened": (self.delta("breaker_opened"), "count"),
            "resilience.retried_spans": (self.delta("retried_spans"), "count"),
            "resilience.failed_share": (self.failed / self.attempted, "share"),
            "resilience.degraded_share": (self.degraded / self.attempted, "share"),
            "quality.violation_rate": (self.violations / queries, "share"),
            "obs.trace_overhead": (
                traced_mean / untraced_mean - 1.0 if untraced_mean else 0.0, "share"
            ),
        }

    def check(self):
        """The answer checks that look at the whole run; returns every failure."""
        from workloads import RHO

        workload = self.workload
        errors = list(self.errors)
        if self.violations and harness.binomial_tail(
            self.violations, self.queries, 1.0 - RHO
        ) < PROMISE_P_VALUE:
            errors.append(
                f"{self.violations}/{self.queries} queries missed alpha or beta: far"
                " more than the 1 - rho the (alpha, beta, rho) promise allows"
            )
        if workload.executor == "process":
            if self.delta("residency_evictions") <= 0:
                errors.append("out-of-core workload evicted nothing: it fits in memory")
            peak = workload.service.stats().storage["residency"]["peak_resident_bytes"]
            if peak > workload.budget + workload.pin_allowance:
                errors.append(
                    f"peak resident {peak} bytes exceeds budget {workload.budget}"
                    f" + one shard {workload.pin_allowance}"
                )
        return errors


def _setup(workload, timers):
    """Build the program state; returns set-up seconds (import excluded)."""
    started = time.perf_counter()
    if timers is not None:
        timers.active = True
    workload.setup()
    elapsed = time.perf_counter() - started
    if timers is not None:
        timers.active = False
        workload.setup_parts["save_s"] = timers.seconds["storage.save"]
        workload.setup_parts["open_s"] = timers.seconds["storage.open"]
        timers.reset()
    return elapsed


def _environment():
    """The host facts a reader needs to compare two runs (recorded, never set)."""
    import numpy
    import scipy

    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "blas_threads": {name: os.environ.get(name, "unset") for name in blas},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--measure", action="store_true")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = _import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](seed=args.seed, workdir=args.workdir)
    workload.generate()
    timers = None
    if args.measure and args.trace:
        from layers import EntryPointTimers

        timers = EntryPointTimers()
        timers.install()
    try:
        report = {"import_s": import_s, "setup_s": import_s + _setup(workload, timers)}
        if args.measure:
            loop = Loop(workload, timers, bool(args.trace))
            loop.run(args.seconds)
            report.update(
                attempted=loop.attempted,
                failed=loop.failed,
                failures=loop.failures[:20],
                errors=loop.check(),
                digests={name: d.hexdigest() for name, d in loop.digests.items()},
                environment=_environment(),
            )
            if args.trace:
                report["metrics"] = loop.per_layer()
            else:
                report["metrics"], report["samples"] = loop.end_to_end()
    finally:
        workload.close()
        if timers is not None:
            timers.uninstall()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
