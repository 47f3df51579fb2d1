"""Observability overhead guard: instrumentation must stay near-free.

Replays the warm serving trace of ``test_serving_throughput`` twice over a
fully warmed :class:`~repro.serving.QueryService` — once with the default
null registry and no trace sink, once with the :mod:`repro.obs` registry
enabled *and* a trace sink installed (the maximal instrumentation a
production deployment would run) — and asserts two claims:

* **wall-clock** — over ``ROUNDS`` interleaved plain/instrumented pairs,
  the median per-pair slowdown is at most ``REPRO_BENCH_MAX_OBS_OVERHEAD``
  (default 0.05 = 5%).  Like the other wall-clock asserts this is
  env-tunable and disarmed (``"0"`` or negative) in the CI test matrix,
  where noisy-neighbour runners would flake it; the dedicated
  bench-regression job keeps it armed.
* **counter identity** — the work counters (UDF evaluations, memo hits,
  bulk/row API calls, solver calls) of an instrumented replay are *bitwise
  identical* to an uninstrumented one: the registry observes, it never
  participates.  This half always runs — it is deterministic.
"""

from __future__ import annotations

import os
import statistics
import time

from conftest import run_once
from test_serving_throughput import _build_workload

from repro.db.engine import Engine
from repro.obs import CollectingTraceSink, disable_metrics, enable_metrics
from repro.serving import QueryService

#: Allowed relative slowdown of the instrumented warm replay; ``<= 0``
#: disarms the wall-clock assert (counter identity still runs).
MAX_OVERHEAD = float(os.environ.get("REPRO_BENCH_MAX_OBS_OVERHEAD", "0.05"))

#: Interleaved, order-alternating measurement pairs; the median of
#: per-pair ratios cancels machine-load drift that an unpaired
#: best-of-N cannot.
ROUNDS = 15

#: Consecutive trace replays per timed measurement — a larger timed unit
#: shrinks the relative size of scheduler jitter.
REPLAYS_PER_MEASUREMENT = 2

#: Independent measurement windows before the wall-clock gate fails; the
#: best window counts (regressions inflate all windows, bursts don't).
MEASUREMENT_ATTEMPTS = 3


def _warm_service(scale: float):
    dataset, catalog, udf, trace = _build_workload(scale)
    service = QueryService(Engine(catalog))
    replay_seeds = [70_000 + position for position in range(len(trace))]
    # Two warm-up replays with the measurement seeds: the first pays the
    # cold planning work, the second settles the UDF memo over every row any
    # measurement seed will touch, so measured replays do identical work.
    for _ in range(2):
        for seed, query in zip(replay_seeds, trace):
            service.submit(query, seed=seed)
    return service, udf, trace, replay_seeds


def _replay(service, trace, seeds) -> float:
    started = time.perf_counter()
    for seed, query in zip(seeds, trace):
        service.submit(query, seed=seed)
    return time.perf_counter() - started


def _measure(service, trace, seeds) -> float:
    return sum(_replay(service, trace, seeds) for _ in range(REPLAYS_PER_MEASUREMENT))


def _counter_delta(service, udf, trace, seeds):
    before = udf.counter_snapshot()
    solver_before = service.stats().serving["solver_calls"]
    _replay(service, trace, seeds)
    delta = udf.counter_delta(before)
    delta["solver_calls"] = service.stats().serving["solver_calls"] - solver_before
    return delta


def _instrumented(service):
    """Enable the maximal production instrumentation on ``service``."""
    enable_metrics()
    service.set_trace_sink(CollectingTraceSink(capacity=8))


def _uninstrumented(service):
    service.set_trace_sink(None)
    disable_metrics()


def _overhead_comparison(scale: float):
    service, udf, trace, seeds = _warm_service(scale)

    plain_delta = _counter_delta(service, udf, trace, seeds)
    _instrumented(service)
    try:
        instrumented_delta = _counter_delta(service, udf, trace, seeds)
    finally:
        _uninstrumented(service)

    # Up to MEASUREMENT_ATTEMPTS independent measurement windows, keeping
    # the best (lowest-ratio) one: a genuine regression inflates every
    # window, a noisy-neighbour burst inflates only the windows it lands
    # on — so "pass if any window passes" keeps the gate's teeth while
    # taking the flake rate down to p^attempts.
    ratio, plain, instrumented = _measure_ratio(service, trace, seeds)
    for _ in range(MEASUREMENT_ATTEMPTS - 1):
        if not (MAX_OVERHEAD > 0 and ratio - 1.0 > MAX_OVERHEAD):
            break
        retry_ratio, retry_plain, retry_instrumented = _measure_ratio(
            service, trace, seeds
        )
        if retry_ratio < ratio:
            ratio, plain, instrumented = retry_ratio, retry_plain, retry_instrumented

    return plain, instrumented, ratio, plain_delta, instrumented_delta, len(trace)


def _measure_ratio(service, trace, seeds):
    """Median instrumented/plain ratio over interleaved, order-alternating pairs.

    Machine-load drift hits both sides of an adjacent pair alike, order
    alternation cancels the systematic penalty of running second in a pair
    (frequency-boost decay), and the median of per-pair ratios discards
    spike rounds that an unpaired best-of-N comparison would silently
    absorb.
    """
    ratios = []
    plain_times = []
    instrumented_times = []
    for round_index in range(ROUNDS):
        plain_first = round_index % 2 == 0
        if plain_first:
            plain_times.append(_measure(service, trace, seeds))
        _instrumented(service)
        try:
            instrumented_times.append(_measure(service, trace, seeds))
        finally:
            _uninstrumented(service)
        if not plain_first:
            plain_times.append(_measure(service, trace, seeds))
        ratios.append(instrumented_times[-1] / plain_times[-1])

    per_replay = 1.0 / REPLAYS_PER_MEASUREMENT
    return (
        statistics.median(ratios),
        min(plain_times) * per_replay,
        min(instrumented_times) * per_replay,
    )


def test_obs_overhead(benchmark, bench_config):
    scale = min(bench_config.scale, 0.05)
    plain, instrumented, ratio, plain_delta, instrumented_delta, queries = run_once(
        benchmark, _overhead_comparison, scale
    )

    overhead = ratio - 1.0
    print("\nObservability overhead — warm serving replay, median of "
          f"{ROUNDS} interleaved pairs ({queries} queries)")
    print(f"  uninstrumented : {plain * 1000:.2f}ms best  "
          f"({queries / plain:,.0f} q/s)")
    print(f"  instrumented   : {instrumented * 1000:.2f}ms best  "
          f"({queries / instrumented:,.0f} q/s)")
    print(f"  overhead       : {overhead:+.2%} "
          f"(limit {MAX_OVERHEAD:.0%}, armed={MAX_OVERHEAD > 0})")

    # Counter identity is deterministic and always gated: instrumentation
    # must never change what the serving path computes or charges.
    assert instrumented_delta == plain_delta, (
        "work counters diverged under instrumentation: "
        f"{plain_delta} -> {instrumented_delta}"
    )
    if MAX_OVERHEAD > 0:
        assert overhead <= MAX_OVERHEAD, (
            f"instrumentation overhead {overhead:+.2%} exceeds "
            f"{MAX_OVERHEAD:.0%} on the warm serving path"
        )
