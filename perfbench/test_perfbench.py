"""Unit tests of the benchmark harness's own arithmetic.

Run with ``python3 -m pytest perfbench/test_perfbench.py`` from the root of
the repository.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
for entry in (str(HERE), str(HERE.parent / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import harness  # noqa: E402
from layers import LAYER_MAP, SpanTotals  # noqa: E402


def test_percentile_reports_nearest_rank_and_tail_count():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert harness.percentile(values, 0.5) == (50, 50)
    assert harness.percentile(values, 0.9) == (90, 10)
    assert harness.percentile(values, 1.0) == (100, 0)
    # One sample short of ten beyond p90.
    assert harness.percentile(list(range(99)), 0.9) == (89, 9)
    assert harness.percentile([7.5], 0.9) == (7.5, 0)
    with pytest.raises(ValueError):
        harness.percentile([], 0.5)
    with pytest.raises(ValueError):
        harness.percentile([1.0], 0.0)


def test_self_time_subtracts_the_union_of_overlapping_children():
    # Children [1,4] and [3,6] overlap (covering [1,6]); [8,12] is clipped to
    # the parent's end at 10.  Covered: 5 + 2 = 7 of 10.
    assert harness.self_time(0.0, 10.0, [(1, 4), (3, 6), (8, 12)]) == pytest.approx(3.0)
    # Identical parallel children count once.
    assert harness.self_time(0.0, 10.0, [(2, 5)] * 4) == pytest.approx(7.0)
    # A nested child adds no cover; children outside the parent add none.
    assert harness.self_time(0.0, 10.0, [(2, 8), (3, 4), (11, 12)]) == pytest.approx(4.0)
    assert harness.self_time(0.0, 10.0, []) == pytest.approx(10.0)
    assert harness.self_time(0.0, 1.0, [(-1, 2)]) == 0.0


def test_span_totals_take_self_time_and_subtree_work_from_a_trace():
    from repro.obs.trace import Trace

    trace = Trace("query")
    execute = trace.span("execute")
    shards = [trace.span(f"shard:{i}", parent=execute) for i in range(2)]
    for span, (start, end) in zip(
        [trace.root, execute] + shards, [(0, 10), (1, 9), (2, 6), (4, 8)]
    ):
        span.started_at, span.duration_s = float(start), float(end - start)
    shards[0].add("udf_evals", 5)
    shards[1].add("udf_evals", 7)
    execute.add("udf_evals", 1)

    totals = SpanTotals()
    totals.add(trace)
    # execute covers [1, 9]; its overlapping shards cover [2, 8].
    assert totals.seconds["execute"] == pytest.approx(2.0)
    assert totals.seconds["procpool.shard"] == pytest.approx(8.0)
    assert totals.work["execute"] == 13


def test_answer_digest_is_stable_and_order_sensitive_only_across_answers():
    first, same, swapped = harness.AnswerDigest(), harness.AnswerDigest(), harness.AnswerDigest()
    first.add([3, 1, 2])
    first.add(np.array([9], dtype=np.int32))
    same.add(np.array([1, 2, 3]))
    same.add([9])
    swapped.add([9])
    swapped.add([1, 2, 3])
    assert first.hexdigest() == same.hexdigest()
    assert first.hexdigest() != swapped.hexdigest()

    expected = hashlib.sha256()
    for answer in ([1, 2, 3], [9]):
        expected.update(len(answer).to_bytes(8, "little"))
        expected.update(np.array(answer, dtype="<i8").tobytes())
    assert first.hexdigest() == expected.hexdigest()


def test_cost_per_query_matches_the_ledger_total_cost():
    from repro.db.udf import CostLedger

    ledger = CostLedger(retrieval_cost=1.5, evaluation_cost=4.0)
    ledger.charge_retrieval(120)
    ledger.charge_evaluation(33)
    assert harness.charged_cost(ledger) == ledger.total_cost == 1.5 * 120 + 4.0 * 33
    assert harness.charged_cost(CostLedger()) == 0.0


def test_answer_checks_and_realised_quality():
    assert harness.check_row_ids([0, 4, 2], num_rows=5) is None
    assert "range" in harness.check_row_ids([0, 5], num_rows=5)
    assert "range" in harness.check_row_ids([-1], num_rows=5)
    assert "repeated" in harness.check_row_ids([1, 1], num_rows=5)

    truth = np.array([True, True, False, True, False])
    assert harness.realised_quality([0, 2], truth) == (0.5, pytest.approx(1 / 3))
    assert harness.realised_quality([], truth) == (1.0, 0.0)
    assert harness.realised_quality([2], np.zeros(5, dtype=bool)) == (0.0, 1.0)


def test_binomial_tail():
    assert harness.binomial_tail(2, 3, 0.5) == pytest.approx(0.5)
    assert harness.binomial_tail(0, 10, 0.2) == 1.0
    assert harness.binomial_tail(11, 10, 0.2) == 0.0
    assert harness.binomial_tail(60, 100, 0.2) < 1e-12


def test_every_declared_per_layer_metric_has_a_layer_mapping():
    import json

    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = {metric["name"] for metric in declared["per_layer"]}
    assert names == set(LAYER_MAP)
