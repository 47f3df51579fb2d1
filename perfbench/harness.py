"""Arithmetic and process probes shared by the benchmark's parent and child.

Nothing here imports the program under test, so ``run.py`` can use it before
it knows whether the checkout holds a program at all.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
from typing import Iterable, List, Optional, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank ``q``-quantile of ``values`` and its tail-sample count.

    The value is the ``ceil(q * n)``-th smallest sample (1-based); the tail
    count is how many samples lie strictly beyond that rank, which is what
    says whether a high percentile is backed by enough data.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    covered = 0.0
    current_start: Optional[float] = None
    current_end = 0.0
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_start is None or start > current_end:
            if current_start is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_start is not None:
        covered += current_end - current_start
    return covered


def self_time(
    start: float, end: float, children: Iterable[Tuple[float, float]]
) -> float:
    """A span's duration minus the part of it its children's intervals cover.

    Children may overlap each other (parallel shard spans) and are clipped
    to the parent's interval, so the result is never negative and never
    counts a covered instant twice.
    """
    clipped = [
        (max(start, child_start), min(end, child_end))
        for child_start, child_end in children
    ]
    return max(0.0, (end - start) - union_length(clipped))


class AnswerDigest:
    """sha256 over a sequence of answers, each a set of row ids.

    Each answer is hashed as its length followed by its sorted ids as
    little-endian int64, so the digest depends on which rows every answer
    holds and on the order of answers, not on the order rows came back in.
    """

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, row_ids: Sequence[int]) -> None:
        import numpy as np

        ordered = np.sort(np.asarray(row_ids, dtype="<i8"))
        self._hash.update(len(ordered).to_bytes(8, "little"))
        self._hash.update(ordered.tobytes())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def check_row_ids(row_ids, num_rows: int) -> Optional[str]:
    """Why an answer is malformed (ids out of range or repeated), or ``None``."""
    import numpy as np

    ids = np.asarray(row_ids, dtype=np.int64)
    if ids.size == 0:
        return None
    if int(ids.min()) < 0 or int(ids.max()) >= num_rows:
        return f"row id out of range [0, {num_rows})"
    if np.unique(ids).size != ids.size:
        return "repeated row id"
    return None


def charged_cost(ledger) -> float:
    """The paper's charged cost ``o_r * R + o_e * E`` of one result's ledger."""
    return (
        ledger.retrieval_cost * ledger.retrieved_count
        + ledger.evaluation_cost * ledger.evaluated_count
    )


def realised_quality(row_ids, truth) -> Tuple[float, float]:
    """Precision and recall of ``row_ids`` against a boolean truth mask.

    An empty answer has precision 1; a predicate no row satisfies has
    recall 1 (there was nothing to miss).
    """
    import numpy as np

    ids = np.asarray(row_ids, dtype=np.int64)
    positives = int(np.count_nonzero(truth))
    hits = int(np.count_nonzero(truth[ids])) if ids.size else 0
    precision = hits / ids.size if ids.size else 1.0
    recall = hits / positives if positives else 1.0
    return precision, recall


def binomial_tail(k: int, n: int, p: float) -> float:
    """``P(X >= k)`` for ``X ~ Binomial(n, p)``, computed in log space."""
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    log_p, log_q = math.log(p), math.log1p(-p)
    terms = [
        math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
        + i * log_p + (n - i) * log_q
        for i in range(k, n + 1)
    ]
    top = max(terms)
    return min(1.0, math.exp(top) * sum(math.exp(t - top) for t in terms))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


# -- /proc probes (Linux) ------------------------------------------------------

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def child_pids(pid: int) -> List[int]:
    """Live direct children of ``pid`` (pool workers, the resource tracker)."""
    children: List[int] = []
    task_dir = f"/proc/{pid}/task"
    try:
        tasks = os.listdir(task_dir)
    except FileNotFoundError:
        return children
    for task in tasks:
        try:
            with open(f"{task_dir}/{task}/children") as handle:
                children.extend(int(token) for token in handle.read().split())
        except FileNotFoundError:
            continue
    return sorted(set(children))


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds ``pid`` has used (0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read()
    except FileNotFoundError:
        return 0.0
    # The command name is parenthesised and may hold spaces: split after it.
    fields = stat[stat.rindex(")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def peak_rss_kb(pid: int) -> int:
    """``VmHWM`` of ``pid`` in KiB (0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except FileNotFoundError:
        pass
    return 0


def reset_peak_rss(pid: int) -> bool:
    """Reset ``pid``'s RSS high-water mark; ``False`` where the kernel refuses."""
    try:
        with open(f"/proc/{pid}/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False
