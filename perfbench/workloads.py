"""The benchmark's three workloads, driven through the program's public API.

Each workload generates its inputs from the run seed (untimed), builds the
program state in :meth:`Workload.setup` (timed as set-up), then hands out an
endless, seed-determined stream of operations for a closed loop with one
client.  Operation ``i`` depends only on ``(seed, i)``, so the first ``n``
operations -- and every count they produce -- repeat exactly at a seed.

``import repro`` happens in ``session.py`` before this module is imported,
so its cost is timed there on its own.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from repro.datasets.registry import load_dataset
from repro.db.catalog import Catalog
from repro.db.engine import Engine
from repro.db.predicate import UdfPredicate
from repro.db.query import SelectQuery
from repro.db.residency import ResidencyManager
from repro.db.sharding import ShardedTable
from repro.db.storage import TableStore
from repro.db.table import Table
from repro.db.udf import RevealLabel, UserDefinedFunction
from repro.obs import MetricsRegistry, disable_metrics, enable_metrics
from repro.serving import QueryService, ServiceConfig

#: The (alpha, beta) grid queries draw from; rho is fixed at the paper's 0.8.
QUALITY_GRID = (0.7, 0.75, 0.8, 0.85, 0.9)
RHO = 0.8
#: Every run answers at least this many queries, so its p90 has at least
#: 10 samples beyond it.
MIN_QUERIES = 100


@dataclass
class Op:
    """One operation of the closed loop: a query or an append."""

    kind: str
    table: str
    query: Optional[SelectQuery] = None
    udf: Optional[UserDefinedFunction] = None
    seed: int = 0
    delta: Optional[Dict[str, np.ndarray]] = None
    #: Boolean mask over the table's rows at query time: which rows satisfy
    #: the predicate.  Read only after the timed call.
    truth: Optional[Callable[[], np.ndarray]] = None


def _op_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _shape(seed: int, index: int, shapes):
    """Query shape of operation ``index``: ``shapes`` in seed-shuffled rounds.

    Each round of ``len(shapes)`` queries holds every shape once, so the mix
    -- which sets the work per query -- is the same on every seed and only
    its order, the data and the coins vary.
    """
    rounds, position = divmod(index, len(shapes))
    order = np.random.default_rng([seed, 2**22, rounds]).permutation(len(shapes))
    return shapes[order[position]]


def _columns_of(table: Table):
    """Column arrays, types and hidden names of a generated table."""
    columns = {
        name: np.asarray(table.column_values(name, allow_hidden=True))
        for name in table.schema.column_names
    }
    types = {column.name: column.column_type for column in table.schema.columns}
    hidden = [column.name for column in table.schema.columns if column.hidden]
    return columns, types, hidden


@dataclass
class Workload:
    """Shared shape of a workload; subclasses fill in the three phases."""

    seed: int
    workdir: str
    service: Optional[QueryService] = None
    #: Timings the traced run reports as per-layer set-up metrics.
    setup_parts: Dict[str, float] = field(default_factory=dict)

    name = ""
    #: The executor that answers.  Process and serial use different coin
    #: disciplines, so answer digests compare only runs of one executor.
    executor = "serial"
    #: Operations per second of ``--seconds``.  A run is a fixed number of
    #: operations, sized so it lasts about ``--seconds`` on the 2-core host
    #: the benchmark was defined on: a count fixed in advance, not a time
    #: box, keeps every count -- and churn's table growth -- identical
    #: between runs at a seed, however fast the host is that day.
    OPS_PER_SECOND = 1.0

    #: Query shapes, dealt in rounds by :func:`_shape`; empty when the
    #: workload draws its queries otherwise.
    SHAPES = ()

    def ops_for(self, seconds: float) -> int:
        """Operations in a run of ``seconds``: whole rounds of :attr:`SHAPES`."""
        count = max(1, round(self.OPS_PER_SECOND * seconds))
        while count - sum(map(self.is_append, range(count))) < MIN_QUERIES:
            count += 1
        if self.SHAPES:
            count = -(-count // len(self.SHAPES)) * len(self.SHAPES)
        return count

    def is_append(self, index: int) -> bool:
        return False

    def generate(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, index: int) -> Op:
        raise NotImplementedError

    def num_rows(self, table: str) -> int:
        return self.service.catalog.table(table).num_rows

    def fallbacks(self) -> int:
        """Spans the process pool failed and the parent recomputed, so far."""
        return 0

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None


class Adhoc(Workload):
    """First-sight queries: every query brings a fresh UDF, so nothing is reused."""

    name = "adhoc"
    OPS_PER_SECOND = 50
    #: (alpha, beta, correlated column): a third of the queries run column
    #: selection.  At one half the median would sit on the gap between the
    #: two latency modes.
    SHAPES = tuple(
        (alpha, beta, column)
        for alpha in QUALITY_GRID
        for beta in QUALITY_GRID
        for column in (None, "grade", "grade")
    )

    def generate(self) -> None:
        bundle = load_dataset("lending_club", random_state=self.seed, scale=0.5)
        self.columns, self.types, self.hidden = _columns_of(bundle.table)
        self.table_name = bundle.table.name
        self.labels = self.columns["is_good"].astype(bool)

    def setup(self) -> None:
        table = Table.from_columns(
            self.table_name, self.columns, self.types, hidden_columns=self.hidden
        )
        catalog = Catalog()
        catalog.register_table(table)
        self.service = QueryService(Engine(catalog), config=ServiceConfig())

    def op(self, index: int) -> Op:
        rng = _op_rng(self.seed, index)
        alpha, beta, column = _shape(self.seed, index, self.SHAPES)
        udf = UserDefinedFunction.from_label_column(f"adhoc_{index}", "is_good")
        query = SelectQuery(
            table=self.table_name,
            predicate=UdfPredicate(udf),
            alpha=alpha,
            beta=beta,
            rho=RHO,
            correlated_column=column,
        )
        return Op(
            "query",
            self.table_name,
            query,
            udf,
            seed=int(rng.integers(2**31)),
            truth=lambda: self.labels,
        )


class Churn(Workload):
    """Hot repeated signatures over a durable table that takes appends."""

    name = "churn"
    OPS_PER_SECOND = 60
    #: Every this-many operations is an append of ``APPEND_SHARE`` of the rows.
    APPEND_EVERY = 25
    APPEND_SHARE = 0.01
    ZIPF_S = 1.1
    DATA_SEED = 2015
    #: (alpha, beta, UDF reveals paid/unpaid, correlated column or None for
    #: auto), most popular first.  Fixed rather than drawn from the seed: the
    #: mix sets the work per query, and a seed should change the data and
    #: the draws, not what the workload is.
    SIGNATURES = (
        (0.8, 0.8, True, "grade"),
        (0.9, 0.7, False, None),
        (0.8, 0.8, False, "grade"),
        (0.9, 0.7, True, None),
        (0.8, 0.8, True, None),
        (0.9, 0.7, False, "grade"),
        (0.8, 0.8, False, None),
        (0.9, 0.7, True, "grade"),
    )

    @classmethod
    def round_of_queries(cls):
        """The signatures of one append period, in Zipf(s) proportions.

        Each of the ``APPEND_EVERY - 1`` queries between two appends is dealt
        from this multiset (largest-remainder rounding of the Zipf shares),
        so every signature is asked -- and refreshed -- once per append, and
        only the order of the queries varies with the seed.
        """
        slots = cls.APPEND_EVERY - 1
        weights = np.arange(1, len(cls.SIGNATURES) + 1, dtype=float) ** -cls.ZIPF_S
        quotas = weights / weights.sum() * slots
        counts = np.floor(quotas).astype(int)
        for position in np.argsort(counts - quotas)[: slots - counts.sum()]:
            counts[position] += 1
        return tuple(
            signature
            for signature, count in zip(cls.SIGNATURES, counts)
            for _ in range(count)
        )

    def generate(self) -> None:
        # The data -- the base table and the appended rows, a second draw of
        # the same distribution -- is the same on every seed, so every seed
        # warms and refreshes the same hot plans: they set the work per
        # query.  The seed drives the traffic and the query seeds.
        bundle = load_dataset("lending_club", random_state=self.DATA_SEED, scale=0.5)
        self.columns, self.types, self.hidden = _columns_of(bundle.table)
        self.table_name = bundle.table.name
        extra = load_dataset("lending_club", random_state=self.DATA_SEED + 1, scale=0.5)
        self.pool, _, _ = _columns_of(extra.table)
        self.initial_labels = self.columns["is_good"].astype(bool)
        self.append_rows = round(len(self.initial_labels) * self.APPEND_SHARE)
        self.round = self.round_of_queries()

    def setup(self) -> None:
        table = Table.from_columns(
            self.table_name, self.columns, self.types, hidden_columns=self.hidden
        )
        self.store = TableStore(os.path.join(self.workdir, "churn"))
        self.store.save(table)
        del table
        self.table, _ = self.store.open()
        catalog = Catalog()
        catalog.register_table(self.table)
        self.service = QueryService(Engine(catalog), config=ServiceConfig())
        self.udfs = {
            positive: UserDefinedFunction.from_label_column(
                f"loan_{'paid' if positive else 'unpaid'}",
                "is_good",
                positive_value=positive,
            )
            for positive in (True, False)
        }
        self.labels = self.initial_labels
        self.appends = 0
        for position, signature in enumerate(self.SIGNATURES):
            self.service.submit(self._query(signature), seed=position)

    def _query(self, signature) -> SelectQuery:
        alpha, beta, positive, column = signature
        return SelectQuery(
            table=self.table_name,
            predicate=UdfPredicate(self.udfs[positive]),
            alpha=alpha,
            beta=beta,
            rho=RHO,
            correlated_column=column,
        )

    def op(self, index: int) -> Op:
        rng = _op_rng(self.seed, index)
        if self.is_append(index):
            return Op("append", self.table_name, delta=self._next_delta())
        query_index = index - (index + 1) // self.APPEND_EVERY
        signature = _shape(self.seed, query_index, self.round)
        positive = signature[2]
        return Op(
            "query",
            self.table_name,
            self._query(signature),
            self.udfs[positive],
            seed=int(rng.integers(2**31)),
            truth=lambda: self.labels == positive,
        )

    def is_append(self, index: int) -> bool:
        return (index + 1) % self.APPEND_EVERY == 0

    def _next_delta(self) -> Dict[str, np.ndarray]:
        pool_rows = len(self.pool["is_good"])
        start = (self.appends * self.append_rows) % (pool_rows - self.append_rows)
        self.appends += 1
        return {
            name: values[start : start + self.append_rows]
            for name, values in self.pool.items()
        }

    def append(self, delta: Dict[str, np.ndarray]) -> None:
        self.store.append(self.table, delta)
        self.labels = np.concatenate([self.labels, delta["is_good"].astype(bool)])


#: Group shares and selectivities of the out-of-core tables' ``grade``.
GROUP_SHARES = (0.24, 0.20, 0.16, 0.14, 0.10, 0.08, 0.05, 0.03)
GROUP_SELECTIVITIES = (0.66, 0.48, 0.72, 0.30, 0.55, 0.62, 0.20, 0.44)


def _outofcore_columns(rows: int, rng: np.random.Generator) -> Dict[str, np.ndarray]:
    """``grade`` (8 groups), a noisier ``grade_band``, ``amount`` and the label."""
    sizes = [int(round(share * rows)) for share in GROUP_SHARES]
    sizes[0] += rows - sum(sizes)
    codes = np.repeat(np.arange(len(sizes)), sizes)
    labels = np.concatenate(
        [
            rng.permutation(np.arange(size) < int(round(size * selectivity)))
            for size, selectivity in zip(sizes, GROUP_SELECTIVITIES)
        ]
    )
    order = rng.permutation(rows)
    codes, labels = codes[order], labels[order]
    names = np.array([f"g{i}" for i in range(len(sizes))])
    band = np.where(rng.random(rows) < 0.3, rng.integers(0, len(sizes), rows), codes)
    return {
        "grade": names[codes],
        "grade_band": names[band],
        "amount": np.abs(rng.normal(12_000, 6_000, rows)),
        "is_good": labels,
    }


class OutOfCorePyUdf(Workload):
    """Python-callable UDF, process executor, one table 4x over the memory budget."""

    name = "outofcore-pyudf"
    executor = "process"
    OPS_PER_SECOND = 7.5
    ARCHIVE_ROWS, ARCHIVE_SHARDS = 200_000, 8
    RECENT_ROWS, RECENT_SHARDS = 50_000, 4
    BUDGET_SHARE = 0.25
    #: (table, alpha, beta): one query in three reads the archive, so the
    #: median query reads the in-memory table and the tail the out-of-core
    #: one, and neither percentile sits on the gap between the two latency
    #: modes.  Every query selects its column among the candidates.  A
    #: coarser grid than the other workloads keeps a round short enough
    #: for several to fit in a run of these slow queries.
    SHAPES = tuple(
        (table, alpha, beta)
        for table in ("archive", "recent", "recent")
        for alpha in (0.7, 0.8, 0.9)
        for beta in (0.7, 0.8, 0.9)
    )

    def generate(self) -> None:
        rng = np.random.default_rng([self.seed, 2**21])
        self.archive_columns = _outofcore_columns(self.ARCHIVE_ROWS, rng)
        self.recent_columns = _outofcore_columns(self.RECENT_ROWS, rng)
        self.truths = {
            "archive": self.archive_columns["is_good"],
            "recent": self.recent_columns["is_good"],
        }

    def setup(self) -> None:
        archive = ShardedTable.from_columns(
            "archive",
            self.archive_columns,
            hidden_columns=["is_good"],
            num_shards=self.ARCHIVE_SHARDS,
        )
        self.store = TableStore(os.path.join(self.workdir, "archive"))
        self.store.save(archive)
        del archive
        self.segment_bytes = sum(
            entry.stat().st_size for entry in os.scandir(self.store.segments_dir)
        )
        self.budget = int(self.segment_bytes * self.BUDGET_SHARE)
        self.manager = ResidencyManager()
        lazy, _ = self.store.open(residency=self.manager)
        # The most a pinned shard may hold over budget: one shard's columns.
        self.pin_allowance = max(
            sum(
                shard.segment_handle(column).payload_bytes
                for column in shard.schema.column_names
            )
            for shard in lazy.shards
        )
        recent = ShardedTable.from_columns(
            "recent",
            self.recent_columns,
            hidden_columns=["is_good"],
            num_shards=self.RECENT_SHARDS,
        )
        catalog = Catalog()
        catalog.register_table(lazy)
        catalog.register_table(recent)
        # The registry carries the executor-fallback counter, the only record
        # of a span recomputed in-process after the pool failed it.
        self.registry = MetricsRegistry()
        enable_metrics(self.registry)
        self.service = QueryService(
            Engine(catalog),
            config=ServiceConfig(
                executor="process", max_workers=2, memory_budget_bytes=self.budget
            ),
        )
        # Spawning the two pool workers (each imports the program) is set-up.
        started = time.perf_counter()
        for position, table in enumerate(("archive", "recent")):
            udf = UserDefinedFunction(f"warm_{table}", RevealLabel("is_good"))
            query = SelectQuery(
                table=table,
                predicate=UdfPredicate(udf),
                alpha=0.8,
                beta=0.8,
                rho=RHO,
                correlated_column="grade",
            )
            self.service.submit(query, seed=position)
            if position == 0:
                self.setup_parts["first_query_s"] = time.perf_counter() - started

    def fallbacks(self) -> int:
        counters = self.registry.snapshot()["counters"]
        return int(
            sum(
                value
                for name, value in counters.items()
                if name.startswith("repro_executor_fallbacks_total")
            )
        )

    def op(self, index: int) -> Op:
        rng = _op_rng(self.seed, index)
        table, alpha, beta = _shape(self.seed, index, self.SHAPES)
        udf = UserDefinedFunction(f"ooc_{index}", RevealLabel("is_good"))
        query = SelectQuery(
            table=table,
            predicate=UdfPredicate(udf),
            alpha=alpha,
            beta=beta,
            rho=RHO,
            correlated_column=None,
        )
        return Op(
            "query",
            table,
            query,
            udf,
            seed=int(rng.integers(2**31)),
            truth=lambda: self.truths[table],
        )

    def close(self) -> None:
        super().close()
        disable_metrics()


WORKLOADS = {cls.name: cls for cls in (Adhoc, Churn, OutOfCorePyUdf)}
