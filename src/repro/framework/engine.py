"""Spark distributed engine for the block runtime.

The distributed dataflow per superstep is::

    data.groupBy("block").applyInArrow(round_fn, SCHEMA)

where ``data`` holds each block's state rows and the message rows
addressed to it, tagged by ``kind``: one shuffle brings both to the task
that runs the shared :func:`repro.framework.block_runtime.run_block_round`
and emits the next round's state and message rows. Each round's output is
materialised with an eager ``localCheckpoint`` (the superstep barrier):
the lineage is cut every round and the round's stats ride on that action
as one observed SQL aggregate, so a superstep is one Spark action. Round 0
runs on the driver, which holds the adjacency, as in the local engine; its
rows enter Spark as one Arrow table, which starts no Python worker. The
UDF takes and returns Arrow tables (no pandas), and the driver and the
workers encode rows with the one :func:`_table`. The UDF also drops the
worker's cached ``zipimporter`` finders (:func:`_drop_zip_finders`):
otherwise the ``importlib.invalidate_caches()`` that a reused worker runs
before every task re-reads each cached archive's directory, which cost
far more than the round's own work.

Independent programs share one superstep stream (``run_many``): program
``i`` owns the virtual blocks ``i * n_blocks + block``, so a superstep's
fixed cost is paid once per barrier, not once per program (as in GRAPE,
Fan et al., SIGMOD 2017). Once a program is all quiet, its state rows
pass through the UDF unread. The round loop is the shared
:func:`repro.framework.block_runtime.run_rounds`; this module supplies the
superstep. It writes no session config: adaptive query execution (on by
default) coalesces the round's ``spark.sql.shuffle.partitions`` partitions.

Why ``localCheckpoint`` is safe: a round is a one-child plan, so
Catalyst's size estimate stays constant across rounds (the old two-child
cogroup multiplied it and stalled runs by round ~25), and each round's
blocks are released once the next is materialised, so executors hold at
most two rounds; spill follows ``spark.local.dir``. The trade-off: a lost
executor fails the run loudly instead of recomputing the round.

Every row of a superstep's output is ``kind, block, vid, src,
changed_round, size`` plus one opaque ``data binary`` column: a state row
(``kind = "s"``) carries the pickled :class:`VRec`, a message row
(``kind = "m"``) the pickled payload. The programs never see the wire
format, and the engine is generic over their value types. The pickles are
only ever read back from rows this engine built on the driver or from its
own checkpoint blocks of the same run, never from user input.
"""
from __future__ import annotations

import pickle
import sys
import zipimport
from collections.abc import Iterable
from typing import Any

import pyarrow as pa
from pyspark.sql import Column, DataFrame, Observation, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.pandas.types import from_arrow_schema

from repro.framework.block_runtime import (
    Message,
    RunStats,
    VertexProgram,
    VRec,
    run_block_round,
    run_rounds,
)
from repro.framework.local_engine import Graph, check_partition, init_run

_ARROW = pa.schema([("kind", pa.string())] + [
    (c, pa.int64()) for c in ("block", "vid", "src", "changed_round", "size")
] + [("data", pa.binary())])
_SCHEMA = from_arrow_schema(_ARROW)


def _rows(
    recs: Iterable[VRec], msgs: list[Message], program: VertexProgram, base: int
) -> list[tuple]:
    """A state row per vertex and a message row per message, with ``base``
    added to every block id (the program's virtual blocks)."""
    rows = [
        ("s", base + r.block, r.ctx.vid, None, r.changed_round, None,
         pickle.dumps(r))
        for r in recs
    ]
    rows += [
        ("m", base + dblock, dvid, svid, None, program.payload_size(payload),
         pickle.dumps(payload))
        for dblock, dvid, svid, payload in msgs
    ]
    return rows


def _table(rows: list[tuple]) -> pa.Table:
    """Engine rows as one Arrow table of the engine schema."""
    cols = [pa.array([row[j] for row in rows], f.type) for j, f in enumerate(_ARROW)]
    return pa.Table.from_arrays(cols, schema=_ARROW)


def _ingest(spark: SparkSession, rows: list[tuple]) -> DataFrame:
    """Driver-built rows as a DataFrame, shipped as one Arrow table."""
    return spark.createDataFrame(_table(rows))


def _release(checkpoint: DataFrame | None) -> None:
    """Drop a ``localCheckpoint``'s blocks from executor storage.

    Through ``SparkContext.unpersistRDD``: ``RDD.unpersist`` would log a
    WARN for every locally checkpointed RDD it frees, one per superstep."""
    if checkpoint is not None:
        rdd = checkpoint._jdf.queryExecution().analyzed().rdd()
        checkpoint.sparkSession.sparkContext._jsc.sc().unpersistRDD(rdd.id(), False)


def _drop_zip_finders() -> None:
    """Forget the cached ``zipimporter`` path finders.

    A reused Python worker calls ``importlib.invalidate_caches()`` before
    every task, and each cached zipimporter then re-reads its archive's
    whole directory (tens of ms per task for pyspark.zip and the Spark
    jars). A dropped finder is rebuilt only if a later import needs it,
    from zipimport's directory cache, so nothing is re-read."""
    cache = sys.path_importer_cache
    for path, finder in list(cache.items()):
        if isinstance(finder, zipimport.zipimporter):
            del cache[path]


class SparkEngine:
    """Distributed engine over a :class:`~repro.framework.local_engine.Graph`.

    ``partition`` maps vid -> block in ``[0, n_blocks)`` (a plain dict;
    one int per vertex is driver-sized even for large graphs, exactly like
    a partitioner's routing table). Results are collected back to the
    driver, as each phase of Algorithm 1/5 feeds the next.
    """

    def __init__(
        self,
        spark: SparkSession,
        graph: Graph,
        partition: dict[int, int],
        n_blocks: int,
    ):
        check_partition(graph, partition, n_blocks)
        self.spark = spark
        self.partition = dict(partition)
        self.n_blocks = n_blocks
        self.vertices, self.in_nbrs, self.out_nbrs = (
            graph.vertices, graph.in_nbrs, graph.out_nbrs)

    def run(
        self,
        program: VertexProgram,
        mode: str = "vertex",
        attrs: dict[int, dict[str, Any]] | None = None,
        max_rounds: int = 100_000,
    ) -> tuple[dict[int, Any], RunStats]:
        return self.run_many([program], mode, [attrs], max_rounds)[0]

    def run_many(
        self,
        programs: list[VertexProgram],
        mode: str = "vertex",
        attrs_list: list[dict[int, dict[str, Any]] | None] | None = None,
        max_rounds: int = 100_000,
    ) -> list[tuple[dict[int, Any], RunStats]]:
        """Run independent programs in one superstep stream: one
        ``(values, stats)`` per program, as :meth:`run` gives for it alone
        (each program's stats stop at its own first all-quiet round)."""
        sc, nb = self.spark.sparkContext, self.n_blocks
        names = "+".join(type(p).__name__ for p in programs)
        stats, rows = [], []
        for i, (program, attrs) in enumerate(
            zip(programs, attrs_list or [None] * len(programs))
        ):
            blocks, pending, s = init_run(self, program, mode, attrs)
            stats.append(s)
            recs = (r for b in blocks.values() for r in b.values())
            rows += _rows(recs, pending, program, i * nb)
        # Round 0 is a LocalRelation; ``kept`` is the live checkpoint.
        data, kept = _ingest(self.spark, rows), None
        old_desc = sc.getLocalProperty("spark.job.description")

        def step(r: int, live: set[int]) -> dict[int, tuple[int, int, int]]:
            nonlocal data, kept
            sc.setJobDescription(f"{names}/r{r}")
            obs = Observation()
            # Superstep barrier: materialise the round, cut its lineage,
            # then free the round it was computed from.
            data = (
                data.groupBy("block")
                .applyInArrow(self._round_fn(programs, mode, r, live), _SCHEMA)
                .observe(obs, self._round_stats(live, r))
                .localCheckpoint(eager=True)
            )
            _release(kept)
            kept = data
            got = obs.get["stats"]
            return {i: (got[f"m{i}"], got[f"c{i}"], got[f"v{i}"] or 0) for i in live}

        try:
            run_rounds(step, stats, max_rounds)
            sc.setJobDescription(f"{names}/values")
            values: list[dict[int, Any]] = [{} for _ in programs]
            for row in data.collect():  # state rows only: no program sent a message
                i = row["block"] // nb
                values[i][row["vid"]] = pickle.loads(row["data"]).value
                stats[i].converge_round[row["vid"]] = row["changed_round"]
            return list(zip(values, stats))
        finally:
            _release(kept)
            sc.setJobDescription(old_desc)

    def _round_fn(self, programs: list[VertexProgram], mode: str, round_no: int,
                  live: set[int]):
        """The grouped UDF of one superstep; a virtual block's program is
        ``programs[block // n_blocks]``. A program not in ``live`` was all
        quiet, so it stays quiet: its state rows pass through unread."""
        nb, live = self.n_blocks, frozenset(live)

        def round_fn(group: pa.Table) -> pa.Table:
            _drop_zip_finders()
            vbid = group.column("block")[0].as_py()
            i, bid = divmod(vbid, nb)
            if i not in live:
                return group
            recs, incoming = {}, []
            cols = (group.column(c).to_pylist() for c in ("kind", "vid", "src", "data"))
            for kind, vid, src, data in zip(*cols):
                if kind == "s":
                    recs[vid] = pickle.loads(data)
                else:
                    incoming.append((vid, src, pickle.loads(data)))
            _, out_msgs = run_block_round(
                bid, recs, incoming, programs[i], mode, round_no
            )
            return _table(_rows(recs.values(), out_msgs, programs[i], vbid - bid))

        return round_fn

    def _round_stats(self, live: set[int], round_no: int) -> Column:
        """One observed struct of, per live program ``i``, messages ``m{i}``,
        their volume ``v{i}`` and vertices changed in ``round_no``, ``c{i}``."""
        fields = []
        for i in sorted(live):
            mine = f"block DIV {self.n_blocks} = {i}"
            fields += [
                f"'m{i}', count_if({mine} AND kind = 'm')",
                f"'v{i}', sum(IF({mine} AND kind = 'm', size, 0))",
                f"'c{i}', count_if({mine} AND changed_round = {round_no})",
            ]
        return F.expr(f"named_struct({', '.join(fields)}) AS stats")
