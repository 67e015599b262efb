"""Spark distributed engine for the block runtime.

The distributed dataflow per superstep is::

    data.groupBy("block").applyInArrow(round_fn, SCHEMA)

where ``data`` holds each block's state row and the message rows
addressed to it, tagged by ``kind``: one shuffle brings both to the task
that runs the shared :func:`repro.framework.block_runtime.run_block_round`
and emits the block's next state row and its outgoing message rows. Each
round's output is materialised with an eager ``localCheckpoint`` (the
superstep barrier): the lineage is cut every round and the round's stats
ride on that action as one observed SQL aggregate, so a superstep is one
Spark action. Round 0 runs on the driver, which holds the adjacency, as
in the local engine; its rows enter Spark as one Arrow table, which
starts no Python worker. The UDF takes and returns Arrow tables (no
pandas), and the driver and the workers encode rows with the one
:func:`_table`. The UDF also drops the worker's cached ``zipimporter``
finders (:func:`_drop_zip_finders`): otherwise the
``importlib.invalidate_caches()`` that a reused worker runs before every
task re-reads each cached archive's directory, which cost far more than
the round's own work.

Independent programs share one superstep stream (``run_many``): program
``i`` owns the virtual blocks ``i * n_blocks + block``, so a superstep's
fixed cost is paid once per barrier, not once per program (as in GRAPE,
Fan et al., SIGMOD 2017). The UDF runs every block in round 1. After
that, a block with no mail whose state row changed no vertex in the last
round passes through unread: no message wakes one of its vertices, and
none re-checks itself. A program that is all quiet has only such blocks.
The round loop is the shared
:func:`repro.framework.block_runtime.run_rounds`; this module supplies the
superstep. It writes no session config: adaptive query execution (on by
default) coalesces the round's ``spark.sql.shuffle.partitions`` partitions.

The tail of a run finishes on the driver. Round 1 wakes every vertex, so
it always runs on Spark; after each Spark round, its observed stats give
the next round's frontier: the live programs' messages, plus their changed
vertices where these re-check themselves (vertex mode, a program that is
not ``idempotent``). Once it is at most :data:`TAIL_FRONTIER`, the driver
collects that round's checkpoint (state and message rows), unpickles
each program's ``{block: {vid: VRec}}`` and pending messages, releases the
checkpoint, and runs the remaining rounds through
:func:`repro.framework.local_engine.local_round` in the same loop. Rounds,
messages and stats stay the paper's; only where the tail supersteps run
changes (GRAPE's PEval/IncEval split, Fan et al., SIGMOD 2017, with the
executor chosen from the measured frontier as in PowerSwitch, Xie et al.,
PPoPP 2015). This collect is the run's only one: a run that never
switches collects its last checkpoint in the same way after its all-quiet
round, and both engines read the values from their blocks. The threshold
is an absolute size because a superstep's fixed cost does not depend on
the frontier while the driver's cost grows with it. On 4 cores, a Spark
superstep costs ~90 ms on the Fig-2 graph, and a driver round of 800-1,300
frontier units on the SL analog's SC-B run (the costliest update per
message) takes 3.9 ms on average and 10.4 ms at most: at 1,000 a driver
round stays about 10x cheaper than a superstep. The driver holds no more
than for round 0, which builds every ``VRec`` there.

Why ``localCheckpoint`` is safe: a round is a one-child plan, so
Catalyst's size estimate stays constant across rounds (the old two-child
cogroup multiplied it and stalled runs by round ~25), and each round's
blocks are released once the next is materialised, so executors hold at
most two rounds; spill follows ``spark.local.dir``. The trade-off: a lost
executor fails the run loudly instead of recomputing the round.

Every row of a superstep's output is ``kind, block, src, changed, size``
plus one opaque ``data binary`` column, and ``changed`` is the row's
count. A block's state is one row (``kind = "s"``): its block id, the
number of its vertices ``changed`` in the round that wrote it (the
round's stats sum this column), and the pickled ``{vid: VRec}`` dict that
:func:`init_run` builds and :func:`run_block_round` runs (each ``VRec``
holds graph context, consumers and dynamic state). A message row
(``kind = "m"``) is one changed source's value for one destination block:
its source vid, its fan-out (the number of consumers it reaches there) in
``changed``, its volume (payload units times fan-out) in ``size``, and one
pickle of ``(dst_vids, payload)``. The round's stats sum the fan-outs, so
messages and volume count deliveries, as LocalEngine's do. A block's
pickle is one Arrow ``binary`` value, so it must stay under
2 GiB; after round 1 the largest analog block pickles to about 130 KB
with 8 hash blocks and 0.9 MB as one block. A program's own inputs
(e.g. AC's ``k_max``) ride in the pickled UDF closure, once per task,
never in a row. The programs never see the wire format, and the engine
is generic over their value types.
The pickles are only ever read back from rows this engine built on the
driver or from its own checkpoint blocks of the same run, never from
user input.
"""
from __future__ import annotations

import pickle
import sys
import zipimport
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
from repro.framework.local_engine import (
    Graph,
    block_values,
    check_partition,
    init_run,
    local_round,
)

_ARROW = pa.schema([("kind", pa.string())] + [
    (c, pa.int64()) for c in ("block", "src", "changed", "size")
] + [("data", pa.binary())])
_SCHEMA = from_arrow_schema(_ARROW)

#: The largest frontier (a round's messages plus the vertices that
#: re-check themselves) that the driver runs instead of Spark; see the
#: module docstring.
TAIL_FRONTIER = 1_000


def _rows(
    blocks: dict[int, dict[int, VRec]],
    changed: dict[int, int],
    msgs: list[Message],
    program: VertexProgram,
    base: int,
) -> list[tuple]:
    """A state row per block, with the number of its vertices that
    ``changed`` in the round that wrote it, and a message row per message,
    with its fan-out in ``changed`` and its volume, payload units times
    fan-out, in ``size``; ``base`` is added to every block id (the
    program's virtual blocks)."""
    rows = [
        ("s", base + bid, None, changed[bid], None, pickle.dumps(recs))
        for bid, recs in blocks.items()
    ]
    rows += [
        ("m", base + dblock, svid, len(dvids),
         program.payload_size(payload) * len(dvids), pickle.dumps((dvids, payload)))
        for dblock, svid, payload, dvids in msgs
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
        self.graph = graph
        self.partition = dict(partition)
        self.n_blocks = n_blocks

    def run(
        self,
        program: VertexProgram,
        mode: str = "vertex",
        max_rounds: int = 100_000,
    ) -> tuple[dict[int, Any], RunStats]:
        return self.run_many([program], mode, max_rounds)[0]

    def run_many(
        self,
        programs: list[VertexProgram],
        mode: str = "vertex",
        max_rounds: int = 100_000,
    ) -> list[tuple[dict[int, Any], RunStats]]:
        """Run independent programs in one superstep stream: one
        ``(values, stats)`` per program, as :meth:`run` gives for it alone
        (each program's stats stop at its own first all-quiet round)."""
        sc, nb = self.spark.sparkContext, self.n_blocks
        names = "+".join(type(p).__name__ for p in programs)
        stats, rows = [], []
        for i, program in enumerate(programs):
            blocks, pending, s = init_run(self.graph, self.partition, program, mode)
            stats.append(s)
            rows += _rows(blocks, dict.fromkeys(blocks, 0), pending, program, i * nb)
        # Round 0 is a LocalRelation; ``kept`` is the live checkpoint.
        # ``tail`` holds each program's blocks and pending messages once
        # they are on the driver.
        data, kept, tail = _ingest(self.spark, rows), None, None
        recheck = [mode == "vertex" and not p.idempotent for p in programs]
        old_desc = sc.getLocalProperty("spark.job.description")

        def step(r: int, live: set[int]) -> dict[int, tuple[int, int, int]]:
            nonlocal data, kept, tail
            counts = {}
            if tail is not None:  # the driver runs the round
                for i in live:
                    blocks, pending = tail[i]
                    pending, counts[i] = local_round(
                        blocks, pending, programs[i], mode, r)
                    tail[i] = blocks, pending
                    if stats[i].driver_round is None:
                        stats[i].driver_round = r
                return counts
            sc.setJobDescription(f"{names}/r{r}")
            obs = Observation()
            # Superstep barrier: materialise the round, cut its lineage,
            # then free the round it was computed from.
            data = (
                data.groupBy("block")
                .applyInArrow(self._round_fn(programs, mode, r), _SCHEMA)
                .observe(obs, self._round_stats(live))
                .localCheckpoint(eager=True)
            )
            _release(kept)
            kept = data
            got = obs.get["stats"]
            for i in live:
                counts[i] = got[f"m{i}"] or 0, got[f"c{i}"] or 0, got[f"v{i}"] or 0
            # The next round's frontier: messages, plus the vertices that
            # re-check themselves. The run's only collect follows once it
            # is small, or once every program is quiet.
            frontier = sum(m + (c if recheck[i] else 0)
                           for i, (m, c, _) in counts.items())
            if frontier <= TAIL_FRONTIER or not any(
                m or c for m, c, _ in counts.values()
            ):
                sc.setJobDescription(f"{names}/collect")
                tail = self._collect(data, len(programs))
                _release(kept)
                kept = None
            return counts

        try:
            run_rounds(step, stats, max_rounds)
            return [(block_values(blocks, s), s) for (blocks, _), s in zip(tail, stats)]
        finally:
            _release(kept)
            sc.setJobDescription(old_desc)

    def _collect(
        self, data: DataFrame, n_programs: int
    ) -> list[tuple[dict[int, dict[int, VRec]], list[Message]]]:
        """A round's checkpoint on the driver: per program, its blocks
        ``{block: {vid: VRec}}`` and the messages pending for the next
        round, as :func:`~repro.framework.local_engine.local_round` takes
        them."""
        tail: list[tuple[dict[int, dict[int, VRec]], list[Message]]] = [
            ({}, []) for _ in range(n_programs)]
        for kind, vbid, src, _, _, blob in data.collect():
            i, bid = divmod(vbid, self.n_blocks)
            blocks, pending = tail[i]
            if kind == "s":
                blocks[bid] = pickle.loads(blob)
            else:
                dvids, payload = pickle.loads(blob)
                pending.append((bid, src, payload, dvids))
        return tail

    def _round_fn(self, programs: list[VertexProgram], mode: str, round_no: int):
        """The grouped UDF of one superstep; a virtual block's program is
        ``programs[block // n_blocks]``. After round 1, a block with no
        mail whose last round changed no vertex has none to re-check: its
        state row passes through unread."""
        nb = self.n_blocks

        def round_fn(group: pa.Table) -> pa.Table:
            _drop_zip_finders()
            # A lone row is the block's state row: it has no mail.
            quiet = group.num_rows == 1 and group["changed"][0].as_py() == 0
            if round_no > 1 and quiet:
                return group
            vbid = group.column("block")[0].as_py()
            i, bid = divmod(vbid, nb)
            incoming = []
            cols = (group.column(c).to_pylist() for c in ("kind", "src", "data"))
            for kind, src, data in zip(*cols):
                if kind == "s":
                    recs = pickle.loads(data)
                else:
                    dvids, payload = pickle.loads(data)
                    incoming.append((src, payload, dvids))
            changed, out_msgs = run_block_round(
                bid, recs, incoming, programs[i], mode, round_no
            )
            return _table(_rows({bid: recs}, {bid: len(changed)}, out_msgs,
                                programs[i], vbid - bid))

        return round_fn

    def _round_stats(self, live: set[int]) -> Column:
        """One observed struct of, per live program ``i``, messages ``m{i}``
        (the fan-outs of its message rows), their volume ``v{i}`` and the
        vertices changed this round, ``c{i}``, summed over its state rows.
        A sum over no rows is NULL."""
        fields = []
        for i in sorted(live):
            mine = f"block DIV {self.n_blocks} = {i}"
            fields += [
                f"'m{i}', sum(IF({mine} AND kind = 'm', changed, 0))",
                f"'v{i}', sum(IF({mine} AND kind = 'm', size, 0))",
                f"'c{i}', sum(IF({mine} AND kind = 's', changed, 0))",
            ]
        return F.expr(f"named_struct({', '.join(fields)}) AS stats")
