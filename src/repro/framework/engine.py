"""Spark distributed engine for the block runtime.

The distributed dataflow per superstep is::

    state.groupBy("block").cogroup(messages.groupBy("block"))
         .applyInPandas(round_fn, SCHEMA)

i.e. block state and the messages addressed to each block are co-shuffled
to the same task, which runs the shared
:func:`repro.framework.block_runtime.run_block_round` and emits both the
new state rows and the outgoing message rows (tagged by ``kind``). Each
round's output is written to parquet and read back (Pregel-style
superstep persistence); the round's stats ride on that write as observed
metrics, so a superstep is one Spark action. Round 0 runs on the driver,
which holds the adjacency, as in the local engine.

Independent programs share one superstep stream (``run_many``): program
``i`` owns the virtual blocks ``i * n_blocks + block``, so a superstep's
fixed cost is paid once per barrier, not once per program (as in GRAPE,
Fan et al., SIGMOD 2017).

Why parquet and not ``localCheckpoint``: checkpointing a Dataset keeps
the logical plan's statistics, and Catalyst's size-only estimator takes
the *product* of child sizes at multi-child nodes — our cogroup doubles
the ``sizeInBytes`` BigInt's bit-length every round, so by round ~25
each checkpoint spends minutes multiplying million-digit integers (and
the cached round outputs accumulate in executor memory). A file
round-trip resets stats to actual bytes, truncates lineage, and leaves
nothing cached.

Every row of a superstep's output is ``kind, block, vid, src,
changed_round, size`` plus one opaque ``data binary`` column: a state row
(``kind = "s"``) carries the pickled :class:`VRec`, a message row
(``kind = "m"``) the pickled payload. The programs never see the wire
format, and the engine is generic over their value types. The pickles are
only ever read back from rows this engine built on the driver or wrote to
its own ``mkdtemp`` workdir in the same run, never from user input.
"""
from __future__ import annotations

import pickle
import shutil
import tempfile
from collections.abc import Iterable
from pathlib import Path
from typing import Any

import pandas as pd
from pyspark.sql import Column, Observation, SparkSession
from pyspark.sql import functions as F

from repro.framework.block_runtime import (
    Message,
    RunStats,
    VertexProgram,
    VRec,
    run_block_round,
)
from repro.framework.local_engine import Edge, adjacency, init_run

_SCHEMA = (
    "kind string, block long, vid long, src long, changed_round long, "
    "size long, data binary"
)
_COLS = [c.split()[0] for c in _SCHEMA.split(", ")]


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


class SparkEngine:
    """Distributed engine over an edge list ``[(src, dst), ...]``.

    ``partition`` maps vid -> block in ``[0, n_blocks)`` (a plain dict;
    one int per vertex is driver-sized even for large graphs, exactly like
    a partitioner's routing table). Results are collected back to the
    driver, as each phase of Algorithm 1/5 feeds the next.
    """

    def __init__(
        self,
        spark: SparkSession,
        edges: list[Edge],
        partition: dict[int, int],
        n_blocks: int | None = None,
    ):
        self.spark = spark
        self.partition = dict(partition)
        self.n_blocks = n_blocks or (max(partition.values()) + 1 if partition else 1)
        self.in_nbrs, self.out_nbrs = adjacency(edges)
        self.vertices = sorted(self.in_nbrs)
        missing = [v for v in self.vertices if v not in self.partition]
        if missing:
            raise ValueError(f"partition misses vertices, e.g. {missing[:3]}")
        if any(not 0 <= b < self.n_blocks for b in self.partition.values()):
            raise ValueError(f"partition blocks must lie in [0, {self.n_blocks})")

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
        ``(values, stats)`` per program, as :meth:`run` gives for it alone.

        A program's stats stop at its first all-quiet round: it then has
        no messages, no changes and so no self-active vertex, hence every
        later round is quiet for it too."""
        sc, conf = self.spark.sparkContext, self.spark.conf
        old_desc = sc.getLocalProperty("spark.job.description")
        old_shuffle = conf.get("spark.sql.shuffle.partitions")
        conf.set("spark.sql.shuffle.partitions", str(max(self.n_blocks, 2)))
        workdir = Path(tempfile.mkdtemp(prefix="dcore_engine_"))
        try:
            return self._supersteps(programs, mode,
                                    attrs_list or [None] * len(programs),
                                    max_rounds, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            conf.set("spark.sql.shuffle.partitions", old_shuffle)
            sc.setJobDescription(old_desc)

    def _supersteps(self, programs, mode, attrs_list, max_rounds, workdir):
        sc, nb = self.spark.sparkContext, self.n_blocks
        names = "+".join(type(p).__name__ for p in programs)
        stats, rows = [], []
        for i, (program, attrs) in enumerate(zip(programs, attrs_list)):
            blocks, pending, s = init_run(self, program, mode, attrs)
            stats.append(s)
            recs = (r for b in blocks.values() for r in b.values())
            rows += _rows(recs, pending, program, i * nb)
        # From tuples, not pandas: converting binary columns to Arrow on
        # the driver would cost it ~2 MB of resident memory.
        state, msgs = (self.spark.createDataFrame(
            [x for x in rows if x[0] == k], _SCHEMA) for k in "sm")

        live = set(range(len(programs)))
        for r in range(1, max_rounds + 1):
            sc.setJobDescription(f"{names}/r{r}")
            obs = Observation()
            path = str(workdir / f"round_{r % 2}")  # rotate two slots
            (
                state.groupBy("block").cogroup(msgs.groupBy("block"))
                .applyInPandas(self._round_fn(programs, mode, r), _SCHEMA)
                .observe(obs, *self._round_stats(len(programs), r))
                .write.mode("overwrite").parquet(path)
            )
            # Superstep barrier: reading the round back resets lineage and
            # plan statistics (see module docstring). The sides must be
            # separate relations: when the cogroup's output is observed,
            # Spark (4.1) prunes a self-cogroup's second side to its key.
            state, msgs = (
                self.spark.read.schema(_SCHEMA).parquet(path)
                .where(F.col("kind") == k) for k in "sm"
            )
            got = obs.get
            for i in list(live):
                n_msgs, n_changed = got[f"m{i}"], got[f"c{i}"]
                stats[i].msgs_per_round.append(n_msgs)
                stats[i].changed_per_round.append(n_changed)
                stats[i].volume_per_round.append(got[f"v{i}"] or 0)
                if n_msgs == 0 and n_changed == 0:
                    live.discard(i)
            if not live:
                break
        else:
            raise RuntimeError(f"no convergence within {max_rounds} rounds")

        sc.setJobDescription(f"{names}/values")
        values: list[dict[int, Any]] = [{} for _ in programs]
        for row in state.select("block", "vid", "data", "changed_round").collect():
            i = row["block"] // nb
            values[i][row["vid"]] = pickle.loads(row["data"]).value
            stats[i].converge_round[row["vid"]] = row["changed_round"]
        return list(zip(values, stats))

    def _round_fn(self, programs: list[VertexProgram], mode: str, round_no: int):
        """The cogroup UDF of one superstep; a virtual block's program is
        ``programs[block // n_blocks]``."""
        nb = self.n_blocks

        # NOTE: the returned function must take exactly two positional
        # parameters — Spark dispatches on arity and would otherwise pass
        # the grouping key as a first tuple argument.
        def round_fn(left: pd.DataFrame, right: pd.DataFrame) -> pd.DataFrame:
            recs = {r.ctx.vid: r for r in map(pickle.loads, left["data"])}
            vbid = int(left["block"].iloc[0])
            i, bid = divmod(vbid, nb)
            incoming = list(zip(right["vid"].tolist(), right["src"].tolist(),
                                map(pickle.loads, right["data"])))
            _, out_msgs = run_block_round(
                bid, recs, incoming, programs[i], mode, round_no
            )
            return pd.DataFrame(
                _rows(recs.values(), out_msgs, programs[i], vbid - bid),
                columns=_COLS,
            )

        return round_fn

    def _round_stats(self, n_programs: int, round_no: int) -> list[Column]:
        """Per program ``i``: messages ``m{i}``, their volume ``v{i}`` and
        the vertices that changed in ``round_no``, ``c{i}``."""
        nb, cols = self.n_blocks, []
        for i in range(n_programs):
            mine = F.col("block").between(i * nb, i * nb + nb - 1)
            msg = mine & (F.col("kind") == "m")
            cols += [
                F.count_if(msg).alias(f"m{i}"),
                F.sum(F.when(msg, F.col("size"))).alias(f"v{i}"),
                F.count_if(mine & (F.col("changed_round") == round_no)).alias(f"c{i}"),
            ]
        return cols
