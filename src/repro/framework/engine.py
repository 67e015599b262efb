"""Spark distributed engine for the block runtime.

The distributed dataflow per superstep is::

    state.groupBy("block").cogroup(messages.groupBy("block"))
         .applyInPandas(round_fn, SCHEMA)

i.e. block state and the messages addressed to each block are co-shuffled
to the same task, which runs the shared
:func:`repro.framework.block_runtime.run_block_round` and emits both the
new state rows and the outgoing message rows (tagged by ``kind``). Each
round's output is materialised to parquet and read back (Pregel-style
superstep persistence) before being split into state and messages for
the next round.

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
only ever read back from rows this engine wrote to its own ``mkdtemp``
workdir in the same run, never from user input.
"""
from __future__ import annotations

import pickle
import shutil
import tempfile
from pathlib import Path
from typing import Any

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.framework.block_runtime import (
    Message,
    RunStats,
    VertexProgram,
    VRec,
    init_block,
    new_rec,
    run_block_round,
)

_SCHEMA = (
    "kind string, block long, vid long, src long, changed_round long, "
    "size long, data binary"
)
_COLS = [c.split()[0] for c in _SCHEMA.split(", ")]


def _encode(
    recs: dict[int, VRec], msgs: list[Message], program: VertexProgram
) -> pd.DataFrame:
    """One output frame: a state row per vertex, a message row per message."""
    rows = [
        ("s", r.block, vid, None, r.changed_round, None, pickle.dumps(r))
        for vid, r in recs.items()
    ]
    rows += [
        ("m", dblock, dvid, svid, None, program.payload_size(payload),
         pickle.dumps(payload))
        for dblock, dvid, svid, payload in msgs
    ]
    return pd.DataFrame(rows, columns=_COLS)


def _decode(pdf: pd.DataFrame) -> list[Any]:
    """The unpickled ``data`` column of a frame :func:`_encode` wrote."""
    return [pickle.loads(d) for d in pdf["data"]]


class SparkEngine:
    """Distributed engine over an edges DataFrame ``(src, dst)``.

    ``partition`` maps vid -> block (a plain dict; one int per vertex is
    driver-sized even for large graphs, exactly like a partitioner's
    routing table). Results are collected back to the driver, as each
    phase of Algorithm 1/5 feeds the next.
    """

    def __init__(
        self,
        spark: SparkSession,
        edges: DataFrame,
        partition: dict[int, int],
        n_blocks: int | None = None,
    ):
        self.spark = spark
        self.partition = dict(partition)
        self.n_blocks = n_blocks or (max(partition.values()) + 1 if partition else 1)
        raw = edges.select(
            F.col(edges.columns[0]).cast("long").alias("src"),
            F.col(edges.columns[1]).cast("long").alias("dst"),
        )
        # Every endpoint is a vertex, including one whose only edge is a
        # self-loop; self-loops and duplicate edges are then dropped.
        verts = raw.select(F.col("src").alias("vid")).union(
            raw.select(F.col("dst").alias("vid"))
        ).distinct()
        e = raw.where("src <> dst").dropDuplicates(["src", "dst"])
        self.edges = e
        in_n = e.groupBy(F.col("dst").alias("vid")).agg(
            F.collect_list("src").alias("in_nbrs")
        )
        out_n = e.groupBy(F.col("src").alias("vid")).agg(
            F.collect_list("dst").alias("out_nbrs")
        )
        adj = (
            verts.join(in_n, "vid", "left")
            .join(out_n, "vid", "left")
            .select(
                "vid",
                F.coalesce("in_nbrs", F.array()).alias("in_nbrs"),
                F.coalesce("out_nbrs", F.array()).alias("out_nbrs"),
            )
        )
        self._adj = adj.localCheckpoint(eager=True)
        # Driver-side adjacency for phase drivers (neighbor-attr maps).
        self.in_nbrs: dict[int, tuple] = {}
        self.out_nbrs: dict[int, tuple] = {}
        for row in self._adj.collect():
            self.in_nbrs[row["vid"]] = tuple(row["in_nbrs"])
            self.out_nbrs[row["vid"]] = tuple(row["out_nbrs"])
        self.vertices = sorted(self.in_nbrs)
        missing = [v for v in self.vertices if v not in self.partition]
        if missing:
            raise ValueError(f"partition misses vertices, e.g. {missing[:3]}")

    def _initial_state(
        self, program: VertexProgram, attrs: dict[int, dict[str, Any]] | None
    ) -> DataFrame:
        part = self.partition
        attrs = attrs or {}

        def build(pdf: pd.DataFrame) -> pd.DataFrame:
            recs = {}
            for row in pdf.itertuples(index=False):
                vid = int(row.vid)
                recs[vid] = new_rec(
                    program, vid,
                    tuple(int(x) for x in row.in_nbrs),
                    tuple(int(x) for x in row.out_nbrs),
                    attrs.get(vid, {}), part,
                )
            return _encode(recs, [], program)

        return self._adj.mapInPandas(
            lambda it: (build(pdf) for pdf in it), _SCHEMA
        )

    def run(
        self,
        program: VertexProgram,
        mode: str = "vertex",
        attrs: dict[int, dict[str, Any]] | None = None,
        max_rounds: int = 100_000,
    ) -> tuple[dict[int, Any], RunStats]:
        if mode not in ("vertex", "block"):
            raise ValueError(f"unknown mode {mode!r}")
        conf = self.spark.conf
        old_shuffle = conf.get("spark.sql.shuffle.partitions")
        conf.set("spark.sql.shuffle.partitions", str(max(self.n_blocks, 2)))
        try:
            return self._run(program, mode, attrs, max_rounds)
        finally:
            conf.set("spark.sql.shuffle.partitions", old_shuffle)

    def _run(self, program, mode, attrs, max_rounds):
        stats = RunStats()
        workdir = Path(tempfile.mkdtemp(prefix="dcore_engine_"))
        try:
            return self._run_rounds(program, mode, attrs, max_rounds,
                                    stats, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def _materialize(self, df: DataFrame, path: Path) -> DataFrame:
        """Superstep barrier: persist the round output and read it back,
        resetting lineage and plan statistics (see module docstring)."""
        df.write.mode("overwrite").parquet(str(path))
        return self.spark.read.schema(_SCHEMA).parquet(str(path))

    def _run_rounds(self, program, mode, attrs, max_rounds, stats, workdir):
        def init_fn(pdf: pd.DataFrame) -> pd.DataFrame:
            recs = {r.ctx.vid: r for r in _decode(pdf)}
            bid = int(pdf["block"].iloc[0])
            msgs = init_block(bid, recs, program, mode)
            return _encode(recs, msgs, program)

        state0 = self._initial_state(program, attrs)
        out = self._materialize(
            state0.groupBy("block").applyInPandas(lambda pdf: init_fn(pdf), _SCHEMA),
            workdir / "round_0",
        )
        def msg_stats(m: DataFrame) -> tuple[int, int]:
            row = m.agg(
                F.count("*").alias("n"), F.sum("size").alias("vol")
            ).collect()[0]
            return int(row["n"]), int(row["vol"] or 0)

        state = out.where(F.col("kind") == "s")
        msgs = out.where(F.col("kind") == "m")
        n_msgs, vol = msg_stats(msgs)
        stats.msgs_per_round.append(n_msgs)
        stats.changed_per_round.append(0)
        stats.volume_per_round.append(vol)

        def make_round_fn(round_no: int):
            # NOTE: the returned function must take exactly two positional
            # parameters — Spark dispatches on arity and would otherwise
            # pass the grouping key as a first tuple argument.
            def round_fn(left: pd.DataFrame, right: pd.DataFrame) -> pd.DataFrame:
                recs = {r.ctx.vid: r for r in _decode(left)}
                bid = int(left["block"].iloc[0])
                incoming = list(zip(
                    right["vid"].tolist(), right["src"].tolist(), _decode(right)
                ))
                _, out_msgs = run_block_round(
                    bid, recs, incoming, program, mode, round_no
                )
                return _encode(recs, out_msgs, program)

            return round_fn

        for r in range(1, max_rounds + 1):
            out = self._materialize(
                state.groupBy("block")
                .cogroup(msgs.groupBy("block"))
                .applyInPandas(make_round_fn(r), _SCHEMA),
                workdir / f"round_{r % 2 + 1}",  # rotate two slots
            )
            state = out.where(F.col("kind") == "s")
            msgs = out.where(F.col("kind") == "m")
            n_msgs, vol = msg_stats(msgs)
            n_changed = state.where(F.col("changed_round") == r).count()
            stats.msgs_per_round.append(n_msgs)
            stats.changed_per_round.append(n_changed)
            stats.volume_per_round.append(vol)
            if n_msgs == 0 and n_changed == 0:
                break
        else:
            raise RuntimeError(f"no convergence within {max_rounds} rounds")

        values: dict[int, Any] = {}
        for row in state.select("vid", "data", "changed_round").collect():
            values[row["vid"]] = pickle.loads(row["data"]).value
            stats.converge_round[row["vid"]] = row["changed_round"]
        return values, stats
