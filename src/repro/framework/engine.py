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

Vertex state, neighbor caches and message payloads travel as JSON columns
— the engine is generic over the program's value type.
"""
from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path
from typing import Any

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.framework.block_runtime import (
    RunStats,
    VertexCtx,
    VertexProgram,
    VRec,
    init_block,
    run_block_round,
)

_SCHEMA = (
    "kind string, block long, vid long, src long, payload string, "
    "in_nbrs string, out_nbrs string, consumers string, attrs string, "
    "value string, cache string, changed_round long, self_active boolean, "
    "size long"
)

def _recs_from_pdf(pdf: pd.DataFrame, program: VertexProgram) -> dict[int, VRec]:
    recs: dict[int, VRec] = {}
    for row in pdf.itertuples(index=False):
        ctx = VertexCtx(
            vid=int(row.vid),
            in_nbrs=tuple(json.loads(row.in_nbrs)),
            out_nbrs=tuple(json.loads(row.out_nbrs)),
            attrs=program.normalize_attrs(json.loads(row.attrs)),
        )
        rec = VRec(
            ctx=ctx,
            block=int(row.block),
            consumers=tuple((int(c), int(b)) for c, b in json.loads(row.consumers)),
            value=program.from_json_obj(json.loads(row.value)) if row.value else None,
            cache={
                int(k): program.from_json_obj(v)
                for k, v in json.loads(row.cache).items()
            },
            changed_round=int(row.changed_round),
            self_active=bool(row.self_active),
        )
        recs[ctx.vid] = rec
    return recs


def _rows_from_recs(
    recs: dict[int, VRec], program: VertexProgram
) -> list[dict[str, Any]]:
    rows = []
    for vid, r in recs.items():
        rows.append(
            {
                "kind": "s",
                "block": r.block,
                "vid": vid,
                "src": None,
                "payload": None,
                "in_nbrs": json.dumps(list(r.ctx.in_nbrs)),
                "out_nbrs": json.dumps(list(r.ctx.out_nbrs)),
                "consumers": json.dumps([list(c) for c in r.consumers]),
                "attrs": json.dumps(r.ctx.attrs),
                "value": json.dumps(program.to_json_obj(r.value)),
                "cache": json.dumps(
                    {str(k): program.to_json_obj(v) for k, v in r.cache.items()}
                ),
                "changed_round": r.changed_round,
                "self_active": r.self_active,
                "size": None,
            }
        )
    return rows


def _msg_rows(msgs, program: VertexProgram) -> list[dict[str, Any]]:
    return [
        {
            "kind": "m",
            "block": dblock,
            "vid": dvid,
            "src": svid,
            "payload": json.dumps(program.to_json_obj(payload)),
            "in_nbrs": None, "out_nbrs": None, "consumers": None,
            "attrs": None, "value": None, "cache": None,
            "changed_round": None, "self_active": None,
            "size": program.payload_size(payload),
        }
        for dblock, dvid, svid, payload in msgs
    ]


def _out_pdf(rows: list[dict[str, Any]]) -> pd.DataFrame:
    cols = [
        "kind", "block", "vid", "src", "payload", "in_nbrs", "out_nbrs",
        "consumers", "attrs", "value", "cache", "changed_round", "self_active",
        "size",
    ]
    return pd.DataFrame(rows, columns=cols)


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
            rows = []
            for row in pdf.itertuples(index=False):
                vid = int(row.vid)
                ctx = VertexCtx(
                    vid=vid,
                    in_nbrs=tuple(int(x) for x in row.in_nbrs),
                    out_nbrs=tuple(int(x) for x in row.out_nbrs),
                    attrs=attrs.get(vid, {}),
                )
                cons = [[int(c), part[int(c)]] for c in program.consumers(ctx)]
                rows.append(
                    {
                        "kind": "s",
                        "block": part[vid],
                        "vid": vid,
                        "src": None,
                        "payload": None,
                        "in_nbrs": json.dumps(list(ctx.in_nbrs)),
                        "out_nbrs": json.dumps(list(ctx.out_nbrs)),
                        "consumers": json.dumps(cons),
                        "attrs": json.dumps(ctx.attrs),
                        "value": json.dumps(None),
                        "cache": json.dumps({}),
                        "changed_round": 0,
                        "self_active": False,
                        "size": None,
                    }
                )
            return _out_pdf(rows)

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
            recs = _recs_from_pdf(pdf, program)
            bid = int(pdf["block"].iloc[0])
            msgs = init_block(bid, recs, program, mode)
            return _out_pdf(_rows_from_recs(recs, program) + _msg_rows(msgs, program))

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
                recs = _recs_from_pdf(left, program)
                bid = int(left["block"].iloc[0])
                incoming = [
                    (
                        int(m.vid),
                        int(m.src),
                        program.from_json_obj(json.loads(m.payload)),
                    )
                    for m in right.itertuples(index=False)
                ]
                _, out_msgs = run_block_round(
                    bid, recs, incoming, program, mode, round_no
                )
                return _out_pdf(
                    _rows_from_recs(recs, program) + _msg_rows(out_msgs, program)
                )

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
        for row in state.select("vid", "value", "changed_round").collect():
            values[row["vid"]] = program.from_json_obj(json.loads(row["value"]))
            stats.converge_round[row["vid"]] = row["changed_round"]
        return values, stats
