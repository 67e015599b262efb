"""Outside-in layer tracing for one ``decompose()`` call.

The program's source is not edited. :func:`traced` reassigns module and
class attributes of ``repro`` (and of pyspark) to timing wrappers for
the length of one call and restores them afterwards:

* kernels: ``h_index`` as imported into ``core.anchored`` and
  ``core.dindex``; ``n_order_d_index`` and ``skyline`` as imported into
  ``core.skyline``;
* programs: ``update`` and ``payload_size`` of every ``VertexProgram``
  class;
* block runtime: ``run_block_round`` and ``init_block`` as imported into
  ``framework.local_engine``;
* engines: ``LocalEngine``/``SparkEngine`` ``__init__`` and ``run`` (one
  ``run`` per phase, in spans ``run.LocalEngine``/``run.SparkEngine``);
* driver: the ``PARTITIONERS`` entries, ``neighbor_attr_map``,
  ``clean_edges`` and the two converters used by ``decompose``;
* pyspark, driver side: ``DataFrameWriter.parquet`` (the superstep
  barrier, which blocks while the cogroup job runs),
  ``DataFrame.collect``/``toPandas``/``count``/``localCheckpoint``.

Every wrapper opens a span whose parent is the innermost open span; a
span's self time is its duration minus the durations of its direct
children. Hot spans (kernels, updates, payload sizes) are aggregated per
name; coarse spans are also kept individually, with their parent, start
and end, and are written out by the runner. Patches act in this driver
process only: SparkEngine runs kernels and the block runtime inside
Spark's Python workers, which these wrappers do not reach, so on a Spark
workload the kernel, program and block-runtime rows read 0 and the
engine rows are driver-side wall times.
"""
from __future__ import annotations

import contextlib
import heapq
import os
import statistics
import time
from collections import defaultdict
from typing import Any, Callable

HUB_INPUTS = 32


class Tracer:
    """Span stack, per-name aggregates and the recorded hub inputs."""

    def __init__(self) -> None:
        # One frame per open span: [time covered by direct children,
        # index of the nearest kept span (itself if kept), or -1].
        self._stack: list[list[Any]] = []
        # name -> [calls, total seconds, self seconds]
        self.agg: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        # Kept spans: [name, parent index, start, end, attrs].
        self.spans: list[list[Any]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.hubs: dict[str, list] = {"dindex": [], "hindex": []}
        self._seq = 0

    def wrap(
        self,
        name: str,
        fn: Callable,
        keep: bool = False,
        label: Callable[[tuple], Any] | None = None,
    ) -> Callable:
        """``fn`` inside a span called ``name``; ``keep`` records the span
        itself with ``label(args)`` as its attrs."""
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        agg = self.agg[name]

        def span(*args, **kwargs):
            # The span's own set-up counts in the span, not in its parent.
            t0 = clock()
            parent = stack[-1][1] if stack else -1
            if keep:
                idx = len(spans)
                spans.append([name, parent, 0.0, 0.0, label(args) if label else None])
            else:
                idx = parent
            frame = [0.0, idx]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[0]
                if keep:
                    spans[idx][2] = t0
                    spans[idx][3] = t1

        return span

    def note_hub(self, kind: str, size: int, args: tuple) -> None:
        """Keep the inputs of the ``HUB_INPUTS`` largest calls (earliest
        call wins a tie)."""
        heap = self.hubs[kind]
        self._seq += 1
        if len(heap) < HUB_INPUTS:
            heapq.heappush(heap, (size, -self._seq, args))
        elif size > heap[0][0]:
            heapq.heapreplace(heap, (size, -self._seq, args))

    def total(self, name: str) -> float:
        return self.agg[name][1] if name in self.agg else 0.0

    def self_time(self, name: str) -> float:
        return self.agg[name][2] if name in self.agg else 0.0

    def calls(self, name: str) -> int:
        return int(self.agg[name][0]) if name in self.agg else 0

    def kept(self, name: str) -> list[list[Any]]:
        return [s for s in self.spans if s[0] == name]


@contextlib.contextmanager
def _patched(targets: list[tuple[Any, str, Any]]):
    """Set ``setattr(obj, attr, new)`` (or ``obj[attr] = new`` for dicts)
    for each target; restore every original on exit."""
    saved = []
    try:
        for obj, attr, new in targets:
            if isinstance(obj, dict):
                saved.append((obj, attr, obj[attr]))
                obj[attr] = new
            else:
                saved.append((obj, attr, obj.__dict__[attr]))
                setattr(obj, attr, new)
        yield
    finally:
        for obj, attr, old in reversed(saved):
            if isinstance(obj, dict):
                obj[attr] = old
            else:
                setattr(obj, attr, old)


def _program_classes() -> list[type]:
    from repro.framework.block_runtime import VertexProgram

    out, todo = [], [VertexProgram]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


def _dir_bytes(path: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(dirpath, f))
    return total


def _targets(tr: Tracer) -> list[tuple[Any, str, Any]]:
    """Every (owner, attribute, wrapper) the traced call patches."""
    from pyspark.sql.classic.dataframe import DataFrame
    from pyspark.sql.readwriter import DataFrameWriter

    import repro.core.anchored as anchored
    import repro.core.decompose as dec
    import repro.core.dindex as dindex
    import repro.core.skyline as skyline
    import repro.framework.local_engine as local_engine
    from repro.framework.engine import SparkEngine
    from repro.framework.local_engine import LocalEngine
    from repro.framework.partition import PARTITIONERS

    t: list[tuple[Any, str, Any]] = []

    # Kernels. h_index gets a generator from the programs; it is
    # materialised inside the span, as h_index itself would.
    h_orig = anchored.h_index

    def h_index(values):
        vals = list(values)
        tr.counts["hindex.len"] += len(vals)
        tr.note_hub("hindex", len(vals), (vals,))
        return h_orig(vals)

    h_span = tr.wrap("hindex", h_index)
    t += [(anchored, "h_index", h_span), (dindex, "h_index", h_span)]

    d_orig = skyline.n_order_d_index

    def n_order_d_index(in_sky, out_sky):
        n = len(in_sky) + len(out_sky)
        tr.counts["dindex.nbrs"] += n
        tr.note_hub("dindex", n, (in_sky, out_sky))
        return d_orig(in_sky, out_sky)

    t.append((skyline, "n_order_d_index", tr.wrap("dindex.kernel", n_order_d_index)))
    t.append((skyline, "skyline", tr.wrap("dindex.skyline", skyline.skyline)))

    # Programs.
    for cls in _program_classes():
        u_orig = cls.__dict__.get("update")
        if u_orig is not None and not getattr(u_orig, "__isabstractmethod__", False):

            def update(prog, ctx, value, cache, _orig=u_orig):
                new = _orig(prog, ctx, value, cache)
                if new != value:
                    tr.counts["program.useful"] += 1
                return new

            t.append((cls, "update", tr.wrap("program.update", update)))
        if "payload_size" in cls.__dict__:
            p_orig = cls.__dict__["payload_size"]
            p_span = tr.wrap("program.payload_size", p_orig)
            busy = [False]

            # payload_size recurses through self.payload_size: only the
            # outermost call of a message opens a span.
            def payload_size(prog, value, _orig=p_orig, _span=p_span, _busy=busy):
                if _busy[0]:
                    return _orig(prog, value)
                _busy[0] = True
                try:
                    return _span(prog, value)
                finally:
                    _busy[0] = False

            t.append((cls, "payload_size", payload_size))

    # Block runtime, as LocalEngine calls it.
    t.append((local_engine, "run_block_round", tr.wrap(
        "block_runtime.round", local_engine.run_block_round, keep=True,
        label=lambda a: (a[0], a[5]))))
    t.append((local_engine, "init_block", tr.wrap(
        "block_runtime.init_block", local_engine.init_block)))

    # Engines.
    for cls in (LocalEngine, SparkEngine):
        kind = cls.__name__
        t.append((cls, "__init__", tr.wrap(
            "decompose.engine_init", cls.__dict__["__init__"], keep=True,
            label=lambda a, k=kind: k)))
        t.append((cls, "run", tr.wrap(
            f"run.{kind}", cls.__dict__["run"], keep=True, label=lambda a, k=kind: k)))

    # decompose() driver steps.
    for key, fn in PARTITIONERS.items():

        def partition(edges, n_blocks, _fn=fn):
            part = _fn(edges, n_blocks)
            tr.counts["blocks_used"] = len(set(part.values()))
            return part

        t.append((PARTITIONERS, key,
                  tr.wrap("decompose.partition", partition, keep=True)))
    t.append((anchored, "neighbor_attr_map", tr.wrap(
        "decompose.attr_build", anchored.neighbor_attr_map, keep=True)))
    t.append((dec, "clean_edges", tr.wrap(
        "decompose.clean_edges", dec.clean_edges, keep=True)))
    for conv in ("anchored_to_skyline", "skyline_to_anchored"):
        t.append((dec, conv, tr.wrap("decompose.convert", getattr(dec, conv), keep=True)))

    # pyspark, driver side.
    w_orig = DataFrameWriter.__dict__["parquet"]

    def parquet(writer, path, *args, **kwargs):
        out = w_orig(writer, path, *args, **kwargs)
        tr.counts["barrier_bytes"] += _dir_bytes(str(path))
        return out

    t.append((DataFrameWriter, "parquet", tr.wrap("spark.write", parquet, keep=True)))
    for meth, name in (("collect", "spark.collect"), ("toPandas", "spark.collect"),
                       ("count", "spark.count"), ("localCheckpoint", "spark.checkpoint")):
        t.append((DataFrame, meth, tr.wrap(name, DataFrame.__dict__[meth], keep=True)))
    return t


def traced(tr: Tracer, fn: Callable, *args, **kwargs):
    """Call ``fn`` under a root span ``decompose`` with every layer
    patched; returns ``fn``'s result."""
    with _patched(_targets(tr)):
        return tr.wrap("decompose", fn, keep=True)(*args, **kwargs)


def replay_s(fn: Callable, inputs: list[tuple], min_total_s: float = 0.5) -> float:
    """Median wall of one pass of ``fn`` over ``inputs`` (at least five
    passes, and at least ``min_total_s`` of passes)."""
    if not inputs:
        return 0.0
    passes: list[float] = []
    while len(passes) < 5 or sum(passes) < min_total_s:
        t0 = time.perf_counter()
        for args in inputs:
            fn(*args)
        passes.append(time.perf_counter() - t0)
    return statistics.median(passes)


def hub_inputs(tr: Tracer, kind: str) -> list[tuple]:
    """Recorded hub inputs, largest first."""
    return [args for _, _, args in sorted(tr.hubs[kind], reverse=True)]


def layer_metrics(tr: Tracer, result, spark_jobs: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced call (see perfbench/README.md)."""
    root = tr.kept("decompose")[0]
    wall = root[3] - root[2]
    m: dict[str, float] = {}

    n = tr.calls("dindex.kernel")
    m["dindex.calls"] = n
    m["dindex.s"] = tr.total("dindex.kernel")
    m["dindex.mean_nbrs"] = tr.counts["dindex.nbrs"] / n if n else 0.0

    n = tr.calls("hindex")
    m["hindex.calls"] = n
    m["hindex.s"] = tr.total("hindex")
    m["hindex.mean_len"] = tr.counts["hindex.len"] / n if n else 0.0

    n = tr.calls("program.update")
    m["program.update_calls"] = n
    m["program.update_self_s"] = tr.self_time("program.update")
    m["program.useful_update_ratio"] = tr.counts["program.useful"] / n if n else 0.0
    m["program.payload_size_s"] = tr.total("program.payload_size")

    # Block runtime: a (superstep, block) slot is active when LocalEngine
    # ran the block; straggler ratio = sum of per-superstep max block time
    # over sum of per-superstep mean block time (idle blocks count 0).
    phases = [s for s in tr.spans if s[0].startswith("run.")]
    rounds = tr.kept("block_runtime.round")
    blocks = tr.counts["blocks_used"] or 1
    m["block_runtime.round_calls"] = len(rounds)
    m["block_runtime.round_self_s"] = tr.self_time("block_runtime.round")
    m["block_runtime.init_block_s"] = tr.total("block_runtime.init_block")
    m["block_runtime.route_s"] = tr.self_time("run.LocalEngine")
    local_slots = sum(
        (len(s.msgs_per_round) - 1) * blocks
        for p, s in zip(phases, result.stats.values())
        if p[4] == "LocalEngine"
    )
    m["block_runtime.active_block_ratio"] = (
        len(rounds) / local_slots if local_slots else 0.0)
    per_step: dict[tuple, list[float]] = defaultdict(list)
    for name, parent, t0, t1, (bid, rno) in rounds:
        per_step[(parent, rno)].append(t1 - t0)
    sum_max = sum(max(d) for d in per_step.values())
    sum_mean = sum(sum(d) / blocks for d in per_step.values())
    m["block_runtime.straggler_ratio"] = sum_max / sum_mean if sum_mean else 0.0

    spark_phase_s = sum(p[3] - p[2] for p in phases if p[4] == "SparkEngine")
    spark_steps = sum(
        len(s.msgs_per_round)
        for p, s in zip(phases, result.stats.values())
        if p[4] == "SparkEngine"
    )
    m["engine.init_s"] = sum(
        s[3] - s[2] for s in tr.kept("decompose.engine_init") if s[4] == "SparkEngine"
    )
    m["engine.write_s"] = tr.self_time("spark.write")
    m["engine.collect_s"] = tr.self_time("spark.collect")
    m["engine.count_s"] = tr.self_time("spark.count")
    m["engine.superstep_s"] = spark_phase_s / spark_steps if spark_steps else 0.0
    m["engine.spark_jobs"] = spark_jobs.get("jobs", 0)
    m["engine.jobs_per_superstep"] = (
        spark_jobs.get("jobs", 0) / spark_steps if spark_steps else 0.0
    )
    m["engine.spark_tasks"] = spark_jobs.get("tasks", 0)
    m["engine.task_failures"] = spark_jobs.get("failed_tasks", 0)
    m["engine.barrier_bytes"] = tr.counts["barrier_bytes"]

    m["decompose.clean_edges_s"] = tr.total("decompose.clean_edges")
    m["decompose.partition_s"] = tr.total("decompose.partition")
    m["decompose.engine_init_s"] = tr.total("decompose.engine_init")
    m["decompose.attr_build_s"] = tr.total("decompose.attr_build")
    m["decompose.convert_s"] = tr.total("decompose.convert")
    for p, key in zip(phases, result.stats):
        m[f"phase.{key}_s"] = p[3] - p[2]

    # Share of the call's wall that the wrapped layer entry points
    # account for: the self times of every span but the root and the
    # engines' own run loops (reported above as block_runtime.route_s
    # for LocalEngine; SparkEngine's driver loop is left uncovered).
    covered = sum(tr.self_time(name) for name in tr.agg
                  if name != "decompose" and not name.startswith("run."))
    m["trace.coverage"] = covered / wall if wall else 0.0
    return m
