"""Shared vertex-/block-centric superstep semantics.

Both the pure-Python reference engine (:mod:`repro.framework.local_engine`)
and the Spark distributed engine (:mod:`repro.framework.engine`) execute
rounds through the functions in this module, and drive them with the one
superstep loop :func:`run_rounds`, so their semantics and per-round stats
agree by construction:

* ``mode="vertex"``: each active vertex performs exactly one update per
  round, and every value change is broadcast to the consumers as messages
  delivered next round — including same-block consumers (this mirrors the
  paper's vertex-centric simulation inside GRAPE, Section 6).
* ``mode="block"``: within a round, a block iterates its local worklist to
  a fixpoint, with same-block deliveries applied immediately; only
  cross-block messages are emitted (and counted), matching GRAPE/Blogel.

A changed value travels once per destination block, as one
:data:`Message` naming its consumers there (as PowerGraph syncs a vertex
once per mirror machine, Gonzalez et al., OSDI 2012); the receiving block
fans it out. The stats count the deliveries, one per consumer, so
messages and volume do not depend on how the deliveries are grouped.

All programs used here are monotone (values only decrease in a
well-founded order), so the asynchronous within-block schedule converges
to the same fixpoint as the synchronous one; tests assert this against
the peeling oracle.

Activation rule (after Montresor et al., "Distributed k-Core
Decomposition", TPDS 2013): a delivery of a neighbor's new value wakes its
receiver only if :meth:`VertexProgram.affected` says the drop from the
cached old value can change the receiver's value. This is exact because
a vertex that is neither queued nor self-active is up to date — its value
equals ``update`` of its cache — and a delivery that leaves every
supporter of that value in place leaves ``update``'s result unchanged.
Values and per-round messages/changes/volume are therefore the same as
when every receiver is woken.

``LocalEngine.run`` runs inside :func:`paused_gc`, which pauses CPython's
automatic cyclic garbage collector for round 0, every round and the
value read-out. The runtime's state holds no reference cycles
(``VRec``s, caches, messages and stats are trees of tuples, lists, dicts
and ints), so reference counting frees all of its garbage; the collector
would only walk the live heap, which is the run's state, once per
allocation threshold and free nothing. The caller's GC state is restored
on exit. The switch is process-wide, so another thread collects no
cycles while a run is on, and runs in concurrent threads leave the
collector enabled once the last one ends if it was enabled before: a
concurrent caller only loses speed. The Spark engine does not pause it:
each py4j ``JavaObject`` its driver loop touches caches its methods with
a reference back to itself, a cycle that only the collector frees.
"""
from __future__ import annotations

import gc
from abc import ABC, abstractmethod
from collections import deque
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class VertexCtx:
    """Static per-vertex context handed to programs; any other input of a
    program (e.g. an earlier phase's values) is the program's own state."""

    vid: int
    in_nbrs: tuple[int, ...]
    out_nbrs: tuple[int, ...]


class VertexProgram(ABC):
    """A distributed vertex routine in the paper's message-passing style.

    ``consumes`` declares whose values a vertex reads: its in-neighbors
    (``"in"``), out-neighbors (``"out"``), or both. The engine dually
    derives the *consumers* of a vertex's value (e.g. an in-H-index value
    is consumed by the vertex's out-neighbors, Algorithm 2 line 4).
    """

    consumes: str = "both"  # "in" | "out" | "both"

    #: True when ``update(ctx, update(ctx, v, c), c) == update(ctx, v, c)``
    #: for every value and cache: a vertex that just changed is then up to
    #: date, and the runtime skips its self re-check.
    idempotent: bool = False

    @abstractmethod
    def init_value(self, ctx: VertexCtx) -> Any:
        """Round-0 value (an upper bound of the fixpoint)."""

    @abstractmethod
    def update(self, ctx: VertexCtx, value: Any, cache: dict[int, Any]) -> Any:
        """Recompute the value from the neighbor cache.

        Must be monotone non-increasing. ``cache`` maps every consumed
        neighbor's vid to its last known value: round 0 sends each value to
        every consumer, and round 1 delivers it before any update.
        """

    def affected(self, value: Any, old: Any, new: Any) -> bool:
        """Whether replacing one consumed neighbor's cached ``old`` value
        by ``new`` can change what ``update`` returns for a receiver whose
        ``value`` is up to date. False must be exact: the runtime then
        skips the receiver's update. The default wakes the receiver on
        every delivery."""
        return True

    def payload_size(self, value: Any) -> int:
        """Communication volume of one message carrying ``value``, in
        integer units. AC's Phase II/III messages carry an l-array per k
        (size k_max+1); SC messages carry a skyline (2 ints per pair) —
        this is what makes SC cheaper on the wire (Fig. 4(b)) even when
        the message *counts* are similar."""
        if isinstance(value, int):
            return 1
        if isinstance(value, (list, tuple)):
            return sum(self.payload_size(v) for v in value)
        return 1

    def consumed_nbrs(self, ctx: VertexCtx) -> tuple[int, ...]:
        if self.consumes == "in":
            return ctx.in_nbrs
        if self.consumes == "out":
            return ctx.out_nbrs
        return tuple(dict.fromkeys(ctx.in_nbrs + ctx.out_nbrs))

    def consumers(self, ctx: VertexCtx) -> tuple[int, ...]:
        if self.consumes == "in":
            return ctx.out_nbrs
        if self.consumes == "out":
            return ctx.in_nbrs
        return tuple(dict.fromkeys(ctx.in_nbrs + ctx.out_nbrs))


@dataclass
class VRec:
    """Mutable per-vertex state held by its owning block."""

    ctx: VertexCtx
    #: The consumers of the value, grouped by block: ((block, (vid, ...)),
    #: ...), blocks in first-seen order and vids in ``program.consumers``
    #: order.
    consumers: tuple[tuple[int, tuple[int, ...]], ...]
    value: Any = None
    cache: dict[int, Any] = field(default_factory=dict)
    changed_round: int = 0
    self_active: bool = False  # re-check next round after a self-change (VC)


#: A message: (dst_block, src_vid, payload, dst_vids), one per changed
#: source and destination block. The receiving block fans it out to each
#: of ``dst_vids``, and the stats count each such delivery: a message row
#: counts ``len(dst_vids)`` messages and ``len(dst_vids)`` payloads of
#: volume.
Message = tuple[int, int, Any, tuple[int, ...]]


@contextmanager
def paused_gc() -> Iterator[None]:
    """Pause automatic cyclic garbage collection for the ``with`` body (or
    the decorated function) and re-enable it afterwards if it was enabled
    before; see the module docstring for why a run needs none."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def init_block(
    block_id: int, recs: dict[int, VRec], program: VertexProgram, mode: str
) -> list[Message]:
    """Round 0: compute initial values and send each to its consumers, one
    message per consumer block.

    In block mode same-block consumer caches are filled in place (no
    message), mirroring a block that knows its own vertices.
    """
    out: list[Message] = []
    for rec in recs.values():
        rec.value = program.init_value(rec.ctx)
        rec.changed_round = 0
    for vid, rec in recs.items():
        for cblock, cids in rec.consumers:
            if mode == "block" and cblock == block_id:
                for cid in cids:
                    recs[cid].cache[vid] = rec.value
            else:
                out.append((cblock, vid, rec.value, cids))
    return out


def run_block_round(
    block_id: int,
    recs: dict[int, VRec],
    incoming: list[tuple[int, Any, tuple[int, ...]]],
    program: VertexProgram,
    mode: str,
    round_no: int,
) -> tuple[set[int], list[Message]]:
    """Execute one superstep for one block.

    ``incoming`` holds the (src_vid, payload, dst_vids) of the messages
    addressed to this block, each delivered to every vertex of
    ``dst_vids`` in turn. Returns the set of vertices whose value changed
    and the outgoing messages. Round 1 activates every vertex (the "after
    receiving all messages" first update of Algorithms 2-5); later rounds
    are message-driven, plus vertices that changed in the previous round
    (a vertex whose own decrement may re-trigger its own constraint must
    re-check itself — e.g. Algorithm 4's one-per-round decrements). An
    ``idempotent`` program skips that re-check: its changed vertex already
    equals ``update`` of its cache.

    A message, or in block mode a same-block delivery to a consumer that
    is not already queued, activates its receiver only if
    ``program.affected(value, old, new)`` holds for the receiver's value
    and the cache entry it overwrites. Skipped receivers are up to date
    and stay so, hence the results do not depend on the filter.
    """
    # Insertion-ordered set of woken vertices: all of them in round 1.
    hit: dict[int, None] = dict.fromkeys(recs) if round_no == 1 else {}
    for src, payload, dsts in incoming:
        for dst in dsts:
            rec = recs[dst]
            if dst not in hit and program.affected(
                rec.value, rec.cache[src], payload
            ):
                hit[dst] = None
            rec.cache[src] = payload

    active = list(hit)
    active += [v for v, r in recs.items() if r.self_active and v not in hit]
    for rec in recs.values():
        rec.self_active = False

    changed: set[int] = set()
    outgoing: list[Message] = []
    recheck = not program.idempotent

    if mode == "vertex":
        for vid in active:
            rec = recs[vid]
            new = program.update(rec.ctx, rec.value, rec.cache)
            if new != rec.value:
                rec.value = new
                rec.changed_round = round_no
                rec.self_active = recheck
                changed.add(vid)
        for vid in changed:
            rec = recs[vid]
            for cblock, cids in rec.consumers:
                outgoing.append((cblock, vid, rec.value, cids))
        return changed, outgoing

    # Block mode: iterate to a local fixpoint with immediate same-block
    # delivery; emit only cross-block messages, once per changed vertex
    # and consumer block.
    work: deque[int] = deque(active)
    queued: set[int] = set(active)
    budget = 10_000 * max(1, len(recs)) ** 2
    while work:
        budget -= 1
        if budget < 0:  # non-monotone program guard
            raise RuntimeError("block-local iteration did not converge")
        vid = work.popleft()
        queued.discard(vid)
        rec = recs[vid]
        new = program.update(rec.ctx, rec.value, rec.cache)
        if new == rec.value:
            continue
        rec.value = new
        rec.changed_round = round_no
        changed.add(vid)
        for cblock, cids in rec.consumers:
            if cblock == block_id:
                for cid in cids:
                    crec = recs[cid]
                    if cid not in queued and program.affected(
                        crec.value, crec.cache[vid], new
                    ):
                        work.append(cid)
                        queued.add(cid)
                    crec.cache[vid] = new
                break
        if recheck and vid not in queued:  # e.g. stepwise refinement
            work.append(vid)
            queued.add(vid)
    for vid in changed:
        rec = recs[vid]
        for cblock, cids in rec.consumers:
            if cblock != block_id:
                outgoing.append((cblock, vid, rec.value, cids))
    return changed, outgoing


@dataclass
class RunStats:
    """Per-run convergence metrics (Exp-1/2 and Fig. 4's message counts)."""

    msgs_per_round: list[int] = field(default_factory=list)  # index 0 = init
    changed_per_round: list[int] = field(default_factory=list)
    volume_per_round: list[int] = field(default_factory=list)  # int units
    converge_round: dict[int, int] = field(default_factory=dict)
    #: Where the rounds ran, not what they computed: the first round run
    #: on the driver (1 on LocalEngine, the tail's first round on
    #: SparkEngine), or None when every round ran on Spark.
    driver_round: int | None = field(default=None, compare=False)

    @property
    def rounds(self) -> int:
        """Iterations until convergence: the last round with any change or
        message traffic (trailing all-quiet detection rounds excluded)."""
        last = 0
        for r in range(1, len(self.msgs_per_round)):
            if self.msgs_per_round[r] > 0 or self.changed_per_round[r] > 0:
                last = r
        return last

    @property
    def total_messages(self) -> int:
        return sum(self.msgs_per_round)

    @property
    def total_volume(self) -> int:
        """Total communication volume in integer units (Fig. 4(b)'s
        communication-overhead metric)."""
        return sum(self.volume_per_round)

    def convergence_rate(self, upto_round: int) -> float:
        """Fraction of vertices whose value never changes after
        ``upto_round`` (Exp-2's convergence rate)."""
        if not self.converge_round:
            return 1.0
        n_ok = sum(1 for r in self.converge_round.values() if r <= upto_round)
        return n_ok / len(self.converge_round)


def run_rounds(step: Callable[[int, set[int]], dict[int, tuple[int, int, int]]],
               stats: list[RunStats], max_rounds: int) -> None:
    """The superstep loop of both engines, for programs ``0..len(stats)-1``:
    ``step(r, live)`` runs round ``r`` and returns, per live program, its
    ``(messages, changed vertices, volume)``. A program leaves ``live`` at
    its first all-quiet round: with no messages, no changes and so no
    self-active vertex, every later round is quiet for it too."""
    live = set(range(len(stats)))
    for r in range(1, max_rounds + 1):
        for i, (n_msgs, n_changed, volume) in step(r, live).items():
            stats[i].msgs_per_round.append(n_msgs)
            stats[i].changed_per_round.append(n_changed)
            stats[i].volume_per_round.append(volume)
            if n_msgs == 0 and n_changed == 0:
                live.discard(i)
        if not live:
            return
    raise RuntimeError(f"no convergence within {max_rounds} rounds")
