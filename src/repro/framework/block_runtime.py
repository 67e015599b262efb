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
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

#: Sentinel for "value not yet received from this neighbor": programs treat
#: it as +infinity, which is safe because every value iterates downward
#: from an upper bound.
UNKNOWN = None


@dataclass(frozen=True)
class VertexCtx:
    """Static per-vertex context handed to programs."""

    vid: int
    in_nbrs: tuple[int, ...]
    out_nbrs: tuple[int, ...]
    attrs: dict[str, Any]


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

        Must be monotone non-increasing. ``cache`` maps a consumed
        neighbor's vid to its last known value, or :data:`UNKNOWN`.
        """

    def affected(self, value: Any, old: Any, new: Any) -> bool:
        """Whether replacing one consumed neighbor's cached ``old`` value
        (:data:`UNKNOWN` counts as the top value) by ``new`` can change
        what ``update`` returns for a receiver whose ``value`` is up to
        date. False must be exact: the runtime then skips the receiver's
        update. The default wakes the receiver on every delivery."""
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
    block: int
    consumers: tuple[tuple[int, int], ...]  # (consumer vid, consumer block)
    value: Any = None
    cache: dict[int, Any] = field(default_factory=dict)
    changed_round: int = 0
    self_active: bool = False  # re-check next round after a self-change (VC)


def new_rec(
    program: VertexProgram,
    vid: int,
    in_nbrs: tuple[int, ...],
    out_nbrs: tuple[int, ...],
    attrs: dict[str, Any],
    partition: dict[int, int],
) -> VRec:
    """A vertex's state before round 0: its context, its block, and the
    (vid, block) routing list of its value's consumers."""
    ctx = VertexCtx(vid=vid, in_nbrs=in_nbrs, out_nbrs=out_nbrs, attrs=attrs)
    consumers = tuple((c, partition[c]) for c in program.consumers(ctx))
    return VRec(ctx=ctx, block=partition[vid], consumers=consumers)


#: A message: (dst_block, dst_vid, src_vid, payload).
Message = tuple[int, int, int, Any]


def init_block(
    block_id: int, recs: dict[int, VRec], program: VertexProgram, mode: str
) -> list[Message]:
    """Round 0: compute initial values and broadcast them to consumers.

    In block mode same-block consumer caches are filled in place (no
    message), mirroring a block that knows its own vertices.
    """
    out: list[Message] = []
    for rec in recs.values():
        rec.value = program.init_value(rec.ctx)
        rec.changed_round = 0
    for vid, rec in recs.items():
        for cid, cblock in rec.consumers:
            if mode == "block" and cblock == block_id:
                recs[cid].cache[vid] = rec.value
            else:
                out.append((cblock, cid, vid, rec.value))
    return out


def run_block_round(
    block_id: int,
    recs: dict[int, VRec],
    incoming: list[tuple[int, int, Any]],
    program: VertexProgram,
    mode: str,
    round_no: int,
) -> tuple[set[int], list[Message]]:
    """Execute one superstep for one block.

    ``incoming`` holds (dst_vid, src_vid, payload) triples addressed to
    this block. Returns the set of vertices whose value changed and the
    outgoing messages. Round 1 activates every vertex (the "after
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
    for dst, src, payload in incoming:
        rec = recs[dst]
        if dst not in hit and program.affected(
            rec.value, rec.cache.get(src), payload
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
            for cid, cblock in rec.consumers:
                outgoing.append((cblock, cid, vid, rec.value))
        return changed, outgoing

    # Block mode: iterate to a local fixpoint with immediate same-block
    # delivery; emit only cross-block messages, once per changed vertex.
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
        for cid, cblock in rec.consumers:
            if cblock != block_id:
                continue
            crec = recs[cid]
            if cid not in queued and program.affected(
                crec.value, crec.cache.get(vid), new
            ):
                work.append(cid)
                queued.add(cid)
            crec.cache[vid] = new
        if recheck and vid not in queued:  # e.g. stepwise refinement
            work.append(vid)
            queued.add(vid)
    for vid in changed:
        rec = recs[vid]
        seen: set[int] = set()
        for cid, cblock in rec.consumers:
            if cblock != block_id and cid not in seen:
                seen.add(cid)
                outgoing.append((cblock, cid, vid, rec.value))
    return changed, outgoing


@dataclass
class RunStats:
    """Per-run convergence metrics (Exp-1/2 and Fig. 4's message counts)."""

    msgs_per_round: list[int] = field(default_factory=list)  # index 0 = init
    changed_per_round: list[int] = field(default_factory=list)
    volume_per_round: list[int] = field(default_factory=list)  # int units
    converge_round: dict[int, int] = field(default_factory=dict)

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
