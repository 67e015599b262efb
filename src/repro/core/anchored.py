"""Anchored-coreness D-core decomposition (Section 4, Algorithms 1-4).

Three vertex programs, chained by :func:`run_anchored`:

* :class:`HIndexProgram` — Phase I / Algorithm 2: ``k_max(v)`` as the
  fixpoint of the n-order in-H-index (and, direction-flipped, the
  ``l_max(v) = oH_G^∞(v)`` bound used by the skyline algorithm's tight
  initialization).
* :class:`LUppProgram` — Phase II / Algorithm 3: the upper bounds
  ``l_upp(k, v)`` for all ``k ∈ [0, k_max(v)]`` in batch, via the n-order
  out-H-index restricted to the induced subgraph ``G[k]`` (out-neighbors
  with ``k_max >= k``).
* :class:`RefineProgram` — Phase III / Algorithm 4: decrement ``l_upp`` by
  at most one per update (per k) until Theorem 4.3's in-/out-neighbor
  count constraints hold; the fixpoint is the exact ``l_max(k, v)``.

The result maps each vertex to the array ``[l_max(0,v), ..,
l_max(k_max(v), v)]`` — i.e. its entire anchored corenesses Φ(v).
"""
from __future__ import annotations

from typing import Any

from repro.framework.block_runtime import VertexCtx, VertexProgram
from repro.framework.hindex import h_index

class HIndexProgram(VertexProgram):
    """n-order in-H-index (``direction='in'``) or out-H-index (``'out'``).

    Value: a single int, initialised to the corresponding degree and
    lowered to the H-index of the consumed neighbors' values (Definitions
    4.2/4.3); converges to ``k_max(v)`` resp. ``l_max(v)`` (Theorems
    4.1/4.2 with k=0).
    """

    idempotent = True  # min(value, h) of a fixed cache

    def __init__(self, direction: str):
        if direction not in ("in", "out"):
            raise ValueError(direction)
        self.consumes = direction

    def init_value(self, ctx: VertexCtx) -> int:
        return len(ctx.in_nbrs) if self.consumes == "in" else len(ctx.out_nbrs)

    def update(self, ctx: VertexCtx, value: int, cache: dict[int, Any]) -> int:
        h = h_index(cache[u] for u in self.consumed_nbrs(ctx))
        return min(value, h)

    def affected(self, value: int, old: int, new: int) -> bool:
        """The neighbor stops counting towards ``h >= value``."""
        return old >= value > new


def _levels_affected(value: list[int], old: list[int], new: list[int]) -> bool:
    """Per-level H-index test of Phases II/III: at some level k the
    neighbor stops counting towards ``value[k]``. A neighbor's array has
    ``k_max + 1`` levels, so ``zip`` tests only the levels k where it is
    in G[k]."""
    return any(o >= v > n for o, v, n in zip(old, value, new))


class LUppProgram(VertexProgram):
    """Phase II: batch upper bounds ``l_upp(k, v)``, k in [0, k_max(v)].

    Value: list of ints indexed by k. ``kmax`` is Phase I's result, k_max
    of every vertex, which defines the induced subgraphs G[k]: an
    out-neighbor u participates at level k iff ``k_max(u) >= k``.
    """

    consumes = "out"
    idempotent = True  # per level, min(value[k], h_k) of a fixed cache

    def __init__(self, kmax: dict[int, int]):
        self.kmax = kmax

    def init_value(self, ctx: VertexCtx) -> list[int]:
        nk = self.kmax
        return [
            sum(1 for u in ctx.out_nbrs if nk[u] >= k) for k in range(nk[ctx.vid] + 1)
        ]

    def update(
        self, ctx: VertexCtx, value: list[int], cache: dict[int, Any]
    ) -> list[int]:
        nk = self.kmax
        new = list(value)
        for k in range(len(value)):
            h = h_index([cache[u][k] for u in ctx.out_nbrs if nk[u] >= k])
            if h < new[k]:
                new[k] = h
        return new if new != value else value

    def affected(self, value: list[int], old: list[int], new: list[int]) -> bool:
        return _levels_affected(value, old, new)

    def payload_size(self, value: list[int]) -> int:
        """One int per level: the generic walk's count, without the walk."""
        return len(value)


class RefineProgram(VertexProgram):
    """Phase III: refine ``l_upp`` to the exact ``l_max`` (Theorem 4.3).

    Value: list of ints indexed by k, initialised from Phase II's ``lupp``.
    One update decrements each level by at most 1 (matching Algorithm 4's
    per-round single decrement; block mode reaches the local fixpoint by
    re-running the update). A neighbor counts at level k only if it is in
    G[k] (``k_max >= k``) — a vertex outside the (k,0)-core can never
    support membership in a (k,l)-core.

    Not ``idempotent``: a decremented level may fail its constraint
    again on the same cache, so a changed vertex re-checks itself.
    """

    consumes = "both"

    def __init__(self, kmax: dict[int, int], lupp: dict[int, list[int]]):
        self.kmax = kmax
        self.lupp = lupp

    def init_value(self, ctx: VertexCtx) -> list[int]:
        return list(self.lupp[ctx.vid])

    def update(
        self, ctx: VertexCtx, value: list[int], cache: dict[int, Any]
    ) -> list[int]:
        nk = self.kmax
        new = list(value)
        for k in range(len(value)):
            cur = value[k]
            if cur == 0:
                continue
            n_in = 0
            for u in ctx.in_nbrs:
                if nk[u] >= k and cache[u][k] >= cur:
                    n_in += 1
            if n_in < k:
                new[k] = cur - 1
                continue
            n_out = 0
            for u in ctx.out_nbrs:
                if nk[u] >= k and cache[u][k] >= cur:
                    n_out += 1
            if n_out < cur:
                new[k] = cur - 1
        return new if new != value else value

    def affected(self, value: list[int], old: list[int], new: list[int]) -> bool:
        return _levels_affected(value, old, new)

    def payload_size(self, value: list[int]) -> int:
        """One int per level: the generic walk's count, without the walk."""
        return len(value)


# Not called; kept because perfbench's tracer wraps it by name.
def neighbor_attr_map(
    in_nbrs: dict[int, tuple], out_nbrs: dict[int, tuple], values: dict[int, int]
) -> dict[int, dict[int, int]]:
    """Per-vertex {neighbor: value} maps (e.g. the k_max of each neighbor,
    defining the induced subgraphs G[k] for Phases II/III)."""
    out = {}
    for v in in_nbrs:
        nbrs = set(in_nbrs[v]) | set(out_nbrs[v])
        out[v] = {u: values[u] for u in nbrs}
    return out


def run_anchored(engine, mode: str = "vertex"):
    """Algorithm 1: chain Phases I-III on an engine (Local or Spark).

    Returns ``(anchored, phase_stats)`` where ``anchored[v]`` is the list
    ``[l_max(0,v), ..., l_max(k_max(v), v)]`` and ``phase_stats`` is a dict
    with per-phase :class:`~repro.framework.block_runtime.RunStats`.
    """
    kmax, s1 = engine.run(HIndexProgram("in"), mode=mode)
    lupp, s2 = engine.run(LUppProgram(kmax), mode=mode)
    lmax, s3 = engine.run(RefineProgram(kmax, lupp), mode=mode)
    return lmax, {"phase1": s1, "phase2": s2, "phase3": s3}


def anchored_to_skyline(anchored: dict[int, list[int]]) -> dict[int, list]:
    """Φ(v) → SC(v): since ``l_max(k, v)`` is non-increasing in k (partial
    nesting), the skyline keeps the pairs where l strictly drops."""
    from repro.core.dindex import skyline

    return {v: skyline(list(enumerate(arr))) for v, arr in anchored.items()}
