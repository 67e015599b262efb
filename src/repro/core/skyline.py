"""Skyline-coreness D-core decomposition (Section 5, Algorithms 5-6).

Each vertex iterates its n-order D-index (Definition 5.4) from the tight
initialisation ``D⁰(v) = {(k_max(v), l_max(v))}`` (Optimization-3, both
bounds computed with the Phase-I H-index machinery of Algorithm 2 run on
the in- and out-side respectively) down to its skyline corenesses SC(v)
(Theorem 5.1).
"""
from __future__ import annotations

from typing import Any

from repro.core.anchored import BIG, HIndexProgram
from repro.core.dindex import Pair, n_order_d_index, skyline
from repro.framework.block_runtime import VertexCtx, VertexProgram

#: Skyline used for neighbors whose D-index has not arrived yet —
#: dominates everything, hence safe for the monotone decreasing iteration.
_TOP = [(BIG, BIG)]


class SkylineProgram(VertexProgram):
    """Algorithm 5's per-vertex routine; the update is Algorithm 6.

    Value: the vertex's current D-index — a list of (k, l) tuples sorted
    by k descending. ``attrs['init_pair']`` carries (k_max(v), l_max(v)).
    """

    consumes = "both"
    idempotent = True  # the D-index of the cache, whatever the value

    def init_value(self, ctx: VertexCtx) -> list[Pair]:
        k0, l0 = ctx.attrs["init_pair"]
        return [(int(k0), int(l0))]

    def update(
        self, ctx: VertexCtx, value: list[Pair], cache: dict[int, Any]
    ) -> list[Pair]:
        in_sky = [
            _TOP if cache.get(u) is None else cache[u] for u in ctx.in_nbrs
        ]
        out_sky = [
            _TOP if cache.get(u) is None else cache[u] for u in ctx.out_nbrs
        ]
        new = n_order_d_index(in_sky, out_sky)
        return new if new != value else value

    def affected(
        self, value: list[Pair], old: list[Pair] | None, new: list[Pair]
    ) -> bool:
        """Some pair of ``value`` is dominated-or-equalled by a pair of
        ``old`` and by no pair of ``new``: the neighbor stops supporting it.

        All three are k-descending skylines, so the pairs with ``k' >= k``
        form a prefix whose last pair has the largest l. One merged scan
        tracks that l for ``old`` and ``new`` as k falls."""
        if old is None:
            old = _TOP
        i = j = 0
        l_old = l_new = -1
        for k, l in value:
            while i < len(old) and old[i][0] >= k:
                l_old = old[i][1]
                i += 1
            while j < len(new) and new[j][0] >= k:
                l_new = new[j][1]
                j += 1
            if l_old >= l > l_new:
                return True
        return False

    def payload_size(self, value: list[Pair]) -> int:
        """Two ints per pair: the generic walk's count, without the walk."""
        return 2 * len(value)


def run_skyline(engine, mode: str = "vertex"):
    """Algorithm 5 end-to-end on an engine (Local or Spark).

    Returns ``(sc, stats)`` where ``sc[v]`` is SC(v) (k-descending) and
    ``stats`` holds the D-index loop's RunStats under ``"dindex"`` plus
    the two independent H-index initialisation runs (``"init_in"``/``"init_out"``).
    The paper's Table 4 reports the D-index loop rounds as the SC rounds.
    """
    init = [HIndexProgram("in"), HIndexProgram("out")]
    (kmax, s_in), (lmax, s_out) = engine.run_many(init, mode=mode)
    attrs = {v: {"init_pair": [kmax[v], lmax[v]]} for v in kmax}
    sc, s_d = engine.run(SkylineProgram(), mode=mode, attrs=attrs)
    sc = {v: skyline(pairs) for v, pairs in sc.items()}
    return sc, {"init_in": s_in, "init_out": s_out, "dindex": s_d}


def skyline_to_anchored(sc: dict[int, list[Pair]]) -> dict[int, list[int]]:
    """SC(v) → Φ(v): ``l_max(k, v) = max{l' : (k', l') ∈ SC(v), k' >= k}``
    for ``k <= k_max(v) = max k' in SC(v)`` (partial nesting)."""
    out: dict[int, list[int]] = {}
    for v, pairs in sc.items():
        pairs = skyline(pairs)  # k desc, l asc
        kmax = pairs[0][0] if pairs else 0
        arr = []
        for k in range(kmax + 1):
            best = max((l for kk, l in pairs if kk >= k), default=0)
            arr.append(best)
        out[v] = arr
    return out
