"""Block-runtime semantics tests: message accounting, activation rules,
mode equivalence, and the convergence metrics."""
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import anchored as anchored_mod
from repro.core import skyline as skyline_mod
from repro.core.anchored import (
    HIndexProgram,
    LUppProgram,
    RefineProgram,
    run_anchored,
)
from repro.core.dindex import skyline
from repro.core.skyline import SkylineProgram, run_skyline
from repro.framework.block_runtime import (
    UNKNOWN,
    RunStats,
    VertexCtx,
    VertexProgram,
    run_rounds,
)
from repro.framework.local_engine import LocalEngine, adjacency
from repro.framework.partition import PARTITIONERS, hash_partition, metis_lite_partition
from repro.graphs.datasets import load, paper_figure2
from repro.graphs.generators import chung_lu_digraph, er_digraph

EDGES = er_digraph(80, 500, seed=2)
GRAPH = adjacency(EDGES)


def test_adjacency_dedupes_and_covers():
    g = adjacency([(1, 2), (1, 2), (2, 3), (3, 3), (2, 1)])
    assert g.in_nbrs[2] == (1,) and g.out_nbrs[1] == (2,)
    assert g.in_nbrs[3] == (2,) and g.out_nbrs[3] == ()  # self-loop dropped
    assert g.vertices == (1, 2, 3)


def test_partition_must_cover_vertices():
    with pytest.raises(ValueError):
        LocalEngine(adjacency([(1, 2)]), {1: 0})


def test_unknown_mode_rejected():
    eng = LocalEngine(GRAPH)
    with pytest.raises(ValueError):
        eng.run(HIndexProgram("in"), mode="banana")


def test_hindex_direction_validation():
    with pytest.raises(ValueError):
        HIndexProgram("sideways")


def test_vertex_and_block_modes_same_fixpoint():
    for direction in ("in", "out"):
        prog = HIndexProgram(direction)
        vals = []
        for mode in ("vertex", "block"):
            for nb in (1, 3, 7):
                eng = LocalEngine(GRAPH, hash_partition(GRAPH, nb))
                v, _ = eng.run(prog, mode=mode)
                vals.append(v)
        assert all(v == vals[0] for v in vals)


def test_block_mode_fewer_or_equal_messages():
    """Block mode counts only cross-block traffic, so it can never send
    more messages than vertex mode on the same partition."""
    part = hash_partition(GRAPH, 4)
    eng = LocalEngine(GRAPH, part)
    _, s_v = eng.run(HIndexProgram("in"), mode="vertex")
    _, s_b = eng.run(HIndexProgram("in"), mode="block")
    assert s_b.total_messages <= s_v.total_messages


def test_single_block_block_mode_sends_nothing():
    eng = LocalEngine(GRAPH)  # one block
    vals, stats = eng.run(HIndexProgram("in"), mode="block")
    assert stats.total_messages == 0
    assert stats.rounds <= 1  # everything converges inside round 1
    eng2 = LocalEngine(GRAPH)
    vals2, _ = eng2.run(HIndexProgram("in"), mode="vertex")
    assert vals == vals2


def test_block_mode_rounds_never_exceed_vertex_mode():
    for nb in (2, 4, 8):
        part = hash_partition(GRAPH, nb)
        eng = LocalEngine(GRAPH, part)
        _, s_v = eng.run(HIndexProgram("in"), mode="vertex")
        _, s_b = eng.run(HIndexProgram("in"), mode="block")
        assert s_b.rounds <= s_v.rounds


def test_locality_partition_cuts_messages():
    """A locality partitioner must reduce cross-block traffic vs HASH in
    block mode (Exp-6's communication result)."""
    edges = chung_lu_digraph(200, 1_500, seed=5)
    g = adjacency(edges)
    eng_h = LocalEngine(g, hash_partition(g, 8))
    eng_m = LocalEngine(g, metis_lite_partition(g, 8))
    _, s_h = eng_h.run(HIndexProgram("in"), mode="block")
    _, s_m = eng_m.run(HIndexProgram("in"), mode="block")
    assert s_m.total_messages < s_h.total_messages


def test_monotone_iterates_non_increasing():
    """Theorem 4.1's workhorse: per-vertex iH values never increase
    across rounds (observed through a recording program)."""
    history: dict[int, list[int]] = {}

    class Recording(HIndexProgram):
        def update(self, ctx, value, cache):
            new = super().update(ctx, value, cache)
            history.setdefault(ctx.vid, []).append(new)
            return new

    eng = LocalEngine(GRAPH)
    eng.run(Recording("in"), mode="vertex")
    for vals in history.values():
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_runstats_metrics():
    eng = LocalEngine(GRAPH, hash_partition(GRAPH, 4))
    _, stats = eng.run(HIndexProgram("in"), mode="vertex")
    assert stats.rounds >= 1
    assert stats.total_messages == sum(stats.msgs_per_round)
    assert set(stats.converge_round) == set(eng.vertices)
    # convergence_rate is monotone in the round index and hits 1.0
    rates = [stats.convergence_rate(r) for r in range(stats.rounds + 1)]
    assert all(a <= b for a, b in zip(rates, rates[1:]))
    assert rates[-1] == 1.0


def test_run_rounds_stops_each_program_at_its_first_quiet_round():
    """The shared superstep loop, driven by a fake engine step: each
    program's stats end at its own first round with no messages and no
    changes (a round with changes but no messages is not quiet), and a
    program that left ``live`` is not stepped again."""
    script = {
        0: [(3, 1, 6), (0, 0, 0)],
        1: [(2, 2, 2), (0, 1, 0), (1, 0, 4), (0, 0, 0)],
        2: [(0, 0, 0)],
    }
    calls = []

    def step(r, live):
        calls.append((r, set(live)))
        return {i: script[i][r - 1] for i in live}

    stats = [RunStats(msgs_per_round=[9], changed_per_round=[0],
                      volume_per_round=[9]) for _ in script]
    run_rounds(step, stats, max_rounds=10)
    assert calls == [(1, {0, 1, 2}), (2, {0, 1}), (3, {1}), (4, {1})]
    for s, rounds in zip(stats, script.values()):
        assert s.msgs_per_round == [9] + [m for m, _, _ in rounds]
        assert s.changed_per_round == [0] + [c for _, c, _ in rounds]
        assert s.volume_per_round == [9] + [v for _, _, v in rounds]


def test_run_rounds_raises_after_max_rounds():
    calls = []

    def step(r, live):
        calls.append(r)
        return {i: (i, i, i) for i in live}  # program 1 never goes quiet

    stats = [RunStats(), RunStats()]
    with pytest.raises(RuntimeError, match="no convergence within 3 rounds"):
        run_rounds(step, stats, max_rounds=3)
    assert calls == [1, 2, 3]
    assert stats[0].msgs_per_round == [0]
    assert stats[1].msgs_per_round == [1, 1, 1]


def test_non_monotone_program_guard():
    """A program that oscillates must trip the block-local budget guard
    instead of hanging."""

    class Oscillator(VertexProgram):
        consumes = "both"

        def init_value(self, ctx):
            return 0

        def update(self, ctx, value, cache):
            return 1 - value

    eng = LocalEngine(adjacency([(1, 2), (2, 1)]))
    with pytest.raises(RuntimeError):
        eng.run(Oscillator(), mode="block", max_rounds=50)


def test_vertex_mode_oscillator_hits_round_cap():
    class Oscillator(VertexProgram):
        consumes = "both"

        def init_value(self, ctx):
            return 0

        def update(self, ctx, value, cache):
            return 1 - value

    eng = LocalEngine(adjacency([(1, 2), (2, 1)]))
    with pytest.raises(RuntimeError):
        eng.run(Oscillator(), mode="vertex", max_rounds=50)


# --- Activation filter -------------------------------------------------------

SMALL = st.integers(0, 4)


def _draw_levels(data, n_levels):
    return [data.draw(SMALL) for _ in range(n_levels)]


def _draw_skyline(data):
    pairs = data.draw(st.lists(st.tuples(SMALL, SMALL), min_size=1, max_size=4))
    return skyline(pairs)


def _draw_entry(data, prog, nbr_kmax, u):
    """A neighbor's value as the program's update reads it."""
    if isinstance(prog, HIndexProgram):
        return data.draw(SMALL)
    if isinstance(prog, SkylineProgram):
        return _draw_skyline(data)
    return _draw_levels(data, nbr_kmax[u] + 1)


def _draw_drop(data, prog, nbr_kmax, u, old):
    """A neighbor's next value: below or equal to ``old``, any if unknown."""
    if old is None:
        return _draw_entry(data, prog, nbr_kmax, u)
    if isinstance(prog, HIndexProgram):
        return data.draw(st.integers(0, old))
    if isinstance(prog, SkylineProgram):
        return skyline(
            (data.draw(st.integers(0, k)), data.draw(st.integers(0, l)))
            for k, l in old
        )
    return [data.draw(st.integers(0, x)) for x in old]


def _draw_vertex(data, prog):
    """A vertex's context and a cache of its consumed neighbors' values."""
    nbrs = st.lists(st.integers(1, 6), unique=True, max_size=6).map(tuple)
    ctx_nbrs = {"in_nbrs": data.draw(nbrs), "out_nbrs": data.draw(nbrs)}
    nbr_kmax = {u: data.draw(st.integers(0, 3))
                for u in ctx_nbrs["in_nbrs"] + ctx_nbrs["out_nbrs"]}
    kmax = data.draw(st.integers(0, 3))
    ctx = VertexCtx(vid=0, attrs={"kmax": kmax, "nbr_kmax": nbr_kmax},
                    **ctx_nbrs)
    consumed = prog.consumed_nbrs(ctx)
    assume(consumed)
    # A neighbor missing from the cache has not sent yet: UNKNOWN.
    cache = {
        u: _draw_entry(data, prog, nbr_kmax, u)
        for u in consumed if data.draw(st.booleans())
    }
    return ctx, cache


PROGRAMS = [
    HIndexProgram("in"), HIndexProgram("out"), LUppProgram(), RefineProgram(),
    SkylineProgram(),
]


def _prog_id(p):
    return f"{type(p).__name__}-{p.consumes}"


@pytest.mark.parametrize("prog", PROGRAMS, ids=_prog_id)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_affected_false_means_update_keeps_value(prog, data):
    """Soundness of the activation filter: for an up-to-date vertex and one
    neighbor's drop old -> new, ``affected`` is False only if ``update``
    on the new cache still returns the vertex's value."""
    ctx, cache = _draw_vertex(data, prog)
    nbr_kmax, kmax = ctx.attrs["nbr_kmax"], ctx.attrs["kmax"]
    consumed = prog.consumed_nbrs(ctx)
    # Up to date: iterate update from an arbitrary start to its fixpoint.
    if isinstance(prog, HIndexProgram):
        value = data.draw(SMALL)
    elif isinstance(prog, SkylineProgram):
        value = None
    else:
        value = _draw_levels(data, kmax + 1)
    while (nxt := prog.update(ctx, value, cache)) != value:
        value = nxt

    u = data.draw(st.sampled_from(consumed))
    old = cache.get(u, UNKNOWN)
    new = _draw_drop(data, prog, nbr_kmax, u, old)
    if not prog.affected(value, old, new):
        assert prog.update(ctx, value, {**cache, u: new}) == value


@pytest.mark.parametrize("prog", [p for p in PROGRAMS if p.idempotent],
                         ids=_prog_id)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_idempotent_program_update_is_idempotent(prog, data):
    """A program that declares ``idempotent`` is: updating again on the
    same cache returns the same value, so a vertex that just changed is
    up to date and needs no self re-check."""
    ctx, cache = _draw_vertex(data, prog)
    if isinstance(prog, HIndexProgram):
        value = data.draw(SMALL)
    elif isinstance(prog, SkylineProgram):
        value = _draw_skyline(data)
    else:
        value = _draw_levels(data, ctx.attrs["kmax"] + 1)
    once = prog.update(ctx, value, cache)
    assert prog.update(ctx, once, cache) == once


def test_refine_program_is_not_idempotent():
    """Algorithm 4 lowers a level by at most one per update, so a second
    update on the same cache can lower it again: Phase III keeps the self
    re-check."""
    prog = RefineProgram()
    ctx = VertexCtx(vid=0, in_nbrs=(), out_nbrs=(1,),
                    attrs={"kmax": 0, "nbr_kmax": {1: 0}})
    cache = {1: [0]}
    once = prog.update(ctx, [2], cache)
    assert once == [1]
    assert prog.update(ctx, once, cache) == [0]
    assert not prog.idempotent


def _subclass_programs(monkeypatch, **overrides):
    """Make run_anchored/run_skyline build subclasses of their programs
    with ``overrides`` as class attributes."""
    for mod, name in [
        (anchored_mod, "HIndexProgram"), (anchored_mod, "LUppProgram"),
        (anchored_mod, "RefineProgram"), (skyline_mod, "HIndexProgram"),
        (skyline_mod, "SkylineProgram"),
    ]:
        cls = getattr(mod, name)
        monkeypatch.setattr(mod, name, type(name, (cls,), overrides))


DRIFT_GRAPHS = {"WV": list(load("WV")), "fig2": paper_figure2()}


def _assert_no_drift(gname, algo, mode, pname, monkeypatch, **overrides):
    """Values and per-round stats equal those of the programs subclassed
    with ``overrides``."""
    g = adjacency(DRIFT_GRAPHS[gname])
    part = PARTITIONERS[pname](g, 8)

    def run():
        values, stats = (run_anchored if algo == "AC" else run_skyline)(
            LocalEngine(g, part), mode=mode
        )
        return values, {
            phase: (s.msgs_per_round, s.changed_per_round,
                    s.volume_per_round, s.converge_round)
            for phase, s in stats.items()
        }

    filtered = run()
    _subclass_programs(monkeypatch, **overrides)
    assert run() == filtered


@pytest.mark.parametrize("gname", sorted(DRIFT_GRAPHS))
@pytest.mark.parametrize("algo", ["AC", "SC"])
@pytest.mark.parametrize("mode", ["vertex", "block"])
@pytest.mark.parametrize("pname", ["hash", "metis"])
def test_activation_filter_does_not_drift(gname, algo, mode, pname, monkeypatch):
    """Skipping unaffected receivers changes no value and no per-round
    stat against waking every receiver of every delivery."""
    _assert_no_drift(gname, algo, mode, pname, monkeypatch,
                     affected=VertexProgram.affected)


@pytest.mark.parametrize("gname", sorted(DRIFT_GRAPHS))
@pytest.mark.parametrize("algo", ["AC", "SC"])
@pytest.mark.parametrize("mode", ["vertex", "block"])
@pytest.mark.parametrize("pname", ["hash", "metis"])
def test_self_recheck_skip_does_not_drift(gname, algo, mode, pname, monkeypatch):
    """Skipping an idempotent program's self re-check changes no value
    and no per-round stat against re-checking every changed vertex."""
    _assert_no_drift(gname, algo, mode, pname, monkeypatch, idempotent=False)
