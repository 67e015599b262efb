"""Block-runtime semantics tests: message accounting, activation rules,
mode equivalence, the convergence metrics, and the paused cyclic GC."""
import gc

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
    RunStats,
    VertexCtx,
    VertexProgram,
    paused_gc,
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


def test_explicit_empty_partition_is_not_the_default():
    """Only ``partition=None`` means one block: an empty partition of a
    non-empty graph misses its vertices, as on SparkEngine."""
    with pytest.raises(ValueError):
        LocalEngine(adjacency([(1, 2), (2, 1)]), {})
    assert LocalEngine(adjacency([])).partition == {}
    assert LocalEngine(adjacency([(1, 2)])).partition == {1: 0, 2: 0}


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
    assert set(stats.converge_round) == set(eng.graph.vertices)
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


def _draw_entry(data, prog, kmax, u):
    """A neighbor's value as the program's update reads it."""
    if isinstance(prog, HIndexProgram):
        return data.draw(SMALL)
    if isinstance(prog, SkylineProgram):
        return _draw_skyline(data)
    return _draw_levels(data, kmax[u] + 1)


def _draw_drop(data, prog, old):
    """A neighbor's next value: below or equal to ``old``."""
    if isinstance(prog, HIndexProgram):
        return data.draw(st.integers(0, old))
    if isinstance(prog, SkylineProgram):
        return skyline(
            (data.draw(st.integers(0, k)), data.draw(st.integers(0, l)))
            for k, l in old
        )
    return [data.draw(st.integers(0, x)) for x in old]


def _draw_vertex(data, make):
    """A program built by ``make`` from a drawn k_max map, the context of
    its vertex 0 and a cache of its consumed neighbors' values."""
    nbrs = st.lists(st.integers(1, 6), unique=True, max_size=6).map(tuple)
    ctx = VertexCtx(vid=0, in_nbrs=data.draw(nbrs), out_nbrs=data.draw(nbrs))
    kmax = {u: data.draw(st.integers(0, 3)) for u in ctx.in_nbrs + ctx.out_nbrs}
    kmax[0] = data.draw(st.integers(0, 3))
    prog = make(kmax)
    consumed = prog.consumed_nbrs(ctx)
    assume(consumed)
    # Round 1 delivers every consumed neighbor's value before any update.
    cache = {u: _draw_entry(data, prog, kmax, u) for u in consumed}
    return prog, ctx, cache, kmax


#: Each program under test, built from a k_max map as its phase gets it.
#: ``lupp`` and ``lmax`` only feed ``init_value``, which these tests skip.
PROGRAMS = {
    "HIndexProgram-in": lambda kmax: HIndexProgram("in"),
    "HIndexProgram-out": lambda kmax: HIndexProgram("out"),
    "LUppProgram-out": lambda kmax: LUppProgram(kmax),
    "RefineProgram-both": lambda kmax: RefineProgram(kmax, lupp={}),
    "SkylineProgram-both": lambda kmax: SkylineProgram(kmax, lmax={}),
}


@pytest.mark.parametrize("name", list(PROGRAMS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_affected_false_means_update_keeps_value(name, data):
    """Soundness of the activation filter: for an up-to-date vertex and one
    neighbor's drop old -> new, ``affected`` is False only if ``update``
    on the new cache still returns the vertex's value."""
    prog, ctx, cache, kmax = _draw_vertex(data, PROGRAMS[name])
    consumed = prog.consumed_nbrs(ctx)
    # Up to date: iterate update from an arbitrary start to its fixpoint.
    if isinstance(prog, HIndexProgram):
        value = data.draw(SMALL)
    elif isinstance(prog, SkylineProgram):
        value = None
    else:
        value = _draw_levels(data, kmax[0] + 1)
    while (nxt := prog.update(ctx, value, cache)) != value:
        value = nxt

    u = data.draw(st.sampled_from(consumed))
    old = cache[u]
    new = _draw_drop(data, prog, old)
    if not prog.affected(value, old, new):
        assert prog.update(ctx, value, {**cache, u: new}) == value


@pytest.mark.parametrize(
    "name", [n for n, make in PROGRAMS.items() if make({}).idempotent])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_idempotent_program_update_is_idempotent(name, data):
    """A program that declares ``idempotent`` is: updating again on the
    same cache returns the same value, so a vertex that just changed is
    up to date and needs no self re-check."""
    prog, ctx, cache, kmax = _draw_vertex(data, PROGRAMS[name])
    if isinstance(prog, HIndexProgram):
        value = data.draw(SMALL)
    elif isinstance(prog, SkylineProgram):
        value = _draw_skyline(data)
    else:
        value = _draw_levels(data, kmax[0] + 1)
    once = prog.update(ctx, value, cache)
    assert prog.update(ctx, once, cache) == once


def test_refine_program_is_not_idempotent():
    """Algorithm 4 lowers a level by at most one per update, so a second
    update on the same cache can lower it again: Phase III keeps the self
    re-check."""
    prog = RefineProgram(kmax={0: 0, 1: 0}, lupp={0: [2]})
    ctx = VertexCtx(vid=0, in_nbrs=(), out_nbrs=(1,))
    assert prog.init_value(ctx) == [2]
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


@pytest.fixture(params=[True, False], ids=["gc_on", "gc_off"])
def gc_before(request):
    """The caller's cyclic-GC state: enabled, then disabled, for the test,
    and the state it found restored after it."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


class GcSpy(HIndexProgram):
    """An in-H-index that records ``gc.isenabled()`` at every update."""

    def __init__(self):
        super().__init__("in")
        self.seen: set[bool] = set()

    def update(self, ctx, value, cache):
        self.seen.add(gc.isenabled())
        return super().update(ctx, value, cache)


@pytest.mark.parametrize("mode", ["vertex", "block"])
@pytest.mark.parametrize("fails", [False, True], ids=["ok", "raises"])
def test_local_run_pauses_gc_and_restores_callers_state(gc_before, mode, fails):
    """Updates run with automatic cyclic GC off, and the caller's state
    comes back after the run, also when it raises."""
    spy, eng = GcSpy(), LocalEngine(GRAPH, hash_partition(GRAPH, 4))
    if fails:
        with pytest.raises(RuntimeError, match="no convergence"):
            eng.run(spy, mode=mode, max_rounds=1)
    else:
        eng.run(spy, mode=mode)
    assert gc.isenabled() is gc_before
    assert spy.seen == {False}


def test_engine_runs_leave_no_cyclic_garbage():
    """What pausing the collector relies on: a run of every program in
    both modes leaves no reference cycle, so reference counting frees all
    of its garbage (a warm-up run first fills lazy caches). The collector
    stays paused until the count: once re-enabled, it would collect such
    cycles at its next allocation."""
    g = adjacency(load("WV"))
    eng = LocalEngine(g, hash_partition(g, 8))
    kmax, _ = eng.run(HIndexProgram("in"))
    lmax, _ = eng.run(HIndexProgram("out"))
    lupp, _ = eng.run(LUppProgram(kmax))

    def programs():
        return [HIndexProgram("in"), HIndexProgram("out"), LUppProgram(kmax),
                RefineProgram(kmax, lupp), SkylineProgram(kmax, lmax)]

    for mode in ("vertex", "block"):
        for prog in programs():
            eng.run(prog, mode=mode)
    gc.collect()
    for mode in ("vertex", "block"):
        for prog in programs():
            with paused_gc():
                eng.run(prog, mode=mode)
                assert gc.collect() == 0, (type(prog).__name__, mode)
