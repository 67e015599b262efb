"""Spark distributed engine tests: the one-relation superstep (state and
message rows grouped by block) must be observationally identical to the
local reference engine (values, iteration counts, message counts), and
correct vs the peeling oracle.

Graphs are kept small — every superstep is a real Spark job."""
import pickle
import sys
import zipfile
import zipimport
from collections import Counter
from types import SimpleNamespace

import pytest
from pyspark.sql.conf import RuntimeConfig

from repro.baseline.peeling import peel_decompose
from repro.core.anchored import HIndexProgram, anchored_to_skyline
from repro.core.decompose import decompose
from repro.framework import engine as engine_mod
from repro.framework.block_runtime import VertexProgram, run_block_round
from repro.framework.engine import (
    _ARROW,
    _SCHEMA,
    SparkEngine,
    _drop_zip_finders,
    _ingest,
    _rows,
    _table,
)
from repro.framework.local_engine import LocalEngine, adjacency, init_run, local_round
from repro.framework.partition import hash_partition, metis_lite_partition
from repro.graphs.datasets import paper_figure2
from repro.graphs.generators import edges_to_spark, er_digraph

EDGES = er_digraph(40, 220, seed=11)
GRAPH = adjacency(EDGES)
PART = hash_partition(GRAPH, 3)


def _persistent(spark) -> set[int]:
    """Ids of the RDDs persisted in the session (checkpoints included)."""
    return set(spark.sparkContext._jsc.getPersistentRDDs())


@pytest.fixture(autouse=True)
def no_leaked_rdds(spark):
    """Every test leaves the session's persisted RDDs as it found them:
    the engine releases each superstep's checkpoint."""
    before = _persistent(spark)
    yield
    assert _persistent(spark) == before


@pytest.fixture(scope="module")
def spark_engine(spark):
    return SparkEngine(spark, GRAPH, PART, 3)


@pytest.fixture(scope="module")
def peel():
    return peel_decompose(EDGES)[0]


def test_adjacency_matches_local(spark_engine):
    """Both engines hold the one graph they were given, not a copy."""
    local = LocalEngine(GRAPH, PART)
    assert spark_engine.graph is local.graph is GRAPH


@pytest.mark.parametrize("mode", ["vertex", "block"])
@pytest.mark.parametrize("direction", ["in", "out"])
def test_hindex_program_engine_invariance(spark_engine, mode, direction):
    """Same values, same per-round message/changed counts as the
    reference engine — the distributed run is a faithful execution."""
    prog = HIndexProgram(direction)
    sv, ss = spark_engine.run(prog, mode=mode)
    lv, ls = LocalEngine(GRAPH, PART).run(prog, mode=mode)
    assert sv == lv
    assert ss.rounds == ls.rounds
    assert ss.msgs_per_round == ls.msgs_per_round
    assert ss.changed_per_round == ls.changed_per_round
    assert ss.volume_per_round == ls.volume_per_round
    assert ss.converge_round == ls.converge_round


@pytest.mark.parametrize("algo,mode", [
    ("AC", "vertex"), ("AC", "block"), ("SC", "vertex"), ("SC", "block"),
])
def test_decompose_spark_correct(spark, algo, mode, peel):
    res = decompose(
        spark, edges_to_spark(spark, EDGES), algo=algo, mode=mode,
        partitioner="hash", n_blocks=3, engine="spark",
    )
    assert res.anchored == peel
    assert res.skyline == anchored_to_skyline(peel)
    assert res.total_rounds >= 1
    assert res.total_messages > 0


@pytest.mark.parametrize("algo", ["AC", "SC"])
def test_decompose_engines_agree_on_stats(spark, peel, algo, mode="block"):
    """Rounds, message counts and volumes are engine-invariant by
    construction, in every phase — including AC's Phases II/III and SC's
    D-index run, whose programs carry the earlier phases' int-keyed values
    into the Spark superstep UDF."""
    kw = dict(algo=algo, mode=mode, partitioner="metis", n_blocks=4)
    r_spark = decompose(spark, edges_to_spark(spark, EDGES), engine="spark", **kw)
    r_local = decompose(None, EDGES, engine="local", **kw)
    assert r_spark.anchored == r_local.anchored == peel
    assert r_spark.rounds == r_local.rounds
    assert r_spark.total_messages == r_local.total_messages
    assert r_spark.stats.keys() == r_local.stats.keys()
    for phase, ls in r_local.stats.items():
        ss = r_spark.stats[phase]
        assert ss.msgs_per_round == ls.msgs_per_round, phase
        assert ss.changed_per_round == ls.changed_per_round, phase
        assert ss.volume_per_round == ls.volume_per_round, phase
        assert ss.converge_round == ls.converge_round, phase


@pytest.mark.usefixtures("all_spark")
@pytest.mark.parametrize("algo", ["AC", "SC"])
def test_decompose_engines_agree_on_stats_all_spark(spark, peel, algo):
    """As above, with every round on Spark."""
    test_decompose_engines_agree_on_stats(spark, peel, algo)


@pytest.mark.usefixtures("all_spark")
@pytest.mark.parametrize("algo", ["AC", "SC"])
def test_decompose_engines_agree_on_stats_all_spark_vertex(spark, peel, algo):
    """As above, in vertex mode: Phase III's changed vertices re-check
    themselves with no mail, so their blocks must not pass through."""
    test_decompose_engines_agree_on_stats(spark, peel, algo, mode="vertex")


def test_spark_engine_on_paper_figure2(spark):
    edges = paper_figure2()
    res = decompose(
        spark, edges_to_spark(spark, edges), algo="SC", mode="block",
        n_blocks=2, engine="spark",
    )
    assert {v: set(p) for v, p in res.skyline.items()} == {
        1: {(2, 2)}, 2: {(2, 0)}, 3: {(2, 0)}, 4: {(2, 2)}, 5: {(2, 2)},
        6: {(2, 2)}, 7: {(0, 2), (1, 1)}, 8: {(1, 1), (2, 0)},
    }


@pytest.mark.parametrize("as_df", [False, True], ids=["list", "dataframe"])
def test_degenerate_edges_every_endpoint_is_a_vertex(spark, as_df):
    """The one input rule: every edge endpoint is a vertex (3 and 4 have
    only a self-loop), self-loops and duplicate edges are dropped."""
    edges = [(1, 2), (2, 1), (3, 3), (1, 2), (2, 2), (4, 4), (4, 4)]
    peel = peel_decompose(edges)[0]
    assert set(peel) == {1, 2, 3, 4}
    kw = dict(algo="SC", mode="block", n_blocks=2)
    res = decompose(spark, edges_to_spark(spark, edges) if as_df else edges,
                    engine="spark", **kw)
    local = decompose(None, edges, engine="local", **kw)
    assert res.anchored == local.anchored == peel
    assert res.skyline == anchored_to_skyline(peel)
    assert res.rounds == local.rounds
    assert res.total_messages == local.total_messages


@pytest.mark.parametrize("engine", ["local", "spark", "peeling"])
def test_ids_outside_int64_rejected(spark, engine):
    """One rule for ids: they must fit the signed 64-bit vid column.
    Every engine and peeling reject an id outside it and accept its ends."""
    run = {
        "local": lambda e: decompose(None, e, engine="local", n_blocks=2).anchored,
        "spark": lambda e: decompose(spark, e, engine="spark", n_blocks=2).anchored,
        "peeling": lambda e: peel_decompose(e)[0],
    }[engine]
    for bad in (2**63 + 5, 2**63, -(2**63) - 1):
        with pytest.raises(ValueError, match="vertex ids"):
            run([(bad, 1), (1, bad)])
    ends = [(2**63 - 1, -(2**63)), (-(2**63), 2**63 - 1), (-(2**63), 0)]
    assert run(ends) == {2**63 - 1: [1, 1], -(2**63): [1, 1], 0: [0, 0]}


def test_spark_engine_writes_no_session_conf(spark, spark_engine, monkeypatch):
    """A run neither sets nor unsets a session conf (adaptive execution
    coalesces each round's shuffle), so the conf afterwards is as before."""
    writes = []
    for name in ("set", "unset"):
        orig = getattr(RuntimeConfig, name)

        def spy(conf, *args, _orig=orig, _name=name):
            writes.append((_name, args))
            return _orig(conf, *args)

        monkeypatch.setattr(RuntimeConfig, name, spy)
    before = spark.conf.getAll
    spark_engine.run_many([HIndexProgram("in"), HIndexProgram("out")], "block")
    assert writes == []
    assert spark.conf.getAll == before


@pytest.mark.parametrize("engine", ["local", "spark"])
def test_max_rounds_fails_loudly(spark_engine, engine):
    eng = LocalEngine(GRAPH, PART) if engine == "local" else spark_engine
    with pytest.raises(RuntimeError, match="no convergence within 1 rounds"):
        eng.run(HIndexProgram("in"), mode="vertex", max_rounds=1)


@pytest.mark.usefixtures("all_spark")
def test_spark_engine_labels_jobs_and_restores_description(spark, spark_engine):
    """Each superstep's jobs are labelled ``<programs>/r<round>`` and the
    run's collect ``<programs>/collect``; the caller's job group stays and
    its description comes back afterwards, also when the run fails."""
    sc = spark.sparkContext
    sc.setJobGroup("labels", "caller")
    try:
        _, stats = spark_engine.run(HIndexProgram("in"), mode="block")
        assert sc.getLocalProperty("spark.job.description") == "caller"
        store = sc._jsc.sc().statusStore()
        labels = {store.job(j).description().get()
                  for j in sc.statusTracker().getJobIdsForGroup("labels")}
        rounds = range(1, len(stats.msgs_per_round))
        assert labels == {f"HIndexProgram/r{r}" for r in rounds} | {
            "HIndexProgram/collect"}
        with pytest.raises(RuntimeError, match="no convergence"):
            spark_engine.run(HIndexProgram("in"), mode="vertex", max_rounds=1)
        assert sc.getLocalProperty("spark.job.description") == "caller"
        assert sc.getLocalProperty("spark.jobGroup.id") == "labels"
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setJobDescription(None)


def test_spark_engine_job_budget_on_paper_figure2(spark):
    """A Spark superstep costs at most one shuffle-map job and one
    checkpoint job, and the run one collect. On Fig 2, round 2 of the
    in/out pair runs on the driver."""
    edges = paper_figure2()
    g = adjacency(edges)
    eng = SparkEngine(spark, g, hash_partition(g, 8), 8)
    sc = spark.sparkContext
    sc.setJobGroup("budget", "budget")
    try:
        results = eng.run_many([HIndexProgram("in"), HIndexProgram("out")], "block")
        store = sc._jsc.sc().statusStore()
        jobs = Counter(store.job(j).description().get()
                       for j in sc.statusTracker().getJobIdsForGroup("budget"))
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setJobDescription(None)
    name = "HIndexProgram+HIndexProgram"
    assert [s.driver_round for _, s in results] == [2, 2]
    assert set(jobs) == {f"{name}/r1", f"{name}/collect"}
    assert jobs[f"{name}/r1"] <= 2, jobs
    assert jobs[f"{name}/collect"] == 1


def test_round0_ingest_has_engine_schema(spark):
    """Round 0's rows keep the engine schema: a state row per block, with
    null ``src``/``size``, no vertex changed and the block's pickled
    ``{vid: VRec}`` dict, and a message row per (source, destination
    block), with its fan-out in ``changed``, payload units times fan-out
    in ``size`` and the pickled ``(dst_vids, payload)``. An empty graph
    ships zero rows."""
    prog = HIndexProgram("in")
    blocks, pending, stats = init_run(GRAPH, PART, prog, "vertex")
    rows = _rows(blocks, dict.fromkeys(blocks, 0), pending, prog, 0)
    df = _ingest(spark, rows)
    ddl = "kind string, block long, src long, changed long, size long, data binary"
    assert df.schema == _SCHEMA == spark.createDataFrame([], ddl).schema
    got = [tuple(r) for r in df.collect()]
    assert got == rows
    states = [r for r in got if r[0] == "s"]
    assert [r[1:5] for r in states] == [(b, None, 0, None) for b in blocks]
    assert {r[1]: pickle.loads(r[5]) for r in states} == blocks
    msgs = [r[1:] for r in got if r[0] == "m"]
    want = []
    for recs in blocks.values():
        for v, rec in recs.items():
            by_block: dict[int, list[int]] = {}
            for c in rec.ctx.out_nbrs:  # the consumers of an in-H-index
                by_block.setdefault(PART[c], []).append(c)
            for b, cids in by_block.items():
                want.append((b, v, len(cids), len(cids), (tuple(cids), rec.value)))
    assert [(b, v, n, size, pickle.loads(blob))
            for b, v, n, size, blob in msgs] == want
    assert len(msgs) < sum(n for _, _, n, _, _ in msgs) == stats.msgs_per_round[0]
    assert sum(size for _, _, _, size, _ in msgs) == stats.volume_per_round[0]
    empty = _ingest(spark, [])
    assert empty.schema == _SCHEMA
    assert empty.count() == 0


def test_round_fn_passes_quiet_block_through(spark_engine, monkeypatch):
    """After round 1, a block with no mail whose last round changed no
    vertex comes back unread. In round 1, or with mail, or with a change
    in its last round, a block is run from one state unpickle and comes
    back as one state row counting its changed vertices."""
    programs = [HIndexProgram("in"), HIndexProgram("out")]
    prog = programs[1]
    blocks, pending, _ = init_run(GRAPH, PART, prog, "vertex")
    pending, _ = local_round(blocks, pending, prog, "vertex", 1)
    mail = [m for m in pending if m[0] == 0]
    assert mail
    loads = []
    monkeypatch.setattr(engine_mod, "pickle", SimpleNamespace(
        dumps=pickle.dumps, loads=lambda b: loads.append(b) or pickle.loads(b)))

    def run(round_no, changed, msgs):
        loads.clear()
        group = _table(_rows({0: blocks[0]}, {0: changed}, msgs, prog, 3))
        return group, spark_engine._round_fn(programs, "vertex", round_no)(group)

    group, out = run(5, 0, [])
    assert out is group
    assert loads == []
    for round_no, changed, msgs in [(1, 0, []), (5, 2, []), (5, 0, mail)]:
        group, out = run(round_no, changed, msgs)
        assert out.schema == _ARROW
        assert len(loads) == 1 + len(msgs)
        assert loads.count(group["data"][0].as_py()) == 1
        (state,) = [r for r in out.to_pylist() if r["kind"] == "s"]
        recs = pickle.loads(pickle.dumps(blocks[0]))
        inbox = [(svid, payload, dvids) for _, svid, payload, dvids in msgs]
        want, _ = run_block_round(0, recs, inbox, prog, "vertex", round_no)
        assert pickle.loads(state["data"]) == recs
        assert state["changed"] == len(want)
    assert want  # the mail lowered some value


def test_drop_zip_finders_forgets_zipimporters(tmp_path, monkeypatch):
    """Dropping the cached zipimporters leaves none in the path importer
    cache, and a later import from the same archive still works."""
    archive = tmp_path / "mods.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        zf.writestr("zipmod_a.py", "A = 1\n")
        zf.writestr("zipmod_b.py", "B = 2\n")
    monkeypatch.syspath_prepend(str(archive))
    try:
        import zipmod_a

        assert zipmod_a.A == 1
        assert isinstance(sys.path_importer_cache[str(archive)],
                          zipimport.zipimporter)
        _drop_zip_finders()
        assert not any(isinstance(f, zipimport.zipimporter)
                       for f in sys.path_importer_cache.values())
        import zipmod_b

        assert zipmod_b.B == 2
    finally:
        for name in ("zipmod_a", "zipmod_b"):
            sys.modules.pop(name, None)
        sys.path_importer_cache.pop(str(archive), None)


@pytest.mark.parametrize("algo", ["AC", "SC"])
def test_empty_graph_agrees_across_engines_and_peeling(spark, algo):
    """No edges, no vertices: every phase is one quiet round."""
    peel, peel_stats = peel_decompose([])
    r_spark = decompose(spark, [], algo=algo, engine="spark")
    r_local = decompose(None, [], algo=algo, engine="local")
    assert r_spark.anchored == r_local.anchored == peel == {}
    assert r_spark.skyline == r_local.skyline == {}
    assert r_spark.total_rounds == r_local.total_rounds == peel_stats.rounds == 0
    assert r_spark.stats == r_local.stats
    for s in r_spark.stats.values():
        assert s.msgs_per_round == s.changed_per_round == [0, 0]
        assert s.driver_round is None


def test_spark_engine_rejects_partial_partition(spark):
    with pytest.raises(ValueError):
        SparkEngine(spark, GRAPH, {0: 0}, 1)
    with pytest.raises(ValueError):  # block 2 is outside [0, 2)
        SparkEngine(spark, GRAPH, PART, 2)


class _WavefrontProgram(VertexProgram):
    """Distance-from-vertex-0 propagation: converges in exactly
    path-length rounds, one wavefront step per superstep."""

    consumes = "in"
    BIG = 1 << 30

    def init_value(self, ctx):
        return 0 if ctx.vid == 0 else self.BIG

    def update(self, ctx, value, cache):
        best = min((cache.get(u, self.BIG) for u in ctx.in_nbrs),
                   default=self.BIG)
        return min(value, best + 1 if best < self.BIG else self.BIG)


def test_spark_engine_many_rounds_regression(spark):
    """Regression guard for the Catalyst sizeInBytes blowup (see
    engine.py docstring): >30 supersteps in a single run must complete
    in bounded time. A directed path forces one wavefront per round."""
    import time

    n = 35
    path_edges = [(i, i + 1) for i in range(n)]
    g = adjacency(path_edges)
    eng = SparkEngine(spark, g, hash_partition(g, 2), 2)
    t0 = time.perf_counter()
    values, stats = eng.run(_WavefrontProgram(), mode="vertex")
    elapsed = time.perf_counter() - t0
    assert values == {i: i for i in range(n + 1)}
    assert stats.rounds >= n - 1
    # Pre-fix, round ~25 alone took minutes; the whole run must not.
    assert elapsed < 120, f"superstep loop degraded: {elapsed:.0f}s"


#: Fixpoints of different lengths on one graph: HIndexProgram("in"/"out")
#: and the wavefront from vertex 0 down a 10-edge tail.
STAGGERED = EDGES + [(0, 100)] + [(i, i + 1) for i in range(100, 110)]


@pytest.mark.parametrize("mode", ["vertex", "block"])
@pytest.mark.parametrize("engine", ["local", "spark"])
def test_run_many_matches_sequential_runs(spark, engine, mode):
    """One superstep stream for independent programs gives each program
    its solo values and stats, cut at its own first quiet round."""
    g = adjacency(STAGGERED)
    part = hash_partition(g, 3)
    programs = [HIndexProgram("in"), HIndexProgram("out"), _WavefrontProgram()]
    local = LocalEngine(g, part)
    solo = [local.run(p, mode=mode) for p in programs]
    assert len({len(s.msgs_per_round) for _, s in solo}) == len(programs)
    eng = local if engine == "local" else SparkEngine(spark, g, part, 3)
    assert eng.run_many(programs, mode=mode) == solo


@pytest.mark.usefixtures("all_spark")
@pytest.mark.parametrize("mode", ["vertex", "block"])
def test_run_many_matches_sequential_runs_all_spark(spark, mode):
    """As above, with every round on Spark."""
    test_run_many_matches_sequential_runs(spark, "spark", mode)


@pytest.mark.usefixtures("all_spark")
def test_checkpoint_holds_one_state_row_per_program_block(spark, monkeypatch):
    """Every superstep's checkpoint holds exactly one state row per
    (program, block), also once a program is all quiet."""
    g = adjacency(STAGGERED)
    part = hash_partition(g, 3)
    programs = [HIndexProgram("in"), HIndexProgram("out"), _WavefrontProgram()]
    expect = Counter(i * 3 + b for i in range(3) for b in set(part.values()))
    seen = []
    release = engine_mod._release

    def spy(checkpoint):
        if checkpoint is not None:
            states = checkpoint.filter("kind = 's'").select("block").collect()
            seen.append(Counter(r.block for r in states))
        release(checkpoint)

    monkeypatch.setattr(engine_mod, "_release", spy)
    results = SparkEngine(spark, g, part, 3).run_many(programs, mode="vertex")
    rounds = [len(s.msgs_per_round) - 1 for _, s in results]
    assert len(set(rounds)) == len(programs)
    assert len(seen) == max(rounds)
    assert all(s == expect for s in seen)


@pytest.mark.parametrize("mode,limit,switch", [("vertex", 3, 8), ("block", 2, 5)])
def test_run_many_tail_after_a_program_is_quiet(spark, monkeypatch, mode, limit,
                                                switch):
    """The in-H-index goes quiet in round ``switch``, whose frontier is
    the first within ``limit``: the other two programs finish on the
    driver, and every program's values and stats are its solo run's."""
    monkeypatch.setattr(engine_mod, "TAIL_FRONTIER", limit)
    g = adjacency(STAGGERED)
    part = hash_partition(g, 3)
    programs = [HIndexProgram("in"), HIndexProgram("out"), _WavefrontProgram()]
    local = LocalEngine(g, part)
    solo = [local.run(p, mode=mode) for p in programs]
    assert len(solo[0][1].msgs_per_round) - 1 == switch
    got = SparkEngine(spark, g, part, 3).run_many(programs, mode=mode)
    assert got == solo
    assert [s.driver_round for _, s in got] == [None, switch + 1, switch + 1]


def test_driver_rounds_hold_no_checkpoint(spark, monkeypatch):
    """While the driver runs a tail, no checkpoint of the run is left in
    executor storage; values and stats are LocalEngine's."""
    monkeypatch.setattr(engine_mod, "TAIL_FRONTIER", 2)
    g = adjacency([(i, i + 1) for i in range(22)])
    part = hash_partition(g, 2)
    before, held = _persistent(spark), []
    local_round = engine_mod.local_round

    def spy(*args):
        held.append(_persistent(spark) - before)
        return local_round(*args)

    monkeypatch.setattr(engine_mod, "local_round", spy)
    values, stats = SparkEngine(spark, g, part, 2).run(_WavefrontProgram(), "vertex")
    assert (values, stats) == LocalEngine(g, part).run(_WavefrontProgram(), "vertex")
    assert stats.driver_round == 2
    assert len(held) == len(stats.msgs_per_round) - 2 == 22
    assert all(h == set() for h in held)


#: AC in vertex mode on this graph (3 hash blocks) reaches a small
#: frontier in Phase I after round 4 (5 messages) and in Phase III after
#: round 3 (8 messages plus 1 vertex that re-checks itself).
TAIL_EDGES = er_digraph(50, 300, seed=10)


@pytest.mark.parametrize("limit,driver_rounds", [
    (9, {"phase1": 5, "phase2": None, "phase3": 4}),
    (8, {"phase1": 5, "phase2": None, "phase3": None}),
])
def test_tail_switches_mid_run_with_messages_pending(spark, monkeypatch, limit,
                                                     driver_rounds):
    """A switch after round 3 or later, with messages in flight, gives
    LocalEngine's values and whole stats; RefineProgram's self re-checks
    count in the frontier."""
    monkeypatch.setattr(engine_mod, "TAIL_FRONTIER", limit)
    kw = dict(algo="AC", mode="vertex", partitioner="hash", n_blocks=3)
    local = decompose(None, TAIL_EDGES, engine="local", **kw)
    dist = decompose(spark, TAIL_EDGES, engine="spark", **kw)
    assert dist.anchored == local.anchored
    assert dist.stats == local.stats
    assert {p: s.driver_round for p, s in dist.stats.items()} == driver_rounds
    for phase, r in driver_rounds.items():
        if r is not None:
            assert r >= 4 and local.stats[phase].msgs_per_round[r - 1] > 0


def test_failed_run_releases_its_checkpoints(spark, spark_engine):
    """A run that raises frees the checkpoint it was holding."""
    before = _persistent(spark)
    with pytest.raises(RuntimeError, match="no convergence"):
        spark_engine.run(HIndexProgram("in"), mode="vertex", max_rounds=2)
    assert _persistent(spark) == before


@pytest.mark.usefixtures("all_spark")
def test_at_most_two_checkpoints_alive(spark, monkeypatch):
    """Each round's checkpoint is released once the next round is
    materialised, so a long run holds at most two at a time."""
    n = 22
    path_edges = [(i, i + 1) for i in range(n)]
    g = adjacency(path_edges)
    eng = SparkEngine(spark, g, hash_partition(g, 2), 2)
    before, alive = _persistent(spark), []
    release = engine_mod._release

    def spy(checkpoint):
        alive.append(len(_persistent(spark) - before))
        release(checkpoint)
        alive.append(len(_persistent(spark) - before))

    monkeypatch.setattr(engine_mod, "_release", spy)
    _, stats = eng.run(_WavefrontProgram(), mode="vertex")
    assert len(stats.msgs_per_round) - 1 >= 20
    assert max(alive) == 2
    assert alive[-1] == 0
