"""Table 4 benchmark (Exp-1): the four decomposition variants on every
analog dataset.

Iteration counts (the table's payload) are engine-invariant, so the full
dataset x variant grid runs on the fast reference engine; the distributed
Spark dataflow itself is benchmarked on the WV analog for all four
variants (each superstep is a real grouped shuffle job).

Each benchmark stores its round counts in ``extra_info`` next to the
paper's numbers so ``bench_output.txt`` documents the comparison.
"""
import pytest

from repro.core.decompose import decompose
from repro.graphs.datasets import PAPER_TABLE4, SPECS, load
from repro.graphs.generators import edges_to_spark

VARIANTS = [("AC", "vertex"), ("AC", "block"), ("SC", "vertex"), ("SC", "block")]


def _paper_rounds(algo, mode, name):
    key = f"{algo}-{mode[0].upper()}"
    entry = PAPER_TABLE4[key]
    return entry["total"][name] if algo == "AC" else entry[name]


@pytest.mark.parametrize("name", sorted(SPECS))
@pytest.mark.parametrize("algo,mode", VARIANTS, ids=[f"{a}-{m[0].upper()}" for a, m in VARIANTS])
def test_bench_table4_rounds(benchmark, name, algo, mode):
    edges = list(load(name))

    def run():
        return decompose(
            None, edges, algo=algo, mode=mode, partitioner="hash",
            n_blocks=8, engine="local",
        )

    res = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    table_rounds = (
        res.total_rounds if algo == "AC" else res.rounds["dindex"]
    )
    benchmark.extra_info.update(
        {
            "rounds": res.rounds,
            "table_rounds": table_rounds,
            "paper_rounds": _paper_rounds(algo, mode, name),
            "messages": res.total_messages,
            "volume": res.total_volume,
        }
    )
    assert res.total_rounds >= 1


@pytest.mark.parametrize("algo,mode", VARIANTS, ids=[f"{a}-{m[0].upper()}" for a, m in VARIANTS])
def test_bench_table4_spark_wv(benchmark, spark, algo, mode):
    """The distributed dataflow itself (WV analog): every superstep is a
    grouped applyInArrow shuffle."""
    edges_df = edges_to_spark(spark, list(load("WV"))).localCheckpoint(eager=True)

    def run():
        return decompose(
            spark, edges_df, algo=algo, mode=mode, partitioner="hash",
            n_blocks=8, engine="spark",
        )

    res = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    benchmark.extra_info.update(
        {
            "rounds": res.rounds,
            "paper_rounds": _paper_rounds(algo, mode, "WV"),
            "messages": res.total_messages,
        }
    )
    assert res.total_rounds >= 1
