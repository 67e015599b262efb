"""Table 3 benchmark: dataset statistics (|V|, |E|, deg_avg, k_max,
l_max) for every analog, timed end-to-end through Spark + the H-index
fixpoints."""
import pytest

from repro.graphs.datasets import PAPER_TABLE3, SPECS, load
from repro.graphs.generators import edges_to_spark
from repro.graphs.stats import core_limits, graph_summary


@pytest.mark.parametrize("name", sorted(SPECS))
def test_bench_table3_stats(benchmark, spark, name):
    edges_df = edges_to_spark(spark, list(load(name)))
    edges_df = edges_df.localCheckpoint(eager=True)

    def run():
        s = graph_summary(edges_df)
        c = core_limits(edges_df)
        return {**s, **c}

    result = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    paper = PAPER_TABLE3[name]
    benchmark.extra_info.update(
        {
            "measured": {k: result[k] for k in
                         ("n_vertices", "n_edges", "deg_avg", "kmax", "lmax")},
            "paper": paper,
        }
    )
    assert result["kmax"] >= 1 and result["n_edges"] > 0
