"""Partitioner tests (Exp-6's strategies): coverage, balance, locality."""
import pytest

from repro.framework.local_engine import adjacency
from repro.framework.partition import (
    PARTITIONERS,
    block_sizes,
    edge_cut,
    fennel_partition,
    hash_partition,
    metis_lite_partition,
    seg_partition,
)
from repro.graphs.generators import chung_lu_digraph, er_digraph


def ring_of_cliques(n_cliques=8, size=10):
    """Directed cliques joined in a ring: an ideal-locality testbed."""
    edges = []
    for c in range(n_cliques):
        base = c * size
        for i in range(size):
            for j in range(size):
                if i != j:
                    edges.append((base + i, base + j))
        nxt = ((c + 1) % n_cliques) * size
        edges.append((base, nxt))
    return edges


GRAPHS = {
    "er": er_digraph(120, 700, seed=0),
    "chung_lu": chung_lu_digraph(120, 700, seed=1),
    "cliques": ring_of_cliques(),
}


@pytest.mark.parametrize("pname", sorted(PARTITIONERS))
@pytest.mark.parametrize("gname", sorted(GRAPHS))
@pytest.mark.parametrize("n_blocks", [1, 2, 8])
def test_partition_covers_all_vertices(pname, gname, n_blocks):
    edges = GRAPHS[gname]
    part = PARTITIONERS[pname](adjacency(edges), n_blocks)
    verts = {u for e in edges for u in e}
    assert set(part) == verts
    assert all(0 <= b < n_blocks for b in part.values())


@pytest.mark.parametrize("pname", sorted(PARTITIONERS))
def test_partition_deterministic(pname):
    edges = GRAPHS["chung_lu"]
    g = adjacency(edges)
    assert PARTITIONERS[pname](g, 4) == PARTITIONERS[pname](g, 4)


@pytest.mark.parametrize("pname", ["hash", "seg", "fennel"])
def test_balanced_partitioners(pname):
    """HASH/SEG are balanced by construction; FENNEL's size penalty keeps
    blocks within ~2x of each other."""
    part = PARTITIONERS[pname](adjacency(GRAPHS["er"]), 6)
    sizes = block_sizes(part)
    assert len(sizes) >= 5
    assert max(sizes) <= 2 * (sum(sizes) // len(sizes) + 1)


def test_hash_is_modulo():
    part = hash_partition(adjacency(GRAPHS["er"]), 4)
    assert all(b == v % 4 for v, b in part.items())


def test_seg_is_contiguous():
    part = seg_partition(adjacency(GRAPHS["er"]), 4)
    vs = sorted(part)
    blocks = [part[v] for v in vs]
    assert blocks == sorted(blocks)  # non-decreasing over id order


def test_locality_partitioners_beat_hash_on_cliques():
    """On a ring of cliques, FENNEL-lite and METIS-lite must cut far
    fewer edges than HASH (the property Exp-6 exercises)."""
    edges = GRAPHS["cliques"]
    g = adjacency(edges)
    cut_hash = edge_cut(g, hash_partition(g, 8))
    cut_fennel = edge_cut(g, fennel_partition(g, 8))
    cut_metis = edge_cut(g, metis_lite_partition(g, 8))
    assert cut_metis < 0.2 < cut_hash
    assert cut_fennel < cut_hash


def test_metis_lite_near_perfect_on_cliques():
    edges = GRAPHS["cliques"]
    g = adjacency(edges)
    part = metis_lite_partition(g, 8)
    assert edge_cut(g, part) <= 0.05


def test_single_block_no_cut():
    g = adjacency(GRAPHS["er"])
    for pname in PARTITIONERS:
        part = PARTITIONERS[pname](g, 1)
        assert edge_cut(g, part) == 0.0


def test_edge_cut_empty():
    assert edge_cut(adjacency([]), {}) == 0.0
