"""Deterministic directed-graph generators.

The paper evaluates on SNAP/LAW graphs that cannot be downloaded in this
offline container, so the experiments run on synthetic analogs (see
DESIGN.md §4). Three families cover the datasets' structural characters:

* :func:`er_digraph` — uniform Erdős–Rényi digraph (product co-purchase
  style: near-regular, ``k_max ≈ l_max``).
* :func:`chung_lu_digraph` — directed Chung-Lu: endpoints drawn from
  per-side Zipf weights, so in- and out-degree skew are tuned
  independently (social/web style; strong dst skew with weak src skew
  yields ``k_max ≫ l_max`` like Slashdot).
* :func:`near_dag_digraph` — citation style: edges point from newer to
  older ids with preferential attachment, plus a small noise fraction of
  forward edges so a few tiny cycles exist (``k_max = l_max`` tiny, like
  the Citation graph's 1/1).

All generators are deterministic in ``seed``, self-loop-free and
duplicate-free (simple digraphs, as the paper assumes).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

Edge = tuple[int, int]


def _dedupe_sampled(
    sample_batch, m: int, seed: int, max_tries: int = 60
) -> list[Edge]:
    """Draw batches from ``sample_batch(rng, size)`` until m distinct
    non-self-loop edges are collected (or the generator saturates)."""
    rng = np.random.default_rng(seed)
    seen: set[Edge] = set()
    out: list[Edge] = []
    for _ in range(max_tries):
        need = m - len(out)
        if need <= 0:
            break
        src, dst = sample_batch(rng, int(need * 1.5) + 16)
        for u, v in zip(src.tolist(), dst.tolist()):
            if u != v and (u, v) not in seen:
                seen.add((u, v))
                out.append((u, v))
                if len(out) == m:
                    break
    return out


def er_digraph(n: int, m: int, seed: int = 0) -> list[Edge]:
    """Uniform simple digraph with n vertices and (up to) m edges."""
    if m > n * (n - 1):
        raise ValueError("m exceeds the number of possible directed edges")

    def batch(rng, size):
        return rng.integers(0, n, size), rng.integers(0, n, size)

    return _dedupe_sampled(batch, m, seed)


def _zipf_weights(n: int, alpha: float, rng: np.random.Generator) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1) ** alpha
    rng.shuffle(w)  # decouple popularity from vertex id
    return w / w.sum()


def chung_lu_digraph(
    n: int,
    m: int,
    alpha_in: float = 0.8,
    alpha_out: float = 0.8,
    seed: int = 0,
) -> list[Edge]:
    """Directed Chung-Lu: dst ~ Zipf(alpha_in), src ~ Zipf(alpha_out)."""
    wrng = np.random.default_rng(seed + 1)
    w_out = _zipf_weights(n, alpha_out, wrng)
    w_in = _zipf_weights(n, alpha_in, wrng)

    def batch(rng, size):
        return (
            rng.choice(n, size=size, p=w_out),
            rng.choice(n, size=size, p=w_in),
        )

    return _dedupe_sampled(batch, m, seed)


def near_dag_digraph(
    n: int, m: int, noise: float = 0.02, seed: int = 0
) -> list[Edge]:
    """Citation-style near-DAG: newer ids cite older ids preferentially;
    a ``noise`` fraction of edges is reversed, creating sparse cycles."""
    rng_w = np.random.default_rng(seed + 1)
    cite_w = _zipf_weights(n, 0.7, rng_w)

    def batch(rng, size):
        src = rng.integers(1, n, size)
        dst = rng.choice(n, size=size, p=cite_w)
        # Cite strictly older (smaller id); fold forward refs back.
        dst = np.where(dst >= src, dst % np.maximum(src, 1), dst)
        flip = rng.random(size) < noise
        return np.where(flip, dst, src), np.where(flip, src, dst)

    return _dedupe_sampled(batch, m, seed)


def planted_core_digraph(
    n: int,
    m_background: int,
    core_size: int,
    core_in_deg: int,
    core_out_alpha: float = 0.0,
    alpha_in: float = 0.8,
    alpha_out: float = 0.8,
    core_regular: bool = False,
    seed: int = 0,
) -> list[Edge]:
    """Chung-Lu background plus a planted dense core.

    Real social/web graphs owe their deep (k,0)-cores to communities of
    mutually linking vertices, which plain Chung-Lu sampling peels away.
    The planted core gives each of ``core_size`` vertices exactly
    ``core_in_deg`` in-edges from other core members, with the *sources*
    drawn from a Zipf(``core_out_alpha``) weighting: ``0`` keeps in- and
    out-degrees in the core balanced (``k_max ≈ l_max``, Wiki-vote/Email
    style), large values concentrate out-degrees on a few emitters so the
    out-core collapses early (``k_max ≫ l_max``, Slashdot style).
    ``core_regular=True`` wires the core as a circulant (each member
    points at the next ``core_in_deg`` members in a ring), making in- and
    out-degrees exactly equal inside the core — ``k_max == l_max ==
    core_in_deg`` up to background effects (Email-EuAll's 28/28 shape).
    """
    if core_size > n:
        raise ValueError("core_size > n")
    if core_in_deg >= core_size:
        raise ValueError("core_in_deg must be < core_size")
    edges = chung_lu_digraph(
        n, m_background, alpha_in=alpha_in, alpha_out=alpha_out, seed=seed
    )
    rng = np.random.default_rng(seed + 1000)
    core = rng.permutation(n)[:core_size]
    w = 1.0 / np.arange(1, core_size + 1) ** core_out_alpha
    seen = set(edges)
    for i, v in enumerate(core.tolist()):
        if core_regular:
            srcs = core[[(i + j) % core_size for j in range(1, core_in_deg + 1)]]
        else:
            probs = w.copy()
            probs[i] = 0.0  # no self-loop
            probs /= probs.sum()
            srcs = rng.choice(core, size=core_in_deg, replace=False, p=probs)
        for u in srcs.tolist():
            if (u, v) not in seen:
                seen.add((u, v))
                edges.append((u, v))
    return edges


def edges_to_spark(spark: SparkSession, edges: list[Edge]) -> DataFrame:
    """Edge list -> Spark DataFrame (src long, dst long), also when empty."""
    pdf = pd.DataFrame(edges, columns=["src", "dst"]).astype("int64")
    return spark.createDataFrame(pdf, "src long, dst long")


def src_dst(edges: DataFrame) -> DataFrame:
    """An edge DataFrame's first two columns, whatever their names (read
    literally, dots too) and integer type, as (src long, dst long). One
    schema fetch and one ``selectExpr`` keep the py4j round trips few."""
    return edges.selectExpr(*(
        f"CAST(`{c.replace('`', '``')}` AS BIGINT) AS {a}"
        for c, a in zip(edges.columns[:2], ("src", "dst"))
    ))


def edges_from_spark(edges: DataFrame) -> list[Edge]:
    """The raw pairs of :func:`src_dst` as Python ints, collected through
    Arrow (no Row per edge): the inverse of :func:`edges_to_spark`."""
    pdf = src_dst(edges).toPandas()
    return list(zip(pdf["src"].tolist(), pdf["dst"].tolist()))
