"""Reproduction of "Distributed D-core Decomposition over Large Directed
Graphs" (VLDB 2022) on PySpark.

Package map:

* :mod:`repro.framework` — the distributed graph-processing substrate
  (H-index kernel, vertex-/block-centric block runtime, the local
  reference engine and the Spark grouped-shuffle engine, graph
  partitioners).
* :mod:`repro.core` — the paper's contribution: anchored-coreness
  (Algorithms 1-4), the D-index (Definition 5.3 / Algorithm 6),
  skyline-coreness (Algorithm 5), and the top-level ``decompose()`` API.
* :mod:`repro.baseline` — the peeling comparison algorithm and the
  brute-force Definition-3.1 oracle.
* :mod:`repro.graphs` — deterministic digraph generators, the analog
  datasets standing in for the paper's SNAP/LAW graphs, and Spark-side
  graph statistics.
* :mod:`repro.oracle` — the DuckDB result-equality checker.
"""
