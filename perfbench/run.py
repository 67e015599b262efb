#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload sl-sc-block-local --seed 0 \\
        --seconds 15 --trace 0

The run sets up (imports, Spark session for Spark workloads, seeded
inputs, the peeling oracle, untimed warm-up calls), then calls
``repro.core.decompose.decompose()`` until ``--seconds`` have passed,
timing each call from outside and checking it against the oracle.
``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json,
``--trace 1`` the per-layer ones, from calls traced by
``perfbench/tracing.py`` alternated with untraced calls. The last line
of stdout is one JSON object ``{correct, attempted, failed, metrics}``;
a full record (per-call times, provenance, kept spans) is written under
``.perfbench/results/``. The exit code is 1 when any call raised or
disagreed with the oracle, and 2 when the program source is missing.
See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 3


def driver_memory() -> str:
    """``SPARK_DRIVER_MEM``, else half of MemTotal clamped to 2..8 GiB
    (the rule of the repository's tier-1 test command)."""
    if mem := os.environ.get("SPARK_DRIVER_MEM"):
        return mem
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    g = int(int(line.split()[1]) / 2097152)
                    return f"{min(8, max(2, g))}g"
    except (OSError, ValueError):
        pass
    return "2g"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pyspark_version() -> str:
    import pyspark

    return pyspark.__version__


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict[str, object]:
    return {"git_sha": git_sha(), "nproc": nproc(),
            "driver_memory": driver_memory(), "pyspark": pyspark_version(),
            "python": sys.version.split()[0]}


def rss_mb() -> tuple[float, float]:
    """(current, peak) resident memory of this process in MB."""
    with open("/proc/self/status") as f:
        kb = dict(re.findall(r"(VmRSS|VmHWM):\s+(\d+) kB", f.read()))
    return int(kb["VmRSS"]) / 1024, int(kb["VmHWM"]) / 1024


def reset_peak_rss() -> float:
    """Collect garbage, return free heap to the system, reset the
    kernel's peak-RSS mark of this process to its current RSS
    (``/proc/self/clear_refs``) and return that RSS in MB."""
    gc.collect()
    ctypes.CDLL(None).malloc_trim(0)
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")
    return rss_mb()[0]


def prepare_env() -> None:
    """Keep every file the run writes inside the checkout and make
    ``repro`` importable here and in Spark's Python workers."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ.setdefault("SPARK_LOCAL_DIRS", str(WORK / "spark-local"))
    # Both JVMs (spark-submit's launcher and the driver) read this.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    sys.path.insert(0, str(SRC))


def start_spark():
    """The benchmark's own local session: ``local[nproc]`` with the
    session settings of ``jobs/_common.get_spark``."""
    os.environ["PYSPARK_SUBMIT_ARGS"] = "pyspark-shell"
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .master(f"local[{nproc()}]")
        .config("spark.driver.memory", driver_memory())
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.warehouse.dir", str(WORK / "warehouse"))
        .config("spark.sql.shuffle.partitions", "16")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then the JVM it launched, and wait for it."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits on EOF of its stdin
        proc.wait(timeout=60)


def spark_job_stats(sc, group: str) -> dict[str, int]:
    """Jobs, completed tasks and failed tasks of one job group, once the
    status store has seen every job of the group finish."""
    st = sc.statusTracker()
    deadline = time.perf_counter() + 10
    seen = -1
    while True:
        jobs = st.getJobIdsForGroup(group)
        infos = [st.getJobInfo(j) for j in jobs]
        done = all(i is not None and i.status in ("SUCCEEDED", "FAILED") for i in infos)
        if (done and len(jobs) == seen) or time.perf_counter() > deadline:
            break
        seen = len(jobs)
        time.sleep(0.1)
    tasks = failed = 0
    for info in infos:
        for sid in info.stageIds if info else ():
            stage = st.getStageInfo(sid)
            if stage is not None:
                tasks += stage.numCompletedTasks
                failed += stage.numFailedTasks
    return {"jobs": len(jobs), "tasks": tasks, "failed_tasks": failed}


class Runner:
    """One workload's inputs, oracle and checked decompose() calls."""

    def __init__(self, workload, seed: int, spark) -> None:
        from repro.baseline.peeling import peel_decompose
        from workloads import N_BLOCKS, PARTITIONER, make_edges

        self.w = workload
        self.spark = spark
        self.kwargs = dict(algo=workload.algo, mode=workload.mode,
                           partitioner=PARTITIONER, n_blocks=N_BLOCKS,
                           engine=workload.engine)
        self.prepare_s: list[float] = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.edges = make_edges(workload, seed)
            self.oracle, _ = peel_decompose(self.edges)
            self.prepare_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        self.input = self.edges
        if workload.engine == "spark":
            from repro.graphs.generators import edges_to_spark

            self.input = edges_to_spark(spark, self.edges).cache()
            self.input.count()
        self.input_s = time.perf_counter() - t0
        self.attempted = 0
        self.failed = 0
        self.counts: tuple[int, ...] | None = None
        self.jobs: list[dict[str, int]] = []

    def call(self, tracer=None) -> tuple[float, object] | None:
        """One checked decompose() call: (wall seconds, result), or None
        if it raised or disagreed with the oracle."""
        from repro.core.anchored import anchored_to_skyline
        from repro.core.decompose import decompose
        from tracing import traced

        self.attempted += 1
        group = f"perfbench/{self.w.name}/call{self.attempted}"
        if self.spark is not None:
            self.spark.sparkContext.setJobGroup(group, group)
        try:
            t0 = time.perf_counter()
            if tracer is None:
                res = decompose(self.spark, self.input, **self.kwargs)
            else:
                res = traced(tracer, decompose, self.spark, self.input, **self.kwargs)
            wall = time.perf_counter() - t0
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        if self.spark is not None:
            self.jobs.append(spark_job_stats(self.spark.sparkContext, group))
        counts = (res.total_rounds,
                  sum(len(s.msgs_per_round) for s in res.stats.values()),
                  res.total_messages, res.total_volume)
        problems = []
        if res.anchored != self.oracle:
            problems.append("anchored corenesses differ from peel_decompose")
        if res.skyline != anchored_to_skyline(res.anchored):
            problems.append("skyline != anchored_to_skyline(anchored)")
        if self.counts is not None and counts != self.counts:
            problems.append(f"counts {counts} differ from earlier {self.counts}")
        self.counts = self.counts or counts
        if problems:
            print(f"call {self.attempted}: " + "; ".join(problems), file=sys.stderr)
            self.failed += 1
            return None
        return wall, res


def measure_plain(run: Runner, seconds: float) -> dict:
    walls: list[float] = []
    t_end = time.perf_counter() + seconds
    while True:
        out = run.call()
        if out is not None:
            walls.append(out[0])
        if time.perf_counter() >= t_end:
            break
    return {"decompose_walls": walls}


def measure_traced(run: Runner, seconds: float) -> dict:
    """Alternate untraced and traced calls; per-layer metrics are the
    medians over the traced calls, hub replays use the last one."""
    import tracing

    plain: list[float] = []
    traced_walls: list[float] = []
    per_call: list[dict[str, float]] = []
    tr = None
    t_end = time.perf_counter() + seconds
    while True:
        out = run.call()
        if out is not None:
            plain.append(out[0])
        tr = tracing.Tracer()
        out = run.call(tr)
        if out is not None:
            wall, res = out
            traced_walls.append(wall)
            jobs = run.jobs[-1] if run.spark is not None else {}
            per_call.append(tracing.layer_metrics(tr, res, jobs))
        if time.perf_counter() >= t_end:
            break
    metrics = ({k: statistics.median(c[k] for c in per_call) for k in per_call[0]}
               if per_call else {})
    if plain and traced_walls:
        base = statistics.median(plain)
        metrics["trace.overhead_ratio"] = (statistics.median(traced_walls) - base) / base
    from repro.core.skyline import n_order_d_index
    from repro.framework.hindex import h_index

    metrics["dindex.hub_replay_s"] = tracing.replay_s(
        n_order_d_index, tracing.hub_inputs(tr, "dindex"))
    metrics["hindex.hub_replay_s"] = tracing.replay_s(
        h_index, tracing.hub_inputs(tr, "hindex"))
    return {"layer_metrics": metrics, "plain_walls": plain,
            "traced_walls": traced_walls, "spans": tr.spans}


def end_to_end(run: Runner, walls: list[float], setup_s: float,
               peak_rss_mb: float) -> dict[str, float]:
    rounds, supersteps, messages, volume = run.counts or (None,) * 4
    return {
        "decompose_s": statistics.median(walls) if walls else None,
        "setup_s": setup_s,
        "rounds": rounds,
        "supersteps": supersteps,
        "messages": messages,
        "volume_units": volume,
        "peak_rss_mb": peak_rss_mb,
        "ok_rate": (run.attempted - run.failed) / run.attempted if run.attempted else 0.0,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    prepare_env()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    import repro.core.decompose  # noqa: F401  (program import is set-up)

    import_s = time.perf_counter() - T_START
    spark = None
    session_s = 0.0
    try:
        if w.engine == "spark":
            t0 = time.perf_counter()
            spark = start_spark()
            session_s = time.perf_counter() - t0
        run = Runner(w, args.seed, spark)
        base_rss_mb = reset_peak_rss()
        t0 = time.perf_counter()
        run.call()  # the cold call: untimed but checked
        warmup_s = time.perf_counter() - t0
        # Over the cold call only: later calls would add fragmentation
        # that grows with how many calls the machine's speed allows.
        peak_rss_mb = rss_mb()[1] - base_rss_mb
        for _ in range(w.warmup_calls - 1):
            run.call()  # untimed, checked, and not set-up work
        setup_s = (import_s + session_s + statistics.median(run.prepare_s)
                   + run.input_s + warmup_s)
        if args.trace:
            record = measure_traced(run, args.seconds)
            computed = record.pop("layer_metrics")
            wanted = spec["per_layer"]
        else:
            record = measure_plain(run, args.seconds)
            computed = end_to_end(run, record["decompose_walls"], setup_s,
                                  peak_rss_mb)
            wanted = spec["end_to_end"]
    finally:
        if spark is not None:
            stop_spark(spark)

    missing = [m["name"] for m in wanted
               if m["name"] not in computed and not m["name"].startswith("phase.")]
    if missing:
        raise RuntimeError(f"listed in BENCHMARK.json but not computed: {missing}")
    metrics = {m["name"]: {"value": computed.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    record.update(
        workload=w.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
        setup={"import_s": import_s, "session_s": session_s,
               "prepare_s": run.prepare_s, "input_s": run.input_s,
               "warmup_s": warmup_s, "setup_s": setup_s,
               "base_rss_mb": base_rss_mb},
        spark_jobs_per_call=run.jobs, metrics=metrics, provenance=provenance(),
    )
    out_dir = WORK / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))

    print(f"# {w.name} seed={args.seed} trace={args.trace} "
          f"git={record['provenance']['git_sha'][:12]} nproc={nproc()} "
          f"driver_memory={driver_memory()} pyspark={pyspark_version()}")
    if args.trace and w.engine == "spark":
        print("# Spark rows are driver-side only: kernels, programs and the "
              "block runtime run in Spark's Python workers, which the "
              "tracing does not reach")
    for name, m in metrics.items():
        print(f"#   {name:36s} {m['value']!s:>24} {m['unit']}")
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
