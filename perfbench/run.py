"""Wall-clock benchmark of both engines and the served read/write path.

Run from the repository root::

    python3 perfbench/run.py --workload cs-read --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` measures with no instrumentation and prints the end-to-end
metrics.  ``--trace 1`` measures untraced for half the time (for the
overhead ratio), then repeats one set-up and the fixed prefix of the
workload with spans around every layer's public functions, and prints
the per-layer metrics.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the exit code
is non-zero when any answer was wrong or any operation failed.
``--workload all`` runs each workload in its own process.
"""

from __future__ import annotations

import os

# one BLAS thread: set before numpy is first imported, so the installed
# multi-threaded OpenBLAS cannot oversubscribe the host's cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy  # noqa: E402

import workloads  # noqa: E402
from tracing import NullRecorder, SpanRecorder, layer_metrics  # noqa: E402

#: (name, unit) of every gated end-to-end metric, the result of
#: ``--trace 0``.  ``query_p50_ms`` and ``query_p95_ms`` are printed but
#: not gated.  The host's speed switches between a fast and a slow
#: regime (every query about 40% slower) that lasts from seconds to
#: minutes.  A percentile that falls inside one query type's cluster
#: jumps between the two regimes: the median falls between the 13
#: types' clusters, and p95 sits at about the 35th percentile of the
#: slowest type alone (Q4.1 on cs-read), so the IQR/median of either
#: over ten seeds reached 0.25-0.32 on a 2-core host.  p90 lies in the
#: upper tail of several slow types together, has at least 20 reads
#: beyond it, and moved less: 0.07 against p95's 0.26 over the 10 s
#: windows of one 150 s cs-read run, 0.09-0.15 against 0.20-0.21 over
#: five seeds per workload.  For one closed-loop client
#: ``queries_per_s`` is the inverse mean latency and carries the centre.
END_TO_END = (
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: what each per-layer metric should move, where, and where not:
#: (end-to-end metric(s), workload that should move, workload that should
#: not).  Printed with the traced report; later changes cite these names.
LAYER_EFFECTS: Dict[str, tuple] = {
    "ssb.generate_s": ("setup_s", "all", "-"),
    "storage.encodings.choose_codec_s":
        ("setup_s, move_s, recover_s", "cs-read, serve-mixed", "rs-read"),
    "storage.encodings.choose_codec_calls":
        ("setup_s, move_s, recover_s", "cs-read, serve-mixed", "rs-read"),
    "storage.encodings.frame_calls":
        ("setup_s, move_s, recover_s", "cs-read, serve-mixed", "rs-read"),
    "storage.encodings.decode_s":
        ("queries_per_s, query_p50_ms", "cs-read", "rs-read"),
    "storage.encodings.decode_calls":
        ("queries_per_s, query_p50_ms", "cs-read", "rs-read"),
    "storage.encodings.unpack_bits_s":
        ("queries_per_s, query_p50_ms", "cs-read", "rs-read"),
    "storage.encodings.unpack_bits_calls":
        ("queries_per_s, query_p50_ms", "cs-read", "rs-read"),
    "storage.projection_create_s":
        ("setup_s, move_s, recover_s", "cs-read", "rs-read"),
    "storage.heap_load_s":
        ("setup_s, move_s, recover_s", "rs-read", "cs-read"),
    "storage.column_fetch_s": ("query_p50_ms", "cs-read", "rs-read"),
    "storage.heap_scan_s": ("query_p50_ms", "rs-read", "cs-read"),
    "simio.read_page_s": ("query_p95_ms", "rs-read, cs-read", "-"),
    "simio.read_page_calls": ("query_p95_ms", "rs-read, cs-read", "-"),
    "simio.fill_page_s": ("query_p95_ms", "rs-read, cs-read", "-"),
    "simio.pages_read": ("query_p95_ms", "rs-read, cs-read", "-"),
    "simio.buffer_hits": ("query_p95_ms", "rs-read, cs-read", "-"),
    "simio.pool_hit_ratio": ("query_p95_ms", "rs-read, cs-read", "-"),
    "colstore.planner_run_s": ("queries_per_s", "cs-read", "rs-read"),
    "colstore.predicate_positions_s": ("queries_per_s", "cs-read", "rs-read"),
    "colstore.fetch_values_s": ("queries_per_s", "cs-read", "rs-read"),
    "colstore.grouped_aggregate_s": ("queries_per_s", "cs-read", "rs-read"),
    "colstore.factorize_groups_s": ("queries_per_s", "cs-read", "rs-read"),
    "core.invisible_join_s": ("query_p50_ms", "cs-read", "rs-read"),
    "rowstore.hashagg_consume_s": ("queries_per_s", "rs-read", "cs-read"),
    "rowstore.hashagg_consume_calls": ("queries_per_s", "rs-read", "cs-read"),
    "rowstore.hash_probe_s": ("queries_per_s", "rs-read", "cs-read"),
    "rowstore.build_s": ("setup_s", "rs-read", "cs-read"),
    "shard.children_build_s": ("query_p95_ms", "serve-mixed", "cs-read"),
    "shard.shards_eliminated": ("query_p95_ms", "serve-mixed", "cs-read"),
    "synopsis.probes": ("query_p50_ms", "serve-mixed", "cs-read"),
    "synopsis.blocks_skipped": ("query_p50_ms", "serve-mixed", "cs-read"),
    "write.insert_s": ("dml_p50_ms, dml_p90_ms", "serve-mixed", "-"),
    "write.delete_s": ("dml_p50_ms, dml_p90_ms", "serve-mixed", "-"),
    "write.journal_append_s": ("dml_p50_ms, dml_p90_ms", "serve-mixed", "-"),
    "write.journal_pages": ("dml_p50_ms, dml_p90_ms", "serve-mixed", "-"),
    "write.delta_rows_merged": ("query_p50_ms", "serve-mixed", "-"),
    "write.move_self_s": ("move_s", "serve-mixed", "-"),
    "write.replay_s": ("recover_s", "serve-mixed", "-"),
    "write.journal_replay_pages": ("recover_s", "serve-mixed", "-"),
    "write.recovered_batches": ("recover_s", "serve-mixed", "-"),
    "serve.admission_wait_s":
        ("queries_per_s, query_p50_ms", "serve-mixed", "cs-read, rs-read"),
    "serve.cache_lookup_s":
        ("queries_per_s, query_p50_ms", "serve-mixed", "cs-read, rs-read"),
    "serve.cache_refilter_s":
        ("queries_per_s, query_p50_ms", "serve-mixed", "cs-read, rs-read"),
    "serve.exact_hits":
        ("queries_per_s, query_p50_ms", "serve-mixed", "cs-read, rs-read"),
    "serve.subsumption_hits":
        ("queries_per_s, query_p50_ms", "serve-mixed", "cs-read, rs-read"),
    "serve.cache_hit_ratio":
        ("queries_per_s, query_p50_ms", "serve-mixed", "cs-read, rs-read"),
    "sql.parse_bind_s": ("query_p50_ms", "serve-mixed", "-"),
    "ledger.sim_s": ("none: must repeat exactly", "-", "all"),
    "query_p50_ms": ("user-visible median read latency", "all", "-"),
    "query_p95_ms": ("user-visible tail read latency", "all", "-"),
    "dml_p50_ms": ("user-visible write latency", "serve-mixed", "-"),
    "dml_p90_ms": ("user-visible write latency", "serve-mixed", "-"),
    "move_s": ("user-visible tuple-move time", "serve-mixed", "-"),
    "recover_s": ("user-visible restart time", "serve-mixed", "-"),
    "failed_ratio": ("correctness: must stay 0", "all", "-"),
    "trace.overhead_ratio": ("-", "-", "-"),
}

#: units of the metrics whose name does not give it (``*_s`` is
#: seconds, anything else a count)
UNITS = dict(END_TO_END, query_p50_ms="ms", query_p95_ms="ms",
             dml_p50_ms="ms", dml_p90_ms="ms", failed_ratio="1",
             **{"trace.overhead_ratio": "1", "simio.pool_hit_ratio": "1",
                "serve.cache_hit_ratio": "1"})


def percentile(values: List[float], q: float) -> float:
    """``q``-th percentile (0..100) by linear interpolation."""
    data = sorted(values)
    if not data:
        return 0.0
    rank = (q / 100.0) * (len(data) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (rank - lo)


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    return "s" if metric.endswith("_s") else "count"


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit() -> str:
    """HEAD's commit id, or "unknown" outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=False,
            # never take the commit of a repository that encloses ROOT
            env=dict(os.environ,
                     GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def stamp(workload: str, seed: int) -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sf": workloads.SCALE[workload],
        "workload": workload,
        "workload_seed": seed,
        "commit": git_commit(),
    }


def end_to_end(out: "workloads.Outcome") -> Dict[str, float]:
    reads = len(out.read_ms)
    return {
        "setup_s": statistics.median(out.setup_s),
        "queries_per_s": reads / out.read_wall_s if out.read_wall_s else 0.0,
        "query_p90_ms": percentile(out.read_ms, 90),
        "peak_rss_mb": peak_rss_mb(),
    }


def ungated_metrics(out: "workloads.Outcome") -> Dict[str, float]:
    """User-visible metrics that are printed but not gated: the median
    and p95 read, and the serving-only ones (zero on the read-only
    workloads)."""
    return {
        "query_p50_ms": percentile(out.read_ms, 50),
        "query_p95_ms": percentile(out.read_ms, 95),
        "dml_p50_ms": percentile(out.dml_ms, 50),
        "dml_p90_ms": percentile(out.dml_ms, 90),
        "move_s": statistics.median(out.move_s) if out.move_s else 0.0,
        "recover_s": out.recover_s,
    }


def failed_ratio(out: "workloads.Outcome") -> float:
    return len(out.failures) / out.attempted if out.attempted else 1.0


def _print_table(title: str, rows: Dict[str, float]) -> None:
    print(f"# {title}")
    for name, value in rows.items():
        print(f"#   {name:<40} {value:>14.6g} {unit_of(name)}")


def _report_failures(out: "workloads.Outcome") -> None:
    for message in out.failures[:20]:
        print(f"# FAILED {message}")
    if len(out.failures) > 20:
        print(f"# ... and {len(out.failures) - 20} more failures")


def run_untraced(workload: str, seed: int, seconds: float
                 ) -> Tuple["workloads.Outcome", Dict[str, float]]:
    plan = workloads.Plan(seconds, workloads.SETUP_REPEATS,
                          workloads.MIN_READS, workloads.MIN_DML)
    out = workloads.run_workload(workload, seed, plan, NullRecorder())
    metrics = end_to_end(out)
    _print_table(f"{workload} end-to-end ({len(out.read_ms)} reads, "
                 f"{len(out.dml_ms)} DML batches, {len(out.move_s)} moves, "
                 f"{len(out.setup_s)} set-ups)", metrics)
    extra = dict(ungated_metrics(out), failed_ratio=failed_ratio(out))
    _print_table(f"{workload} not gated", extra)
    if out.mix:
        total = sum(out.mix.values())
        print("# operation mix " + ", ".join(
            f"{name} {count} ({count / total:.1%})"
            for name, count in sorted(out.mix.items())))
    print(f"# exact-repeat counts {json.dumps(out.counts, sort_keys=True)}")
    _report_failures(out)
    return out, {n: metrics[n] for n, _unit in END_TO_END}


def run_traced(workload: str, seed: int, seconds: float
               ) -> Tuple["workloads.Outcome", Dict[str, float]]:
    plain = workloads.run_workload(workload, seed,
                                   workloads.Plan(seconds / 2),
                                   NullRecorder())
    plain_qps = end_to_end(plain)["queries_per_s"]
    recorder = SpanRecorder()
    recorder.install()
    try:
        traced = workloads.run_workload(workload, seed,
                                        workloads.Plan(None), recorder)
    finally:
        recorder.uninstall()
    table = recorder.self_times()
    metrics = layer_metrics(table)
    metrics.update(traced.layer_counts)
    metrics["shard.shards_eliminated"] = recorder.shards_eliminated
    metrics.update(ungated_metrics(plain))
    out = workloads.Outcome(attempted=plain.attempted + traced.attempted,
                            failures=plain.failures + traced.failures)
    metrics["failed_ratio"] = failed_ratio(out)
    traced_qps = end_to_end(traced)["queries_per_s"]
    metrics["trace.overhead_ratio"] = \
        traced_qps / plain_qps if plain_qps else 0.0
    for name in LAYER_EFFECTS:
        metrics.setdefault(name, 0.0)

    path = os.path.join(HERE, "out", f"spans-{workload}-{seed}.jsonl")
    recorder.write(path)
    print(f"# {len(recorder.spans)} spans written to "
          f"{os.path.relpath(path, ROOT)}")
    print(f"# {workload} top spans by self time (traced prefix)")
    print(f"#   {'span':<30} {'self s':>9} {'total s':>9} {'calls':>8}")
    top = sorted(table.items(), key=lambda kv: -kv[1][0])[:15]
    for name, (self_s, total_s, calls) in top:
        print(f"#   {name:<30} {self_s:>9.4f} {total_s:>9.4f} {calls:>8}")
    print(f"# {workload} per-layer metrics: value unit | should move "
          f"| on | not on")
    for name in LAYER_EFFECTS:
        moves, on, not_on = LAYER_EFFECTS[name]
        print(f"#   {name:<38} {metrics[name]:>12.6g} {unit_of(name):<5} "
              f"| {moves} | {on} | {not_on}")
    _report_failures(out)
    return out, {n: metrics[n] for n in LAYER_EFFECTS}


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    print(f"# stamp {json.dumps(stamp(workload, seed), sort_keys=True)}")
    out, metrics = (run_traced if trace else run_untraced)(
        workload, seed, seconds)
    correct = not out.failures
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": len(out.failures),
                      "metrics": {n: {"value": v, "unit": unit_of(n)}
                                  for n, v in metrics.items()}}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so set-up time and peak RSS
    are its own; prints each workload's output, then one summary line."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        code = code or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"# {workload}: no result (exit {proc.returncode})")
            summary["correct"] = False
            continue
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(summary))
    return code or (0 if summary["correct"] else 1)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
