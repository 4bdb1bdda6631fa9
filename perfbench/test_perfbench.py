"""Tests of the benchmark itself, at a small scale.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import threading
import weakref

import pytest

import run
import tracing
import workloads
from repro import CStore
from repro.result import ResultSet
from repro.serve import Session

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def small(monkeypatch):
    """Small data, one set-up, short serving cycles, no sample floor."""
    monkeypatch.setattr(workloads, "SCALE", {
        "cs-read": 0.01, "rs-read": 0.01, "serve-mixed": 0.005})
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads, "MIN_READS", 0)
    monkeypatch.setattr(workloads, "MIN_DML", 0)
    monkeypatch.setattr(workloads, "READS_PER_PHASE", {"cs": 6, "rs": 4})
    monkeypatch.setattr(workloads, "DML_PER_CYCLE", 6)


def _prefix_counts(workload: str, seed: int):
    out = workloads.run_workload(workload, seed, workloads.Plan(None),
                                 tracing.NullRecorder())
    assert not out.failures, out.failures
    return out.counts


@pytest.mark.parametrize("workload", ["cs-read", "serve-mixed"])
def test_counts_repeat_exactly_and_follow_the_seed(small, workload):
    first = _prefix_counts(workload, 1)
    assert first == _prefix_counts(workload, 1)
    other = _prefix_counts(workload, 2)
    assert other["query_stats_digest"] != first["query_stats_digest"]
    if workload == "serve-mixed":
        assert other["sources"] != first["sources"] \
            or other["ledger.sim_s"] != first["ledger.sim_s"]


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_a_corrupted_answer_fails_the_command(small, monkeypatch, capsys):
    execute = CStore.execute

    def corrupted(self, query, *args, **kwargs):
        result = execute(self, query, *args, **kwargs)
        if query.name == "Q3.1":
            result.result.rows.pop()
        return result

    monkeypatch.setattr(CStore, "execute", corrupted)
    code = run.main(["--workload", "cs-read", "--seed", "1",
                     "--seconds", "0", "--trace", "0"])
    result = _last_json(capsys)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_a_corrupted_cache_answer_fails_the_command(small, monkeypatch,
                                                   capsys):
    # enough cs reads per phase that popular queries repeat
    monkeypatch.setattr(workloads, "READS_PER_PHASE", {"cs": 30, "rs": 4})
    execute_sql = Session.execute_sql
    corrupted = []

    def drop_a_row(self, sql, **kwargs):
        run = execute_sql(self, sql, **kwargs)
        if run.source != "engine" and run.result.rows:
            corrupted.append(sql)
            rows = run.result.rows[:-1]
            return dataclasses.replace(
                run, result=ResultSet(run.result.columns, rows))
        return run

    monkeypatch.setattr(Session, "execute_sql", drop_a_row)
    code = run.main(["--workload", "serve-mixed", "--seed", "1",
                     "--seconds", "0", "--trace", "0"])
    output = capsys.readouterr().out
    result = json.loads(output.strip().splitlines()[-1])
    assert corrupted
    assert code != 0 and result["correct"] is False
    assert result["failed"] >= len(corrupted)
    assert "rows differ from the reference at epoch" in output


def test_a_surviving_unacked_write_fails_the_command(small, monkeypatch,
                                                    capsys):
    serve = workloads._serve

    def commit_everything(*args):
        journals, _committed, unacked, acked = serve(*args)
        # claim the never-acknowledged batch as committed, so that
        # recovery replays it
        return (journals, {n: j.records for n, j in journals.items()},
                unacked, acked)

    monkeypatch.setattr(workloads, "_serve", commit_everything)
    code = run.main(["--workload", "serve-mixed", "--seed", "1",
                     "--seconds", "0", "--trace", "0"])
    output = capsys.readouterr().out
    assert code != 0
    assert json.loads(output.strip().splitlines()[-1])["correct"] is False
    assert "recovered cs: an unacknowledged write survived" in output
    assert "recovered rs: an unacknowledged write survived" in output


def test_the_restart_keeps_no_old_engine_in_memory(small, monkeypatch):
    build, restart = workloads._build_engines, workloads._cold_restart
    built = []
    alive_at_restart = []

    def tracked_build(data):
        engines = build(data)
        built.append([weakref.ref(engine) for engine in engines])
        return engines

    def checked_restart(*args):
        alive_at_restart.extend(ref() is not None for ref in built[0])
        return restart(*args)

    monkeypatch.setattr(workloads, "_build_engines", tracked_build)
    monkeypatch.setattr(workloads, "_cold_restart", checked_restart)
    out = workloads.run_workload("serve-mixed", 1, workloads.Plan(None),
                                 tracing.NullRecorder())
    assert not out.failures, out.failures
    assert alive_at_restart == [False, False]


def test_clean_run_prints_every_end_to_end_metric(small, capsys):
    code = run.main(["--workload", "rs-read", "--seed", "3",
                     "--seconds", "0", "--trace", "0"])
    result = _last_json(capsys)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] \
        == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload,zero", [
    ("rs-read", ("storage.encodings.choose_codec_calls",
                 "storage.encodings.frame_calls",
                 "storage.encodings.decode_calls",
                 "storage.encodings.unpack_bits_calls")),
    ("cs-read", ("rowstore.hashagg_consume_calls",)),
])
def test_traced_run_reports_every_layer_metric(small, capsys, workload,
                                               zero):
    code = run.main(["--workload", workload, "--seed", "1",
                     "--seconds", "0", "--trace", "1"])
    metrics = _last_json(capsys)["metrics"]
    assert code == 0
    assert list(metrics) == list(run.LAYER_EFFECTS)
    for name in zero:
        assert metrics[name]["value"] == 0, name
    assert metrics["simio.read_page_calls"]["value"] > 0
    assert metrics["ledger.sim_s"]["value"] > 0


def test_benchmark_json_names_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == [(n, run.unit_of(n)) for n in run.LAYER_EFFECTS]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_self_time_subtracts_children_and_splits_generators():
    recorder = tracing.SpanRecorder()

    def produce():
        for item in range(3):
            with recorder.span("inner"):
                pass
            yield item

    wrapped = recorder._wrap("gen", produce)
    with recorder.span("outer"):
        assert list(wrapped()) == [0, 1, 2]
    table = recorder.self_times()
    # one span per next(), the last one ending the generator
    assert table["gen"][2] == 4
    assert table["inner"][2] == 3
    outer_self, outer_total, _ = table["outer"]
    gen_total = table["gen"][1]
    assert outer_self == pytest.approx(outer_total - gen_total, abs=1e-9)
    requests = {span[4] for span in recorder.spans}
    assert len(requests) == 1


def test_concurrent_spans_keep_their_own_parents():
    recorder = tracing.SpanRecorder()

    def client(tag):
        for _ in range(300):
            with recorder.span(f"outer-{tag}"):
                with recorder.span(f"inner-{tag}"):
                    pass

    threads = [threading.Thread(target=client, args=(tag,))
               for tag in range(4)]
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(saved)
    assert not any(thread.is_alive() for thread in threads)
    assert len(recorder.spans) == 4 * 300 * 2
    for index, (name, _start, _end, parent, request) in \
            enumerate(recorder.spans):
        if name.startswith("outer"):
            assert parent == -1 and request == index
        else:
            assert recorder.spans[parent][0] == "outer" + name[5:]
            assert request == parent


def test_uninstall_restores_every_target():
    def current(target):
        _module, owner, attr = tracing._resolve(target)
        return owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)

    before = {t: current(t) for t in tracing.SPAN_TARGETS.values()}
    recorder = tracing.SpanRecorder()
    recorder.install()
    assert any(current(t) is not before[t] for t in before)
    recorder.uninstall()
    assert all(current(t) is before[t] for t in before)
