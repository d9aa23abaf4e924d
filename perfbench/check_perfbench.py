"""Tests of the benchmark's own code (span arithmetic, counting, coverage guard).

Kept out of the package's test suite by the file name; run them with

    python3 -m pytest perfbench/check_perfbench.py
"""

import json
import os
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import ENTRY, TASK, Span, Tracer, install, self_times, union_length  # noqa: E402


def span(sid, name, start, end, parent=None, thread=1, error=False):
    return Span(sid, name, start, end, parent, thread, 1, error)


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == pytest.approx(4.0)


def test_self_time_with_overlapping_children_on_two_threads():
    spans = [
        span(1, ENTRY, 0.0, 10.0),
        span(2, "spectral.top_eigenpair", 1.0, 6.0, parent=1, thread=2),
        span(3, "spectral.top_eigenpair", 4.0, 8.0, parent=1, thread=3),
        span(4, "matrices.validate", 2.0, 3.0, parent=2, thread=2),
        # a child that outlives its parent only counts inside the parent
        span(5, "groups.round", 9.5, 11.0, parent=1),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 7.0 - 0.5)
    assert own[2] == pytest.approx(4.0)
    assert own[3] == pytest.approx(4.0)
    assert own[4] == pytest.approx(1.0)


def test_tracer_attaches_pool_threads_to_the_entry_span():
    tracer = Tracer()
    barrier = threading.Barrier(2)

    def work():
        with tracer.span("spectral.top_eigenpair"):
            barrier.wait(timeout=5)
            time.sleep(0.02)

    with tracer.entry() as root:
        pool_cls = tracer.pool_class(ThreadPoolExecutor)
        with pool_cls(max_workers=2) as pool:
            for f in [pool.submit(work) for _ in range(2)]:
                f.result(timeout=5)
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    tasks = by_name[TASK]
    assert len(tasks) == 2 and {t.parent for t in tasks} == {root}
    assert len({t.thread for t in tasks}) == 2
    task_ids = {t.id for t in tasks}
    assert {s.parent for s in by_name["spectral.top_eigenpair"]} == task_ids
    # the two tasks overlap, so the root's self time is below wall - sum(tasks)
    entry = by_name[ENTRY][0]
    covered = union_length((t.start, t.end) for t in tasks)
    assert self_times(tracer.spans)[root] == pytest.approx(entry.duration - covered)
    assert covered < sum(t.duration for t in tasks)


def _metrics(spans, workers=2, unmeasured=frozenset()):
    return layers.per_layer_metrics(spans, calls=1, workers=workers, mc_samples=1000,
                                    missed=0.0, overhead=0.0, unmeasured=set(unmeasured))


def test_pool_utilization_is_task_busy_over_workers_times_wall():
    spans = [span(1, ENTRY, 0.0, 10.0),
             span(2, TASK, 0.0, 8.0, parent=1, thread=2),
             span(3, TASK, 1.0, 8.0, parent=1, thread=3)]
    assert _metrics(spans)["harness.pool.utilization"] == pytest.approx(15.0 / 20.0)
    # no pool, no utilization: a serial run reports 0, not 1
    assert _metrics(spans[:1], workers=1)["harness.pool.utilization"] == 0.0


def test_resolvent_solves_per_root_count_only_found_roots():
    sr, rs = "spectral.secular_root", "spectral.resolvent_solve"
    spans = [span(1, ENTRY, 0, 10),
             span(2, sr, 0, 4, parent=1), span(3, sr, 4, 5, parent=1, error=True),
             span(4, "spectral.eigvec_via_resolvent", 5, 6, parent=1)]
    spans += [span(10 + i, rs, 0, 0.1, parent=2) for i in range(45)]
    spans += [span(60 + i, rs, 4, 4.1, parent=3) for i in range(2)]
    spans += [span(70, rs, 5, 5.1, parent=4)]
    m = _metrics(spans, workers=1)
    assert m["spectral.resolvent_solve.per_root"] == 45
    assert m["spectral.resolvent_solve.calls"] == 48


def test_coverage_guard_reports_unmeasured_layers_instead_of_zero():
    expected = Counter({"spectral.top_eigenpair": 4, "ensembles.sample": 4})
    observed = Counter({"ensembles.sample": 4})
    bad = layers.unmeasured_spans(observed, expected, Counter(), missing=set())
    assert bad == {"spectral.top_eigenpair"}
    spans = [span(1, ENTRY, 0, 1)] + [span(2 + i, "ensembles.sample", 0, 0.1, parent=1)
                                      for i in range(4)]
    m = _metrics(spans, unmeasured=bad)
    assert "spectral.top_eigenpair.busy_s" not in m
    assert "spectral.top_eigenpair.calls" not in m
    assert not any(name.endswith(".self_s") for name in m)
    assert m["trace.unmeasured"] == 1
    assert m["ensembles.sample.calls"] == 4
    # a lower bound is checked as one
    assert layers.unmeasured_spans(Counter({"spectral.resolvent_solve": 1}), Counter(),
                                   Counter({"spectral.resolvent_solve": 3}), set()) \
        == {"spectral.resolvent_solve"}


def test_install_restores_and_reports_missing_names():
    def f(x):
        return x + 1
    owner = SimpleNamespace(f=f)
    tracer = Tracer()
    restore, missing = install(tracer, [(owner, "f", "groups.round"),
                                        (owner, "gone", "groups.score")])
    assert missing == {"groups.score"}
    assert owner.f(1) == 2 and owner.f is not f
    restore()
    assert owner.f is f
    assert [s.name for s in tracer.spans] == ["groups.round"]


def test_every_traced_target_exists_in_the_package():
    for owner, attr, _ in workloads.trace_targets():
        assert hasattr(owner, attr), (owner, attr)


def test_fail_frac_counting():
    tally = workloads.Tally()
    tally.check(True, "ok")
    tally.check(False, "statistical miss")
    tally.check(False, "determinism", deterministic=True)
    tally.crash(3, "raised")
    assert (tally.attempted, tally.failed, tally.missed) == (6, 4, 1)
    assert tally.ok_frac == pytest.approx(1 / 6)
    assert tally.notes == ["statistical miss"]
    assert tally.wrong == ["determinism", "raised"]


def test_crosscheck_counts_refused_roots_as_misses():
    xc = workloads.Crosscheck("crosscheck", 0, ".", 1, n=4, grid=(2.0, 1.2, 0.5))
    e = np.array([1.0, 0.0, 0.0, 0.0])
    est = SimpleNamespace(eigenvalue=2.5, eigenvector=e)
    tally = workloads.Tally()
    xc.check(0, (2.0, est, 2.5 + 1e-12, e), tally)      # found and agreeing: 2 ops ok
    xc.check(1, (1.2, est, None, e), tally)             # supercritical "no outlier"
    xc.check(2, (0.5, est, None, None), tally)          # subcritical control: ok
    xc.check(0, (2.0, est, 2.5 + 1e-6, -e), tally)      # root off by 1e-6
    assert (tally.attempted, tally.failed, tally.missed) == (7, 1, 1)
    assert tally.ok_frac == pytest.approx(5 / 7)
    assert xc.missed == pytest.approx(1 / 3)
    assert len(tally.wrong) == 1 and "root" in tally.wrong[0]
    assert [xc.ops(k) for k in range(3)] == [2, 2, 1]


def test_sweep_determinism_check_catches_changed_bytes(tmp_path):
    wl = workloads.build("sweep-z2", 3, str(tmp_path), small=True)
    tally = workloads.Tally()
    for k in range(2):
        wl.check(k, wl.call(k), tally)
    # 4 theta x (1 trial + 1 cell) per call, plus the byte check on the second
    assert not tally.wrong and tally.attempted == 8 + 9
    with open(tmp_path / "report.csv", "a") as fh:
        fh.write("\n")
    wl.check(2, wl.call(2), tally)
    assert not tally.wrong  # rewritten by the call itself
    report = wl.call(3)
    with open(tmp_path / "report.svg", "a") as fh:
        fh.write(" ")
    wl.check(3, report, tally)
    assert tally.wrong == ["report bytes differ from the first call of this seed"]


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [(m.name, m.unit, m.better) for m in layers.PER_LAYER]
