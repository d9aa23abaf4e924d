"""Per-layer metrics, what each should move, and how they are read from spans.

Layers are the package modules: ensembles, matrices, spectral, groups,
predictions and harness (sweep, universality, report, svgplot).  rng,
limits, errors, config and cli get no metric of their own; their time falls
into harness.self_s.

Every time and count is a mean per traced entry call (``trace.calls`` gives
the number of calls).  A metric whose layer has no calls on a workload reads
0: the coverage guard has checked that the workload implies no calls there.
A layer whose observed calls differ from the ones the workload implies is
unmeasured: its metrics are left out and counted in ``trace.unmeasured``,
never reported as zero.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass

from spans import ENTRY, TASK, self_times

LAYERS = ("ensembles", "matrices", "spectral", "groups", "predictions", "harness")


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    span: str | None  # span the value is read from; None for derived metrics
    moves: str        # end-to-end metric it should move
    on: str           # workloads where it should move them


_EIG, _SR, _RS = ("spectral.top_eigenpair", "spectral.secular_root",
                  "spectral.resolvent_solve")
_EIG_ON = "sweep-u1, universality (little on sweep-z2)"

PER_LAYER = (
    LayerMetric("spectral.top_eigenpair.busy_s", "s", "lower", _EIG, "wall_s, cpu_s", _EIG_ON),
    LayerMetric("spectral.top_eigenpair.calls", "count", "lower", _EIG, "wall_s, cpu_s", _EIG_ON),
    LayerMetric("spectral.top_eigenpair.p50_ms", "ms", "lower", _EIG, "wall_s, cpu_s", _EIG_ON),
    LayerMetric("spectral.secular_root.busy_s", "s", "lower", _SR, "wall_s", "crosscheck"),
    LayerMetric("spectral.secular_root.missed", "frac", "lower", _SR, "ok_frac", "crosscheck"),
    LayerMetric("spectral.resolvent_solve.calls", "count", "lower", _RS, "wall_s", "crosscheck"),
    LayerMetric("spectral.resolvent_solve.per_root", "count", "lower", _RS, "wall_s",
                "crosscheck"),
    LayerMetric("spectral.eigvec_via_resolvent.busy_s", "s", "lower",
                "spectral.eigvec_via_resolvent", "wall_s", "crosscheck"),
    LayerMetric("ensembles.sample.busy_s", "s", "lower", "ensembles.sample",
                "wall_s, peak_rss_mb", "sweep-z2, universality"),
    LayerMetric("ensembles.sample.calls", "count", "lower", "ensembles.sample",
                "wall_s, peak_rss_mb", "sweep-z2, universality"),
    LayerMetric("ensembles.embed.busy_s", "s", "lower", "ensembles.embed", "wall_s",
                "sweep-z2"),
    LayerMetric("matrices.validate.busy_s", "s", "lower", "matrices.validate", "wall_s",
                "sweep-z2"),
    LayerMetric("matrices.validate.calls", "count", "lower", "matrices.validate", "wall_s",
                "sweep-z2"),
    LayerMetric("groups.round.busy_s", "s", "lower", "groups.round", "wall_s",
                "sweep-z2 (not sweep-u1)"),
    LayerMetric("groups.score.busy_s", "s", "lower", "groups.score", "wall_s", "sweep-z2"),
    LayerMetric("predictions.predict.busy_s", "s", "lower", "predictions.predict", "wall_s",
                "sweep-z2, sweep-u1"),
    LayerMetric("predictions.samples_per_s", "1/s", "higher", "predictions.predict", "wall_s",
                "sweep-z2, sweep-u1"),
    LayerMetric("harness.pool.utilization", "frac", "higher", TASK, "wall_s, cpu_s",
                "sweep-z2, universality"),
    LayerMetric("harness.report.busy_s", "s", "lower", "harness.report", "wall_s",
                "sweep-z2"),
) + tuple(
    LayerMetric(f"{layer}.self_s", "s", "lower", None, "wall_s", "all") for layer in LAYERS
) + (
    LayerMetric("trace.overhead_frac", "frac", "lower", None, "none (tracing cost)", "all"),
    LayerMetric("trace.unmeasured", "count", "lower", None, "none (coverage guard)", "all"),
    LayerMetric("trace.calls", "count", "higher", None, "none (base of the means)", "all"),
)

UNITS = {m.name: m.unit for m in PER_LAYER}


def unmeasured_spans(observed: Counter, expected: Counter, minimum: Counter,
                     missing: set) -> set[str]:
    """Span names whose observed call count differs from what the workload implies.

    ``expected`` holds exact counts, ``minimum`` lower bounds for counts that
    depend on the data (resolvent solves per root).  Names in ``missing``
    could not be wrapped at all.
    """
    bad = set(missing)
    for name in set(expected) | set(observed):
        if name in minimum or name == ENTRY:
            continue
        if observed[name] != expected[name]:
            bad.add(name)
    for name, floor in minimum.items():
        if observed[name] < floor:
            bad.add(name)
    return bad


def per_layer_metrics(spans, calls: int, workers: int, mc_samples: int,
                      missed: float, overhead: float, unmeasured: set[str]) -> dict:
    """Name -> value for every metric in PER_LAYER that was measured."""
    busy = defaultdict(float)
    count = Counter()
    durations = defaultdict(list)
    for s in spans:
        busy[s.name] += s.duration
        count[s.name] += 1
        durations[s.name].append(s.duration)
    per_call = 1.0 / calls

    found_roots = {s.id for s in spans if s.name == _SR and not s.error}
    solves_in_roots = sum(1 for s in spans if s.name == _RS and s.parent in found_roots)
    tasks = busy[TASK]
    eig = durations[_EIG]
    predict = busy["predictions.predict"]
    values = {
        "spectral.top_eigenpair.busy_s": busy[_EIG] * per_call,
        "spectral.top_eigenpair.calls": count[_EIG] * per_call,
        "spectral.top_eigenpair.p50_ms": statistics.median(eig) * 1e3 if eig else 0.0,
        "spectral.secular_root.busy_s": busy[_SR] * per_call,
        "spectral.secular_root.missed": missed,
        "spectral.resolvent_solve.calls": count[_RS] * per_call,
        "spectral.resolvent_solve.per_root":
            solves_in_roots / len(found_roots) if found_roots else 0.0,
        "spectral.eigvec_via_resolvent.busy_s":
            busy["spectral.eigvec_via_resolvent"] * per_call,
        "ensembles.sample.busy_s": busy["ensembles.sample"] * per_call,
        "ensembles.sample.calls": count["ensembles.sample"] * per_call,
        "ensembles.embed.busy_s": busy["ensembles.embed"] * per_call,
        "matrices.validate.busy_s": busy["matrices.validate"] * per_call,
        "matrices.validate.calls": count["matrices.validate"] * per_call,
        "groups.round.busy_s": busy["groups.round"] * per_call,
        "groups.score.busy_s": busy["groups.score"] * per_call,
        "predictions.predict.busy_s": predict * per_call,
        "predictions.samples_per_s":
            count["predictions.predict"] * mc_samples / predict if predict else 0.0,
        "harness.pool.utilization":
            tasks / (workers * busy[ENTRY]) if tasks else 0.0,
        "harness.report.busy_s": busy["harness.report"] * per_call,
        "trace.overhead_frac": overhead,
        "trace.unmeasured": float(len(unmeasured)),
        "trace.calls": float(calls),
    }
    # self time needs every child span: with one layer unmeasured, its time
    # would be booked to whichever layer called it
    if not unmeasured:
        own = self_times(spans)
        selfs = defaultdict(float)
        for s in spans:
            selfs[s.layer] += own[s.id]
        for layer in LAYERS:
            values[f"{layer}.self_s"] = selfs[layer] * per_call
    return {m.name: values[m.name] for m in PER_LAYER
            if m.name in values and m.span not in unmeasured}
