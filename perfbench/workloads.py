"""The four benchmark workloads, their inputs, output checks and implied call counts.

Each workload is built from the run seed alone and exposes numbered entry
calls.  ``call(k)`` runs one entry call through the package's public entry
points, ``check(k, result, tally)`` scores its outputs with the acceptance
gate's own tolerances, and ``expected(k)`` gives the layer call counts the
call implies, for the traced run's coverage guard.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is recorded in BENCHMARK.json and layers.py.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys
from collections import Counter

import numpy as np

import spikesim
from spikesim import (BracketError, EnsembleSpec, SingularShiftError, SpikeConfig,
                      build_spiked, eigvec_via_resolvent, parse_group, sample_goe,
                      secular_root, stream, top_eigenpair)
from spikesim.harness import (SweepConfig, write_sweep_csv, write_sweep_json,
                              write_sweep_svg, write_universality_csv,
                              write_universality_json)
from spikesim.harness import sweep as sweep_module
from spikesim.harness import universality as universality_module

from spans import TASK


class Tally:
    """Operations attempted, failed and missed over a run.

    An operation is a trial, a theta cell, a pair or a root.  It fails when
    it raises or misses a deterministic check (byte determinism, root and
    eigenvector agreement, finite losses): its output is wrong, so it is
    also kept in ``wrong`` and the run's outputs are incorrect.  It is
    missed when it lands outside a statistical acceptance-gate tolerance,
    which correct code also does on some seeds, or is refused (a
    supercritical "no outlier" from secular_root's fixed bracket margin).
    Misses are kept in ``notes`` and lower ``ok_frac``, the share of
    operations that neither fail nor miss.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.missed = 0
        self.wrong: list[str] = []
        self.notes: list[str] = []

    def check(self, ok: bool, what: str, deterministic: bool = False) -> None:
        self.attempted += 1
        if ok:
            return
        if deterministic:
            self.failed += 1
            self.wrong.append(what)
        else:
            self.missed += 1
            self.notes.append(what)

    def crash(self, ops: int, what: str) -> None:
        self.attempted += ops
        self.failed += ops
        self.wrong.append(what)

    @property
    def ok_frac(self) -> float:
        return 1.0 - (self.failed + self.missed) / self.attempted


def _unit_vector(rng, n: int) -> np.ndarray:
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


class Sweep:
    """``run_sweep`` on one group, then the csv/json/svg report writers."""

    period = 1  # every entry call is the same

    def __init__(self, name, seed, out_dir, workers, group, n, theta_grid, trials,
                 noise_model, mc_samples):
        self.name = name
        self.workers = workers
        self.out_dir = out_dir
        group = parse_group(group)
        self.cyclic = isinstance(group, spikesim.CyclicGroup)
        self.config = SweepConfig(
            group=group, n=n, theta_grid=theta_grid, trials=trials,
            noise_model=noise_model,
            rounding="nearest-character" if self.cyclic else "phase",
            loss="mismatch" if self.cyclic else "one-minus-cos",
            mc_samples=mc_samples, master_seed=seed, out_dir=out_dir)
        self.mc_samples = mc_samples
        self.digest = None
        self.missed = 0.0

    def _paths(self):
        return [os.path.join(self.out_dir, f"report.{ext}") for ext in ("csv", "json", "svg")]

    def call(self, k):
        report = sweep_module.run_sweep(self.config, workers=self.workers)
        for path, writer in zip(self._paths(),
                                (write_sweep_csv, write_sweep_json, write_sweep_svg)):
            writer(report, path)
        return report

    def check(self, k, report, tally: Tally) -> None:
        trials = self.config.trials
        top = 1.0 if self.cyclic else 2.0
        for rec in report.records:
            tally.check(math.isfinite(rec.empirical_loss) and 0.0 <= rec.empirical_loss <= top,
                        f"theta={rec.theta:g} trial {rec.trial}: loss {rec.empirical_loss!r}",
                        deterministic=True)
        for s in report.summaries:
            # acceptance criterion 7, with this workload's trial count
            tol = max(0.02, 3.0 * (s.empirical_std / math.sqrt(trials) + s.prediction_stderr))
            dev = abs(s.empirical_mean - s.prediction_mean)
            tally.check(dev <= tol, f"theta={s.theta:g}: |empirical - predicted| "
                                    f"{dev:.4g} > tol {tol:.4g}")
        digest = hashlib.sha256()
        for path in self._paths():
            with open(path, "rb") as fh:
                digest.update(fh.read())
        if self.digest is None:
            self.digest = digest.hexdigest()
        else:
            tally.check(digest.hexdigest() == self.digest,
                        "report bytes differ from the first call of this seed",
                        deterministic=True)

    def ops(self, k) -> int:
        cfg = self.config
        return len(cfg.theta_grid) * (cfg.trials + 1) + (self.digest is not None)

    def expected(self, k) -> Counter:
        cfg = self.config
        cells = len(cfg.theta_grid) * cfg.trials
        truth_or_haar = cfg.noise_model == "truth-or-haar"
        return Counter({
            "ensembles.sample": cells,
            "ensembles.embed": cells,
            # truth-or-haar builds one matrix per trial, the Gaussian model two
            "matrices.validate": cells if truth_or_haar else 2 * cells,
            "spectral.top_eigenpair": cells,
            "groups.round": cells,
            "groups.score": 2 * cells,
            "predictions.predict": len(cfg.theta_grid),
            "harness.report": 3,
            TASK: cells if self.workers > 1 else 0,
        })

    def minimum(self, k) -> Counter:
        return Counter()


class Universality:
    """``run_universality_ab``: GOE against Rademacher Wigner, then the writers."""

    period = 1

    def __init__(self, name, seed, out_dir, workers, n, theta, n_pairs, trials):
        self.name = name
        self.workers = workers
        self.out_dir = out_dir
        self.seed = seed
        self.theta = theta
        self.trials = trials
        self.mc_samples = 0
        self.missed = 0.0
        self.spec_a = EnsembleSpec(kind="goe", n=n)
        self.spec_b = EnsembleSpec(kind="generalized-wigner", n=n, entry_law="rademacher")
        # the A/B gate refuses localized signals (max|v_i| > n^-1/4); redraw
        # until the Gaussian direction is delocalized, as it almost always is
        draw = 0
        while True:
            self.v = _unit_vector(stream(seed, "perfbench", "signal", draw), n)
            if np.abs(self.v).max() <= n ** -0.25:
                break
            draw += 1
        order = stream(seed, "perfbench", "pairs").permutation(n)[:2 * n_pairs]
        self.pairs = [(int(order[2 * i]), int(order[2 * i + 1])) for i in range(n_pairs)]

    def call(self, k):
        report = universality_module.run_universality_ab(
            self.spec_a, self.spec_b, self.v, self.theta, "tanh", self.pairs,
            self.trials, seed=self.seed, workers=self.workers)
        write_universality_csv(report, os.path.join(self.out_dir, "universality.csv"))
        write_universality_json(report, os.path.join(self.out_dir, "universality.json"))
        return report

    def check(self, k, report, tally: Tally) -> None:
        for p in report.pairs:
            # acceptance criterion 8: |mean_a - mean_b| <= 4 combined stderr
            tally.check(p.abs_diff <= 4.0 * p.combined_stderr,
                        f"pair ({p.i}, {p.j}): |diff| {p.abs_diff:.4g} > "
                        f"4 x stderr {p.combined_stderr:.4g}")

    def ops(self, k) -> int:
        return len(self.pairs)

    def expected(self, k) -> Counter:
        tasks = 2 * self.trials
        return Counter({
            "ensembles.sample": tasks,
            "ensembles.embed": tasks,
            "matrices.validate": 2 * tasks,
            "spectral.top_eigenpair": tasks,
            "harness.report": 2,
            TASK: tasks if self.workers > 1 else 0,
        })

    def minimum(self, k) -> Counter:
        return Counter()


class Crosscheck:
    """Spiked GOE: top eigenpair, secular-equation root and resolvent eigenvector.

    Entry call k is one instance: theta = grid[k % len(grid)] on the noise and
    signal of pass k // len(grid).  The grid starts with theta values whose
    root is always found, so that cheap instances (the subcritical control
    and near-critical misses) stay a minority of any prefix of calls.
    """

    ROOT_TOL = 1e-8        # acceptance criterion 3
    PROJECTOR_TOL = 1e-6   # acceptance criterion 3

    def __init__(self, name, seed, out_dir, workers, n, grid):
        self.name = name
        self.workers = workers
        self.seed = seed
        self.n = n
        self.grid = grid
        self.period = len(grid)
        self.mc_samples = 0
        self.supercritical = 0
        self.misses = 0

    @property
    def missed(self) -> float:
        return self.misses / self.supercritical if self.supercritical else 0.0

    def _theta(self, k) -> float:
        return self.grid[k % len(self.grid)]

    def call(self, k):
        theta = self._theta(k)
        rep = k // len(self.grid)
        v = _unit_vector(stream(self.seed, "perfbench", "crosscheck", rep, "signal"), self.n)
        w = sample_goe(self.n, stream(self.seed, "perfbench", "crosscheck", rep, "noise"))
        est = top_eigenpair(build_spiked(SpikeConfig(theta, v), w))
        try:
            root = secular_root(w.entries, v, theta)
        except BracketError:
            root = None
        u = None
        if theta > 1.0:
            try:
                u = eigvec_via_resolvent(w.entries, est.eigenvalue, v)
            except SingularShiftError:
                pass
        return theta, est, root, u

    def check(self, k, result, tally: Tally) -> None:
        theta, est, root, u = result
        if theta <= 1.0:
            tally.check(root is None, f"theta={theta:g}: subcritical root {root!r} reported")
            return
        self.supercritical += 1
        if root is None:
            self.misses += 1
            tally.check(False, f"theta={theta:g}: supercritical spike reported as no outlier")
        else:
            dev = abs(root - est.eigenvalue)
            tally.check(dev <= self.ROOT_TOL,
                        f"theta={theta:g}: |root - eigenvalue| = {dev:.3g}", deterministic=True)
        if u is None:
            tally.check(False, f"theta={theta:g}: resolvent shift refused as singular")
        else:
            # ||uu* - ee*||_F for unit u, e
            inner = abs(np.vdot(u, est.eigenvector)) ** 2
            gap = math.sqrt(max(0.0, 2.0 - 2.0 * inner))
            tally.check(gap <= self.PROJECTOR_TOL,
                        f"theta={theta:g}: projector gap {gap:.3g}", deterministic=True)

    def ops(self, k) -> int:
        return 2 if self._theta(k) > 1.0 else 1

    def expected(self, k) -> Counter:
        super_ = self._theta(k) > 1.0
        return Counter({
            "ensembles.sample": 1,
            "ensembles.embed": 1,
            "matrices.validate": 2,
            "spectral.top_eigenpair": 1,
            "spectral.secular_root": 1,
            "spectral.eigvec_via_resolvent": int(super_),
        })

    def minimum(self, k) -> Counter:
        # a root evaluates f at both bracket ends; the eigenvector adds one solve
        return Counter({"spectral.resolvent_solve": 2 + (self._theta(k) > 1.0)})


def _workers(requested: int) -> int:
    """Never more workers than cores available to this process."""
    return max(1, min(requested, len(os.sched_getaffinity(0))))


def build(name: str, seed: int, out_dir: str, small: bool = False):
    """Workload ``name`` for ``seed``; ``small`` gives the warm-up version."""
    if name == "sweep-z2":
        return Sweep(name, seed, out_dir, _workers(2), "Z/2", n=40 if small else 500,
                     theta_grid=(1.5, 2.0, 2.5, 3.0), trials=1 if small else 5,
                     noise_model="truth-or-haar", mc_samples=1000 if small else 10 ** 6)
    if name == "sweep-u1":
        return Sweep(name, seed, out_dir, _workers(1), "U(1)", n=40 if small else 1000,
                     theta_grid=(1.5, 2.5), trials=1 if small else 2,
                     noise_model="gaussian-additive", mc_samples=1000 if small else 10 ** 6)
    if name == "universality":
        return Universality(name, seed, out_dir, _workers(2), n=64 if small else 400,
                            theta=2.0, n_pairs=10, trials=2 if small else 20)
    if name == "crosscheck":
        return Crosscheck(name, seed, out_dir, _workers(1), n=40 if small else 1000,
                          grid=(2.0, 1.2, 3.0, 0.5, 1.3, 1.5))
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("sweep-z2", "sweep-u1", "universality", "crosscheck")


def trace_targets():
    """(owner, attribute, span name) for every layer function the workloads reach.

    Names are wrapped where they are looked up: in the harness modules that
    imported them, in spikesim.spectral for the solves inside the root
    finder, and in this module for the calls the benchmark makes itself.
    ``HermitianMatrix`` validates in ``__post_init__``, wrapped on the class.
    """
    here = sys.modules[__name__]
    return [
        (spikesim.HermitianMatrix, "__post_init__", "matrices.validate"),
        (spikesim.spectral, "resolvent_solve", "spectral.resolvent_solve"),
        (sweep_module, "sample_goe", "ensembles.sample"),
        (sweep_module, "sample_gue", "ensembles.sample"),
        (sweep_module, "sample_truth_or_haar", "ensembles.sample"),
        (sweep_module, "sync_observation_matrix", "ensembles.embed"),
        (sweep_module, "build_spiked", "ensembles.embed"),
        (sweep_module, "top_eigenpair", "spectral.top_eigenpair"),
        (sweep_module, "estimate_group_matrix", "groups.round"),
        (sweep_module, "pairwise_matrix", "groups.score"),
        (sweep_module, "average_loss", "groups.score"),
        (sweep_module, "predict_sync_loss", "predictions.predict"),
        (sweep_module, "ThreadPoolExecutor", TASK),
        (universality_module, "sample_ensemble", "ensembles.sample"),
        (universality_module, "build_spiked", "ensembles.embed"),
        (universality_module, "top_eigenpair", "spectral.top_eigenpair"),
        (universality_module, "ThreadPoolExecutor", TASK),
        (here, "sample_goe", "ensembles.sample"),
        (here, "build_spiked", "ensembles.embed"),
        (here, "top_eigenpair", "spectral.top_eigenpair"),
        (here, "secular_root", "spectral.secular_root"),
        (here, "eigvec_via_resolvent", "spectral.eigvec_via_resolvent"),
        (here, "write_sweep_csv", "harness.report"),
        (here, "write_sweep_json", "harness.report"),
        (here, "write_sweep_svg", "harness.report"),
        (here, "write_universality_csv", "harness.report"),
        (here, "write_universality_json", "harness.report"),
    ]
