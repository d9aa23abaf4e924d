"""Run theta sweeps of the full synchronization pipeline."""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..ensembles import (SpikeConfig, build_spiked, sample_goe, sample_gue,
                         sample_truth_or_haar, sync_observation_matrix)
from ..errors import checked_int
from ..groups import (average_loss, character, estimate_group_matrix, haar_sample,
                      pairwise_matrix, real_field)
from ..matrices import HermitianMatrix
from ..predictions import predict_sync_loss
from ..rng import derive_key, stream
from ..spectral import top_eigenpair
from .config import SweepConfig
from .report import SweepReport, ThetaSummary, TrialRecord, summarize_trials


def _observation(config: SweepConfig, theta: float, x: np.ndarray, noise_rng) -> HermitianMatrix:
    """The trial's observation matrix H; each n x n input is passed straight
    on, so nothing but H outlives this call."""
    group = config.group
    n = config.n
    if config.noise_model == "truth-or-haar":
        return sync_observation_matrix(
            group, sample_truth_or_haar(group, x, theta / np.sqrt(n), noise_rng))
    sample = sample_goe if real_field(group) else sample_gue
    return build_spiked(SpikeConfig(theta, character(group, x) / np.sqrt(n)),
                        sample(n, noise_rng))


def _run_trial(config: SweepConfig, theta_index: int, theta: float, trial: int) -> TrialRecord:
    group = config.group
    trial_key = derive_key(config.master_seed, "sweep", theta_index, trial)
    x = haar_sample(group, config.n, stream(trial_key, "signal"))
    # H is freed as soon as its top eigenpair is known
    estimate = top_eigenpair(_observation(config, theta, x, stream(trial_key, "noise")))
    m_hat = estimate_group_matrix(group, estimate.eigenvector)
    m_true = pairwise_matrix(group, x)
    loss = average_loss(group, m_true, m_hat)
    return TrialRecord(theta_index=theta_index, theta=float(theta), trial=trial,
                       seed=str(trial_key), empirical_loss=loss)


def run_sweep(config: SweepConfig, workers: int = 1) -> SweepReport:
    """Execute every (theta, trial) cell and attach per-theta predictions.

    Each cell draws from streams named by (master_seed, theta-index, trial),
    and results are collected in task order, so the report is identical for
    any ``workers`` value.  Threads only buy wall time where a trial runs
    numpy code that releases the GIL: scipy's eigensolver wrappers hold it
    for the whole solve, so two trials never solve at once.
    """
    start = time.perf_counter()
    workers = checked_int(workers, "workers", 1)
    tasks = [(ti, theta, t) for ti, theta in enumerate(config.theta_grid)
             for t in range(config.trials)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = tuple(pool.map(lambda args: _run_trial(config, *args), tasks))
    else:
        records = tuple(_run_trial(config, *args) for args in tasks)
    summaries = []
    for ti, theta in enumerate(config.theta_grid):
        prediction = predict_sync_loss(
            config.group, theta, n_samples=config.mc_samples,
            seed=derive_key(config.master_seed, "prediction", ti))
        losses = [r.empirical_loss for r in records if r.theta_index == ti]
        summaries.append(summarize_trials(theta, losses, prediction))
    return SweepReport(config=config, records=records, summaries=tuple(summaries),
                       wall_time_s=time.perf_counter() - start)
