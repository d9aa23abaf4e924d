"""A/B comparison of outlier-eigenvector statistics across noise ensembles.

Two ensembles with matching off-diagonal second moments should produce the
same distribution of smooth eigenvector observables; this module runs the
paired experiment and reports per-pair means with standard errors.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from ..ensembles import EnsembleSpec, SpikeConfig, build_spiked, sample_ensemble
from ..errors import ValidationError, checked_int
from ..rng import stream
from ..spectral import top_eigenpair
from .config import PHI_FUNCS, UniversalityConfig, ensemble_text, parse_ensemble
from .report import PairComparison, UniversalityReport

# analytic variances must agree to rounding error off the diagonal
MOMENT_MATCH_TOL = 1e-12


def check_moment_match(spec_a: EnsembleSpec, spec_b: EnsembleSpec) -> None:
    """Reject ensemble pairs whose off-diagonal second moments differ.

    Every ensemble here draws the real and imaginary parts of an entry
    independently with equal variance, so the variance of each part (sigma^2
    for field R, sigma^2/2 for C) is the whole second-moment profile.
    Diagonal variances are exempt: they only enter at lower order and the
    classical ensembles disagree there by design.
    """
    if spec_a.n != spec_b.n:
        raise ValidationError(f"ensemble sizes differ: {spec_a.n} vs {spec_b.n}")
    if spec_a.field != spec_b.field:
        raise ValidationError("ensembles must share the same field "
                              f"(got {spec_a.field} vs {spec_b.field})")
    per_part = 1.0 if spec_a.field == "R" else 0.5
    diff = per_part * np.abs(spec_a.offdiag_variance - spec_b.offdiag_variance)
    if np.ndim(diff):  # a given profile: its diagonal is exempt too
        np.fill_diagonal(diff, 0.0)
    worst = float(np.max(diff))
    if worst > MOMENT_MATCH_TOL:
        raise ValidationError(
            f"off-diagonal re second moments are not matched "
            f"(max deviation {worst:.3e})")


def check_delocalized(v: np.ndarray) -> None:
    n = v.shape[0]
    peak = float(np.abs(v).max())
    if peak > n ** -0.25:
        raise ValidationError(
            f"signal vector is too localized: max|v_i| = {peak:.4f} exceeds "
            f"n^(-1/4) = {n ** -0.25:.4f}")


def run_universality_ab(spec_a: EnsembleSpec, spec_b: EnsembleSpec, v: np.ndarray,
                        theta: float, phi, pairs, trials: int, seed: int,
                        workers: int = 1) -> UniversalityReport:
    """Compare phi(n * Re(u_i conj(u_j))) of the outlier eigenvector u between
    two moment-matched ensembles, with the same planted direction v.  ``phi``
    names one of the statistics in ``PHI_FUNCS``.

    The two arms use independent streams keyed off ``seed``; matching is in
    distribution, not pathwise, so the comparison happens at the level of
    per-pair means and standard errors.
    """
    start = time.perf_counter()
    workers = checked_int(workers, "workers", 1)
    check_moment_match(spec_a, spec_b)
    n = spec_a.n
    v = np.asarray(v)
    if v.shape != (n,):
        raise ValidationError(f"signal vector must have shape ({n},), got {v.shape}")
    if spec_a.field == "R":
        if np.iscomplexobj(v) and np.abs(v.imag).max() != 0.0:
            raise ValidationError("real-field ensembles need a real signal vector")
        v = v.real  # a zero imaginary part must not turn H complex
    spike = SpikeConfig(theta, v)
    check_delocalized(v)
    trials = checked_int(trials, "trials")
    seed = checked_int(seed, "seed")
    if trials < 2:
        raise ValidationError("need at least 2 trials for standard errors")
    try:  # unpacking raises TypeError or ValueError; checked_int refuses by ValueError
        pairs = [(checked_int(i, "index"), checked_int(j, "index")) for i, j in pairs]
    except (TypeError, ValueError):
        raise ValidationError("index pairs must be pairs of integers") from None
    if not pairs:
        raise ValidationError("need at least one index pair")
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise ValidationError(f"invalid index pair ({i}, {j}) for n = {n}")
    idx_i, idx_j = np.array(pairs).T
    if phi not in PHI_FUNCS:
        raise ValidationError(f"unknown statistic {phi!r}")

    def one_trial(task):
        label, spec, t = task
        w = sample_ensemble(spec, stream(seed, "universality", label, t))
        u = top_eigenpair(build_spiked(spike, w)).eigenvector
        return PHI_FUNCS[phi](n * np.real(u[idx_i] * np.conj(u[idx_j])))

    tasks = [(label, spec, t) for label, spec in (("a", spec_a), ("b", spec_b))
             for t in range(trials)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(one_trial, tasks))
    else:
        rows = [one_trial(task) for task in tasks]
    stats_a = np.array(rows[:trials])
    stats_b = np.array(rows[trials:])
    root = np.sqrt(trials)
    comparisons = []
    for k, (i, j) in enumerate(pairs):
        comparisons.append(PairComparison(
            i=i, j=j,
            mean_a=float(stats_a[:, k].mean()),
            stderr_a=float(stats_a[:, k].std(ddof=1) / root),
            mean_b=float(stats_b[:, k].mean()),
            stderr_b=float(stats_b[:, k].std(ddof=1) / root)))
    config_echo = {"ensemble_a": ensemble_text(spec_a), "ensemble_b": ensemble_text(spec_b),
                   "n": n, "theta": spike.theta, "phi": phi, "n_pairs": len(pairs),
                   "trials": trials, "master_seed": seed, "signal": "explicit"}
    return UniversalityReport(config_echo=config_echo, pairs=tuple(comparisons),
                              wall_time_s=time.perf_counter() - start)


def _signal_vector(kind: str, n: int, field: str, rng) -> np.ndarray:
    if kind == "uniform":
        v = np.ones(n)
    elif field == "C":
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    else:
        v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _draw_pairs(n: int, n_pairs: int, rng) -> list[tuple[int, int]]:
    if n_pairs > n * (n - 1) // 2:
        raise ValidationError(f"cannot draw {n_pairs} distinct pairs from n = {n}")
    seen: set[tuple[int, int]] = set()
    out: list[tuple[int, int]] = []
    while len(out) < n_pairs:
        i = int(rng.integers(n))
        j = int(rng.integers(n))
        if i == j:
            continue
        if i > j:
            i, j = j, i
        if (i, j) in seen:
            continue
        seen.add((i, j))
        out.append((i, j))
    return out


def run_universality_config(config: UniversalityConfig, workers: int = 1,
                            ) -> UniversalityReport:
    """Config-file front end: build the signal and the index pairs from the
    master seed, then run the A/B comparison and echo the config itself."""
    spec_a = parse_ensemble(config.ensemble_a, config.n)
    spec_b = parse_ensemble(config.ensemble_b, config.n)
    v = _signal_vector(config.signal, config.n, spec_a.field,
                       stream(config.master_seed, "signal"))
    pairs = _draw_pairs(config.n, config.n_pairs,
                        stream(config.master_seed, "pairs"))
    report = run_universality_ab(spec_a, spec_b, v, config.theta, config.phi, pairs,
                                 config.trials, config.master_seed, workers=workers)
    return replace(report, config_echo=config.echo())
