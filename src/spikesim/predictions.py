"""Limiting values of the averaged entrywise loss, by Monte Carlo and closed form.

Above the transition the rounded spectral estimator's average loss converges
to a fixed-dimension expectation: two Haar group elements x, y and two
standard F-Gaussians g, h, with the estimator entry modeled as

    (rho * chi(x) + tau * g) * (rho * conj(chi(y)) + tau * conj(h)),

where rho^2 is the limiting squared overlap and tau^2 = 1 - rho^2.  The field
F is R exactly when the group is Z/2 (real observation matrix), else C.  For
Z/2 with mismatch loss the expectation reduces in closed form to 2q(1-q) with
q = Phi(-sqrt(theta^2 - 1)).

One loop runs over chunks of ``CHUNK`` samples, each with its own named
stream, and adds each chunk's two float sums in chunk order, so an estimate is
reproducible for a given seed.  Each chunk draws its x, y, g and h
full-length, in that order; the arithmetic after the draws then runs over
blocks of ``BLOCK`` samples, so only the draws and the chunk's loss values are
chunk-sized, and they are freed before the next chunk draws.  Only ``CHUNK``
names streams: every step after the draws is elementwise, so the block size
moves no bit of an estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .groups import (Group, character, difference, haar_sample, loss_values,
                     real_field, round_to_group)
from .limits import overlap_limit, residual_variance_limit
from .rng import stream

MIN_SAMPLES = 1000
DEFAULT_SAMPLES = 10 ** 6
# Samples per chunk.  Chunk k draws from the stream named (seed, "chunk", k),
# so the chunk size names the Monte Carlo streams: changing it moves every bit
# of any estimate that crosses a chunk boundary under the old or the new size.
CHUNK = 1 << 20
# Samples per block of the arithmetic after a chunk's draws.  It names no
# stream and moves no bit; it keeps that arithmetic's temporaries at a few
# block-sized arrays (about 1.5 MB for a complex field) whatever the chunk size.
BLOCK = 1 << 15


@dataclass(frozen=True)
class PredictionEstimate:
    """Monte Carlo estimate of a limiting loss value.

    ``stderr`` is the sample standard deviation divided by sqrt(n_samples).
    """

    mean: float
    stderr: float
    n_samples: int


def _check_supercritical(theta: float) -> float:
    theta = float(theta)
    if not np.isfinite(theta) or theta <= 1.0:
        raise ValueError(f"the limit formula requires theta > 1, got {theta!r}")
    return theta


def _gaussians(rng: np.random.Generator, m: int, field: str) -> np.ndarray:
    if field == "R":
        return rng.standard_normal(m)
    # the bits of (a + 1j * b) / sqrt(2): numpy divides a complex by a real by
    # multiplying each part by the reciprocal, here without complex temporaries
    scale = 1.0 / np.sqrt(2.0)
    z = np.empty(m, dtype=np.complex128)
    np.multiply(rng.standard_normal(m), scale, out=z.real)
    np.multiply(rng.standard_normal(m), scale, out=z.imag)
    return z


def predict_sync_loss(group: Group, theta: float, n_samples: int = DEFAULT_SAMPLES,
                      seed: int = 0) -> PredictionEstimate:
    """Monte Carlo value of the limiting average loss for a synchronization run.

    Samples x, y Haar on the group and g, h standard F-Gaussians (F = R iff
    the group is Z/2), rounds the modeled estimator entry back to the group,
    and averages the group's loss (see ``loss_values``) between x * y^{-1}
    and the rounded value.
    """
    theta = _check_supercritical(theta)
    if n_samples < MIN_SAMPLES:
        raise ValidationError(f"need at least {MIN_SAMPLES} samples, got {n_samples}")
    if not isinstance(seed, (int, np.integer)):
        raise TypeError("seed must be an int (named chunk streams are derived from it)")
    n_samples, seed = int(n_samples), int(seed)
    field = "R" if real_field(group) else "C"
    rho = math.sqrt(overlap_limit(theta))
    tau = math.sqrt(residual_variance_limit(theta))
    total = 0.0
    total_sq = 0.0
    for index, done in enumerate(range(0, n_samples, CHUNK)):
        m = min(CHUNK, n_samples - done)
        rng = stream(seed, "chunk", index)
        x = haar_sample(group, m, rng)
        y = haar_sample(group, m, rng)
        g = _gaussians(rng, m, field)
        h = _gaussians(rng, m, field)
        vals = np.empty(m)
        for lo in range(0, m, BLOCK):
            b = slice(lo, lo + BLOCK)
            decoded = round_to_group(
                group, (rho * character(group, x[b]) + tau * g[b])
                * (rho * np.conj(character(group, y[b])) + tau * np.conj(h[b])))
            vals[b] = loss_values(group, difference(group, x[b], y[b]), decoded)
            del decoded  # not held beside the next block's temporaries
        total += float(vals.sum())
        total_sq += float(np.square(vals, out=vals).sum())
        del x, y, g, h, vals  # not held beside the next chunk's draws
    mean = total / n_samples
    var = max(0.0, total_sq - n_samples * mean * mean) / (n_samples - 1)
    return PredictionEstimate(mean=mean, stderr=math.sqrt(var / n_samples),
                              n_samples=n_samples)


def z2_mismatch_exact(theta: float) -> float:
    """Closed-form limit of the Z/2 mismatch loss: 2q(1-q), q = Phi(-sqrt(theta^2-1)).

    With sign rounding an entry is misclassified iff exactly one of the two
    factors rho + tau*g, rho + tau*h is negative (the four sign patterns of
    (chi(x), chi(y)) are symmetric), and each factor is negative with
    probability Phi(-rho/tau).  Phi is evaluated through erfc, accurate to
    well below 1e-12.
    """
    theta = _check_supercritical(theta)
    q = 0.5 * math.erfc(math.sqrt(theta * theta - 1.0) / math.sqrt(2.0))
    return 2.0 * q * (1.0 - q)
