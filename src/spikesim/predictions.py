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
reproducible for a given seed.  Each chunk draws x, y, g and h in that order.
Draws from one stream come out in order, so the chunk's last draw (all of h
for F = R; h's imaginary parts for F = C, whose real parts come whole first)
is taken block by block with the same values, inside the loop over blocks of
``BLOCK`` samples that runs the arithmetic.  A U(1) angle takes exactly one
64-bit word of the Philox stream, so x and y are drawn block by block too,
each from a fresh copy of the chunk's stream moved past the words before it
(m words for y), while the chunk's own stream skips the 2m words of x and y
before it draws g.  The other draws are chunk-sized: g and, for F = C, h's
real parts, and cyclic x and y in the smallest unsigned type that holds a
residue (``integers`` may reject a word, so the words they take are not a
function of m).  All are freed before the next chunk draws.  A cyclic loss is
0 or 1, so its sums are the exact mismatch count and no loss values are
stored; U(1) keeps the chunk's loss values, whose pairwise float sum fixes
the bits.  Only ``CHUNK`` names streams: every step is elementwise and the
draws keep their order, so the block size moves no bit of an estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import checked_int, checked_real
from .groups import (CyclicGroup, Group, character, difference, haar_sample, loss_values,
                     real_field, round_to_group)
from .limits import overlap_limit, residual_variance_limit
from .rng import stream

MIN_SAMPLES = 1000
DEFAULT_SAMPLES = 10 ** 6
# Samples per chunk.  Chunk k draws from the stream named (seed, "chunk", k),
# so the chunk size names the Monte Carlo streams: changing it moves every bit
# of any estimate that crosses a chunk boundary under the old or the new size.
CHUNK = 1 << 20
# Samples per block of a chunk's arithmetic and of its last draw.  It names no
# stream and moves no bit; it keeps the block's draw and temporaries at a few
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
    theta = checked_real(theta, "theta")
    if not np.isfinite(theta) or theta <= 1.0:
        raise ValueError(f"the limit formula requires theta > 1, got {theta!r}")
    return theta


def _gaussian(parts: list[np.ndarray]) -> np.ndarray:
    """A standard F-Gaussian from its standard normal parts: the one part for
    F = R, (a + 1j * b) / sqrt(2) for the parts a, b of F = C.  Those are the
    bits of that quotient: numpy divides a complex by a real by multiplying
    each part by the reciprocal, here without complex temporaries."""
    if len(parts) == 1:
        return parts[0]
    scale = 1.0 / np.sqrt(2.0)
    z = np.empty(parts[0].size, dtype=np.complex128)
    np.multiply(parts[0], scale, out=z.real)
    np.multiply(parts[1], scale, out=z.imag)
    return z


def _haar(group: Group, m: int, rng: np.random.Generator) -> np.ndarray:
    """m Haar elements; residues in the smallest unsigned type that holds
    them (``character`` and ``difference`` widen each block to int64)."""
    x = haar_sample(group, m, rng)
    if isinstance(group, CyclicGroup):
        return x.astype(np.min_scalar_type(group.order - 1))
    return x


def _skip(rng: np.random.Generator, words: int) -> np.random.Generator:
    """Move a fresh Philox stream past ``words`` 64-bit outputs, as drawing
    them would: one counter step hands out 4 words, and the rest come from
    the buffer of the next step."""
    rng.bit_generator.advance(words // 4)
    rng.bit_generator.random_raw(words % 4)
    return rng


def predict_sync_loss(group: Group, theta: float, n_samples: int = DEFAULT_SAMPLES,
                      seed: int = 0) -> PredictionEstimate:
    """Monte Carlo value of the limiting average loss for a synchronization run.

    Samples x, y Haar on the group and g, h standard F-Gaussians (F = R iff
    the group is Z/2), rounds the modeled estimator entry back to the group,
    and averages the group's loss (see ``loss_values``) between x * y^{-1}
    and the rounded value.
    """
    theta = _check_supercritical(theta)
    n_samples = checked_int(n_samples, "n_samples", MIN_SAMPLES)
    seed = checked_int(seed, "seed")
    cyclic = isinstance(group, CyclicGroup)
    # g's standard normal parts, then h's: one each for F = R, the real and the
    # imaginary part for F = C.  All but h's last part are drawn whole
    half = 1 if real_field(group) else 2
    rho = math.sqrt(overlap_limit(theta))
    tau = math.sqrt(residual_variance_limit(theta))
    total = 0.0
    total_sq = 0.0
    for index, done in enumerate(range(0, n_samples, CHUNK)):
        m = min(CHUNK, n_samples - done)
        rng = stream(seed, "chunk", index)
        if cyclic:
            # residues are drawn whole: ``integers`` may reject a word, so the
            # words they take are not a function of m
            x = _haar(group, m, rng)
            y = _haar(group, m, rng)
        else:
            # an angle takes one word, so x is the stream's words [0, m) and y
            # its words [m, 2m): each is drawn per block from its own copy
            xs = stream(seed, "chunk", index)
            ys = _skip(stream(seed, "chunk", index), m)
            _skip(rng, 2 * m)
        whole = [rng.standard_normal(m) for _ in range(2 * half - 1)]
        vals = None if cyclic else np.empty(m)
        for lo in range(0, m, BLOCK):
            b = slice(lo, lo + BLOCK)
            parts = [p[b] for p in whole]
            size = parts[0].size
            parts.append(rng.standard_normal(size))  # the last, per block
            xb, yb = (x[b], y[b]) if cyclic else (_haar(group, size, xs), _haar(group, size, ys))
            decoded = round_to_group(
                group, (rho * character(group, xb) + tau * _gaussian(parts[:half]))
                * (rho * np.conj(character(group, yb))
                   + tau * np.conj(_gaussian(parts[half:]))))
            del parts  # not held beside the loss temporaries
            if cyclic:
                # 0/1 losses: their sum and sum of squares are this exact count
                hits = int(np.count_nonzero(difference(group, xb, yb) != decoded))
                total += hits
                total_sq += hits
            else:
                vals[b] = loss_values(group, difference(group, xb, yb), decoded)
            del decoded, xb, yb  # not held beside the next block's temporaries
        if not cyclic:
            total += float(vals.sum())
            total_sq += float(np.square(vals, out=vals).sum())
        x = y = whole = vals = None  # not held beside the next chunk's draws
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
