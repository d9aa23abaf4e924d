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
Draws from one stream come out in order, so a draw taken block by block has
the values of the whole draw, and the loops over blocks of ``BLOCK`` samples
that run the arithmetic take their draws as they go.  Cyclic x and y are
drawn by blocks into chunk-length arrays of the smallest unsigned type that
holds a residue: they are kept whole because ``integers`` may reject a word,
so the words they take are not a function of m.  A real character (Z/2)
rounds by the signs of the two factors alone, so a first pass draws g by
blocks and keeps one byte per sample for its factor's sign, and a second
draws h by blocks and counts the mismatches from those bytes.  A complex
character holds g and, for F = C, h's real parts whole, and takes the last
draw (all of h for the complex Z/2 table; h's imaginary parts for F = C) by
blocks.  A U(1) angle takes exactly one 64-bit word of the Philox stream, so
x and y are drawn by blocks too, each from a fresh copy of the chunk's stream
moved past the words before it (m words for y), while the chunk's own stream
skips the 2m words of x and y before it draws g.  All are freed before the
next chunk draws.  A cyclic loss is 0 or 1, so its sums are the exact
mismatch count and no loss values are stored; U(1) keeps the chunk's loss
values, whose pairwise float sum fixes the bits.  Only ``CHUNK`` names
streams: every step is elementwise and the draws keep their order, so the
block size moves no bit of an estimate.
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
    """m Haar elements.  Residues are drawn by blocks of ``BLOCK`` into the
    smallest unsigned type that holds them (``character`` and ``difference``
    widen each block to int64), so no int64 array of m residues is built:
    ``integers`` takes 32-bit halves of the stream's words from a buffer kept
    in the bit generator, so the blocks give the values of one whole draw and
    leave the stream where that draw leaves it."""
    if not isinstance(group, CyclicGroup):
        return haar_sample(group, m, rng)
    x = np.empty(m, dtype=np.min_scalar_type(group.order - 1))
    for lo in range(0, m, BLOCK):
        x[lo:lo + BLOCK] = haar_sample(group, min(BLOCK, m - lo), rng)
    return x


def _skip(rng: np.random.Generator, words: int) -> np.random.Generator:
    """Move a fresh Philox stream past ``words`` 64-bit outputs, as drawing
    them would: one counter step hands out 4 words, and the rest come from
    the buffer of the next step."""
    rng.bit_generator.advance(words // 4)
    rng.bit_generator.random_raw(words % 4)
    return rng


def _real_factor(group: Group, x: np.ndarray, rng: np.random.Generator, rho: float,
                 tau: float) -> np.ndarray:
    """rho * chi(x) + tau * g for the residues x and the next x.size real
    Gaussians g of the stream, with the bits of that expression."""
    a = character(group, x)
    a *= rho
    g = rng.standard_normal(x.size)
    g *= tau
    a += g
    return a


def _sign_mismatches(group: Group, x: np.ndarray, y: np.ndarray, rng: np.random.Generator,
                     rho: float, tau: float) -> int:
    """The mismatch count of one chunk of a group with real characters (Z/2,
    residues 0 and 1), from g and h drawn block by block in stream order.

    Only the sign of the product a * c of the factors a = rho chi(x) + tau g
    and c = rho chi(y) + tau h decides the rounding.  Each factor is finite
    and either 0 or at least about ulp(rho) in size, so their float product
    never underflows: it is negative exactly when one factor is and neither
    is zero, and a zero product rounds to the identity.  With x - y = x ^ y,
    a sample is a mismatch exactly when (a < 0) ^ x differs from (c < 0) ^ y,
    or, where a factor is 0, when x differs from y.  The first pass keeps
    (a < 0) ^ x as one byte per sample, 2 where a is 0; the second compares
    it with (c < 0) ^ y.
    """
    m = x.size
    signs = np.empty(m, dtype=np.uint8)
    zeros = False
    for lo in range(0, m, BLOCK):
        b = slice(lo, lo + BLOCK)
        a = _real_factor(group, x[b], rng, rho, tau)
        s = signs[b]
        np.less(a, 0.0, out=s.view(np.bool_))
        s ^= x[b]
        if not a.all():
            s[a == 0.0] = 2
            zeros = True
    hits = 0
    for lo in range(0, m, BLOCK):
        b = slice(lo, lo + BLOCK)
        c = _real_factor(group, y[b], rng, rho, tau)
        q = (c < 0.0).view(np.uint8)
        q ^= y[b]
        if zeros or not c.all():
            zero = (signs[b] == 2) | (c == 0.0)
            hits += int(np.count_nonzero(np.where(zero, x[b] != y[b], signs[b] != q)))
        else:
            hits += int(np.count_nonzero(signs[b] != q))
    return hits


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
    # real characters (Z/2) round by the signs of the two factors alone
    real = not np.iscomplexobj(character(group, 0))
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
            # residues are kept whole: ``integers`` may reject a word, so the
            # words they take are not a function of m
            x = _haar(group, m, rng)
            y = _haar(group, m, rng)
            if real:
                hits = _sign_mismatches(group, x, y, rng, rho, tau)
                total += hits
                total_sq += hits
                x = y = None  # not held beside the next chunk's draws
                continue
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
