"""Compact abelian groups for synchronization: Z/L and the circle.

Group elements are stored as plain numpy arrays (or scalars): integer residues
in [0, L) for the cyclic group, float angles in [0, 2*pi) for the circle.  All
operations are vectorized and elementwise; pairwise matrices are just arrays of
elements with the group passed alongside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class CyclicGroup:
    """Z/L under addition of residues; L >= 2."""

    order: int

    def __post_init__(self):
        if int(self.order) != self.order or self.order < 2:
            raise ValidationError(f"cyclic group order must be an integer >= 2, got {self.order}")
        object.__setattr__(self, "order", int(self.order))

    def __str__(self):
        return f"Z/{self.order}"


@dataclass(frozen=True)
class CircleGroup:
    """R / 2*pi*Z, i.e. U(1) written additively in the angle."""

    def __str__(self):
        return "U(1)"


Group = CyclicGroup | CircleGroup


def parse_group(text: str) -> Group:
    """Parse 'Z/L' or 'U(1)' into a group object."""
    s = text.strip()
    if s == "U(1)":
        return CircleGroup()
    if s.startswith("Z/"):
        try:
            order = int(s[2:])
        except ValueError:
            raise ValidationError(f"bad cyclic group syntax {text!r}") from None
        return CyclicGroup(order)
    raise ValidationError(f"unrecognized group {text!r} (expected 'Z/L' or 'U(1)')")


def rounding_rule(group: Group) -> str:
    """Name of the group's rounding rule (see ``round_to_group``)."""
    return "nearest-character" if isinstance(group, CyclicGroup) else "phase"


def default_loss(group: Group) -> str:
    """Name of the loss the group is scored with (see ``loss_values``)."""
    return "mismatch" if isinstance(group, CyclicGroup) else "one-minus-cos"


def real_field(group: Group) -> bool:
    """True iff the group's characters are real, i.e. the group is Z/2.

    Its observation matrices and planted vectors are then float64 because its
    character table is; this test only chooses a field where no character
    decides it: GOE over GUE noise, the Monte Carlo's Gaussians and the
    closed-form limit.
    """
    return isinstance(group, CyclicGroup) and group.order == 2


def _residue(d: np.ndarray, modulus) -> None:
    """Reduce the array ``d`` mod ``modulus`` into [0, modulus), in place,
    with np.mod's bits: fmod, plus the modulus where that is negative.

    fmod is the identity on (-modulus, modulus), where every difference of
    canonical elements lies, so it runs only when some value may lie outside
    that range; a NaN fails both comparisons and runs it too.  Adding
    (d < 0) * modulus adds +0.0 to a -0.0 remainder, which turns it into
    np.mod's +0.0.
    """
    if d.size and not (d.min() > -modulus and d.max() < modulus):
        np.fmod(d, modulus, out=d)
    d += (d < 0) * modulus


def _wrap_angle(d: np.ndarray) -> None:
    """Reduce the float64 array ``d`` mod 2*pi into [0, 2*pi), in place.

    A tiny negative remainder plus 2*pi rounds to exactly 2*pi, which must
    fold to 0.
    """
    _residue(d, TWO_PI)
    d[d == TWO_PI] = 0.0


def difference(group: Group, x, y):
    """x composed with the inverse of y, in canonical form (residues in
    [0, L), angles in [0, 2*pi)): difference(g, x, 0) is the canonical form
    of x and difference(g, 0, y) the inverse of y.  Scalar inputs give a
    numpy scalar for either group."""
    cyclic = isinstance(group, CyclicGroup)
    dtype = np.int64 if cyclic else np.float64
    # the subtraction is the one allocation: asarray keeps a 0-d result an
    # array, so the reduction runs in place on it
    d = np.asarray(np.asarray(x, dtype=dtype) - np.asarray(y, dtype=dtype))
    if cyclic:
        _residue(d, group.order)
    else:
        _wrap_angle(d)
    return d[()]


def haar_sample(group: Group, size, rng: np.random.Generator):
    """Draw Haar (uniform) group elements."""
    if isinstance(group, CyclicGroup):
        return rng.integers(0, group.order, size=size, dtype=np.int64)
    return rng.uniform(0.0, TWO_PI, size=size)


def character_table(group: CyclicGroup) -> np.ndarray:
    """The L character values exp(2*pi*i*k/L), k = 0..L-1.

    Z/2 gets the float64 table [1.0, -1.0]: its characters are real, so every
    Z/2 value built from them (observation matrix, planted vector, Monte Carlo
    entry) is float64 from here on.  Z/4 is special-cased to the exact complex
    values +-1, +-i; every other order is complex128.
    """
    order = group.order
    if order == 2:
        return np.array([1.0, -1.0])
    if order == 4:
        return np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])
    return np.exp(2.0j * np.pi * np.arange(order) / order)


def character(group: Group, x):
    """The standard injective character: exp(2*pi*i*x/L) resp. exp(i*x)."""
    if isinstance(group, CyclicGroup):
        # mode="wrap" reduces any integer representative mod L
        return np.take(character_table(group), np.asarray(x, dtype=np.int64), mode="wrap")
    return np.exp(1.0j * np.asarray(x, dtype=np.float64))


def pairwise_matrix(group: Group, x) -> np.ndarray:
    """Matrix of relative alignments M[i, j] = x_i * x_j^{-1}.

    M is group-Hermitian (M[j, i] = M[i, j]^{-1}, identity diagonal) and
    satisfies the cocycle relation M[i, j] * M[j, k] = M[i, k].
    """
    x = np.asarray(x)
    if x.ndim != 1 or x.size == 0:
        raise ValidationError("x must be a nonempty 1-D array of group elements")
    return difference(group, x[:, None], x[None, :])


def round_to_group(group: Group, z):
    """Map real or complex numbers to the nearest group element.

    Cyclic: the residue k whose character exp(2*pi*i*k/L) is nearest to z,
    found from t = arg(z) * L / (2*pi) in [-L/2, L/2] as ceil(t - 1/2) mod L.
    Ties go to the smaller residue, including the tie between L-1 and 0 at
    t = -1/2.  Real z has t = 0 or L/2, so k is L // 2 where z < 0, else 0.
    NaN and +-inf have no nearest element and are refused.  Circle: the
    phase angle of z, NaN for NaN.  z = 0 maps to the identity.
    """
    z = np.asarray(z)
    if isinstance(group, CyclicGroup):
        if not np.isfinite(z).all():
            raise ValidationError(f"cannot round non-finite values to {group}")
        if not np.iscomplexobj(z):
            k = np.asarray(z < 0, dtype=np.int64)
            k *= group.order // 2
            return k[()]
        t = np.asarray(np.angle(z))
        t /= TWO_PI
        t *= group.order
        tie = (t == -0.5) | (z == 0)
        t -= 0.5
        np.ceil(t, out=t)
        t[tie] = 0.0
        k = t.astype(np.int64)
        _residue(k, group.order)
        return k[()]
    a = np.asarray(np.angle(z))
    _wrap_angle(a)
    a[z == 0] = 0.0  # arctan2 puts z = -0.0 at pi
    return a[()]


def estimate_group_matrix(group: Group, v_hat: np.ndarray) -> np.ndarray:
    """Entrywise rounding of n * v_hat_i * conj(v_hat_j) to group elements.

    This is the plug-in estimate of the relative-alignment matrix from a unit
    top eigenvector; it is invariant under a global phase on v_hat since the
    products are.
    """
    v_hat = np.asarray(v_hat)
    if v_hat.ndim != 1 or v_hat.size == 0:
        raise ValidationError("v_hat must be a nonempty vector")
    t = np.outer(v_hat, np.conj(v_hat))
    t *= v_hat.size
    return round_to_group(group, t)


def loss_values(group: Group, truth, estimate) -> np.ndarray:
    """Elementwise loss between arrays of group elements.

    Cyclic: mismatch, 1.0 where truth differs from estimate mod L.  Circle:
    1 - cos of the angle difference.
    """
    if isinstance(group, CyclicGroup):
        return (difference(group, truth, estimate) != 0).astype(np.float64)
    t = np.asarray(truth, dtype=np.float64)
    e = np.asarray(estimate, dtype=np.float64)
    return 1.0 - np.cos(t - e)


def average_loss(group: Group, m_true: np.ndarray, m_est: np.ndarray) -> float:
    """Mean loss over all n^2 ordered pairs (diagonal included)."""
    m_true = np.asarray(m_true)
    m_est = np.asarray(m_est)
    if (m_true.shape != m_est.shape or m_true.ndim != 2 or m_true.shape[0] != m_true.shape[1]
            or m_true.size == 0):
        raise ValidationError("alignment matrices must be nonempty and square with equal shape, "
                              f"got {m_true.shape} vs {m_est.shape}")
    if isinstance(group, CyclicGroup):
        # the 0/1 mismatches sum to an exact integer, so the count over the
        # size is the same double as their mean
        return int(np.count_nonzero(difference(group, m_true, m_est))) / m_true.size
    return float(np.mean(loss_values(group, m_true, m_est)))
