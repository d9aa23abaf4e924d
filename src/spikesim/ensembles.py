"""Seeded samplers for the noise-matrix laws and moment validators.

All samplers are pure functions of (spec, seed): a seed may be an integer
(hashed into a named Philox stream, see ``rng``) or an explicit Generator.
Identical inputs give bit-identical matrices, and every output satisfies the
``HermitianMatrix`` exact-symmetry invariant by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .groups import (CyclicGroup, Group, character, difference, haar_sample,
                     identity_element, inverse, real_field)
from .matrices import HermitianMatrix, symmetrize
from .rng import as_generator

ENSEMBLE_KINDS = ("goe", "gue", "generalized-wigner")
ENTRY_LAWS = ("gaussian", "rademacher", "uniform-centered")

ROW_SUM_TOL = 1e-8

# circle angles composed with their mirrored inverse must land this close to
# the identity; inverse-of-inverse is not bit-exact in floats
CIRCLE_HERMITIAN_TOL = 1e-9

EPS_W = 0.5
C_W = 8.0

# a given variance profile must keep n*sigma^2_ij within [1/GAMMA_W, GAMMA_W]
GAMMA_W = 10.0


@dataclass(frozen=True)
class EnsembleSpec:
    """Description of a noise ensemble.

    ``variance_profile`` is the n x n matrix of entry variances sigma^2_ij for
    the generalized Wigner kinds (default ``None``: flat 1/n, never
    materialized).  n*sigma^2_ij must lie within [1/``GAMMA_W``, ``GAMMA_W``].
    """

    kind: str
    n: int
    entry_law: str | None = None
    variance_profile: np.ndarray | None = None
    field: str = "R"

    def __post_init__(self):
        if self.kind not in ENSEMBLE_KINDS:
            raise ValidationError(f"unknown ensemble kind {self.kind!r}")
        if int(self.n) != self.n or self.n < 1:
            raise ValidationError(f"dimension must be a positive integer, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        if self.field not in ("R", "C"):
            raise ValidationError(f"field must be 'R' or 'C', got {self.field!r}")
        if self.kind == "goe" and self.field != "R":
            raise ValidationError("GOE is a real ensemble")
        if self.kind == "gue" and self.field != "C":
            raise ValidationError("GUE is a complex ensemble")
        if self.kind in ("goe", "gue"):
            if self.entry_law is not None or self.variance_profile is not None:
                raise ValidationError(f"{self.kind} takes no entry law or variance profile")
        else:
            if self.entry_law not in ENTRY_LAWS:
                raise ValidationError(
                    f"entry_law must be one of {ENTRY_LAWS} for {self.kind}, got {self.entry_law!r}")
        if self.variance_profile is None:
            return
        # a given profile is checked once, here; the read-only copy keeps later
        # edits of the caller's array from slipping past the checks
        prof = np.array(self.variance_profile, dtype=np.float64)
        n = self.n
        if prof.shape != (n, n):
            raise ValidationError(f"variance profile shape {prof.shape} does not match n = {n}")
        if not np.array_equal(prof, prof.T):
            raise ValidationError("variance profile must be symmetric")
        if np.any(prof < 0):
            raise ValidationError("variance profile must be nonnegative")
        row_sums = prof.sum(axis=1)
        bad = np.flatnonzero(np.abs(row_sums - 1.0) > ROW_SUM_TOL)
        if bad.size:
            shown = ", ".join(f"row {i}: sum {row_sums[i]:.12g}" for i in bad[:5])
            more = "" if bad.size <= 5 else f" (+{bad.size - 5} more)"
            raise ValidationError(f"variance profile rows must sum to 1; violations: {shown}{more}")
        scaled = n * prof
        if np.any(scaled < 1.0 / GAMMA_W - 1e-12) or np.any(scaled > GAMMA_W + 1e-12):
            raise ValidationError(
                f"n*sigma^2 must lie in [{1.0 / GAMMA_W:.4g}, {GAMMA_W:.4g}]; "
                f"observed range [{scaled.min():.4g}, {scaled.max():.4g}]")
        prof.setflags(write=False)
        object.__setattr__(self, "variance_profile", prof)

    @property
    def offdiag_variance(self) -> float | np.ndarray:
        """E|W_ij|^2 off the diagonal: the float 1/n for GOE, GUE and flat
        Wigner, else the given profile."""
        return 1.0 / self.n if self.variance_profile is None else self.variance_profile


def sample_goe(n: int, seed) -> HermitianMatrix:
    """Real symmetric Gaussian matrix: off-diagonals N(0, 1/n), diagonals N(0, 2/n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = as_generator(seed)
    a = rng.standard_normal((n, n))
    return HermitianMatrix((a + a.T) / np.sqrt(2.0 * n))


def sample_gue(n: int, seed) -> HermitianMatrix:
    """Complex Hermitian Gaussian matrix: off-diagonals N_C(0, 1/n) (components
    N(0, 1/(2n))), diagonals real N(0, 1/n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = as_generator(seed)
    re = rng.standard_normal((n, n))
    im = rng.standard_normal((n, n))
    z = re + 1.0j * im
    return HermitianMatrix((z + z.conj().T) / (2.0 * np.sqrt(n)))


def _unit_variance_draws(law: str, rng: np.random.Generator, size) -> np.ndarray:
    if law == "gaussian":
        return rng.standard_normal(size)
    if law == "rademacher":
        return rng.integers(0, 2, size=size).astype(np.float64) * 2.0 - 1.0
    if law == "uniform-centered":
        return rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=size)
    raise ValidationError(f"unknown entry law {law!r}")


def sample_generalized_wigner(spec: EnsembleSpec, seed) -> HermitianMatrix:
    """Independent-entry Hermitian matrix with the spec's variance profile.

    Off-diagonal draw order is fixed (upper triangle row-major, then the
    diagonal) so the seed -> matrix map is stable.  For field C the real and
    imaginary parts are i.i.d. copies of the entry law scaled to variance
    sigma^2/2 each; diagonals are always real with variance sigma^2_ii.
    """
    if spec.kind != "generalized-wigner":
        raise ValidationError(f"sampler expects a generalized-wigner spec, got kind {spec.kind!r}")
    rng = as_generator(seed)
    n = spec.n
    prof = spec.variance_profile
    iu = np.triu_indices(n, 1)
    m = iu[0].size
    if prof is None:
        sig = sig_diag = np.sqrt(1.0 / n)
    else:
        sig, sig_diag = np.sqrt(prof[iu]), np.sqrt(np.diag(prof))
    if spec.field == "R":
        w = np.zeros((n, n))
        w[iu] = _unit_variance_draws(spec.entry_law, rng, m) * sig
        w = w + w.T
    else:
        w = np.zeros((n, n), dtype=np.complex128)
        scale = sig / np.sqrt(2.0)
        re = _unit_variance_draws(spec.entry_law, rng, m) * scale
        im = _unit_variance_draws(spec.entry_law, rng, m) * scale
        w[iu] = re + 1.0j * im
        w = w + w.conj().T
    d = _unit_variance_draws(spec.entry_law, rng, n) * sig_diag
    w[np.diag_indices(n)] = d
    return HermitianMatrix(w)


def sample_ensemble(spec: EnsembleSpec, seed) -> HermitianMatrix:
    """Dispatch on spec.kind."""
    if spec.kind == "goe":
        return sample_goe(spec.n, seed)
    if spec.kind == "gue":
        return sample_gue(spec.n, seed)
    return sample_generalized_wigner(spec, seed)


@dataclass(frozen=True)
class SpikeConfig:
    """Rank-one signal theta * v v*; v must be unit to 1e-12.

    theta = 0 is allowed here (pure noise); the supercritical-only operations
    enforce theta > 1 themselves.
    """

    theta: float
    v: np.ndarray

    def __post_init__(self):
        theta = float(self.theta)
        if not np.isfinite(theta) or theta < 0.0:
            raise ValidationError(f"theta must be finite and >= 0, got {theta!r}")
        object.__setattr__(self, "theta", theta)
        v = np.asarray(self.v)
        if v.ndim != 1 or v.size == 0:
            raise ValidationError("v must be a nonempty vector")
        nrm = np.linalg.norm(v)
        if not abs(nrm - 1.0) <= 1e-12:  # also refuses a NaN norm
            raise ValidationError(f"v must be unit norm within 1e-12, got ||v|| = {nrm!r}")
        object.__setattr__(self, "v", v)


def build_spiked(spike: SpikeConfig, noise: HermitianMatrix) -> HermitianMatrix:
    """theta * v v* + W, exactly Hermitian; real dtype when both parts are real
    (numpy's type promotion of the sum decides)."""
    v = spike.v
    if v.size != noise.n:
        raise ValidationError(f"spike dimension {v.size} does not match noise dimension {noise.n}")
    return HermitianMatrix(symmetrize(spike.theta * np.outer(v, np.conj(v))) + noise.entries)


def sample_truth_or_haar(group: Group, x, p: float, seed) -> np.ndarray:
    """Pairwise observations: the true difference x_i x_j^{-1} with probability
    p, otherwise an independent Haar element, independently for each i < j.

    The diagonal is the identity and the lower triangle mirrors by inversion,
    so the output is exactly G-Hermitian.  Returns an integer residue matrix
    (cyclic) or an angle matrix (circle).
    """
    p = float(p)
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    x = np.asarray(x)
    n = x.size
    if x.ndim != 1 or n < 2:
        raise ValidationError("x must be a vector of length >= 2")
    rng = as_generator(seed)
    iu = np.triu_indices(n, 1)
    m = iu[0].size
    u = rng.random(m)
    haar = haar_sample(group, m, rng)
    truth = difference(group, x[iu[0]], x[iu[1]])
    vals = np.where(u < p, truth, haar)
    if isinstance(group, CyclicGroup):
        y = np.zeros((n, n), dtype=np.int64)
    else:
        y = np.zeros((n, n), dtype=np.float64)
    y[iu] = vals
    y[(iu[1], iu[0])] = inverse(group, vals)
    # diagonal stays at 0 = identity for both group kinds
    return y


def circle_distance(a, b) -> np.ndarray:
    """Geodesic distance on the circle between angle arrays."""
    d = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) % (2.0 * np.pi)
    return np.minimum(d, 2.0 * np.pi - d)


def is_group_hermitian(group: Group, y: np.ndarray) -> bool:
    """Check Y_ji = Y_ij^{-1} with identity diagonal.

    Exact for cyclic residues; for the circle the composed angles must be
    within ``CIRCLE_HERMITIAN_TOL`` of the identity.
    """
    y = np.asarray(y)
    if y.ndim != 2 or y.shape[0] != y.shape[1]:
        return False
    ident = identity_element(group)
    if isinstance(group, CyclicGroup):
        return bool(np.all(np.diag(y) == ident) and np.array_equal(y, inverse(group, y.T)))
    if not np.all(circle_distance(np.diag(y), ident) <= CIRCLE_HERMITIAN_TOL):
        return False
    composed = np.mod(y + y.T, 2.0 * np.pi)
    return bool(np.all(circle_distance(composed, 0.0) <= CIRCLE_HERMITIAN_TOL))


def sync_observation_matrix(group: Group, y: np.ndarray) -> HermitianMatrix:
    """Embed a G-Hermitian observation matrix into Hermitian form: H_ij = chi(Y_ij)/sqrt(n).

    For Z/2 the result is exactly real with entries +-1/sqrt(n); otherwise the
    complex character matrix is symmetrized (a <=1-ulp adjustment) to meet the
    exact Hermiticity contract.
    """
    y = np.asarray(y)
    if not is_group_hermitian(group, y):
        raise ValidationError("Y is not group-Hermitian")
    n = y.shape[0]
    c = character(group, y) / np.sqrt(n)
    if real_field(group):
        return HermitianMatrix(c.real.copy())
    return HermitianMatrix(symmetrize(c))


@dataclass(frozen=True)
class MomentCheck:
    name: str
    observed: float
    target: float
    allowance: float
    passed: bool


@dataclass(frozen=True)
class MomentProfileReport:
    field: str
    n: int
    n_samples: int
    checks: tuple[MomentCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _pooled(values: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of the mean for a pooled sample."""
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    se = float(v.std(ddof=1) / np.sqrt(v.size)) if v.size > 1 else np.inf
    return float(v.mean()), se


def validate_wigner_moment_profile(samples, field: str) -> MomentProfileReport:
    """Test that sampled noise matrices match the flat Wigner moment profile
    up to an O(n^{-1-eps_w}) perturbation, eps_w = ``EPS_W`` = 1/2.

    Pooled over all off-diagonal entries and samples: the mean must vanish,
    and the second moments of the real/imaginary parts must equal 1/n (R case)
    resp. 1/(2n) each with vanishing cross-moment (C case), within
    c_w * n^{-1-eps_w} (c_w = ``C_W`` = 8) plus three pooled standard errors.  The
    diagonal only needs E W_ii^2 <= c_w / n (its mean may be nonzero; the
    centered sync model has a deterministic diagonal).
    """
    if field not in ("R", "C"):
        raise ValidationError(f"field must be 'R' or 'C', got {field!r}")
    mats = [s.entries if isinstance(s, HermitianMatrix) else np.asarray(s) for s in samples]
    if not mats:
        raise ValidationError("need at least one sample")
    n = mats[0].shape[0]
    if any(m.shape != (n, n) for m in mats):
        raise ValidationError("samples must share a common shape")
    iu = np.triu_indices(n, 1)
    off = np.concatenate([m[iu] for m in mats])
    diag = np.concatenate([np.real(np.diag(m)) for m in mats])
    slack = C_W * n ** (-1.0 - EPS_W)
    checks = []

    def add(name, observed, target, allowance, kind="abs"):
        if kind == "abs":
            ok = abs(observed - target) <= allowance
        else:  # upper bound
            ok = observed <= target + allowance
        checks.append(MomentCheck(name, float(observed), float(target), float(allowance), bool(ok)))

    if field == "R":
        if any(np.iscomplexobj(m) and np.any(m.imag != 0) for m in mats):
            raise ValidationError("R-case validation on matrices with nonzero imaginary parts")
        off = np.real(off)
        mean, se_mean = _pooled(off)
        add("offdiag-mean", mean, 0.0, 3.0 * se_mean)
        m2, se_m2 = _pooled(off ** 2)
        add("offdiag-second-moment", m2, 1.0 / n, slack + 3.0 * se_m2)
    else:
        re = np.real(off)
        im = np.imag(off)
        mean_re, se_re = _pooled(re)
        mean_im, se_im = _pooled(im)
        add("offdiag-mean-re", mean_re, 0.0, 3.0 * se_re)
        add("offdiag-mean-im", mean_im, 0.0, 3.0 * se_im)
        re2, se_re2 = _pooled(re ** 2)
        add("offdiag-re-second-moment", re2, 1.0 / (2.0 * n), slack + 3.0 * se_re2)
        im2, se_im2 = _pooled(im ** 2)
        add("offdiag-im-second-moment", im2, 1.0 / (2.0 * n), slack + 3.0 * se_im2)
        cross, se_cross = _pooled(re * im)
        add("offdiag-cross-moment", cross, 0.0, slack + 3.0 * se_cross)
    d2, se_d2 = _pooled(diag ** 2)
    add("diag-second-moment-bound", d2, C_W / n, 3.0 * se_d2, kind="upper")
    return MomentProfileReport(field=field, n=n, n_samples=len(mats), checks=tuple(checks))
