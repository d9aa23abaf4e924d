"""Closed-form large-n limits for the rank-one spiked Wigner model.

A Hermitian signal-plus-noise matrix ``theta * v v* + W`` with Wigner noise has
a phase transition at ``theta = 1``: below it the top eigenvalue sticks to the
bulk edge 2 and the top eigenvector carries no signal; above it the eigenvalue
detaches to ``theta + 1/theta`` and the squared overlap with the planted vector
converges to ``1 - 1/theta**2``.  This module collects those limits together
with the semicircle density and its Cauchy transform, which the spectral
diagnostics compare against.
"""

from __future__ import annotations

import numpy as np

from .errors import checked_real

TWO_PI = 2.0 * np.pi


def _check_theta(theta: float) -> float:
    theta = checked_real(theta, "theta")
    if not np.isfinite(theta) or theta <= 0.0:
        raise ValueError(f"theta must be a finite positive number, got {theta!r}")
    return theta


def outlier_eigenvalue(theta: float) -> float:
    """Limiting top eigenvalue: 2 for theta <= 1, else theta + 1/theta."""
    theta = _check_theta(theta)
    if theta <= 1.0:
        return 2.0
    return theta + 1.0 / theta


def overlap_limit(theta: float) -> float:
    """Limiting squared overlap |<v_hat, v>|^2: 0 for theta <= 1, else 1 - theta**-2."""
    theta = _check_theta(theta)
    if theta <= 1.0:
        return 0.0
    return 1.0 - 1.0 / (theta * theta)


def residual_variance_limit(theta: float) -> float:
    """Limiting squared mass of v_hat orthogonal to v, i.e. 1 - overlap_limit.

    Only meaningful above the transition; theta <= 1 is a domain error.
    """
    theta = _check_theta(theta)
    if theta <= 1.0:
        raise ValueError("residual variance is undefined at or below theta = 1")
    return 1.0 / (theta * theta)


def semicircle_density(x):
    """Semicircle density (1/2pi) sqrt(4 - x^2) on [-2, 2], zero outside.

    Accepts scalars or arrays.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) <= 2.0
    out[inside] = np.sqrt(4.0 - x[inside] ** 2) / TWO_PI
    if out.ndim == 0:
        return float(out)
    return out


def _check_off_cut(z: complex) -> complex:
    z = complex(z)
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise ValueError("z must be finite")
    if z.imag == 0.0 and abs(z.real) <= 2.0:
        raise ValueError(f"z = {z} lies on the spectral cut [-2, 2]")
    return z


def semicircle_cauchy_transform(z: complex) -> complex:
    """Cauchy transform of the semicircle law, G(z) = (z - sqrt(z^2 - 4)) / 2.

    The branch is fixed by sqrt(z - 2) * sqrt(z + 2) with principal square
    roots, which selects the solution decaying like 1/z at infinity.  Computed
    in the rationalized form 2 / (z + sqrt(z - 2) sqrt(z + 2)); the textbook
    difference formula loses ~|z|*eps to cancellation and misses the 1/z
    asymptotics already at |z| ~ 1e6.  Both factors keep the imaginary part
    of z, signed zero included, so they sit on the same side of the cut
    (z + 2.0 would turn -0j into +0j).
    """
    z = _check_off_cut(z)
    root = np.sqrt(complex(z.real - 2.0, z.imag)) * np.sqrt(complex(z.real + 2.0, z.imag))
    return complex(2.0 / (z + root))


def semicircle_cauchy_transform_deriv(z: complex) -> complex:
    """Derivative G'(z), same branch as ``semicircle_cauchy_transform``.

    Uses G' = G / (2G - z), obtained by differentiating the quadratic relation
    G^2 - z G + 1 = 0; this form stays accurate both near the edge and for
    large |z|.
    """
    z = _check_off_cut(z)
    g = semicircle_cauchy_transform(z)
    return complex(g / (2.0 * g - z))
