"""Spiked random-matrix synchronization: sampling, spectral estimation, and
limit predictions for group synchronization in the weak-recovery regime."""

__version__ = "0.1.0"

from .errors import BracketError, SingularShiftError, SpikesimError, ValidationError
from .groups import (CircleGroup, CyclicGroup, average_loss, canonicalize, character,
                     character_table, difference, estimate_group_matrix, haar_sample,
                     inverse, loss_values, pairwise_matrix, parse_group, round_to_group)
from .limits import (outlier_eigenvalue, overlap_limit, residual_variance_limit,
                     semicircle_cauchy_transform, semicircle_cauchy_transform_deriv,
                     semicircle_density)
from .matrices import HermitianMatrix, symmetrize
from .ensembles import (EnsembleSpec, SpikeConfig, build_spiked, sample_ensemble,
                        sample_generalized_wigner, sample_goe, sample_gue,
                        sample_truth_or_haar, sync_observation_matrix)
from .spectral import (SpectralEstimate, eigvec_via_resolvent, fix_phase,
                       local_law_residual, overlap_sq, resolvent_solve, secular_root,
                       top_eigenpair)
from .predictions import PredictionEstimate, predict_sync_loss, z2_mismatch_exact
from .rng import derive_key, stream

__all__ = [
    "__version__",
    "SpikesimError", "ValidationError", "SingularShiftError", "BracketError",
    "CyclicGroup", "CircleGroup", "parse_group", "canonicalize",
    "inverse", "difference", "haar_sample", "character",
    "character_table", "pairwise_matrix", "round_to_group",
    "estimate_group_matrix", "loss_values", "average_loss",
    "outlier_eigenvalue", "overlap_limit", "residual_variance_limit",
    "semicircle_density", "semicircle_cauchy_transform",
    "semicircle_cauchy_transform_deriv",
    "HermitianMatrix", "symmetrize",
    "EnsembleSpec", "sample_goe", "sample_gue",
    "sample_generalized_wigner", "sample_ensemble", "SpikeConfig", "build_spiked",
    "sample_truth_or_haar", "sync_observation_matrix",
    "SpectralEstimate", "top_eigenpair", "fix_phase", "overlap_sq",
    "resolvent_solve", "secular_root", "eigvec_via_resolvent", "local_law_residual",
    "PredictionEstimate", "predict_sync_loss", "z2_mismatch_exact",
    "derive_key", "stream",
]
