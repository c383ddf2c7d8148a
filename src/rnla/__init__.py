"""Sketching-based randomized numerical linear algebra.

Sampled matrix products, SRHT-sketched least squares, and sketched low-rank
approximation, with the sampling distributions, theoretical sketch sizes, and
diagnostic checks needed to reproduce their error guarantees at desk scale.
"""

from .harness import VERSION as __version__
from .linalg import (as_matrix, as_vector, orthonormal_basis, pseudoinverse,
                     spectral_norm, thin_svd)
from .sampling import (RNG_NAME, ProbVector, SamplingPlan, beta_of, colnorm_probs,
                       draw_plan, make_rng, optimal_probs, rownorm_probs,
                       uniform_probs)
from .matmul import (enumerate_sketch_moments, entry_variance_bound,
                     expected_frobenius_error, rand_matrix_multiply)
from .srht import (OpCounter, SketchRankError, SrhtOperator, coherence_check,
                   fwht, make_srht, next_pow2, srht_apply, subsampled_fwht)
from .lsq import (ConditionReport, ExactLsq, LsqSolution, check_conditions,
                  exact_least_squares, ls_sample_size, rand_least_squares)
from .lowrank import (ExactLowRank, LowRankResult, exact_low_rank, rand_low_rank,
                      lowrank_sample_size_explicit, structural_inequality_check)
from .generators import gen_lsq_instance, gen_matrix
from .matio import (MatrixFileError, read_matrix, read_vector, write_matrix,
                    write_vector)
from .harness import (AggregateReport, ExperimentConfig, TrialReport,
                      load_report, run_check_suite, run_experiment)

__all__ = [
    "__version__",
    "RNG_NAME",
    # linear algebra kernels
    "as_matrix", "as_vector", "spectral_norm", "thin_svd", "pseudoinverse",
    "orthonormal_basis",
    # sampling
    "ProbVector", "SamplingPlan", "make_rng", "optimal_probs", "colnorm_probs",
    "rownorm_probs", "uniform_probs", "beta_of", "draw_plan",
    # sampled matrix products
    "rand_matrix_multiply", "expected_frobenius_error", "entry_variance_bound",
    "enumerate_sketch_moments",
    # SRHT
    "OpCounter", "SrhtOperator", "SketchRankError", "fwht", "subsampled_fwht",
    "make_srht", "srht_apply", "coherence_check", "next_pow2",
    # least squares
    "ConditionReport", "ExactLsq", "LsqSolution", "exact_least_squares",
    "ls_sample_size", "check_conditions", "rand_least_squares",
    # low rank
    "ExactLowRank", "LowRankResult", "exact_low_rank",
    "lowrank_sample_size_explicit", "rand_low_rank", "structural_inequality_check",
    # instances and I/O
    "gen_matrix", "gen_lsq_instance",
    "MatrixFileError", "read_matrix", "write_matrix", "read_vector",
    "write_vector",
    # experiments
    "ExperimentConfig", "TrialReport", "AggregateReport", "run_experiment",
    "run_check_suite", "load_report",
]
