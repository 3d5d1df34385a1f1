"""crowdfuse: fuse noisy crowdsourced labels with optional constraints.

The package estimates true item labels from redundant annotator responses
via variational Bayes, classic EM, or majority vote, supports pairwise
must-link / cannot-link and known-label constraints, plans informative
constraint queries from posterior uncertainty, generates synthetic crowds,
and evaluates theoretical error bounds against actual runs.
"""

from .aggregators import (FitOptions, FitResult, ds_em_fit, hard_labels_from,
                          majority_vote, vb_ilc_fit, vb_lc_fit, vbem_fit)
from .bounds import (BoundInputs, build_report, constraint_counts, d_gamma,
                     d_pi, empirical_errors, empirical_vs_bound, exponent_u,
                     f_gamma, f_pi, label_error_bound, nu_probability,
                     parameter_error_bounds, report_json)
from .constraints import (DEFAULT_ETA_GRID, ConstraintConflictError,
                          ConstraintSet, close, count_violations,
                          derive_from_labels, eta_search)
from .experiment import ExperimentConfig, run_experiment, write_rows_csv
from .fileio import (InputFormatError, read_constraints, read_responses,
                     read_truth, result_schema, write_constraints,
                     write_responses, write_result_json, write_truth)
from .metrics import ScoreCard, score
from .model import (GroundTruth, PosteriorParams, PriorConfig, ResponseMatrix,
                    paper_default_priors, uniform_priors)
from .numerics import digamma, digamma_vec, kl_divergence, softmax_rows
from .selection import QueryPlan, answer_queries, bvsb, plan_queries
from .synth import CrowdSpec, diag_dominant_spec, generate

__version__ = "0.1.0"

__all__ = [
    "FitOptions", "FitResult", "ds_em_fit", "hard_labels_from",
    "majority_vote", "vb_ilc_fit", "vb_lc_fit", "vbem_fit",
    "BoundInputs", "build_report", "constraint_counts", "d_gamma", "d_pi",
    "empirical_errors", "empirical_vs_bound", "exponent_u", "f_gamma",
    "f_pi", "label_error_bound", "nu_probability", "parameter_error_bounds",
    "report_json",
    "DEFAULT_ETA_GRID", "ConstraintConflictError", "ConstraintSet", "close",
    "count_violations", "derive_from_labels", "eta_search",
    "ExperimentConfig", "run_experiment", "write_rows_csv",
    "InputFormatError", "read_constraints", "read_responses", "read_truth",
    "result_schema", "write_constraints", "write_responses",
    "write_result_json", "write_truth",
    "ScoreCard", "score",
    "GroundTruth", "PosteriorParams", "PriorConfig", "ResponseMatrix",
    "paper_default_priors", "uniform_priors",
    "digamma", "digamma_vec", "kl_divergence", "softmax_rows",
    "QueryPlan", "answer_queries", "bvsb", "plan_queries",
    "CrowdSpec", "diag_dominant_spec", "generate",
]
