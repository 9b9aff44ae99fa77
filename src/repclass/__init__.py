"""Representation-based classification toolkit.

Collaborative representation classifiers (closed-form ridge coding and a
robust l1-residual variant), sparse-representation and nearest-subspace
baselines, plus the supporting analyses and a batch experiment harness.
"""

from .classifiers import (
    CLASSIFIERS,
    SCI_CLASSIFIERS,
    Model,
    fit,
)
from .dictionary import (
    Dictionary,
    Projector,
    build_dictionary,
    build_projector,
    default_lambda,
    normalize_columns,
)
from .features import PcaModel, fit_pca, project_pca, vectorize_image
from .solvers import (
    AlmParams,
    CodingResult,
    FistaParams,
    shrink,
    solve_alm_l1res,
    solve_constrained_lp,
    solve_fista_l1,
    solve_omp,
    solve_rls,
    solve_ssnal_l1,
)

__all__ = [
    "CLASSIFIERS",
    "SCI_CLASSIFIERS",
    "AlmParams",
    "CodingResult",
    "Dictionary",
    "FistaParams",
    "Model",
    "PcaModel",
    "Projector",
    "build_dictionary",
    "build_projector",
    "default_lambda",
    "fit",
    "fit_pca",
    "normalize_columns",
    "project_pca",
    "shrink",
    "solve_alm_l1res",
    "solve_constrained_lp",
    "solve_fista_l1",
    "solve_omp",
    "solve_rls",
    "solve_ssnal_l1",
    "vectorize_image",
]

__version__ = "0.1.0"
