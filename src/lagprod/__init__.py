"""Monte Carlo lab for soft-edge fluctuations of beta-Laguerre matrix products.

Samples tridiagonal beta-Laguerre matrices through their bidiagonal chi
factors, symmetrizes the two-matrix product into a pentadiagonal form,
extracts extreme eigenvalues with certified banded solvers, and compares the
centered/scaled statistics against Tracy-Widom reference laws generated from
a discretized stochastic Airy operator.
"""

from .airy import AiryDiscretization, sample_tw, tw_reference_batch
from .eig import EigConfig, banded_largest_eig, tridiag_extreme_eig
from .ensemble import (
    BidiagonalFactor,
    EnsembleParams,
    PotentialPath,
    SymmetricTridiagonal,
    laguerre_matrix,
    potential_path,
    sample_bidiagonal,
)
from .harness import ExperimentConfig, RunReport, run_experiment
from .product import SymmetricPentadiagonal, dense_product_eigs, product_similarity
from .scaling import (
    ScalingConstants,
    SingleScaling,
    closed_form_Cn,
    closed_form_cn,
    coupled_scaling,
    product_statistic,
    single_scaling,
)
from .stats import KSReport, MomentSummary, SampleBatch, ecdf_eval, ks_two_sample, moments
from .variates import RandomStream, chi, gaussian, split_stream

__version__ = "0.1.0"

__all__ = [
    "AiryDiscretization",
    "BidiagonalFactor",
    "EigConfig",
    "EnsembleParams",
    "ExperimentConfig",
    "KSReport",
    "MomentSummary",
    "PotentialPath",
    "RandomStream",
    "RunReport",
    "SampleBatch",
    "ScalingConstants",
    "SingleScaling",
    "SymmetricPentadiagonal",
    "SymmetricTridiagonal",
    "banded_largest_eig",
    "chi",
    "closed_form_Cn",
    "closed_form_cn",
    "coupled_scaling",
    "dense_product_eigs",
    "ecdf_eval",
    "gaussian",
    "ks_two_sample",
    "laguerre_matrix",
    "moments",
    "potential_path",
    "product_similarity",
    "product_statistic",
    "run_experiment",
    "sample_bidiagonal",
    "sample_tw",
    "single_scaling",
    "split_stream",
    "tridiag_extreme_eig",
    "tw_reference_batch",
]
