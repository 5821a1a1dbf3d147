"""Entangled-vs-separable quantum state classification with Fisher linear
discriminant analysis on Pauli measurement features."""

__version__ = "0.1.0"

from .qops import DensityOperator, kron, partial_transpose
from .states import from_family
from .labels import assign_label, concurrence_analytic, concurrence_wootters, ppt_report
from .measure import exact_features, pauli_words, sampled_features
from .flda import FldaModel, ScatterPair, Standardizer, apply_standardizer, classify, compute_scatter, evaluate, fisher_criterion, fit, load_model, project, save_model
from .experiments import (
    Dataset,
    ExperimentConfig,
    ExperimentReport,
    generate_dataset,
    load_dataset,
    reproduce_tables,
    run_experiment,
    sample_family_params,
    save_dataset,
    stratified_split,
)
