"""Entangled-vs-separable quantum state classification with Fisher linear
discriminant analysis on Pauli measurement features."""

__version__ = "0.1.0"

from .qops import DensityOperator, expectation, hermitian_eigenvalues, kron, partial_transpose, pauli_matrix, pauli_string_operator
from .states import (
    BellSigns,
    concurrence_state,
    depolarize,
    from_family,
    ghz_state,
    ppt_alternative,
    pptes_acin,
    product_state,
    random_product_state,
    werner2,
    werner_ghz,
)
from .labels import PptReport, assign_label, concurrence_analytic, concurrence_wootters, ppt_report
from .measure import ObservableSet, Standardizer, apply_standardizer, exact_features, fit_standardizer, reconstruct_density, sampled_features
from .flda import FldaModel, ScatterPair, classify, compute_scatter, discriminant_direction_eig, evaluate, fisher_criterion, fit, load_model, project, save_model
from .experiments import (
    Dataset,
    ExperimentConfig,
    ExperimentReport,
    generate_dataset,
    load_dataset,
    projections_by_class,
    reproduce_tables,
    run_experiment,
    sample_family_params,
    save_dataset,
    stratified_split,
)
