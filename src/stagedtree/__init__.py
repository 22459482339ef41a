"""Staged tree models as curved exponential families.

Core objects: :class:`StagedTree`, :class:`ParameterVector`, atoms and their
probabilities; the exponential-family form (natural parameters, sufficient
statistic, cumulant value); symbolic regular/balanced/simple classification;
Bayesian-network unfolding; and closed-form MLE / BIC model selection.
"""

__version__ = "0.1.0"

from .algebra import (
    ConstraintMatrix,
    FormalPolynomial,
    StageEquation,
    check_np_identity,
    classify,
    constraint_matrix,
    downward_monomials,
    interpolating_polynomials,
    is_balanced,
    is_regular,
    is_simple,
    stage_equations,
    xi_polynomials,
)
from .bayesnet import (
    BNReport,
    DiscreteBN,
    bn_edge_labels,
    bn_to_staged_tree,
    classify_bn,
    find_simple_ordering,
    is_decomposable,
)
from .errors import StagedTreeError
from .expfam import (
    ExpFamForm,
    density_expform,
    downward_products,
    natural_parameters,
    render_formulas,
    statistic_layout,
    sufficient_statistic,
    symbolic_natural_parameters,
    theta_from_eta,
)
from .fit import (
    AtomTable,
    FitResult,
    SearchConfig,
    SearchResult,
    bic,
    ingest_csv,
    log_likelihood,
    mle,
    select_staging,
    table_from_rows,
)
from .random_trees import random_staged_tree
from .tree import (
    Atom,
    AtomDistribution,
    ParameterVector,
    StagedTree,
    atom_probability,
    dimensions,
    distribution_from_labels,
    labels_from_distribution,
    product_tree,
    star,
)

__all__ = [
    "Atom",
    "AtomDistribution",
    "AtomTable",
    "BNReport",
    "ConstraintMatrix",
    "DiscreteBN",
    "ExpFamForm",
    "FitResult",
    "FormalPolynomial",
    "ParameterVector",
    "SearchConfig",
    "SearchResult",
    "StageEquation",
    "StagedTree",
    "StagedTreeError",
    "atom_probability",
    "bic",
    "bn_edge_labels",
    "bn_to_staged_tree",
    "check_np_identity",
    "classify",
    "classify_bn",
    "constraint_matrix",
    "density_expform",
    "dimensions",
    "distribution_from_labels",
    "downward_monomials",
    "downward_products",
    "find_simple_ordering",
    "ingest_csv",
    "interpolating_polynomials",
    "is_balanced",
    "is_decomposable",
    "is_regular",
    "is_simple",
    "labels_from_distribution",
    "log_likelihood",
    "mle",
    "natural_parameters",
    "render_formulas",
    "product_tree",
    "random_staged_tree",
    "select_staging",
    "stage_equations",
    "star",
    "statistic_layout",
    "sufficient_statistic",
    "symbolic_natural_parameters",
    "table_from_rows",
    "theta_from_eta",
    "xi_polynomials",
]
