"""Staged tree models as curved exponential families.

Core objects: :class:`StagedTree`, :class:`ParameterVector`, atoms and their
probabilities; the exponential-family form (natural parameters, sufficient
statistic, cumulant value); symbolic regular/balanced/simple classification;
Bayesian-network unfolding; and closed-form MLE / BIC model selection.

Each exported name is imported from its module on first access (PEP 562), so a
command-line process compiles only the modules its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

# the public names, each with the module that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "algebra": (
            "ConstraintMatrix", "FormalPolynomial", "StageEquation", "classify",
            "constraint_matrix", "downward_monomials", "interpolating_polynomials",
            "is_balanced", "is_regular", "is_simple", "stage_equations", "xi_polynomials",
        ),
        "bayesnet": (
            "BNReport", "DiscreteBN", "bn_edge_labels", "bn_to_staged_tree", "classify_bn",
            "find_simple_ordering", "is_decomposable",
        ),
        "errors": ("StagedTreeError",),
        "expfam": (
            "ExpFamForm", "check_np_identity", "density_expform", "natural_parameters",
            "render_formulas", "statistic_layout", "sufficient_statistic",
            "symbolic_natural_parameters", "theta_from_eta",
        ),
        "fit": (
            "AtomTable", "FitResult", "SearchConfig", "SearchResult", "bic", "ingest_csv",
            "log_likelihood", "mle", "select_staging", "table_from_rows",
        ),
        "random_trees": ("random_staged_tree",),
        "tree": (
            "Atom", "ParameterVector", "StagedTree", "atom_probability", "dimensions",
            "distribution_from_labels", "labels_from_distribution", "product_tree", "star",
        ),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """Import an exported name, or a submodule, on first access and keep it."""
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _EXPORTS.values():
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _EXPORTS.keys())
