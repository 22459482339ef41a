"""Exponential-family form of a probability tree.

The density of a tree with labels theta can be written as
``exp(eta . T(x) - psi)`` where the sufficient statistic T collects the
indicators of the non-downward edges, the natural parameter of edge (i, j)
is the locally normalized log-probability ``log(theta_ij * N_ij / N_i)``,
and ``psi = -log N_1`` with N_i the product of the downward-edge labels
along the downward path from v_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import NontrivialStaging, NotAStar
from .tree import (
    Atom,
    ParameterVector,
    StagedTree,
    labels_from_distribution,
)

if TYPE_CHECKING:
    import numpy as np


def _downward_fold(tree: StagedTree, leaf_value, step) -> dict:
    """Fold ``step(v, j, below)`` down the all-downward path from every vertex."""

    def combine(v: str, below: list):
        j = tree.downward_edge(v)
        return step(v, j, below[j - 1])

    return tree.fold(leaf_value, combine)


def log_downward_products(tree: StagedTree, theta: ParameterVector) -> dict[str, float]:
    """log N_v for every vertex; leaves get log 1 = 0."""
    theta.validate_for(tree)
    return _downward_fold(
        tree, 0.0, lambda v, j, below: math.log(theta.label(tree, v, j)) + below
    )


def downward_products(tree: StagedTree, theta: ParameterVector) -> dict[str, float]:
    """N_v for every vertex (products of downward labels below v)."""
    return {v: math.exp(lv) for v, lv in log_downward_products(tree, theta).items()}


def statistic_layout(tree: StagedTree) -> tuple[tuple[str, int], ...]:
    """Ordered (vertex, edge) index pairs defining the sufficient statistic.

    Vertex enumeration order, then edge index; the downward edge of each
    vertex is excluded, so the layout has length d0.
    """
    layout = []
    for v in tree.inner:
        down = tree.downward_edge(v)
        layout.extend((v, j) for j in range(1, len(tree.children[v]) + 1) if j != down)
    return tuple(layout)


@dataclass(frozen=True)
class ExpFamForm:
    """Natural parameters, cumulant value, and statistic layout at a given theta."""

    layout: tuple[tuple[str, int], ...]
    eta: dict[tuple[str, int], float]
    psi: float
    logN: dict[str, float] = field(repr=False)

    def eta_vector(self) -> np.ndarray:
        import numpy as np

        return np.array([self.eta[key] for key in self.layout])

    @property
    def N(self) -> dict[str, float]:
        return {v: math.exp(lv) for v, lv in self.logN.items()}


def natural_parameters(tree: StagedTree, theta: ParameterVector) -> ExpFamForm:
    """eta_vj = log(theta_vj * N_vj / N_v) for every non-downward edge."""
    logN = log_downward_products(tree, theta)
    layout = statistic_layout(tree)
    eta = {}
    for v, j in layout:
        c = tree.child(v, j)
        eta[(v, j)] = math.log(theta.label(tree, v, j)) + logN[c] - logN[v]
    return ExpFamForm(layout, eta, -logN[tree.root], logN)


def sufficient_statistic(tree: StagedTree, atom: Atom) -> np.ndarray:
    """0/1 vector of non-downward edge indicators, in layout order."""
    import numpy as np

    return np.array(
        [1 if atom.traverses(v, j) else 0 for v, j in statistic_layout(tree)]
    )


def density_expform(tree: StagedTree, theta: ParameterVector, atom: Atom) -> float:
    """Evaluate exp(eta . T(x) - psi) for one atom."""
    form = natural_parameters(tree, theta)
    s = math.fsum(form.eta[(v, j)] for v, j in atom.steps if (v, j) in form.eta)
    return math.exp(s - form.psi)


def theta_from_eta(tree: StagedTree, eta) -> ParameterVector:
    """Invert the natural parametrization on a saturated tree.

    ``eta`` is either a mapping over the statistic layout or a flat vector in
    layout order.  The atom distribution proportional to exp(eta . T(x)) is
    evaluated, normalized, and converted back to edge labels.
    """
    if not tree.is_saturated():
        raise NontrivialStaging("theta_from_eta is defined for saturated trees only")
    layout = statistic_layout(tree)
    if not isinstance(eta, dict):
        vec = list(eta)
        if len(vec) != len(layout):
            raise ValueError(f"expected {len(layout)} natural parameters, got {len(vec)}")
        eta = dict(zip(layout, vec))
    scores = [
        math.fsum(eta[(v, j)] for v, j in x.steps if (v, j) in eta) for x in tree.atoms
    ]
    top = max(scores)
    weights = [math.exp(s - top) for s in scores]
    total = math.fsum(weights)
    p = {x: w / total for x, w in zip(tree.atoms, weights)}
    return labels_from_distribution(tree, p)


@dataclass(frozen=True)
class StarForm:
    """Classical Multinomial exponential form on a star tree."""

    eta: tuple[float, ...]
    psi: float

    def eta_vector(self) -> np.ndarray:
        import numpy as np

        return np.array(self.eta)


def star_form(tree: StagedTree, theta: ParameterVector) -> StarForm:
    """eta_r = log(theta_1r / theta_1n) for r < n, psi = -log theta_1n."""
    if not tree.is_star():
        raise NotAStar("star_form requires a tree of depth one")
    root = tree.root
    n = tree.out_degree(root)
    last = theta.label(tree, root, n)
    eta = tuple(
        math.log(theta.label(tree, root, r)) - math.log(last) for r in range(1, n)
    )
    return StarForm(eta, -math.log(last))


# -- symbolic presentation ----------------------------------------------------


def symbolic_natural_parameters(
    tree: StagedTree,
) -> dict[tuple[str, int], tuple[tuple[tuple[str, int], ...], tuple[tuple[str, int], ...]]]:
    """(numerator, denominator) label multisets of each eta_vj.

    The numerator collects the edge label (v, j) together with the downward
    labels below the child at edge j; the denominator collects the downward
    labels below v itself.
    """
    down = _downward_fold(tree, (), lambda v, j, below: ((v, j),) + below)
    return {
        (v, j): (((v, j),) + down[tree.child(v, j)], down[v])
        for v, j in statistic_layout(tree)
    }


def _is_single_index(tree: StagedTree, v: str) -> bool:
    """A binary vertex with the default downward edge, whose labels and
    parameters are named by the vertex index alone.
    """
    return tree.out_degree(v) == 2 and tree.downward_edge(v) == 2


def _render_label(tree: StagedTree, v: str, j: int) -> str:
    if _is_single_index(tree, v):
        i = tree.index[v]
        return f"t{i}" if j == 1 else f"(1-t{i})"
    return f"th[{tree.index[v]},{j}]"


def render_formulas(tree: StagedTree) -> dict[str, str]:
    """Human-readable formulas for each eta and for psi.

    Binary vertices with the default downward edge are printed in single-index
    style, ``t3`` and ``(1-t3)``; other edges as ``th[i,j]``.
    """

    def times(label: str, below: str) -> str:
        return f"{label}*{below}" if below else label

    down = _downward_fold(
        tree, "", lambda v, j, below: times(_render_label(tree, v, j), below)
    )
    out = {}
    for v, j in statistic_layout(tree):
        num_s = times(_render_label(tree, v, j), down[tree.child(v, j)])
        key = f"eta[{tree.index[v]},{j}]"
        out[key] = f"log({num_s}/({down[v]}))"
    out["psi"] = f"-log({down[tree.root]})"
    return out
