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
from collections.abc import Mapping

from .errors import NontrivialStaging, StagedTreeError
from .tree import Atom, ParameterVector, StagedTree, _is_real, _Record, _require_atom_of, _set


def _downward_fold(tree: StagedTree, leaf_value, step) -> dict:
    """Fold ``step(v, j, below)`` down the all-downward path from every vertex.

    The pass runs in reversed BFS order, as :meth:`StagedTree.fold` does, and
    reads only the downward child j of each inner vertex v.
    """
    downward, stage_of, children = tree.downward, tree.stage_of, tree.children
    out: dict = {}
    for v in reversed(tree.vertices):
        cs = children.get(v)
        if cs is None:
            out[v] = leaf_value
        else:
            j = downward[stage_of[v]]
            out[v] = step(v, j, out[cs[j - 1]])
    return out


def log_downward_products(tree: StagedTree, theta: ParameterVector) -> dict[str, float]:
    """log N_v for every vertex; leaves get log 1 = 0."""
    theta.validate_for(tree)
    # the log of each stage's downward label, taken once
    log_down = {s: math.log(theta[(s, j)]) for s, j in tree.downward.items()}
    stage_of = tree.stage_of
    return _downward_fold(tree, 0.0, lambda v, j, below: log_down[stage_of[v]] + below)


def statistic_layout(tree: StagedTree) -> tuple[tuple[str, int], ...]:
    """Ordered (vertex, edge) index pairs defining the sufficient statistic.

    Vertex enumeration order, then edge index; the downward edge of each
    vertex is excluded, so the layout has length d0.
    """
    downward, stage_of, children = tree.downward, tree.stage_of, tree.children
    layout = []
    for v in tree.inner:
        down = downward[stage_of[v]]
        layout.extend((v, j) for j in range(1, len(children[v]) + 1) if j != down)
    return tuple(layout)


class ExpFamForm(_Record):
    """Natural parameters, cumulant value, and statistic layout at a given theta."""

    __slots__ = ("layout", "eta", "psi", "logN")
    _hidden = ("logN",)

    def __init__(self, layout: tuple[tuple[str, int], ...], eta: dict[tuple[str, int], float],
                 psi: float, logN: dict[str, float]):
        _set(self, "layout", layout)
        _set(self, "eta", eta)
        _set(self, "psi", psi)
        _set(self, "logN", logN)


def natural_parameters(tree: StagedTree, theta: ParameterVector) -> ExpFamForm:
    """eta_vj = log(theta_vj * N_vj / N_v) for every non-downward edge.

    The log of each stage label is taken once, and each vertex's stage and
    downward edge are looked up once.  The layout is built in the same pass,
    in the order of :func:`statistic_layout`.
    """
    logN = log_downward_products(tree, theta)
    log_theta = {key: math.log(p) for key, p in theta.items()}
    downward, stage_of, children = tree.downward, tree.stage_of, tree.children
    layout = []
    eta = {}
    for v in tree.inner:
        s = stage_of[v]
        down, log_v = downward[s], logN[v]
        for j, c in enumerate(children[v], start=1):
            if j != down:
                layout.append((v, j))
                eta[(v, j)] = log_theta[(s, j)] + logN[c] - log_v
    return ExpFamForm(tuple(layout), eta, -logN[tree.root], logN)


def sufficient_statistic(tree: StagedTree, atom: Atom) -> tuple[int, ...]:
    """0/1 indicators of the non-downward edges, in layout order."""
    _require_atom_of(tree, atom)
    return tuple(int(atom.traverses(v, j)) for v, j in statistic_layout(tree))


def density_expform(tree: StagedTree, theta: ParameterVector, atom: Atom) -> float:
    """Evaluate exp(eta . T(x) - psi) for one atom."""
    _require_atom_of(tree, atom)
    form = natural_parameters(tree, theta)
    s = math.fsum(form.eta[(v, j)] for v, j in atom.steps if (v, j) in form.eta)
    return math.exp(s - form.psi)


def _log_xi_fold(tree: StagedTree, eta) -> tuple[dict[str, list[float]], dict[str, float]]:
    """The edge labels and log P_v(xi) at xi = exp(eta), from one pass in log space.

    At each inner v, with eta = 0 on the downward edge, a_j = eta_vj + log P_c
    for the child c at edge j.  Then log P_v = m + log(fsum_j exp(a_j - m)),
    m = max_j a_j, and the label of edge j is exp(a_j - m) over that fsum.
    Leaves get log P = 0, so psi(eta) = log P_root, and the pass takes O(sum
    kappa) steps.  Returns the labels of each inner vertex, in edge order, and
    log P of every vertex.
    """
    downward, stage_of = tree.downward, tree.stage_of
    labels: dict[str, list[float]] = {}

    def combine(v: str, below: list[float]) -> float:
        down = downward[stage_of[v]]
        a = [lp if j == down else eta[(v, j)] + lp for j, lp in enumerate(below, start=1)]
        m = max(a)
        weights = [math.exp(x - m) for x in a]
        total = math.fsum(weights)
        labels[v] = [w / total for w in weights]
        return m + math.log(total)

    return labels, tree.fold(0.0, combine)


def theta_from_eta(tree: StagedTree, eta) -> ParameterVector:
    """Invert the natural parametrization on a saturated tree.

    ``eta`` is either a mapping keyed by exactly the statistic layout or a
    flat vector in layout order.  Every entry must be a finite real number.
    The labels are theta_vj = xi_vj * P_c(xi) / P_v(xi), read off the log-space
    fold of the xi-polynomials (the identity N_v * P_v(xi) = 1 backwards).
    An eta whose labels at some vertex round to 0.0 or 1.0 is refused.
    """
    if not tree.is_saturated():
        raise NontrivialStaging("theta_from_eta is defined for saturated trees only")
    layout = statistic_layout(tree)
    if not isinstance(eta, Mapping):
        try:
            vec = list(eta)
        except TypeError:
            raise StagedTreeError(f"eta must be a mapping or a sequence, got {eta!r}") from None
        if len(vec) != len(layout):
            raise StagedTreeError(f"expected {len(layout)} natural parameters, got {len(vec)}")
        eta = dict(zip(layout, vec))
    elif eta.keys() != set(layout):
        odd = sorted(eta.keys() ^ set(layout), key=repr)
        raise StagedTreeError(f"eta keys differ from the statistic layout at {odd}")
    for v, j in layout:
        x = eta[(v, j)]
        if not (_is_real(x) and math.isfinite(x)):
            raise StagedTreeError(f"natural parameter eta[{v},{j}]={x!r} is not a finite number")
    labels, _ = _log_xi_fold(tree, eta)
    for v in tree.inner:
        if 0.0 in labels[v] or 1.0 in labels[v]:
            given = ", ".join(f"eta[{u},{j}]={eta[(u, j)]!r}" for u, j in layout if u == v)
            raise StagedTreeError(
                f"the labels at vertex {v!r} round to the boundary 0 or 1 in double"
                f" precision (its eta: {given})"
            )
    stage_of = tree.stage_of
    return ParameterVector(
        {(stage_of[v], j): p for v in tree.inner for j, p in enumerate(labels[v], start=1)}
    )


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
    return len(tree.children[v]) == 2 and tree.downward[tree.stage_of[v]] == 2


def render_formulas(tree: StagedTree) -> dict[str, str]:
    """Human-readable formulas for each eta and for psi.

    Binary vertices with the default downward edge are printed in single-index
    style, ``t3`` and ``(1-t3)``; other edges as ``th[i,j]``.
    """

    def times(label: str, below: str) -> str:
        return f"{label}*{below}" if below else label

    downward, stage_of, children, index = tree.downward, tree.stage_of, tree.children, tree.index
    # each vertex's edge labels, named once
    labels = {}
    for v in tree.inner:
        i = index[v]
        if _is_single_index(tree, v):
            labels[v] = (f"t{i}", f"(1-t{i})")
        else:
            labels[v] = tuple(f"th[{i},{j}]" for j in range(1, len(children[v]) + 1))
    # the downward labels below each vertex
    below = _downward_fold(tree, "", lambda v, j, b: times(labels[v][j - 1], b))
    out = {}
    for v in tree.inner:
        i, down, den = index[v], downward[stage_of[v]], below[v]
        for j, (label, c) in enumerate(zip(labels[v], children[v]), start=1):
            if j != down:
                out[f"eta[{i},{j}]"] = f"log({times(label, below[c])}/({den}))"
    out["psi"] = f"-log({below[tree.root]})"
    return out
