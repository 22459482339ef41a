"""Exponential-family form of a probability tree.

The density of a tree with labels theta can be written as
``exp(eta . T(x) - psi)`` where the sufficient statistic T collects the
indicators of the non-downward edges, the natural parameter of edge (i, j)
is the locally normalized log-probability ``log(theta_ij * N_ij / N_i)``,
and ``psi = -log N_1`` with N_i the product of the downward-edge labels
along the downward path from v_i.
"""

from __future__ import annotations

import itertools
import math
from array import array
from collections.abc import Iterator, Mapping

from .errors import NontrivialStaging, StagedTreeError
from .tree import (
    Atom, ParameterVector, StagedTree, _is_real, _Record, _require_atom_of, _set, _single_index,
)


def _log_downward(tree: StagedTree, theta: ParameterVector) -> list[float]:
    """log N_v by BFS position; leaves get log 1 = 0."""
    theta.validate_for(tree)
    # the log of each stage's downward label, taken once
    log_down = [math.log(theta[(s, j)]) for s, j in zip(tree.stage_ids, tree._down)]
    return tree._downward_fold(0.0, lambda r, s, j, below: log_down[s] + below)


def log_downward_products(tree: StagedTree, theta: ParameterVector) -> dict[str, float]:
    """log N_v for every vertex, in BFS order; leaves get log 1 = 0."""
    return dict(zip(tree.vertices, _log_downward(tree, theta)))


def _edge_table(tree: StagedTree) -> tuple[array, ...]:
    """The edges of the statistic as columns (i, p, s, j, c): the index i of
    v_i, its BFS position p and stage int s, the edge j, and the position c of
    the child at edge j.  Rows run in vertex enumeration order, then edge
    index, without the downward edges.
    """
    first = tree._first
    free = [[j for j in range(1, kappa + 1) if j != k] for kappa, k in zip(tree._kappa, tree._down)]
    rows = [(i, p, s, j, first[p] + j - 1)
            for i, p, s in zip(itertools.count(1), tree._inner_pos, tree._stage) for j in free[s]]
    return tuple(map(array, "iiiii", zip(*rows)))


def statistic_layout(tree: StagedTree) -> tuple[tuple[str, int], ...]:
    """Ordered (vertex, edge) index pairs defining the sufficient statistic.

    Vertex enumeration order, then edge index; the downward edge of each
    vertex is excluded, so the layout has length d0.
    """
    _, p, _, j, _ = _edge_table(tree)
    return tuple(zip(map(tree.vertices.__getitem__, p), j))


class ExpFamForm(_Record):
    """Natural parameters, cumulant value, and statistic layout at a given theta."""

    __slots__ = ("layout", "eta", "psi")

    def __init__(self, layout: tuple[tuple[str, int], ...], eta: dict[tuple[str, int], float],
                 psi: float):
        _set(self, "layout", layout)
        _set(self, "eta", eta)
        _set(self, "psi", psi)


def _eta(tree: StagedTree, theta: ParameterVector, log_n: list[float], edges) -> list[float]:
    """eta_vj of each row of the edge table ``edges``, from the values
    ``log_n`` of :func:`_log_downward`.  The log of each stage label is taken
    once.
    """
    log_theta = [
        [math.log(theta[(s, j)]) for j in range(1, kappa + 1)]
        for s, kappa in zip(tree.stage_ids, tree._kappa)
    ]
    return [log_theta[s][j - 1] + log_n[c] - log_n[p] for _, p, s, j, c in zip(*edges)]


def natural_parameters(tree: StagedTree, theta: ParameterVector) -> ExpFamForm:
    """eta_vj = log(theta_vj * N_vj / N_v) for every non-downward edge, with
    the layout of :func:`statistic_layout`.
    """
    log_n, edges = _log_downward(tree, theta), _edge_table(tree)
    layout = tuple(zip(map(tree.vertices.__getitem__, edges[1]), edges[3]))
    return ExpFamForm(layout, dict(zip(layout, _eta(tree, theta, log_n, edges))), -log_n[0])


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


def _log_xi_fold(tree: StagedTree, eta) -> tuple[list[list[float]], list[float]]:
    """The edge labels and log P_v(xi) at xi = exp(eta), from one pass in log space.

    At each inner v, with eta = 0 on the downward edge, a_j = eta_vj + log P_c
    for the child c at edge j.  Then log P_v = m + log(fsum_j exp(a_j - m)),
    m = max_j a_j, and the label of edge j is exp(a_j - m) over that fsum.
    Leaves get log P = 0, so psi(eta) = log P_root, and the pass takes O(sum
    kappa) steps.  Returns the labels of each inner vertex in edge order, by
    inner index, and log P by BFS position.
    """
    names, inner, stage, down = tree.vertices, tree._inner_pos, tree._stage, tree._down
    labels: list = [None] * tree.k

    def combine(r: int, below: list[float]) -> float:
        v, k = names[inner[r]], down[stage[r]]
        a = [lp if j == k else eta[(v, j)] + lp for j, lp in enumerate(below, start=1)]
        m = max(a)
        weights = [math.exp(x - m) for x in a]
        total = math.fsum(weights)
        labels[r] = [w / total for w in weights]
        return m + math.log(total)

    return labels, tree._fold(0.0, combine)


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
    for v, ps in zip(map(tree.vertices.__getitem__, tree._inner_pos), labels):
        if 0.0 in ps or 1.0 in ps:
            given = ", ".join(f"eta[{u},{j}]={eta[(u, j)]!r}" for u, j in layout if u == v)
            raise StagedTreeError(
                f"the labels at vertex {v!r} round to the boundary 0 or 1 in double"
                f" precision (its eta: {given})"
            )
    ids = tree.stage_ids
    return ParameterVector(
        {(ids[s], j): p for s, ps in zip(tree._stage, labels) for j, p in enumerate(ps, start=1)}
    )


def check_np_identity(tree: StagedTree, theta: ParameterVector) -> float:
    """Max residual |N_v * P_v(xi) - 1| over all vertices, xi = exp(eta).

    Each residual is |expm1(log N_v + log P_v)|, with log P_v from the
    log-space fold of the xi-polynomials, so no exp(eta) is formed.
    """
    log_n = _log_downward(tree, theta)
    _, logP = _log_xi_fold(tree, natural_parameters(tree, theta).eta)
    return max(abs(math.expm1(a + b)) for a, b in zip(log_n, logP))


# -- symbolic presentation ----------------------------------------------------


def symbolic_natural_parameters(
    tree: StagedTree,
) -> dict[tuple[str, int], tuple[tuple[tuple[str, int], ...], tuple[tuple[str, int], ...]]]:
    """(numerator, denominator) label multisets of each eta_vj.

    The numerator collects the edge label (v, j) together with the downward
    labels below the child at edge j; the denominator collects the downward
    labels below v itself.
    """
    names, inner = tree.vertices, tree._inner_pos
    down = tree._downward_fold((), lambda r, s, j, below: ((names[inner[r]], j),) + below)
    return {
        (names[p], j): (((names[p], j),) + down[c], down[p])
        for _, p, _, j, c in zip(*_edge_table(tree))
    }


def _formulas(tree: StagedTree, edges) -> tuple[Iterator[str], Iterator[str]]:
    """The names and the formulas of each eta, in the order of the edge table
    ``edges``, then of psi.

    Binary vertices with the default downward edge are printed in single-index
    style, ``t3`` and ``(1-t3)``; other edges as ``th[i,j]``.
    """
    single = list(map(_single_index, tree._kappa, tree._down))

    def label(i: int, s: int, j: int) -> str:
        if single[s]:
            return f"t{i}" if j == 1 else f"(1-t{i})"
        return f"th[{i},{j}]"

    def times(label: str, below: str) -> str:
        return f"{label}*{below}" if below else label

    # the downward labels below each vertex
    below = tree._downward_fold("", lambda r, s, j, b: times(label(r + 1, s, j), b))
    i, p, s, j, c = edges
    numerators = map(times, map(label, i, s, j), map(below.__getitem__, c))
    formulas = map("log({}/({}))".format, numerators, map(below.__getitem__, p))
    return (
        itertools.chain(map("eta[{},{}]".format, i, j), ["psi"]),
        itertools.chain(formulas, [f"-log({below[0]})"]),
    )


def render_formulas(tree: StagedTree) -> dict[str, str]:
    """Human-readable formulas for each eta and for psi (see :func:`_formulas`)."""
    return dict(zip(*_formulas(tree, _edge_table(tree))))
