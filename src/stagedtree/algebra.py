"""Symbolic classification of stagings: regular, balanced, simple.

Monomials and polynomials here are purely formal objects over canonical
(stage id, edge index) labels.  No local sum-to-one simplification is ever
applied, and all coefficients are nonnegative integers, so polynomials are
multisets of monomials and monomials are multisets of labels.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .expfam import natural_parameters
from .tree import ParameterVector, StagedTree, dimensions

Label = tuple[str, int]
Monomial = tuple[Label, ...]  # sorted tuple, repeats = exponents


def monomial(labels: Iterable[Label]) -> Monomial:
    return tuple(sorted(labels))


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(sorted(a + b))


class FormalPolynomial:
    """A formal sum of monomials with positive integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Counter] = None):
        self.terms: Counter = terms if terms is not None else Counter()

    @classmethod
    def one(cls) -> "FormalPolynomial":
        return cls(Counter({(): 1}))

    @classmethod
    def from_monomials(cls, monomials: Iterable[Monomial]) -> "FormalPolynomial":
        return cls(Counter(monomials))

    def __add__(self, other: "FormalPolynomial") -> "FormalPolynomial":
        return FormalPolynomial(self.terms + other.terms)

    def __mul__(self, other: "FormalPolynomial") -> "FormalPolynomial":
        out: Counter = Counter()
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                out[monomial_mul(m1, m2)] += c1 * c2
        return FormalPolynomial(out)

    def scale_by(self, label: Label) -> "FormalPolynomial":
        return FormalPolynomial(
            Counter({monomial_mul(m, (label,)): c for m, c in self.terms.items()})
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, FormalPolynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __len__(self) -> int:
        return sum(self.terms.values())

    def __repr__(self) -> str:
        return f"FormalPolynomial({dict(self.terms)!r})"


def canonical_label(tree: StagedTree, v: str, j: int) -> Label:
    return (tree.stage_of[v], j)


def downward_monomial(tree: StagedTree, v: str) -> Monomial:
    """Canonical labels along the all-downward path from v; empty for leaves."""
    labels = []
    while not tree.is_leaf(v):
        j = tree.downward_edge(v)
        labels.append(canonical_label(tree, v, j))
        v = tree.child(v, j)
    return monomial(labels)


def interpolating_polynomial(tree: StagedTree, v: str) -> FormalPolynomial:
    """Formal sum over v-to-leaf paths of the products of canonical labels."""
    cache: dict[str, FormalPolynomial] = {}

    def walk(u: str) -> FormalPolynomial:
        if u in cache:
            return cache[u]
        if tree.is_leaf(u):
            poly = FormalPolynomial.one()
        else:
            poly = FormalPolynomial()
            for j in range(1, tree.out_degree(u) + 1):
                poly = poly + walk(tree.child(u, j)).scale_by(canonical_label(tree, u, j))
        cache[u] = poly
        return poly

    return walk(v)


def _same_stage_pairs(tree: StagedTree):
    """(v_i, v_s, kappa) over all same-stage pairs, i before s in enumeration."""
    for s_id, members in tree.stage_members.items():
        kappa = tree.downward[s_id]
        for vi, vs in itertools.combinations(members, 2):
            yield vi, vs, kappa


def is_regular(tree: StagedTree) -> tuple[bool, list[tuple[str, str, int]]]:
    """Check N_ij N_sk = N_sj N_ik for all same-stage pairs and edges.

    Returns (flag, witnesses); each witness is a violating (v_i, v_s, j)
    triple, in lexicographic order of the vertex enumeration.
    """
    down = {v: downward_monomial(tree, v) for v in tree.vertices}
    witnesses = []
    for vi, vs, kappa in _same_stage_pairs(tree):
        for j in range(1, tree.out_degree(vi) + 1):
            if j == kappa:
                continue
            lhs = monomial_mul(down[tree.child(vi, j)], down[tree.child(vs, kappa)])
            rhs = monomial_mul(down[tree.child(vs, j)], down[tree.child(vi, kappa)])
            if lhs != rhs:
                witnesses.append((vi, vs, j))
    return not witnesses, witnesses


def is_balanced(tree: StagedTree) -> bool:
    """Check t_ij t_sk = t_ik t_sj for all same-stage pairs and edges."""
    interp = {v: interpolating_polynomial(tree, v) for v in tree.vertices}
    for vi, vs, kappa in _same_stage_pairs(tree):
        t_ik = interp[tree.child(vi, kappa)]
        t_sk = interp[tree.child(vs, kappa)]
        for j in range(1, tree.out_degree(vi) + 1):
            if j == kappa:
                continue
            if interp[tree.child(vi, j)] * t_sk != t_ik * interp[tree.child(vs, j)]:
                return False
    return True


def is_simple(tree: StagedTree) -> bool:
    """Check t_ij = t_sj for all same-stage pairs and edges."""
    interp = {v: interpolating_polynomial(tree, v) for v in tree.vertices}
    for vi, vs, _ in _same_stage_pairs(tree):
        for j in range(1, tree.out_degree(vi) + 1):
            if interp[tree.child(vi, j)] != interp[tree.child(vs, j)]:
                return False
    return True


@dataclass(frozen=True)
class ConstraintMatrix:
    """Linear identifications of edge labels over the saturated coordinates.

    One row per identification theta_ij - theta_sj between consecutive
    same-stage vertices, over the d0 coordinates (v, j) with j < kappa_v.
    """

    coords: tuple[tuple[str, int], ...]
    matrix: np.ndarray

    @property
    def rank(self) -> int:
        if self.matrix.shape[0] == 0:
            return 0
        return int(np.linalg.matrix_rank(self.matrix))

    def kernel_dimension(self) -> int:
        return len(self.coords) - self.rank


def constraint_matrix(tree: StagedTree) -> ConstraintMatrix:
    coords = [
        (v, j) for v in tree.inner for j in range(1, tree.out_degree(v))
    ]
    col = {c: i for i, c in enumerate(coords)}
    rows = []
    for members in tree.stage_members.values():
        for va, vb in zip(members, members[1:]):
            for j in range(1, tree.out_degree(va)):
                row = np.zeros(len(coords), dtype=int)
                row[col[(va, j)]] = 1
                row[col[(vb, j)]] = -1
                rows.append(row)
    matrix = np.array(rows, dtype=int) if rows else np.zeros((0, len(coords)), dtype=int)
    return ConstraintMatrix(tuple(coords), matrix)


# -- stage equations in natural coordinates -----------------------------------


def xi_polynomial(tree: StagedTree, v: str) -> FormalPolynomial:
    """P_v: formal sum over v-to-leaf paths of products of xi labels.

    xi of a downward edge equals one (its natural parameter is zero), so
    downward labels are omitted from the monomials.  Labels are vertex-level
    (vertex, edge) pairs since natural parameters live on the saturated tree.
    """
    cache: dict[str, FormalPolynomial] = {}

    def walk(u: str) -> FormalPolynomial:
        if u in cache:
            return cache[u]
        if tree.is_leaf(u):
            poly = FormalPolynomial.one()
        else:
            down = tree.downward_edge(u)
            poly = FormalPolynomial()
            for j in range(1, tree.out_degree(u) + 1):
                sub = walk(tree.child(u, j))
                poly = poly + (sub if j == down else sub.scale_by((u, j)))
        cache[u] = poly
        return poly

    return walk(v)


@dataclass(frozen=True)
class StageEquation:
    """eta_ij + log P_ij + log P_sk = eta_sj + log P_sj + log P_ik.

    ``lhs_eta``/``rhs_eta`` are (vertex, edge) pairs or None when the edge is
    downward (its natural parameter is identically zero).  The equation is
    linear in the natural parameters iff the log terms cancel, which happens
    iff the downward monomials satisfy N_ij N_sk = N_sj N_ik.
    """

    vi: str
    vs: str
    j: int
    kappa: int
    lhs_eta: Optional[tuple[str, int]]
    rhs_eta: Optional[tuple[str, int]]
    lhs_logs: tuple[FormalPolynomial, FormalPolynomial]
    rhs_logs: tuple[FormalPolynomial, FormalPolynomial]
    linear: bool

    def pretty(self, tree: StagedTree) -> str:
        def eta_str(term):
            if term is None:
                return "0"
            v, j = term
            return _eta_name(tree, v, j)

        def side(eta_term, logs):
            parts = [eta_str(eta_term)]
            parts += [f"log({_poly_str(tree, p)})" for p in logs]
            return " + ".join(parts)

        return (
            side(self.lhs_eta, self.lhs_logs)
            + " = "
            + side(self.rhs_eta, self.rhs_logs)
        )


def _is_single_index(tree: StagedTree, v: str) -> bool:
    return tree.out_degree(v) == 2 and tree.downward_edge(v) == 2


def _eta_name(tree: StagedTree, v: str, j: int) -> str:
    if _is_single_index(tree, v):
        return f"eta{tree.index[v]}"
    return f"eta[{tree.index[v]},{j}]"


def _xi_name(tree: StagedTree, v: str, j: int) -> str:
    if _is_single_index(tree, v):
        return f"xi{tree.index[v]}"
    return f"xi[{tree.index[v]},{j}]"


def _poly_str(tree: StagedTree, poly: FormalPolynomial) -> str:
    def mono_str(m: Monomial, c: int) -> str:
        factors = [_xi_name(tree, v, j) for v, j in m]
        body = "*".join(factors) if factors else "1"
        return body if c == 1 else f"{c}*{body}"

    keys = sorted(poly.terms, key=lambda m: (len(m), m))
    return " + ".join(mono_str(m, poly.terms[m]) for m in keys)


def stage_equations(tree: StagedTree) -> list[StageEquation]:
    """One equation per same-stage pair per edge j = 1..kappa."""
    down = {v: downward_monomial(tree, v) for v in tree.vertices}
    xi_poly = {v: xi_polynomial(tree, v) for v in tree.vertices}
    equations = []
    for vi, vs, kappa in _same_stage_pairs(tree):
        for j in range(1, tree.out_degree(vi) + 1):
            lhs = monomial_mul(down[tree.child(vi, j)], down[tree.child(vs, kappa)])
            rhs = monomial_mul(down[tree.child(vs, j)], down[tree.child(vi, kappa)])
            equations.append(
                StageEquation(
                    vi=vi,
                    vs=vs,
                    j=j,
                    kappa=kappa,
                    lhs_eta=None if j == kappa else (vi, j),
                    rhs_eta=None if j == kappa else (vs, j),
                    lhs_logs=(xi_poly[tree.child(vi, j)], xi_poly[tree.child(vs, kappa)]),
                    rhs_logs=(xi_poly[tree.child(vs, j)], xi_poly[tree.child(vi, kappa)]),
                    linear=lhs == rhs,
                )
            )
    return equations


def check_np_identity(tree: StagedTree, theta: ParameterVector) -> float:
    """Max residual |N_v * P_v(xi) - 1| over all vertices, xi = exp(eta)."""
    form = natural_parameters(tree, theta)
    xi = {key: math.exp(val) for key, val in form.eta.items()}

    def combine(u: str, below: list[float]) -> float:
        down = tree.downward_edge(u)
        val = 0.0
        for j, p in enumerate(below, start=1):
            val += (1.0 if j == down else xi[(u, j)]) * p
        return val

    P = tree.fold(1.0, combine)
    residual = 0.0
    for v in tree.vertices:
        residual = max(residual, abs(math.exp(form.logN[v]) * P[v] - 1.0))
    return residual


def classify(tree: StagedTree) -> dict:
    """Regular/balanced/simple report, with dimensions and witnesses."""
    regular, witnesses = is_regular(tree)
    d0, d = dimensions(tree)
    return {
        "regular": regular,
        "balanced": is_balanced(tree),
        "simple": is_simple(tree),
        "d0": d0,
        "d": d,
        "witnesses": witnesses,
    }


def downward_invariance_probe(tree: StagedTree) -> list[dict]:
    """Recompute the classification under alternative downward-edge choices.

    One stage's downward edge is varied at a time.  Returns a record per
    choice that flips the regular or balanced classification; an empty list
    means no disagreement was observed.
    """
    base_regular, _ = is_regular(tree)
    base_balanced = is_balanced(tree)
    disagreements = []
    for s_id, kappa in tree.stage_degrees.items():
        for j in range(1, kappa + 1):
            if j == tree.downward[s_id]:
                continue
            alt_down = dict(tree.downward)
            alt_down[s_id] = j
            alt = tree.with_staging(dict(tree.stage_of), downward=alt_down)
            alt_regular, _ = is_regular(alt)
            alt_balanced = is_balanced(alt)
            if alt_regular != base_regular or alt_balanced != base_balanced:
                disagreements.append(
                    {
                        "stage": s_id,
                        "downward": j,
                        "regular": alt_regular,
                        "balanced": alt_balanced,
                    }
                )
    return disagreements
