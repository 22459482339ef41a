"""Symbolic classification of stagings: regular, balanced, simple.

Monomials and polynomials here are purely formal objects.  No local
sum-to-one simplification is ever applied, and all coefficients are
nonnegative integers, so polynomials are multisets of monomials and
monomials are multisets of labels.  Each check indexes tables built in one
bottom-up pass over the tree: the interpolating polynomials t_v (balanced,
simple) and downward monomials N_v (regular) over (stage id, edge) labels,
and the xi-polynomials P_v of the stage equations over (vertex, edge) labels.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Optional

from .expfam import _downward_fold, _is_single_index, _log_xi_fold, natural_parameters
from .tree import ParameterVector, StagedTree, _Record, _set, dimensions

Label = tuple[str, int]
Monomial = tuple[Label, ...]  # sorted tuple, repeats = exponents


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(sorted(a + b))


class FormalPolynomial:
    """A formal sum of monomials with positive integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Counter):
        self.terms = terms

    @classmethod
    def one(cls) -> "FormalPolynomial":
        return cls(Counter({(): 1}))

    def __mul__(self, other: "FormalPolynomial") -> "FormalPolynomial":
        out: Counter = Counter()
        right = other.terms.items()
        for m1, c1 in self.terms.items():
            for m2, c2 in right:
                out[tuple(sorted(m1 + m2))] += c1 * c2  # monomial_mul, inlined
        return FormalPolynomial(out)

    def __eq__(self, other) -> bool:
        # no coefficient is zero, so plain dict equality is multiset equality
        # (and faster than Counter's, which treats missing keys as zero)
        return isinstance(other, FormalPolynomial) and dict.__eq__(self.terms, other.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __len__(self) -> int:
        return sum(self.terms.values())

    def __repr__(self) -> str:
        return f"FormalPolynomial({dict(self.terms)!r})"


def _path_polynomials(tree: StagedTree, label) -> dict[str, FormalPolynomial]:
    """Formal sum over v-to-leaf paths of the products of ``label(u, j)``,
    for every vertex v; an edge labelled None contributes no factor.
    """

    def combine(u: str, below: list[FormalPolynomial]) -> FormalPolynomial:
        terms: Counter = Counter()
        for j, poly in enumerate(below, start=1):
            lbl = label(u, j)
            for m, c in poly.terms.items():
                terms[m if lbl is None else monomial_mul(m, (lbl,))] += c
        return FormalPolynomial(terms)

    return tree.fold(FormalPolynomial.one(), combine)


def interpolating_polynomials(tree: StagedTree) -> dict[str, FormalPolynomial]:
    """t_v for every vertex: paths from v to a leaf over (stage id, edge) labels."""
    return _path_polynomials(tree, lambda u, j: (tree.stage_of[u], j))


def xi_polynomials(tree: StagedTree) -> dict[str, FormalPolynomial]:
    """P_v for every vertex: paths from v to a leaf over xi labels.

    xi of a downward edge equals one (its natural parameter is zero), so
    downward labels are omitted from the monomials.  Labels are vertex-level
    (vertex, edge) pairs since natural parameters live on the saturated tree.
    """
    return _path_polynomials(
        tree, lambda u, j: None if j == tree.downward_edge(u) else (u, j)
    )


def downward_monomials(tree: StagedTree) -> dict[str, Monomial]:
    """N_v for every vertex: the (stage id, edge) labels along the
    all-downward path from v; empty for leaves.
    """
    return _downward_fold(
        tree, (), lambda v, j, below: monomial_mul(below, ((tree.stage_of[v], j),))
    )


def _ratio_key(num: Monomial, den: Monomial) -> tuple[tuple[Label, int], ...]:
    """The Laurent monomial num / den as its sorted nonzero signed exponents."""
    exps = Counter(num)
    exps.subtract(den)
    return tuple(sorted((lbl, e) for lbl, e in exps.items() if e))


def _member_ratios(tree: StagedTree):
    """(kappa, members, keys) for every stage with at least two members.

    ``keys[m][j - 1]`` is the ratio N_cj / N_ck of member m's children at
    edge j and at the downward edge k = kappa.
    """
    down = downward_monomials(tree)
    for s_id, members in tree.stage_members.items():
        if len(members) < 2:
            continue
        kappa = tree.downward[s_id]
        keys = []
        for v in members:
            cs = tree.children[v]
            keys.append([_ratio_key(down[c], down[cs[kappa - 1]]) for c in cs])
        yield kappa, members, keys


def is_regular(tree: StagedTree) -> tuple[bool, list[tuple[str, str, int]]]:
    """Check N_ij N_sk = N_sj N_ik for all same-stage pairs and edges.

    Returns (flag, witnesses); each witness is a violating (v_i, v_s, j)
    triple, in lexicographic order of the vertex enumeration.  Monomials
    form a cancellative monoid, so a pair violates at edge j exactly when
    the ratios N_ij / N_ik and N_sj / N_sk differ, and a stage whose members
    all share the first member's ratios has no witness.

    Neither this verdict nor balance (see :func:`is_balanced`) depends on the
    downward edges.  With Q_v(j) = N_c / N_v for v's child c at edge j, a
    stage is regular iff each Q_v(j) is one Laurent monomial for all members.
    Move stage g's downward edge from k to k' on a regular tree; let m(u) be
    the (g, k)-exponent of N_u.  At each g-member, m(c_wk') - m(c_wk) is that
    of Q_w(k') / Q_w(k), so stage-constant, and 0 at a lowest one.  Up the
    tree, N'_u = N_u c^m(u) with c = theta_gk' Q_g(k'), so Q'_v(j) / Q_v(j)
    = c^(m(c_vj) - m(v)) is stage-constant.  README "check" has the steps.
    """
    witnesses = []
    for _, members, keys in _member_ratios(tree):
        if all(key == keys[0] for key in keys):
            continue
        for (vi, ki), (vs, ks) in itertools.combinations(zip(members, keys), 2):
            witnesses.extend(
                (vi, vs, j) for j, (a, b) in enumerate(zip(ki, ks), start=1) if a != b
            )
    return not witnesses, witnesses


def _balanced(tree: StagedTree, t: dict[str, FormalPolynomial]) -> bool:
    """t_1j t_sk = t_1k t_sj for the first member 1 and every later member s.

    Z[labels] is an integral domain and no t_v is zero, so this says that
    t_sj / t_sk equals t_1j / t_1k, and equality with the first member's
    ratios is transitive.  Cancellation also decides the pairs that share a
    factor without a product: if t_1k = t_sk the condition is t_1j = t_sj,
    and if not, t_1j = t_sj violates it.
    """
    for s_id, members in tree.stage_members.items():
        k = tree.downward[s_id] - 1
        first = [t[c] for c in tree.children[members[0]]]
        for vs in members[1:]:
            other = [t[c] for c in tree.children[vs]]
            if first[k] == other[k]:
                if other != first:
                    return False
                continue
            for j, (t1j, tsj) in enumerate(zip(first, other)):
                if j != k and (t1j == tsj or t1j * other[k] != first[k] * tsj):
                    return False
    return True


def _simple(tree: StagedTree, t: dict[str, FormalPolynomial]) -> bool:
    """t_sj = t_1j for the first member 1, every later member s and edge j."""
    for members in tree.stage_members.values():
        first = [t[c] for c in tree.children[members[0]]]
        for vs in members[1:]:
            if [t[c] for c in tree.children[vs]] != first:
                return False
    return True


def is_balanced(tree: StagedTree) -> bool:
    """Check t_ij t_sk = t_ik t_sj for all same-stage pairs and edges.

    The verdict does not depend on the downward edges: t_v does not, and
    t_sj / t_sk' is t_sj / t_sk divided by t_sk' / t_sk, so equal ratios for
    one reference edge k give equal ratios for any other k'.
    """
    # a saturated tree has no same-stage pair, so the table is not built
    return tree.is_saturated() or _balanced(tree, interpolating_polynomials(tree))


def is_simple(tree: StagedTree) -> bool:
    """Check t_ij = t_sj for all same-stage pairs and edges."""
    return tree.is_saturated() or _simple(tree, interpolating_polynomials(tree))


class ConstraintMatrix(_Record):
    """Linear identifications of edge labels over the saturated coordinates.

    ``coords`` are the d0 coordinates (v, j) with j < kappa_v.  There is one
    row theta_aj - theta_bj per edge j < kappa and per pair of consecutive
    members a, b of a stage, stored as the column indices of its +1 and -1.
    """

    __slots__ = ("coords", "rows")

    def __init__(self, coords: tuple[tuple[str, int], ...], rows: tuple[tuple[int, int], ...]):
        _set(self, "coords", coords)
        _set(self, "rows", rows)

    @property
    def rank(self) -> int:
        """The number of rows: the matrix has full row rank.

        The rows of one (stage, j) group are the incidence rows of the path
        through the stage's members, and the incidence matrix of a tree with
        m vertices has rank m - 1 (Biggs, Algebraic Graph Theory, 1974).  The
        groups use disjoint columns, so their ranks add up.
        """
        return len(self.rows)

    def kernel_dimension(self) -> int:
        return len(self.coords) - self.rank


def constraint_matrix(tree: StagedTree) -> ConstraintMatrix:
    coords = tuple((v, j) for v in tree.inner for j in range(1, tree.out_degree(v)))
    col = {c: i for i, c in enumerate(coords)}
    rows = tuple(
        (col[(va, j)], col[(vb, j)])
        for members in tree.stage_members.values()
        for va, vb in zip(members, members[1:])
        for j in range(1, tree.out_degree(va))
    )
    return ConstraintMatrix(coords, rows)


# -- stage equations in natural coordinates -----------------------------------


class StageEquation(_Record):
    """eta_ij + log P_ij + log P_sk = eta_sj + log P_sj + log P_ik.

    ``lhs_eta``/``rhs_eta`` are (vertex, edge) pairs or None when the edge is
    downward (its natural parameter is identically zero).  The equation is
    linear in the natural parameters iff the log terms cancel, which happens
    iff the downward monomials satisfy N_ij N_sk = N_sj N_ik.
    """

    __slots__ = ("vi", "vs", "j", "kappa", "lhs_eta", "rhs_eta", "lhs_logs", "rhs_logs", "linear")

    def __init__(self, vi: str, vs: str, j: int, kappa: int, lhs_eta: Optional[tuple[str, int]],
                 rhs_eta: Optional[tuple[str, int]],
                 lhs_logs: tuple[FormalPolynomial, FormalPolynomial],
                 rhs_logs: tuple[FormalPolynomial, FormalPolynomial], linear: bool):
        _set(self, "vi", vi)
        _set(self, "vs", vs)
        _set(self, "j", j)
        _set(self, "kappa", kappa)
        _set(self, "lhs_eta", lhs_eta)
        _set(self, "rhs_eta", rhs_eta)
        _set(self, "lhs_logs", lhs_logs)
        _set(self, "rhs_logs", rhs_logs)
        _set(self, "linear", linear)

    def pretty(self, tree: StagedTree) -> str:
        def side(eta_term, logs):
            parts = ["0" if eta_term is None else _name(tree, "eta", *eta_term)]
            parts += [f"log({_poly_str(tree, p)})" for p in logs]
            return " + ".join(parts)

        return (
            side(self.lhs_eta, self.lhs_logs)
            + " = "
            + side(self.rhs_eta, self.rhs_logs)
        )


def _name(tree: StagedTree, symbol: str, v: str, j: int) -> str:
    """``xi3`` for a single-index vertex v_3, else ``xi[3,j]``."""
    i = tree.index[v]
    return f"{symbol}{i}" if _is_single_index(tree, v) else f"{symbol}[{i},{j}]"


def _poly_str(tree: StagedTree, poly: FormalPolynomial) -> str:
    def mono_str(m: Monomial, c: int) -> str:
        factors = [_name(tree, "xi", v, j) for v, j in m]
        body = "*".join(factors) if factors else "1"
        return body if c == 1 else f"{c}*{body}"

    keys = sorted(poly.terms, key=lambda m: (len(m), m))
    return " + ".join(mono_str(m, poly.terms[m]) for m in keys)


def stage_equations(tree: StagedTree) -> list[StageEquation]:
    """One equation per same-stage pair per edge j = 1..kappa."""
    if tree.is_saturated():
        return []
    xi = xi_polynomials(tree)
    equations = []
    for kappa, members, keys in _member_ratios(tree):
        for (vi, ki), (vs, ks) in itertools.combinations(zip(members, keys), 2):
            ci, cs = tree.children[vi], tree.children[vs]
            for j in range(1, len(ci) + 1):
                equations.append(
                    StageEquation(
                        vi=vi,
                        vs=vs,
                        j=j,
                        kappa=kappa,
                        lhs_eta=None if j == kappa else (vi, j),
                        rhs_eta=None if j == kappa else (vs, j),
                        lhs_logs=(xi[ci[j - 1]], xi[cs[kappa - 1]]),
                        rhs_logs=(xi[cs[j - 1]], xi[ci[kappa - 1]]),
                        linear=ki[j - 1] == ks[j - 1],
                    )
                )
    return equations


def check_np_identity(tree: StagedTree, theta: ParameterVector) -> float:
    """Max residual |N_v * P_v(xi) - 1| over all vertices, xi = exp(eta).

    Each residual is |expm1(log N_v + log P_v)|, with log P_v from the
    log-space fold of the xi-polynomials, so no exp(eta) is formed.
    """
    form = natural_parameters(tree, theta)
    _, logP = _log_xi_fold(tree, form.eta)
    return max(abs(math.expm1(form.logN[v] + logP[v])) for v in tree.vertices)


def classify(tree: StagedTree) -> dict:
    """Regular/balanced/simple report, with dimensions and witnesses."""
    regular, witnesses = is_regular(tree)
    d0, d = dimensions(tree)
    # one table serves both checks; a saturated tree needs none
    saturated = tree.is_saturated()
    t = None if saturated else interpolating_polynomials(tree)
    return {
        "regular": regular,
        "balanced": saturated or _balanced(tree, t),
        "simple": saturated or _simple(tree, t),
        "d0": d0,
        "d": d,
        "witnesses": witnesses,
    }

