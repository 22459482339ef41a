"""Differential tests of the tree passes that replaced recursive walkers.

The ``oracle_*`` functions are the recursive or memoized implementations
that ``StagedTree.atoms``, the row walk of ``ingest_csv``,
``log_downward_products``, ``symbolic_natural_parameters``,
``check_np_identity`` and the algebra tables (interpolating, xi and
downward polynomials, and the checks built on them) used before they moved
onto iterative passes.  They are copied unchanged, apart from their names,
the oracle atoms they index by and the oracle walkers they call, and the
new code must agree with them exactly.  The exception is the per-atom
``log_likelihood``, which sums the same logs in another order than the
pooled one and must agree within 1e-12 relative.  The oracle checks compare
every same-stage pair; ``is_regular``, ``is_balanced``, ``is_simple`` and
``classify`` compare each stage member with the stage's first member only,
and must give the same verdicts, and the oracle's witnesses whose first
vertex is its stage's first member (``first_member_witnesses``).  Every
pairwise witness (v_i, v_s, j) has (v_1, v_i, j) or (v_1, v_s, j) among
those.

The per-atom and per-edge versions of the fit and parametrize passes are
oracles too: ``oracle_vertex_traffic`` walks every atom, ``oracle_count_rows``
walks every row and indexes leaves through the atoms, and
``oracle_statistic_layout``, ``oracle_natural_parameters`` and
``oracle_render_formulas`` resolve each edge through the tree's accessors.
``StagedTree.edge_totals``, the walk of each distinct row once and the
per-vertex passes must agree with them exactly.  ``stage_equations`` takes
its ``linear`` flags from the same first-member comparison as
``is_regular`` and must equal the pairwise ``oracle_stage_equations``
filtered to the first member's equations at the edges j other than the
downward edge (``first_member_equations``).  Every oracle equation
E(i, s, j) must be E(1, s, j) - E(1, i, j) as a formal sum of eta and log
terms, where the equations left out, at j = k or of a member with itself,
are 0 = 0.
``oracle_labels_from_distribution`` walks every atom's steps and
renormalises; ``labels_from_distribution`` divides the edge totals of the
atom masses by their sum at each vertex, so the labels run their sums in
another order and must agree within 1e-14 relative, and both must refuse a
zero-mass atom and a staged tree with the same error type.
``oracle_theta_from_eta`` is the atom walk of ``theta_from_eta`` without its
input checks: it sums eta over every atom's steps, normalises the atom
weights and inverts them with ``labels_from_distribution``;
``theta_from_eta`` reads the labels off the log-space fold of the
xi-polynomials, so the two must agree within 1e-12 relative.
``check_np_identity`` reads log P_v off the same fold and
``oracle_check_np_identity`` evaluates P_v(exp(eta)) in linear space, so
their residuals, each at most a few ulps, must agree within 1e-14.
``oracle_dense_rank`` builds the dense 0/+-1 constraint matrix from the
stored rows and takes its rank by SVD; ``ConstraintMatrix.rank``, the row
count, must equal it.
``oracle_downward_invariance_probe`` recomputes the pairwise verdicts under
every one-stage change of a downward edge; none may flip (the proofs are in
the docstrings of ``is_regular`` and ``is_balanced``).
The checks read integer tables (``algebra._Codes``): their prime codes are
decoded back to label tuples and must equal ``downward_monomials`` and
``interpolating_polynomials``, and each fingerprint must equal t_v evaluated
at the residues modulo 2**61 - 1.
``OracleTree`` is the dict-of-tuples build of ``StagedTree`` that the
BFS-indexed arrays replaced, with its dict folds (``fold``, ``edge_totals``,
the downward fold, ``depth``, ``leaf_position``).  The array tree must raise
the same error with the same message for every description the dict build
refused, and otherwise give the same name-keyed views, in the same order,
and the same fold values.
``StagedTree.from_json`` reads the vertex list straight into the children
map; on every text, laid out in any way or broken in any way, it must give
the tree, or the error type and message, of ``from_spec(loads(text))``.
"""

import csv
import io
import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings

from stagedtree import (
    Atom,
    AtomTable,
    ParameterVector,
    StagedTree,
    bic,
    bn_to_staged_tree,
    check_np_identity,
    classify,
    constraint_matrix,
    dimensions,
    downward_monomials,
    ingest_csv,
    interpolating_polynomials,
    is_balanced,
    is_regular,
    is_simple,
    log_likelihood,
    mle,
    natural_parameters,
    product_tree,
    stage_equations,
    star,
    symbolic_natural_parameters,
    table_from_rows,
    theta_from_eta,
    xi_polynomials,
)
from stagedtree.algebra import (
    _P,
    FormalPolynomial,
    StageEquation,
    _Codes,
    _first_primes,
    _residue,
    monomial_mul,
)
from stagedtree import algebra
from stagedtree.bayesnet import DiscreteBN
from stagedtree.errors import (
    CycleDetected,
    DownwardEdgeInconsistentWithinStage,
    IndexOutOfRange,
    NontrivialStaging,
    RowDoesNotReachLeaf,
    StagedTreeError,
    StageOutDegreeMismatch,
    UnknownCategory,
    VertexWithOneChild,
    ZeroMass,
)
from stagedtree.expfam import (
    ExpFamForm,
    log_downward_products,
    render_formulas,
    statistic_layout,
)
from stagedtree.fit import (
    SearchConfig,
    _count_rows,
    _resolve_step,
    select_staging,
)
from stagedtree.random_trees import random_staged_tree
from stagedtree.errors import loads
from stagedtree.tree import labels_from_distribution, log_atom_probability
from conftest import BINARY_GRAPH, data_path, load_json
from test_bayesnet import all_dags
from test_cli import tree_specs


def oracle_atoms(self) -> tuple[Atom, ...]:
    """All root-to-leaf paths, depth-first in edge order."""
    out: list[Atom] = []

    def walk(v: str, steps: list[tuple[str, int]]) -> None:
        if self.is_leaf(v):
            out.append(Atom(tuple(steps), v))
            return
        for j, c in enumerate(self.children[v], start=1):
            steps.append((v, j))
            walk(c, steps)
            steps.pop()

    walk(self.root, [])
    return tuple(out)


def oracle_row_counts(source, tree, levels=None) -> list[int]:
    """The row walk of ingest_csv, counting into the oracle atom order."""
    reader = csv.reader(source)
    header = [h.strip() for h in next(reader)]
    counts = np.zeros(tree.n, dtype=np.int64)
    atom_index = {x: i for i, x in enumerate(oracle_atoms(tree))}
    for row in reader:
        if not row or not any(cell.strip() for cell in row):
            continue
        v = tree.root
        steps = []
        for col, cell in zip(header, row):
            cell = cell.strip()
            if tree.is_leaf(v):
                if cell:
                    raise RowDoesNotReachLeaf(f"row {row} continues past a leaf")
                continue
            if not cell:
                raise RowDoesNotReachLeaf(f"row {row} stops before reaching a leaf")
            j = _resolve_step(cell, tree.out_degree(v), (levels or {}).get(col))
            steps.append((v, j))
            v = tree.child(v, j)
        if not tree.is_leaf(v):
            raise RowDoesNotReachLeaf(f"row {row} stops before reaching a leaf")
        counts[atom_index[Atom(tuple(steps), v)]] += 1
    return counts.tolist()


def oracle_log_likelihood(tree: StagedTree, theta: ParameterVector, table: AtomTable) -> float:
    """Sum of count-weighted log atom probabilities; 0 * log 0 counts as 0."""
    total = 0.0
    for atom, c in zip(tree.atoms, table.counts):
        c = int(c)
        if c == 0:
            continue
        total += c * log_atom_probability(tree, theta, atom)
    return total


def oracle_vertex_traffic(tree: StagedTree, counts) -> dict[str, list[int]]:
    """Edge-traversal counts per inner vertex, from one pass over the atoms."""
    traffic = {v: [0] * tree.out_degree(v) for v in tree.inner}
    for atom, c in zip(tree.atoms, counts):
        if c == 0:
            continue
        for v, j in atom.steps:
            traffic[v][j - 1] += c
    return traffic


def oracle_labels_from_distribution(tree: StagedTree, p) -> ParameterVector:
    """Invert an atom distribution into edge labels on a saturated tree."""
    if not tree.is_saturated():
        raise NontrivialStaging("labels_from_distribution requires the trivial staging")
    if any(p[x] <= 0.0 for x in tree.atoms):
        raise ZeroMass("atom distribution has a zero entry")
    mass: dict[str, float] = {v: 0.0 for v in tree.vertices}
    edge_mass: dict[tuple[str, int], float] = {}
    for x in tree.atoms:
        px = p[x]
        mass[tree.root] += px
        for v, j in x.steps:
            edge_mass[(v, j)] = edge_mass.get((v, j), 0.0) + px
            mass[tree.child(v, j)] += px
    vals = {}
    for v in tree.inner:
        for j in range(1, tree.out_degree(v) + 1):
            vals[(tree.stage_of[v], j)] = edge_mass.get((v, j), 0.0) / mass[v]
    # renormalize away accumulated rounding so the vector validates cleanly
    for v in tree.inner:
        s = tree.stage_of[v]
        kappa = tree.out_degree(v)
        total = math.fsum(vals[(s, j)] for j in range(1, kappa + 1))
        for j in range(1, kappa + 1):
            vals[(s, j)] /= total
    return ParameterVector(vals)


def oracle_count_rows(tree: StagedTree, rows, column_levels) -> AtomTable:
    """Walk each row of state cells from the root and count it at its leaf."""
    atom_of_leaf = {x.leaf: i for i, x in enumerate(tree.atoms)}
    counts = [0] * tree.n
    children = tree.children
    for row in rows:
        if not row or not any(cell.strip() for cell in row):
            continue
        v = tree.root
        for levels, cell in zip(column_levels, row):
            cell = cell.strip()
            cs = children.get(v)
            if cs is None:
                if cell:
                    raise RowDoesNotReachLeaf(f"row {row} continues past a leaf")
                continue
            if not cell:
                raise RowDoesNotReachLeaf(f"row {row} stops before reaching a leaf")
            j = _resolve_step(cell, len(cs), levels)
            # a levels list longer than the out-degree reaches tree.child's range check
            v = cs[j - 1] if j <= len(cs) else tree.child(v, j)
        if v in children:
            raise RowDoesNotReachLeaf(f"row {row} stops before reaching a leaf")
        counts[atom_of_leaf[v]] += 1
    return AtomTable(tree, counts)


def oracle_statistic_layout(tree: StagedTree) -> tuple[tuple[str, int], ...]:
    """Ordered (vertex, edge) index pairs defining the sufficient statistic."""
    layout = []
    for v in tree.inner:
        down = tree.downward_edge(v)
        layout.extend((v, j) for j in range(1, len(tree.children[v]) + 1) if j != down)
    return tuple(layout)


def oracle_natural_parameters(tree: StagedTree, theta: ParameterVector) -> ExpFamForm:
    """eta_vj = log(theta_vj * N_vj / N_v) for every non-downward edge."""
    logN = oracle_log_downward_products(tree, theta)
    layout = oracle_statistic_layout(tree)
    eta = {}
    for v, j in layout:
        c = tree.child(v, j)
        eta[(v, j)] = math.log(theta.label(tree, v, j)) + logN[c] - logN[v]
    return ExpFamForm(layout, eta, -logN[tree.root])


def oracle_is_single_index(tree: StagedTree, v: str) -> bool:
    """A binary vertex with the default downward edge, whose labels and
    parameters are named by the vertex index alone.
    """
    return tree.out_degree(v) == 2 and tree.downward_edge(v) == 2


def oracle_downward_fold(tree: StagedTree, leaf_value, step) -> dict:
    """Fold ``step(v, j, below)`` down the all-downward path from every vertex,
    by the dict fold of the dict build of the same tree.
    """
    oracle = OracleTree.from_spec(tree.to_spec())

    def combine(v: str, below: list):
        j = oracle.downward[oracle.stage_of[v]]
        return step(v, j, below[j - 1])

    return oracle.fold(leaf_value, combine)


def oracle_render_label(tree: StagedTree, v: str, j: int) -> str:
    if oracle_is_single_index(tree, v):
        i = tree.index[v]
        return f"t{i}" if j == 1 else f"(1-t{i})"
    return f"th[{tree.index[v]},{j}]"


def oracle_render_formulas(tree: StagedTree) -> dict[str, str]:
    """Human-readable formulas for each eta and for psi."""

    def times(label: str, below: str) -> str:
        return f"{label}*{below}" if below else label

    down = oracle_downward_fold(
        tree, "", lambda v, j, below: times(oracle_render_label(tree, v, j), below)
    )
    out = {}
    for v, j in oracle_statistic_layout(tree):
        num_s = times(oracle_render_label(tree, v, j), down[tree.child(v, j)])
        key = f"eta[{tree.index[v]},{j}]"
        out[key] = f"log({num_s}/({down[v]}))"
    out["psi"] = f"-log({down[tree.root]})"
    return out


def oracle_log_downward_products(tree, theta) -> dict[str, float]:
    """log N_v for every vertex; leaves get log 1 = 0."""
    theta.validate_for(tree)
    logN: dict[str, float] = {}

    def walk(v: str) -> float:
        if v in logN:
            return logN[v]
        if tree.is_leaf(v):
            logN[v] = 0.0
            return 0.0
        j = tree.downward_edge(v)
        val = math.log(theta.label(tree, v, j)) + walk(tree.child(v, j))
        logN[v] = val
        return val

    for v in tree.vertices:
        walk(v)
    return logN


def oracle_vertex_downward_monomial(tree, v):
    """Vertex-level (v, j) labels along the all-downward path from v."""
    out = []
    while not tree.is_leaf(v):
        j = tree.downward_edge(v)
        out.append((v, j))
        v = tree.child(v, j)
    return tuple(out)


def oracle_symbolic_natural_parameters(tree):
    """(numerator, denominator) label multisets of each eta_vj."""
    out = {}
    for v, j in statistic_layout(tree):
        num = ((v, j),) + oracle_vertex_downward_monomial(tree, tree.child(v, j))
        den = oracle_vertex_downward_monomial(tree, v)
        out[(v, j)] = (num, den)
    return out


def oracle_check_np_identity(tree, theta) -> float:
    """Max residual |N_v * P_v(xi) - 1| over all vertices, xi = exp(eta)."""
    form = natural_parameters(tree, theta)
    logN = oracle_log_downward_products(tree, theta)
    xi = {key: math.exp(val) for key, val in form.eta.items()}

    P: dict[str, float] = {}

    def walk(u: str) -> float:
        if u in P:
            return P[u]
        if tree.is_leaf(u):
            val = 1.0
        else:
            down = tree.downward_edge(u)
            val = 0.0
            for j in range(1, tree.out_degree(u) + 1):
                factor = 1.0 if j == down else xi[(u, j)]
                val += factor * walk(tree.child(u, j))
        P[u] = val
        return val

    residual = 0.0
    for v in tree.vertices:
        residual = max(residual, abs(math.exp(logN[v]) * walk(v) - 1.0))
    return residual


def oracle_theta_from_eta(tree: StagedTree, eta) -> ParameterVector:
    """Invert the natural parametrization on a saturated tree, through the
    atom distribution proportional to exp(eta . T(x)).
    """
    if not tree.is_saturated():
        raise NontrivialStaging("theta_from_eta is defined for saturated trees only")
    eta = dict(zip(statistic_layout(tree), eta))
    scores = [
        math.fsum(eta[(v, j)] for v, j in x.steps if (v, j) in eta) for x in tree.atoms
    ]
    top = max(scores)
    weights = [math.exp(s - top) for s in scores]
    total = math.fsum(weights)
    p = {x: w / total for x, w in zip(tree.atoms, weights)}
    return labels_from_distribution(tree, p)


class OraclePolynomial(FormalPolynomial):
    """FormalPolynomial with the empty constructor, the sum and the label
    scaling that the walkers used.
    """

    __slots__ = ()

    def __init__(self, terms=None):
        super().__init__(terms if terms is not None else Counter())

    def __add__(self, other: "OraclePolynomial") -> "OraclePolynomial":
        return OraclePolynomial(self.terms + other.terms)

    def scale_by(self, label) -> "OraclePolynomial":
        return OraclePolynomial(
            Counter({monomial_mul(m, (label,)): c for m, c in self.terms.items()})
        )


def oracle_monomial(labels):
    return tuple(sorted(labels))


def oracle_canonical_label(tree, v, j):
    return (tree.stage_of[v], j)


def oracle_downward_monomial(tree, v):
    """Canonical labels along the all-downward path from v; empty for leaves."""
    labels = []
    while not tree.is_leaf(v):
        j = tree.downward_edge(v)
        labels.append(oracle_canonical_label(tree, v, j))
        v = tree.child(v, j)
    return oracle_monomial(labels)


def oracle_interpolating_polynomial(tree, v):
    """Formal sum over v-to-leaf paths of the products of canonical labels."""
    cache: dict[str, OraclePolynomial] = {}

    def walk(u: str) -> OraclePolynomial:
        if u in cache:
            return cache[u]
        if tree.is_leaf(u):
            poly = OraclePolynomial.one()
        else:
            poly = OraclePolynomial()
            for j in range(1, tree.out_degree(u) + 1):
                poly = poly + walk(tree.child(u, j)).scale_by(oracle_canonical_label(tree, u, j))
        cache[u] = poly
        return poly

    return walk(v)


def oracle_xi_polynomial(tree, v):
    """P_v: formal sum over v-to-leaf paths of products of xi labels."""
    cache: dict[str, OraclePolynomial] = {}

    def walk(u: str) -> OraclePolynomial:
        if u in cache:
            return cache[u]
        if tree.is_leaf(u):
            poly = OraclePolynomial.one()
        else:
            down = tree.downward_edge(u)
            poly = OraclePolynomial()
            for j in range(1, tree.out_degree(u) + 1):
                sub = walk(tree.child(u, j))
                poly = poly + (sub if j == down else sub.scale_by((u, j)))
        cache[u] = poly
        return poly

    return walk(v)


def oracle_same_stage_pairs(tree):
    """(v_i, v_s, kappa) over all same-stage pairs, i before s in enumeration."""
    for s_id, members in tree.stage_members.items():
        kappa = tree.downward[s_id]
        for vi, vs in itertools.combinations(members, 2):
            yield vi, vs, kappa


def oracle_is_regular(tree):
    """Check N_ij N_sk = N_sj N_ik for all same-stage pairs and edges."""
    down = {v: oracle_downward_monomial(tree, v) for v in tree.vertices}
    witnesses = []
    for vi, vs, kappa in oracle_same_stage_pairs(tree):
        for j in range(1, tree.out_degree(vi) + 1):
            if j == kappa:
                continue
            lhs = monomial_mul(down[tree.child(vi, j)], down[tree.child(vs, kappa)])
            rhs = monomial_mul(down[tree.child(vs, j)], down[tree.child(vi, kappa)])
            if lhs != rhs:
                witnesses.append((vi, vs, j))
    return not witnesses, witnesses


def oracle_is_balanced(tree):
    """Check t_ij t_sk = t_ik t_sj for all same-stage pairs and edges."""
    interp = {v: oracle_interpolating_polynomial(tree, v) for v in tree.vertices}
    for vi, vs, kappa in oracle_same_stage_pairs(tree):
        t_ik = interp[tree.child(vi, kappa)]
        t_sk = interp[tree.child(vs, kappa)]
        for j in range(1, tree.out_degree(vi) + 1):
            if j == kappa:
                continue
            if interp[tree.child(vi, j)] * t_sk != t_ik * interp[tree.child(vs, j)]:
                return False
    return True


def oracle_is_simple(tree):
    """Check t_ij = t_sj for all same-stage pairs and edges."""
    interp = {v: oracle_interpolating_polynomial(tree, v) for v in tree.vertices}
    for vi, vs, _ in oracle_same_stage_pairs(tree):
        for j in range(1, tree.out_degree(vi) + 1):
            if interp[tree.child(vi, j)] != interp[tree.child(vs, j)]:
                return False
    return True


def oracle_stage_equations(tree):
    """One equation per same-stage pair per edge j = 1..kappa."""
    down = {v: oracle_downward_monomial(tree, v) for v in tree.vertices}
    xi_poly = {v: oracle_xi_polynomial(tree, v) for v in tree.vertices}
    equations = []
    for vi, vs, kappa in oracle_same_stage_pairs(tree):
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


def oracle_classify(tree):
    """Regular/balanced/simple report, with dimensions and witnesses."""
    regular, witnesses = oracle_is_regular(tree)
    d0, d = dimensions(tree)
    return {
        "regular": regular,
        "balanced": oracle_is_balanced(tree),
        "simple": oracle_is_simple(tree),
        "d0": d0,
        "d": d,
        "witnesses": witnesses,
    }


def first_members(tree) -> set:
    return {members[0] for members in tree.stage_members.values()}


def first_member_witnesses(tree, witnesses):
    """The pairwise witnesses (v_i, v_s, j) with v_i its stage's first member."""
    first = first_members(tree)
    return [w for w in witnesses if w[0] in first]


def first_member_classify(tree):
    """``oracle_classify`` with its witnesses filtered to the first members."""
    report = oracle_classify(tree)
    return {**report, "witnesses": first_member_witnesses(tree, report["witnesses"])}


def first_member_equations(tree, equations):
    """The pairwise equations of a stage's first member at j != kappa."""
    first = first_members(tree)
    return [e for e in equations if e.vi in first and e.j != e.kappa]


def oracle_downward_invariance_probe(tree):
    """Recompute the classification under alternative downward-edge choices."""
    base_regular, _ = oracle_is_regular(tree)
    base_balanced = oracle_is_balanced(tree)
    disagreements = []
    for s_id, kappa in tree.stage_degrees.items():
        for j in range(1, kappa + 1):
            if j == tree.downward[s_id]:
                continue
            alt_down = dict(tree.downward)
            alt_down[s_id] = j
            alt = tree.with_staging(dict(tree.stage_of), downward=alt_down)
            alt_regular, _ = oracle_is_regular(alt)
            alt_balanced = oracle_is_balanced(alt)
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


def fixture_trees() -> list[StagedTree]:
    return [
        StagedTree(BINARY_GRAPH),
        StagedTree.from_spec(load_json("fig1a.json")),
        StagedTree.from_json(data_path("fig1b.json").read_text()),
        StagedTree({"r": ["a", "b"], "b": ["c", "d"]}),
        StagedTree({"r": ["a", "b", "c"], "a": ["d", "e"], "c": ["f", "g", "h"]}),
        product_tree([3, 2, 2]),
        bn_to_staged_tree(DiscreteBN.from_spec(load_json("chain_bn.json"))),
        bn_to_staged_tree(DiscreteBN.from_spec(load_json("collider_bn.json"))),
    ]


def random_trees(seed: int, count: int) -> list[StagedTree]:
    """Random staged trees; every other one gets random downward edges."""
    rng = np.random.default_rng(seed)
    trees = []
    for i in range(count):
        t = random_staged_tree(rng, max_depth=4, max_children=3, leaf_prob=0.3)
        if i % 2:
            down = {s: int(rng.integers(1, k + 1)) for s, k in t.stage_degrees.items()}
            t = t.with_staging(dict(t.stage_of), downward=down)
        trees.append(t)
    return trees


def random_bn_trees(seed: int, count: int) -> list[StagedTree]:
    """Unfoldings of random BNs over 5 ternary variables, at most 2 parents each."""
    rng = np.random.default_rng(seed)
    names = tuple(f"X{i}" for i in range(5))
    trees = []
    for _ in range(count):
        edges = []
        for i, child in enumerate(names):
            n_parents = int(rng.integers(0, min(i, 2) + 1))
            for p in sorted(rng.choice(i, size=n_parents, replace=False)):
                edges.append((names[p], child))
        bn = DiscreteBN(names, dict.fromkeys(names, 3), tuple(edges))
        trees.append(bn_to_staged_tree(bn))
    return trees


FAMILIES = {"fixtures": fixture_trees(), "random": random_trees(20261018, 150)}

ALGEBRA_FAMILIES = {
    "fixtures": fixture_trees()
    + [StagedTree.from_spec(load_json("ternary_downward.json"))],
    "random": random_trees(20261019, 200),
    "dags": [bn_to_staged_tree(bn) for n in range(1, 5) for bn in all_dags(n)],
    "bn5ternary": random_bn_trees(20261020, 20),
}


def random_theta(tree: StagedTree, seed: int) -> ParameterVector:
    return ParameterVector.random(tree, np.random.default_rng(seed))


def rows_text(tree: StagedTree, rows) -> str:
    depth = max(len(x) for x in tree.atoms)
    lines = [",".join(f"c{i}" for i in range(depth))]
    lines += [",".join(row) for row in rows]
    return "\n".join(lines) + "\n"


def sampled_rows(tree: StagedTree, rng, n: int) -> list[list[str]]:
    """Rows of 0-based states along random atoms, padded with empty cells."""
    depth = max(len(x) for x in tree.atoms)
    rows = []
    for i in rng.integers(0, tree.n, size=n):
        states = [str(j - 1) for _, j in tree.atoms[i].steps]
        rows.append(states + [""] * (depth - len(states)))
    return rows


def outcome(fn, *args, **kwargs):
    """The function's result, or the type and message of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except StagedTreeError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("family", FAMILIES)
def test_atoms_match_recursive_enumeration(family):
    for tree in FAMILIES[family]:
        fast = tree.atoms
        slow = oracle_atoms(tree)
        assert [x.steps for x in fast] == [x.steps for x in slow]
        assert [x.leaf for x in fast] == [x.leaf for x in slow]
        for x, y in zip(fast, slow):
            for v in tree.vertices:
                for j in range(1, tree.out_degree(v) + 1):
                    assert x.traverses(v, j) == y.traverses(v, j)


@pytest.mark.parametrize("family", FAMILIES)
def test_parametrization_matches_recursive_walkers(family):
    for seed, tree in enumerate(FAMILIES[family]):
        theta = random_theta(tree, seed)
        assert log_downward_products(tree, theta) == oracle_log_downward_products(tree, theta)
        assert symbolic_natural_parameters(tree) == oracle_symbolic_natural_parameters(tree)
        gap = check_np_identity(tree, theta) - oracle_check_np_identity(tree, theta)
        assert abs(gap) <= 1e-14


@pytest.mark.parametrize("scale", [0.5, 3.0])
@pytest.mark.parametrize("family", FAMILIES)
def test_theta_from_eta_matches_the_atom_walk(family, scale):
    rng = np.random.default_rng(16)
    for tree in FAMILIES[family]:
        saturated = tree.saturated()
        eta = rng.normal(0.0, scale, size=len(statistic_layout(saturated)))
        labels = theta_from_eta(saturated, eta)
        expected = oracle_theta_from_eta(saturated, eta)
        assert list(labels) == list(expected)
        for key, value in expected.items():
            assert labels[key] == pytest.approx(value, rel=1e-12, abs=0)


@pytest.mark.parametrize("family", FAMILIES)
def test_row_walk_matches_atom_lookup(family):
    rng = np.random.default_rng(5)
    for tree in FAMILIES[family]:
        rows = sampled_rows(tree, rng, 40)
        text = rows_text(tree, rows)
        expected = oracle_row_counts(io.StringIO(text), tree)
        assert list(ingest_csv(io.StringIO(text), tree).counts) == expected
        ints = [[int(c) for c in row if c] for row in rows]
        assert list(table_from_rows(tree, ints).counts) == expected


@pytest.mark.parametrize("family", FAMILIES)
def test_pooled_log_likelihood_matches_per_atom_sum(family):
    rng = np.random.default_rng(8)
    trees = FAMILIES[family] + [product_tree([2] * 10)] * (family == "fixtures")
    for tree in trees:
        # about one atom in five unobserved
        counts = rng.integers(1, 1000, size=tree.n) * (rng.random(tree.n) < 0.8)
        table = AtomTable(tree, counts)
        fit = bic(tree, table, alpha=0.5)
        thetas = [fit.theta, mle(tree, table, alpha=0.5), random_theta(tree, 9)]
        for theta in thetas:
            expected = oracle_log_likelihood(tree, theta, table)
            assert log_likelihood(tree, theta, table) == pytest.approx(expected, rel=1e-12)
        assert fit.log_likelihood == log_likelihood(tree, fit.theta, table)


def malformed_rows(tree: StagedTree, rng) -> list[list[str]]:
    """One valid row turned into each kind of bad row the walk rejects."""
    row = sampled_rows(tree, rng, 1)[0]
    used = sum(1 for c in row if c)
    # states out of range (far, and one past the root's last), not an integer,
    # and integers that int() reads but that are not written in ASCII digits
    bad = [["9"] + row[1:], [str(tree.out_degree(tree.root))] + row[1:], ["x"] + row[1:]]
    bad += [[cell] + row[1:] for cell in ("+0", "0_0", "\u0660", "\uff10")]
    if used >= 2:  # stops one step short of the leaf
        bad.append(row[: used - 1] + [""] * (len(row) - used + 1))
    if used < len(row):  # continues past the leaf
        bad.append(row[:used] + ["0"] + row[used + 1 :])
    return bad


@pytest.mark.parametrize("family", FAMILIES)
def test_row_walk_rejects_what_the_atom_lookup_rejected(family):
    rng = np.random.default_rng(6)
    for tree in FAMILIES[family]:
        for row in malformed_rows(tree, rng):
            text = rows_text(tree, [row])
            expected = outcome(oracle_row_counts, io.StringIO(text), tree)
            assert isinstance(expected, tuple), row
            assert outcome(ingest_csv, io.StringIO(text), tree) == expected


@pytest.mark.parametrize("family", FAMILIES)
def test_levels_mapping_matches_atom_lookup(family):
    # three category names per column: a binary vertex reached by the third
    # name fails tree.child's range check in both walks
    names = ["lo", "mid", "hi"]
    rng = np.random.default_rng(3)
    for tree in FAMILIES[family]:
        depth = max(len(x) for x in tree.atoms)
        levels = {f"c{i}": names for i in range(depth)}
        for _ in range(10):
            row = [names[int(rng.integers(3))] for _ in range(depth)]
            text = rows_text(tree, [row])
            slow = outcome(oracle_row_counts, io.StringIO(text), tree, levels)
            fast = outcome(ingest_csv, io.StringIO(text), tree, levels)
            if not isinstance(fast, tuple):
                fast = list(fast.counts)
            assert fast == slow


def test_table_from_rows_raises_typed_errors(fig1a):
    with pytest.raises(UnknownCategory):
        table_from_rows(fig1a, [[0, 2, 1]])
    with pytest.raises(UnknownCategory):
        table_from_rows(fig1a, [[0, 1.5, 1]])
    with pytest.raises(RowDoesNotReachLeaf):
        table_from_rows(fig1a, [[0, 1]])
    with pytest.raises(RowDoesNotReachLeaf):
        table_from_rows(StagedTree({"r": ["a", "b"], "b": ["c", "d"]}), [[0, 1]])


def with_product_tree(family: str) -> list[StagedTree]:
    """The family's trees, plus the binary product tree over 10 variables
    (k=1023) after the fixtures.
    """
    return FAMILIES[family] + [product_tree([2] * 10)] * (family == "fixtures")


def counted(fn, *args):
    """The counts of the table ``fn`` returned, or the error it raised."""
    result = outcome(fn, *args)
    return list(result.counts) if isinstance(result, AtomTable) else result


def csv_rows(text: str) -> list[list[str]]:
    """The rows of a CSV text after its header."""
    return list(csv.reader(io.StringIO(text)))[1:]


@pytest.mark.parametrize("family", FAMILIES)
def test_fold_and_vertex_passes_match_per_edge_versions(family):
    rng = np.random.default_rng(11)
    for seed, tree in enumerate(with_product_tree(family)):
        assert tree.leaf_position == {x.leaf: i for i, x in enumerate(oracle_atoms(tree))}
        # about one atom in three unobserved
        counts = (rng.integers(1, 50, size=tree.n) * (rng.random(tree.n) < 0.7)).tolist()
        traffic = tree.edge_totals(counts)
        assert list(traffic.items()) == list(oracle_vertex_traffic(tree, counts).items())
        assert list(traffic) == list(tree.inner)
        assert statistic_layout(tree) == oracle_statistic_layout(tree)
        theta = random_theta(tree, seed)
        form, expected = natural_parameters(tree, theta), oracle_natural_parameters(tree, theta)
        assert form == expected
        assert list(form.eta) == list(expected.eta)
        formulas = render_formulas(tree)
        assert list(formulas.items()) == list(oracle_render_formulas(tree).items())


@pytest.mark.parametrize("family", FAMILIES)
def test_labels_from_distribution_match_per_atom_walk(family):
    rng = np.random.default_rng(15)
    for tree in FAMILIES[family]:
        saturated = tree.saturated()
        weights = rng.random(saturated.n) + 0.01
        p = dict(zip(saturated.atoms, weights / weights.sum()))
        labels = labels_from_distribution(saturated, p)
        expected = oracle_labels_from_distribution(saturated, p)
        assert list(labels) == list(expected)
        for key, value in expected.items():
            assert labels[key] == pytest.approx(value, rel=1e-14, abs=0)
        zero = dict(p)
        zero[saturated.atoms[-1]] = 0.0
        cases = [(saturated, zero)]
        if not tree.is_saturated():
            cases.append((tree, dict(zip(tree.atoms, p.values()))))
        for t, dist in cases:
            with pytest.raises(StagedTreeError) as fast:
                labels_from_distribution(t, dist)
            with pytest.raises(StagedTreeError) as slow:
                oracle_labels_from_distribution(t, dist)
            assert fast.type is slow.type


@pytest.mark.parametrize("family", FAMILIES)
def test_distinct_row_walk_matches_per_row_walk(family):
    rng = np.random.default_rng(12)
    for tree in with_product_tree(family):
        depth = max(tree.depth.values())
        pool = sampled_rows(tree, rng, 6) + [[""] * depth]  # an empty row is skipped
        rows = [pool[i] for i in rng.integers(0, len(pool), size=300)]
        text = rows_text(tree, rows)
        expected = counted(oracle_count_rows, tree, csv_rows(text), [None] * depth)
        assert list(ingest_csv(io.StringIO(text), tree).counts) == expected
        ints = [[int(c) for c in row if c] for row in rows]
        assert list(table_from_rows(tree, ints).counts) == expected


@pytest.mark.parametrize("family", FAMILIES)
def test_distinct_row_walk_rejects_as_the_per_row_walk(family):
    # three category names per column: a binary vertex reached by the third
    # name fails tree.child's range check
    names = ["lo", "mid", "hi"]
    rng = np.random.default_rng(13)
    for tree in FAMILIES[family]:
        good = sampled_rows(tree, rng, 3)
        depth = len(good[0])
        bad_rows = malformed_rows(tree, rng)
        cases = [
            # each bad row among repeated good rows, with another bad row and
            # itself again behind it
            (good + [bad] + good + [bad_rows[0], bad], [None] * depth)
            for bad in bad_rows
        ]
        named = [[names[int(rng.integers(3))] for _ in range(depth)] for _ in range(20)]
        cases.append((named + named, [names] * depth))
        for rows, column_levels in cases:
            expected = counted(oracle_count_rows, tree, rows, column_levels)
            assert counted(_count_rows, tree, rows, column_levels) == expected
            if column_levels[0] is None:
                assert isinstance(expected, tuple), rows


def test_fit_and_search_build_no_atoms():
    tree = product_tree([2] * 6)
    rng = np.random.default_rng(14)
    lines = [",".join(f"c{i}" for i in range(6))]
    lines += [",".join(map(str, rng.integers(0, 2, size=6))) for _ in range(500)]
    table = ingest_csv(io.StringIO("\n".join(lines) + "\n"), tree)
    bic(tree, table)
    assert "atoms" not in tree.__dict__
    unmerged = select_staging(tree, table, SearchConfig(max_merges=0))
    merged = select_staging(tree, table)
    assert unmerged.trace == () and merged.trace != ()
    for t in (tree, unmerged.tree, merged.tree):
        assert "atoms" not in t.__dict__


@pytest.mark.parametrize("family", ALGEBRA_FAMILIES)
def test_algebra_tables_match_recursive_walkers(family):
    for tree in ALGEBRA_FAMILIES[family]:
        interp = interpolating_polynomials(tree)
        xi = xi_polynomials(tree)
        down = downward_monomials(tree)
        assert list(interp) == list(xi) == list(down) != []
        for v in tree.vertices:
            assert interp[v] == oracle_interpolating_polynomial(tree, v)
            assert xi[v] == oracle_xi_polynomial(tree, v)
            assert down[v] == oracle_downward_monomial(tree, v)


def decode(code: int, labels: dict[int, tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    """The sorted label tuple of a prime code; ``labels`` maps each prime to its label."""
    out = []
    for p, label in labels.items():
        while code % p == 0:
            code //= p
            out.append(label)
    assert code == 1
    return tuple(sorted(out))


def test_first_primes_are_the_primes_by_trial_division():
    def is_prime(n):
        return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))

    primes = [n for n in range(20_000) if is_prime(n)]
    for n in [*range(40), 100, 1000, len(primes)]:
        assert _first_primes(n) == primes[:n]


@pytest.mark.parametrize("family", ALGEBRA_FAMILIES)
def test_integer_tables_decode_to_the_label_tables(family):
    for tree in ALGEBRA_FAMILIES[family]:
        codes, ids = _Codes(tree), tree.stage_ids
        labels = {p: (ids[s], j) for s, ps in enumerate(codes.prime)
                  for j, p in enumerate(ps, start=1)}
        assert len(labels) == sum(tree.stage_degrees.values())
        point = {label: _residue(i) for i, label in enumerate(labels.values())}
        down, interp, exact = downward_monomials(tree), interpolating_polynomials(tree), codes.exact()
        # the tables are lists by BFS position
        assert len(codes.ncode) == len(codes.fp) == len(exact) == len(tree.vertices)
        for p, v in enumerate(tree.vertices):
            assert decode(codes.ncode[p], labels) == down[v]
            terms = {decode(m, labels): c for m, c in exact[p].items()}
            assert len(terms) == len(exact[p]) and terms == interp[v].terms
            value = sum(c * math.prod(point[label] for label in m) for m, c in terms.items())
            assert codes.fp[p] == value % _P


def six_ternary(edges) -> StagedTree:
    """The unfolding of a BN over six ternary variables, as check-bn6 runs them."""
    names = tuple(f"X{i}" for i in range(6))
    return bn_to_staged_tree(DiscreteBN(names, dict.fromkeys(names, 3), tuple(edges)))


@pytest.mark.parametrize(
    "edges, balanced",
    [
        ((("X0", "X2"), ("X1", "X2"), ("X2", "X3"), ("X3", "X5")), False),  # an immorality
        ((("X0", "X1"), ("X1", "X2"), ("X2", "X4"), ("X4", "X5")), True),  # a chain
    ],
    ids=["collider", "chain"],
)
def test_classify_multiplies_no_label_tuples(monkeypatch, edges, balanced):
    # a structural guard: the checks read the integer tables, never the
    # tuple-monomial products of FormalPolynomial
    tree = six_ternary(edges)
    expected = first_member_classify(tree)
    assert expected["balanced"] is balanced

    def refuse(*args):
        raise AssertionError("a tuple-monomial product was formed")

    monkeypatch.setattr(FormalPolynomial, "__mul__", refuse)
    monkeypatch.setattr(algebra, "monomial_mul", refuse)
    assert classify(tree) == expected
    assert (is_balanced(tree), is_simple(tree)) == (balanced, expected["simple"])


@pytest.mark.parametrize("family", ALGEBRA_FAMILIES)
def test_checks_match_those_on_the_recursive_tables(family):
    for tree in ALGEBRA_FAMILIES[family]:
        # oracle_classify runs oracle_is_regular, oracle_is_balanced and
        # oracle_is_simple; each oracle runs once per tree
        expected = first_member_classify(tree)
        assert is_regular(tree) == (expected["regular"], expected["witnesses"])
        assert is_balanced(tree) == expected["balanced"]
        assert is_simple(tree) == expected["simple"]
        assert classify(tree) == expected
        equations = stage_equations(tree)
        oracle_equations = first_member_equations(tree, oracle_stage_equations(tree))
        assert equations == oracle_equations
        assert [e.pretty(tree) for e in equations] == [e.pretty(tree) for e in oracle_equations]


def test_downward_invariance_probe_matches_recursive_checks():
    # no one-stage downward change flips a pairwise regular or balanced verdict
    for tree in ALGEBRA_FAMILIES["fixtures"] + ALGEBRA_FAMILIES["random"][:50]:
        assert oracle_downward_invariance_probe(tree) == []


def fuzz_family():
    """The 10^4 trees of acceptance criterion 5, drawn the same way."""
    rng = np.random.default_rng(1234)
    return (random_staged_tree(rng) for _ in range(10_000))


def test_classify_matches_oracle_on_the_fuzz_family():
    for tree in fuzz_family():
        expected = first_member_classify(tree)
        assert classify(tree) == expected
        assert is_regular(tree) == (expected["regular"], expected["witnesses"])
        oracle_equations = first_member_equations(tree, oracle_stage_equations(tree))
        assert stage_equations(tree) == oracle_equations


def test_exact_tables_give_the_verdicts_when_every_fingerprint_agrees(monkeypatch):
    # the fingerprints refute every tree that is not balanced before the exact
    # tables are built; with every fingerprint 0 the exact tables must refute it
    trees = ALGEBRA_FAMILIES["fixtures"] + list(itertools.islice(fuzz_family(), 400))
    expected = [classify(tree) for tree in trees]
    build = _Codes.__init__

    def blind(self, tree):
        build(self, tree)
        self.fp = [0] * len(self.fp)

    monkeypatch.setattr(_Codes, "__init__", blind)
    assert _Codes(trees[0]).fp == [0] * len(trees[0].vertices)
    assert [classify(tree) for tree in trees] == expected
    assert {(e["balanced"], e["simple"]) for e in expected} == {
        (False, False), (True, False), (True, True)}

def difference(a: Counter, b: Counter) -> Counter:
    """a - b as a formal sum, with the terms that cancel dropped."""
    out = Counter(a)
    out.subtract(b)
    return Counter({key: c for key, c in out.items() if c})


def equation_terms(eq) -> Counter:
    """lhs - rhs of a stage equation as a formal sum of eta and log terms; an
    eta of None is 0.
    """
    def side(eta, logs):
        return Counter([("eta", eta)] if eta is not None else []) + Counter(
            ("log", poly) for poly in logs)

    return difference(side(eq.lhs_eta, eq.lhs_logs), side(eq.rhs_eta, eq.rhs_logs))


@pytest.mark.parametrize("family", ALGEBRA_FAMILIES)
def test_every_pairwise_equation_is_a_difference_of_two_first_member_ones(family):
    for tree in ALGEBRA_FAMILIES[family]:
        new = {(e.vs, e.j): equation_terms(e) for e in stage_equations(tree)}
        for eq in oracle_stage_equations(tree):
            # E(i, s, j) = E(1, s, j) - E(1, i, j); E(1, 1, j) and E(., ., k) are 0 = 0
            expected = difference(new.get((eq.vs, eq.j), Counter()),
                                  new.get((eq.vi, eq.j), Counter()))
            assert equation_terms(eq) == expected


@pytest.mark.parametrize("family", ALGEBRA_FAMILIES)
def test_every_pairwise_witness_is_covered_by_a_first_member_one(family):
    for tree in ALGEBRA_FAMILIES[family]:
        first = {v: members[0] for members in tree.stage_members.values() for v in members}
        witnesses = set(is_regular(tree)[1])
        for vi, vs, j in oracle_is_regular(tree)[1]:
            v1 = first[vi]
            assert (v1, vi, j) in witnesses or (v1, vs, j) in witnesses


def test_witnesses_are_linear_in_the_stage_size():
    # one level of product_tree([2] * 10) made one stage at a time; the
    # pairwise list held 32,640 witnesses for the 256-member level alone
    base = product_tree([2] * 10)
    for level in range(1, 10):
        tree = base.with_staging({v: "s" for v in base.inner if base.depth[v] == level})
        bound = sum((len(members) - 1) * (tree.stage_degrees[s] - 1)
                    for s, members in tree.stage_members.items())
        witnesses = is_regular(tree)[1]
        assert bound == 2**level - 1 and len(witnesses) <= bound
        assert classify(tree)["witnesses"] == witnesses


def oracle_dense_rank(rows, n_columns: int) -> int:
    """Rank by SVD of the dense matrix with +1 and -1 at each row's two columns."""
    if not rows:
        return 0
    dense = np.zeros((len(rows), n_columns))
    for i, (plus, minus) in enumerate(rows):
        dense[i, plus] += 1
        dense[i, minus] -= 1
    return int(np.linalg.matrix_rank(dense))


def ternary_chain(m: int) -> StagedTree:
    names = tuple(f"X{i}" for i in range(m))
    chain = DiscreteBN(names, dict.fromkeys(names, 3), tuple(zip(names, names[1:])))
    return bn_to_staged_tree(chain)


@pytest.mark.parametrize("family", ["fixtures", "fuzz", "chains"])
def test_constraint_rank_is_the_dense_rank(family):
    trees = {
        "fixtures": lambda: ALGEBRA_FAMILIES["fixtures"],
        "fuzz": fuzz_family,
        # k = 364 and 1093: 696 x 728 and 2148 x 2186 matrices
        "chains": lambda: [ternary_chain(6), ternary_chain(7)],
    }[family]()
    for tree in trees:
        cm = constraint_matrix(tree)
        d0, _ = dimensions(tree)
        assert cm.rank == oracle_dense_rank(cm.rows, d0)


@pytest.mark.parametrize("family", ["algebra", "chains"])
def test_one_equation_per_constraint_row(family):
    trees = {
        "algebra": lambda: [t for trees in ALGEBRA_FAMILIES.values() for t in trees],
        "chains": lambda: [ternary_chain(6), ternary_chain(7)],
    }[family]()
    counts = []
    for tree in trees:
        d0, d = dimensions(tree)
        counts.append(len(stage_equations(tree)))
        assert counts[-1] == d0 - d == constraint_matrix(tree).rank
    if family == "chains":
        assert counts == [696, 2148]


def one_stage_tree(members: str, inner_edges: dict) -> StagedTree:
    """Root r over the ternary vertices ``members``, all in stage s with
    downward edge 3.  Edge j of member m leads to a leaf, or, for j in
    ``inner_edges[m]``, to a binary vertex of stage x, which puts the label
    (x, 2) into that child's downward monomial.
    """
    children = {"r": list(members)}
    stages = {m: "s" for m in members}
    for m in members:
        children[m] = [f"{m}{j}" for j in (1, 2, 3)]
        for j in inner_edges.get(m, ()):
            children[f"{m}{j}"] = [f"{m}{j}a", f"{m}{j}b"]
            stages[f"{m}{j}"] = "x"
    return StagedTree(children, stages=stages)


@pytest.mark.parametrize(
    "members, inner_edges, witnesses, flags",
    [
        ("abc", {"a": (1,)}, [("a", "b", 1), ("a", "c", 1)], (False, False, False)),
        ("abc", {"b": (1,)}, [("a", "b", 1), ("b", "c", 1)], (False, False, False)),
        (
            "abcd",
            {"b": (1,), "d": (1, 2)},
            [
                ("a", "b", 1),
                ("a", "d", 1),
                ("a", "d", 2),
                ("b", "c", 1),
                ("b", "d", 2),
                ("c", "d", 1),
                ("c", "d", 2),
            ],
            (False, False, False),
        ),
        # (x, 2) cancels from N_a1 / N_a3, so only edge 2 violates
        ("abc", {"a": (1, 3)}, [("a", "b", 2), ("a", "c", 2)], (False, False, False)),
        # every ratio of a is 1, as for b and c, though no t_aj equals t_bj
        ("abc", {"a": (1, 2, 3)}, [], (True, True, False)),
    ],
    ids=["first-odd", "middle-odd", "two-odd", "ratio-cancels", "balanced-not-simple"],
)
def test_hand_built_stages_match_oracle(members, inner_edges, witnesses, flags):
    # ``witnesses`` is the pairwise list; the checks give those of the first
    # member a
    tree = one_stage_tree(members, inner_edges)
    assert oracle_is_regular(tree) == (not witnesses, witnesses)
    firsts = [w for w in witnesses if w[0] == "a"]
    assert is_regular(tree) == (not firsts, firsts)
    report = classify(tree)
    assert (report["regular"], report["balanced"], report["simple"]) == flags
    assert report == first_member_classify(tree)
    assert (is_balanced(tree), is_simple(tree)) == flags[1:]
    assert stage_equations(tree) == first_member_equations(tree, oracle_stage_equations(tree))


# -- the array layout against the dict build it replaced -----------------------
#
# ``OracleTree`` is the name-keyed build of ``StagedTree`` before it moved onto
# BFS-indexed arrays: the same checks in the same order, and dicts of tuples
# keyed by vertex id.  Its folds are the dict folds of that build.  The array
# tree must give the same error for every input that the dict build refused,
# and otherwise the same name-keyed attributes, in the same order.


class OracleTree:
    """The dict build of a staged tree, with its dict folds."""

    def __init__(self, children, stages=None, downward=None, root=None):
        self.children = {
            str(v): tuple(str(c) for c in cs) for v, cs in children.items() if cs
        }
        declared = set(self.children)
        mentioned = {c for cs in self.children.values() for c in cs}
        self.root = str(root) if root is not None else self._infer_root(declared, mentioned)
        self._validate_shape()
        self.vertices = self._bfs_order()
        self.inner = tuple(v for v in self.vertices if v in self.children)
        if len(self.inner) != len(self.children):
            unreachable = set(self.children) - set(self.inner)
            raise CycleDetected(f"vertices not reachable from root: {sorted(unreachable)}")
        self.leaves = tuple(v for v in self.vertices if v not in self.children)
        self.index = {v: i + 1 for i, v in enumerate(self.inner)}
        stages = stages or {}
        stray = stages.keys() - self.index.keys()
        if stray:
            raise StagedTreeError(
                f"'stages' names ids that are not inner vertices: {sorted(stray, key=str)}"
            )
        self.stage_of = {v: str(stages.get(v, v)) for v in self.inner}
        self.stage_degrees = degree = {}
        for v in self.inner:
            s, k = self.stage_of[v], len(self.children[v])
            if degree.setdefault(s, k) != k:
                raise StageOutDegreeMismatch(
                    f"stage {s!r} mixes out-degrees {degree[s]} and {k} (at vertex {v!r})"
                )
        self.downward = self._resolve_downward(downward or {})
        self.stage_ids = tuple(self.stage_degrees)
        members = {s: [] for s in self.stage_degrees}
        for v in self.inner:
            members[self.stage_of[v]].append(v)
        self.stage_members = {s: tuple(vs) for s, vs in members.items()}

    @staticmethod
    def _infer_root(declared, mentioned):
        if not declared:
            raise StagedTreeError("expected a vertex with children, found none")
        candidates = declared - mentioned
        if len(candidates) != 1:
            raise CycleDetected(
                f"expected exactly one parentless vertex, found {sorted(candidates)}"
            )
        return candidates.pop()

    def _validate_shape(self):
        parent = {}
        for v, cs in self.children.items():
            if len(cs) == 1:
                raise VertexWithOneChild(f"vertex {v!r} has exactly one child")
            for c in cs:
                if c in parent:
                    raise CycleDetected(f"vertex {c!r} has two parents: {parent[c]!r}, {v!r}")
                parent[c] = v
        if self.root in parent:
            raise CycleDetected(f"root {self.root!r} has a parent")

    def _bfs_order(self):
        order = [self.root]
        for v in order:
            order.extend(self.children.get(v, ()))
        return tuple(order)

    def _resolve_downward(self, spec):
        per_stage = {}
        for key, j in spec.items():
            key = str(key)
            stage = key if key in self.stage_degrees else self.stage_of.get(key)
            if stage is None:
                raise StagedTreeError(f"downward key {key!r} is neither a vertex nor a stage")
            if not (isinstance(j, int) and not isinstance(j, bool)):
                raise StagedTreeError(f"downward index {j!r} for {key!r} is not an integer")
            if per_stage.setdefault(stage, j) != j:
                raise DownwardEdgeInconsistentWithinStage(
                    f"stage {stage!r}: conflicting downward indices {per_stage[stage]} and {j}"
                )
        for s, kappa in self.stage_degrees.items():
            j = per_stage.setdefault(s, kappa)
            if not 1 <= j <= kappa:
                raise IndexOutOfRange(f"downward index {j} out of range for stage {s!r}")
        return per_stage

    @classmethod
    def from_spec(cls, spec):
        """``StagedTree.from_spec``'s field checks, then the dict build."""
        if not isinstance(spec, dict):
            raise StagedTreeError("tree description must be a JSON object")
        unknown = set(spec) - {"vertices", "stages", "downward"}
        if unknown:
            raise StagedTreeError(f"unknown tree-description fields: {sorted(unknown)}")
        if "vertices" not in spec:
            raise StagedTreeError("tree description lacks 'vertices'")
        vertices = spec["vertices"]
        if not isinstance(vertices, list):
            raise StagedTreeError(f"'vertices' must be a list of objects, got {vertices!r}")
        children = {}
        for entry in vertices:
            if not isinstance(entry, dict):
                raise StagedTreeError(f"vertex entry {entry!r} is not an object")
            bad = entry.keys() - {"id", "children"}
            if bad:
                raise StagedTreeError(f"unknown vertex fields: {sorted(bad)}")
            v, cs = entry.get("id"), entry.get("children", [])
            if not isinstance(v, str):
                raise StagedTreeError(f"vertex entry {entry!r} needs a string 'id'")
            if not isinstance(cs, list):
                raise StagedTreeError(f"children of {v!r} must be a list of vertex ids, got {cs!r}")
            if v in children:
                raise StagedTreeError(f"vertex {v!r} is listed twice")
            children[v] = cs
        for v, cs in children.items():
            if not all(isinstance(c, str) for c in cs):
                raise StagedTreeError(f"children of {v!r} must be a list of vertex ids, got {cs!r}")
        stages, downward = spec.get("stages"), spec.get("downward")
        if stages is not None and (
            not isinstance(stages, dict) or not all(isinstance(s, str) for s in stages.values())
        ):
            raise StagedTreeError(f"'stages' must map vertex ids to stage ids, got {stages!r}")
        if downward is not None and not isinstance(downward, dict):
            raise StagedTreeError(f"'downward' must map stage ids to indices, got {downward!r}")
        return cls(children, stages=stages, downward=downward)

    def to_spec(self):
        spec = {
            "vertices": [{"id": v, "children": list(self.children[v])} for v in self.inner],
            "stages": {v: self.stage_of[v] for v in self.inner},
        }
        nondefault = {s: j for s, j in self.downward.items() if j != self.stage_degrees[s]}
        if nondefault:
            spec["downward"] = nondefault
        return spec

    @property
    def depth(self):
        depth = {self.root: 0}
        for v in self.inner:
            for c in self.children[v]:
                depth[c] = depth[v] + 1
        return depth

    @property
    def leaf_position(self):
        out, stack = {}, [self.root]
        while stack:
            v = stack.pop()
            cs = self.children.get(v)
            if cs is None:
                out[v] = len(out)
            else:
                stack.extend(reversed(cs))
        return out

    def fold(self, leaf_value, combine):
        out = {}
        for v in reversed(self.vertices):
            cs = self.children.get(v)
            out[v] = leaf_value if cs is None else combine(v, [out[c] for c in cs])
        return out

    def edge_totals(self, leaf_values):
        below = {leaf: leaf_values[i] for leaf, i in self.leaf_position.items()}
        totals = dict.fromkeys(self.inner)
        for v in reversed(self.inner):
            edges = [below[c] for c in self.children[v]]
            totals[v] = edges
            below[v] = sum(edges)
        return totals

    def downward_fold(self, leaf_value, step):
        """``step(v, j, below)`` down the all-downward path from every vertex."""
        out = {}
        for v in reversed(self.vertices):
            cs = self.children.get(v)
            if cs is None:
                out[v] = leaf_value
            else:
                j = self.downward[self.stage_of[v]]
                out[v] = step(v, j, out[cs[j - 1]])
        return out


VIEWS = ("vertices", "root", "inner", "leaves", "index", "children", "stage_of", "stage_ids",
         "stage_degrees", "downward", "stage_members", "depth", "leaf_position")


def assert_same_views(tree: StagedTree, oracle: OracleTree) -> None:
    """Every name-keyed attribute equal, dicts in the same key order, except
    ``children``: the dict build kept the order of the description, the view
    lists the inner vertices in BFS order.
    """
    for name in VIEWS:
        fast, slow = getattr(tree, name), getattr(oracle, name)
        assert fast == slow, name
        if isinstance(slow, dict) and name != "children":
            assert list(fast.items()) == list(slow.items()), name
    assert list(tree.children) == list(tree.inner)


def assert_same_outcome(fast, slow) -> None:
    """The same error, or trees with the same views."""
    if isinstance(slow, tuple):
        assert fast == slow
    else:
        assert_same_views(fast, slow)


def layout_trees() -> list[StagedTree]:
    trees = [t for family in (FAMILIES, ALGEBRA_FAMILIES) for ts in family.values() for t in ts]
    return trees + [product_tree([2] * 10), product_tree([2, 3]), star(5)]


def test_array_build_matches_the_dict_build():
    for tree in layout_trees():
        spec = tree.to_spec()
        oracle = OracleTree.from_spec(spec)
        assert_same_views(StagedTree.from_spec(spec), oracle)
        assert_same_views(tree, OracleTree(tree.children, tree.stage_of, tree.downward, tree.root))
        assert tree.to_spec() == oracle.to_spec()
        assert json.dumps(tree.to_spec()) == json.dumps(oracle.to_spec())
        assert_same_views(tree.saturated(), OracleTree(oracle.children, root=oracle.root))
        # from the children mapping, with the stages and downward edges by vertex id
        down = {v: oracle.downward[s] for v, s in oracle.stage_of.items()}
        assert_same_views(StagedTree(oracle.children, oracle.stage_of, down),
                          OracleTree(oracle.children, oracle.stage_of, down))


def test_with_staging_shares_the_shape_arrays():
    tree = product_tree([2, 3, 2])
    restaged = tree.with_staging({v: f"d{d}" for v, d in tree.depth.items() if v in tree.children})
    for name in ("vertices", "_degree", "_first", "_inner_pos"):
        assert getattr(restaged, name) is getattr(tree, name)
    assert restaged.stage_ids == ("d0", "d1", "d2")


def test_first_child_offsets_are_prefix_sums_of_the_degrees():
    for tree in layout_trees():
        degree, first, names = tree._degree, tree._first, tree.vertices
        assert len(degree) == len(names) and len(first) == len(names) + 1
        assert list(first) == [1 + sum(degree[:p]) for p in range(len(names) + 1)]
        assert [names[p] for p in tree._inner_pos] == list(tree.inner)
        for p, v in enumerate(names):
            assert names[first[p] : first[p] + degree[p]] == tree.children.get(v, ())
        ids = tree.stage_ids
        assert [ids[s] for s in tree._stage] == [tree.stage_of[v] for v in tree.inner]
        assert [tree.downward[s] for s in ids] == tree._down
        assert [tree.stage_degrees[s] for s in ids] == tree._kappa


def test_array_folds_match_the_dict_folds():
    rng = np.random.default_rng(17)
    for tree in layout_trees():
        oracle = OracleTree.from_spec(tree.to_spec())

        names, inner = tree.vertices, tree._inner_pos
        fast = tree._fold("leaf", lambda r, below: (names[inner[r]], tuple(below)))
        slow = oracle.fold("leaf", lambda v, below: (v, tuple(below)))
        assert len(fast) == len(names) and dict(zip(names, fast)) == slow
        counts = rng.integers(0, 9, size=tree.n).tolist()
        assert list(tree.edge_totals(counts).items()) == list(oracle.edge_totals(counts).items())
        fast = tree._downward_fold((), lambda r, s, j, b: b + ((names[inner[r]], j),))
        slow = oracle.downward_fold((), lambda v, j, b: b + ((v, j),))
        assert dict(zip(names, fast)) == slow


def malformed_specs():
    """Tree descriptions that each check of the build refuses, some with two
    faults, so that the order of the checks shows.
    """
    ok = [{"id": "r", "children": ["a", "b"]}, {"id": "a", "children": ["c", "d"]}]
    yield {"vertices": ok + [{"id": "x", "children": ["y"]}]}
    yield {"vertices": ok + [{"id": "b", "children": ["c", "e"]}]}
    yield {"vertices": [{"id": "r", "children": ["a", "a"]}]}
    yield {"vertices": ok + [{"id": "b", "children": ["r", "e"]}]}
    yield {"vertices": ok + [{"id": "x", "children": ["y", "z"]}]}
    yield {"vertices": ok + [{"id": "x", "children": ["y", "x"]}]}
    yield {"vertices": ok + [{"id": "b", "children": ["c", "e"]}, {"id": "e", "children": ["f"]}]}
    yield {"vertices": ok + [{"id": "e", "children": ["f"]}, {"id": "b", "children": ["c", "e"]}]}
    yield {"vertices": ok + [{"id": "x", "children": ["b", "y"]}, {"id": "z", "children": ["w"]}]}
    yield {"vertices": [{"id": "r", "children": []}]}
    yield {"vertices": ok + [{"id": "x", "children": []}]}
    yield {"vertices": ok, "stages": {"c": "s", "q": "s", "r": "s"}}
    yield {"vertices": ok + [{"id": "b", "children": ["e", "f", "g"]}],
           "stages": {"a": "s", "b": "s"}}
    yield {"vertices": ok, "stages": {"a": "s", "r": "s"}, "downward": {"a": 1, "r": 2}}
    yield {"vertices": ok, "stages": {"a": "s", "r": "s"}, "downward": {"s": 1, "a": 1, "r": 1}}
    yield {"vertices": ok, "downward": {"q": 1}}
    yield {"vertices": ok, "downward": {"a": True}}
    yield {"vertices": ok, "downward": {"a": 1.0}}
    yield {"vertices": ok, "downward": {"a": 3}}
    yield {"vertices": ok, "downward": {"a": 0, "r": 3}}
    yield {"vertices": [{"id": "r", "children": ["a", "b"]}], "downward": {"r": 0}}
    yield {"vertices": ok, "stages": {"a": "r"}, "downward": {"r": 1}}
    # shape faults that only the full check names, where from_json lays out the
    # shape before it reads the fields after 'vertices'
    two_parents = ok + [{"id": "b", "children": ["a", "e"]}]  # every vertex reachable
    yield {"vertices": two_parents}
    cycle = [{"id": "y", "children": ["x", "w"]}]  # x, y detached from r
    yield {"vertices": ok + [{"id": "x", "children": ["y", "z"]}] + cycle}
    yield {"vertices": ok + [{"id": "x", "children": ["c", "y"]}] + cycle}  # c reachable
    yield {"vertices": two_parents, "stages": {"r": 5}}  # the 'stages' fault comes first


def test_array_build_refuses_as_the_dict_build():
    for spec in malformed_specs():
        slow = outcome(OracleTree.from_spec, spec)
        assert_same_outcome(outcome(StagedTree.from_spec, spec), slow)
    cases = [
        ({"r": ["a", "b"], "a": ["r", "c"]}, {}),
        ({"r": ["a", "b"], "x": ["y", "z"]}, {}),
        ({}, {}),
        ({1: [2, 3], 2: [4, 5]}, {"stages": {"1": "s", "2": "s"}, "downward": {"s": 1}}),
        ({1: [2, 3], 2: [4, 5]}, {"stages": {1: "s"}}),
        ({"r": ["a", "b"]}, {"stages": {"r": 7}, "downward": {7: 2}}),
    ]
    for children, kwargs in cases:
        slow = outcome(OracleTree, children, **kwargs)
        assert_same_outcome(outcome(StagedTree, children, **kwargs), slow)


@given(spec=tree_specs())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_array_build_matches_the_dict_build_on_fuzzed_descriptions(spec):
    slow = outcome(OracleTree.from_spec, spec)
    assert_same_outcome(outcome(StagedTree.from_spec, spec), slow)


# -- from_json against from_spec(loads(text)) ---------------------------------


def read_outcome(read, text):
    """The tree's arrays, or the type and message of the error ``read`` raised."""
    try:
        tree = read(text)
    except ValueError as exc:  # StagedTreeError and JSONDecodeError
        return type(exc), str(exc)
    return tree.vertices, list(tree._degree), list(tree._stage), tree.stage_ids, tree.downward


def assert_reads_as_loads(text) -> None:
    slow = read_outcome(lambda t: StagedTree.from_spec(loads(t)), text)
    assert read_outcome(StagedTree.from_json, text) == slow, text[:200]


def json_layouts(spec) -> list[str]:
    """One description as compact and indented text, with its fields in
    reverse order (``stages`` and ``downward`` first), with each entry's keys
    reversed, and with every unlisted child listed as a leaf, by turns as an
    id alone and with empty ``children``.
    """
    texts = [json.dumps(spec, separators=(",", ":")), json.dumps(spec, indent=2)]
    if not isinstance(spec, dict):
        return texts
    texts.append(json.dumps(dict(reversed(spec.items()))))
    vertices = spec.get("vertices")
    if isinstance(vertices, list):
        flipped = [dict(reversed(e.items())) if isinstance(e, dict) else e for e in vertices]
        texts.append(json.dumps({**spec, "vertices": flipped}, indent=2))
        entries = [e for e in vertices if isinstance(e, dict)]
        listed = {e.get("id") for e in entries if isinstance(e.get("id"), str)}
        mentioned = [c for e in entries if isinstance(e.get("children"), list)
                     for c in e["children"] if isinstance(c, str) and c not in listed]
        leaves = [{"id": c} if i % 2 else {"id": c, "children": []}
                  for i, c in enumerate(dict.fromkeys(mentioned))]
        texts.append(json.dumps({**spec, "vertices": vertices + leaves}))
    return texts


def test_reader_matches_loads_on_every_layout_of_the_descriptions():
    specs = [tree.to_spec() for tree in layout_trees()] + list(malformed_specs())
    for spec in specs:
        for text in json_layouts(spec):
            assert_reads_as_loads(text)


@given(spec=tree_specs())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_reader_matches_loads_on_fuzzed_descriptions(spec):
    for text in json_layouts(spec):
        assert_reads_as_loads(text)


OK_TEXT = '{"vertices": [{"id": "r", "children": ["a", "b"]}, {"id": "a", "children": ["c", "d"]}]}'
HAND_TEXTS = [
    "", " ", "[]", "null", "{}", "{ }", '{"vertices": []}', '{"vertices": {}}',
    OK_TEXT[:-3], OK_TEXT[:40], OK_TEXT[:-2] + ",]}", OK_TEXT[:-1] + ",}", OK_TEXT[:-1] + ", }",
    "\ufeff" + OK_TEXT, OK_TEXT + " x", OK_TEXT + "{}", " \n" + OK_TEXT + "\t\n",
    "," + OK_TEXT[1:], OK_TEXT[:-1] + '{"stages": {}}', OK_TEXT[:-1] + ': {}}',
    '{"stages" = {}, ' + OK_TEXT[1:],
    OK_TEXT[:-1] + ', "vertices": [{"id": "r", "children": ["x", "y"]}]}',
    '{"vertices": [], "vertices": [{"id": "r", "children": ["a", "b"]}]}',
    '{"vert\\u0069ces": [{"id": "r", "children": ["a", "b"]}]}',
    OK_TEXT[:-1] + ', "colour": 1}', OK_TEXT[:-1] + ' "stages": {}}',
    OK_TEXT[:-1] + ', "stages": null, "downward": null}',
    OK_TEXT[:-1] + ', "downward": {"r": NaN}}', OK_TEXT[:-1] + ', "stages": {"r": {"id": "s"}}}',
    '{"vertices": [null]}', '{"vertices": [0, {"id": "r", "children": ["a", "b"]}]}',
    '{"vertices": [[{"id": "r", "children": ["a", "b"]}]]}',
    '{"vertices": {"id": "r", "children": ["a", "b"]}}',
    '{"vertices": [{}]}', '{"vertices": [{"children": ["a", "b"]}]}',
    '{"vertices": [{"id": "r", "children": ["a", {"id": "b"}]}]}',
    '{"vertices": [{"id": "r", "children": ["a", {"id": "b", "children": ["c", "d"]}]}]}',
    '{"vertices": [{"id": {"id": "x"}, "children": ["a", "b"]}]}',
    # a nested entry with the id of the entry around it
    '{"vertices": [{"id": "r", "children": ["a", {"id": "r"}]}]}',
    # the last 'vertices' lists r before t, the first lists t: the faults name r
    '{"vertices": [{"id": "t", "children": ["u"]}],'
    ' "vertices": [{"id": "r", "children": ["t"]}, {"id": "t", "children": ["u"]}]}',
    '{"vertices": [{"id": "r", "children": ["a", "b"], "colour": 1}]}',
    '{"vertices": [{"id": "r", "id": "s", "children": ["a", "b"]}]}',
    '{"vertices": [{"id": "r", "children": ["a", "b"], "children": ["c", "d"]}]}',
    '{"vertices": [{"id": "r", "children": "ab"}, {"id": "r", "children": ["a", "b"]}]}',
    '{"vertices": [{"id": "r", "children": ["a", "b"]}, {"id": "r"}]}',
    '{"vertices": [{"id": "r", "children": [["a"], "b"]}]}',
    '{"vertices": [{"id": "r", "children": ["a", "b"]}, {"id": 7, "children": ["c", "d"]}]}',
    '{"vertices": [{"id": ' + "1" + "0" * 5000 + ', "children": ["a", "b"]}]}',
    '{"vertices": [{"id": "r", "children": ' + "[" * 1000 + "]" * 1000 + "}]}",
    '{"vertices": [{"id": "r", "children": ' + "[" * 100_000 + "]" * 100_000 + "}]}",
    '{"vertices": [{"id": "r", "children": ["a", "b"]}]}',
    '{"vertices": [{"children": ["a", "b"], "id": "r"}, {"id": "a"}, {"id": "b", "children": []}]}',
]


@pytest.mark.parametrize("text", HAND_TEXTS + [t.encode() for t in HAND_TEXTS[-2:]])
def test_reader_matches_loads_on_hand_written_texts(text):
    assert_reads_as_loads(text)
