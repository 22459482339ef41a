import itertools
import math
import re
from collections import Counter

import networkx as nx
import numpy as np
import pytest

from stagedtree import (
    DiscreteBN,
    bn_edge_labels,
    bn_to_staged_tree,
    classify_bn,
    distribution_from_labels,
    find_simple_ordering,
    is_decomposable,
    is_regular,
    is_simple,
)
from stagedtree import bayesnet
from stagedtree.bayesnet import _topological_order, has_immorality
from stagedtree.errors import OrderInconsistentWithDAG, StagedTreeError


def binary_bn(variables, edges, cpts=None):
    return DiscreteBN(tuple(variables), {v: 2 for v in variables}, tuple(edges), cpts)


COLLIDER = binary_bn("XYZ", [("X", "Z"), ("Y", "Z")])
CHAIN = binary_bn("XYZ", [("X", "Y"), ("Y", "Z")])
EMPTY3 = binary_bn("XYZ", [])


def stage_partition(tree):
    groups = {}
    for v in tree.inner:
        groups.setdefault(tree.stage_of[v], set()).add(v)
    return {frozenset(g) for g in groups.values()}


def all_dags(n):
    """Every DAG on n labeled nodes, as edge tuples."""
    nodes = [f"X{i}" for i in range(n)]
    pairs = list(itertools.combinations(nodes, 2))
    for choice in itertools.product((0, 1, 2), repeat=len(pairs)):
        edges = []
        for (a, b), c in zip(pairs, choice):
            if c == 1:
                edges.append((a, b))
            elif c == 2:
                edges.append((b, a))
        try:
            yield binary_bn(nodes, edges)
        except StagedTreeError:
            continue


def random_cpt_bn(rng, max_vars=4, max_card=3):
    m = int(rng.integers(2, max_vars + 1))
    variables = [f"X{i}" for i in range(m)]
    cards = {v: int(rng.integers(2, max_card + 1)) for v in variables}
    edges = [
        (variables[i], variables[j])
        for i in range(m)
        for j in range(i + 1, m)
        if rng.random() < 0.5
    ]
    bn = DiscreteBN(tuple(variables), cards, tuple(edges))
    cpts = {}
    for v in variables:
        n_rows = int(np.prod([cards[p] for p in bn.parents(v)])) if bn.parents(v) else 1
        cpts[v] = [list(rng.dirichlet([1.0] * cards[v])) for _ in range(n_rows)]
    return DiscreteBN(tuple(variables), cards, tuple(edges), cpts)


class TestUnfolding:
    def test_collider_reproduces_fig1a_staging(self, fig1a):
        tree = bn_to_staged_tree(COLLIDER, ("X", "Y", "Z"))
        assert tree.n == 8 and tree.k == 7
        # compare partitions through the vertex enumeration
        by_index = lambda t: {
            frozenset(t.index[v] for v in group) for group in stage_partition(t)
        }
        assert by_index(tree) == by_index(fig1a)

    def test_chain_stages_z_on_y_only(self):
        tree = bn_to_staged_tree(CHAIN, ("X", "Y", "Z"))
        part = stage_partition(tree)
        assert frozenset({"v_0.0", "v_1.0"}) in part
        assert frozenset({"v_0.1", "v_1.1"}) in part
        assert frozenset({"v_0"}) in part and frozenset({"v_1"}) in part

    def test_disconnected_pools_each_level(self):
        tree = bn_to_staged_tree(EMPTY3, ("X", "Y", "Z"))
        part = stage_partition(tree)
        assert frozenset({"v_0", "v_1"}) in part
        assert frozenset({"v_0.0", "v_0.1", "v_1.0", "v_1.1"}) in part

    def test_bad_order_rejected(self):
        with pytest.raises(OrderInconsistentWithDAG):
            bn_to_staged_tree(CHAIN, ("Z", "Y", "X"))

    def test_cyclic_graph_rejected(self):
        with pytest.raises(StagedTreeError):
            binary_bn("AB", [("A", "B"), ("B", "A")])

    @pytest.mark.parametrize(
        "cards, message",
        [
            ({"A": 2}, "missing ['B'], extra []"),
            ({"A": 2, "B": 2, "C": 3}, "missing [], extra ['C']"),
        ],
        ids=["missing", "extra"],
    )
    def test_cards_must_name_exactly_the_variables(self, cards, message):
        with pytest.raises(StagedTreeError, match=re.escape(message)):
            DiscreteBN(("A", "B"), cards, (("A", "B"),))


class TestUnfoldingLimit:
    """An unfolding over MAX_UNFOLDED_VERTICES inner vertices is refused before
    any vertex is made, by both users of the unfolding.
    """

    @staticmethod
    def chain(m):
        names = [f"X{i}" for i in range(m)]
        cpts = {v: [[0.5, 0.5]] * (1 if i == 0 else 2) for i, v in enumerate(names)}
        return binary_bn(names, zip(names, names[1:]), cpts)

    def test_forty_binary_variables_refused(self):
        bn = self.chain(40)
        for unfold in (bn_to_staged_tree, bn_edge_labels):
            with pytest.raises(StagedTreeError, match=f"{2**40 - 1} inner vertices, over"):
                unfold(bn)

    def test_wide_variable_counts_its_cardinality(self):
        wide = DiscreteBN(("A", "B"), {"A": bayesnet.MAX_UNFOLDED_VERTICES, "B": 2}, ())
        with pytest.raises(StagedTreeError, match="inner vertices, over"):
            bn_to_staged_tree(wide)

    def test_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(bayesnet, "MAX_UNFOLDED_VERTICES", 7)
        assert bn_to_staged_tree(self.chain(3)).k == 7
        assert len(bn_edge_labels(self.chain(3))) == 10  # five stages, two labels each
        for unfold in (bn_to_staged_tree, bn_edge_labels):
            with pytest.raises(StagedTreeError, match="15 inner vertices, over 7"):
                unfold(self.chain(4))

    def test_every_shipped_bn_is_below_the_limit(self):
        from conftest import DATA

        for path in DATA.glob("*_bn.json"):
            bn = DiscreteBN.from_json(path.read_text())
            assert bn_to_staged_tree(bn).k <= bayesnet.MAX_UNFOLDED_VERTICES


class TestUnfoldedLeafLimit:
    """An unfolding over MAX_UNFOLDED_LEAVES leaves is refused before any
    vertex is made, though its inner vertices are within their bound.
    """

    @staticmethod
    def wide(card):
        return DiscreteBN(("A",), {"A": card}, (), {"A": [[1 / card] * card]})

    def test_wide_variable_refused_by_its_leaves(self, monkeypatch):
        monkeypatch.setattr(bayesnet, "MAX_UNFOLDED_LEAVES", 8)
        assert bn_to_staged_tree(self.wide(8)).n == 8
        assert len(bn_edge_labels(self.wide(8))) == 8
        for unfold in (bn_to_staged_tree, bn_edge_labels):
            with pytest.raises(StagedTreeError, match="^unfolding has 9 leaves, over 8$"):
                unfold(self.wide(9))

    def test_every_binary_bn_within_the_vertex_bound_passes(self):
        m = bayesnet.MAX_UNFOLDED_VERTICES.bit_length() - 1  # 2**m - 1 inner vertices
        assert 2**m <= bayesnet.MAX_UNFOLDED_LEAVES


def test_unfolding_bounds_name_sizes_past_4300_digits():
    # str() writes no more than 4300 digits, and a JSON card may have 4300
    cases = {"inner vertices": (10**4000, 10**4000, 2), "leaves": (10, 10**4299)}
    for what, cards in cases.items():
        names = [f"X{i}" for i in range(len(cards))]
        bn = DiscreteBN(tuple(names), dict(zip(names, cards)), ())
        with pytest.raises(StagedTreeError, match=rf"^unfolding has 10\*\*4300 or more {what},"):
            bn_to_staged_tree(bn)


class TestVariableNames:
    # the BN whose stage ids collided: 'A' given B=0 and C|D=0, and 'A|B=0,C' given D=0
    COLLIDING = {
        "variables": [{"name": v, "card": 2} for v in ("B", "C|D", "A", "D", "A|B=0,C")],
        "edges": [["B", "A"], ["C|D", "A"], ["D", "A|B=0,C"]],
    }

    @pytest.mark.parametrize("name", ["C|D", "A=1", "A,B", "|", "x=y|z,"])
    def test_stage_id_separators_refused(self, name):
        with pytest.raises(StagedTreeError, match=re.escape(f"variable name {name!r} holds")):
            DiscreteBN(("X", name), {"X": 2, name: 2}, ())

    def test_colliding_stage_ids_refused(self):
        with pytest.raises(StagedTreeError, match=re.escape("variable name 'C|D' holds")):
            DiscreteBN.from_spec(self.COLLIDING)

    def test_other_names_keep_their_stage_ids(self):
        bn = binary_bn(["X 1", "Y.2", "Z:3"], [("X 1", "Z:3"), ("Y.2", "Z:3")])
        stages = ("X 1|", "Y.2|", "Z:3|X 1=0,Y.2=0", "Z:3|X 1=0,Y.2=1", "Z:3|X 1=1,Y.2=0",
                  "Z:3|X 1=1,Y.2=1")
        assert bn_to_staged_tree(bn).stage_ids == stages


class TestDecomposable:
    def test_collider_not_decomposable(self):
        assert not is_decomposable(COLLIDER)

    def test_chain_decomposable(self):
        assert is_decomposable(CHAIN)

    def test_complete_dag_decomposable(self):
        bn = binary_bn("ABC", [("A", "B"), ("A", "C"), ("B", "C")])
        assert is_decomposable(bn)

    def test_four_cycle_skeleton_not_chordal(self):
        bn = binary_bn("ABCD", [("A", "B"), ("B", "C"), ("A", "D"), ("D", "C")])
        assert not is_decomposable(bn)


def recursive_simple_ordering(bn):
    """The recursive search that find_simple_ordering replaced, kept as its oracle."""
    parents = {v: set(bn.parents(v)) for v in bn.variables}
    n = len(bn.variables)

    def extend(placed, remaining):
        if not remaining:
            return placed
        for v in sorted(remaining):
            if parents[v] - set(placed):
                continue  # not yet topologically placeable
            if placed and not parents[v] <= ({placed[-1]} | parents[placed[-1]]):
                continue
            result = extend(placed + [v], remaining - {v})
            if result is not None:
                return result
        return None

    result = extend([], set(bn.variables))
    return tuple(result) if result is not None and len(result) == n else None


class TestSimpleOrdering:
    def test_chain_has_simple_ordering(self):
        assert find_simple_ordering(CHAIN) == ("X", "Y", "Z")

    def test_collider_has_none(self):
        assert find_simple_ordering(COLLIDER) is None

    def test_single_node(self):
        bn = binary_bn("A", [])
        assert find_simple_ordering(bn) == ("A",)

    def test_collider_among_isolated_variables_is_refused_before_the_search(self):
        # X2's parents {X0, X1} lie in no {u} + pa(u); the depth-first search
        # alone tries every order of the other variables (about 3 s at 10)
        names = [f"X{i}" for i in range(10)]
        bn = binary_bn(names, [("X0", "X2"), ("X1", "X2")])
        assert find_simple_ordering(bn) is None

    def test_necessary_condition_leaves_some_none_to_the_search(self):
        # pa(C) = {A, B} <= {D} + pa(D) and pa(D) <= {C} + pa(C), yet C, which
        # D needs before it, can follow neither parentless A nor B
        bn = binary_bn("ABCD", [("A", "C"), ("A", "D"), ("B", "C"), ("B", "D"), ("C", "D")])
        assert find_simple_ordering(bn) is None is recursive_simple_ordering(bn)

    def test_no_ordering_among_isolated_variables_is_found_without_trying_every_order(self):
        # the DAG above passes the necessary check; the eight isolated variables
        # fit anywhere, so a search without its memo of failed (last vertex,
        # placed set) states tries the orders of all of them (over 10 s at 12)
        names = ["A", "B", "C", "D"] + [f"X{i}" for i in range(8)]
        edges = [("A", "C"), ("A", "D"), ("B", "C"), ("B", "D"), ("C", "D")]
        assert find_simple_ordering(binary_bn(names, edges)) is None

    def test_matches_the_recursive_search_on_every_dag_over_at_most_four_nodes(self):
        for n in range(1, 5):
            for bn in all_dags(n):
                assert find_simple_ordering(bn) == recursive_simple_ordering(bn), bn.edges

    def test_matches_the_recursive_search_on_seeded_random_dags(self):
        found = Counter()
        for nodes, edges in random_digraphs(np.random.default_rng(23), 600, max_nodes=8):
            try:
                bn = binary_bn(nodes, edges)
            except StagedTreeError:
                continue  # a cycle, a self-loop or a repeated edge
            expected = recursive_simple_ordering(bn)
            assert find_simple_ordering(bn) == expected, (nodes, edges)
            found[expected is None, len(nodes) > 4] += 1
        assert all(found[key] >= 10 for key in itertools.product((False, True), repeat=2))

    def test_returned_order_is_topological(self, rng):
        for _ in range(30):
            bn = random_cpt_bn(rng)
            order = find_simple_ordering(bn)
            if order is None:
                continue
            pos = {v: i for i, v in enumerate(order)}
            assert all(pos[a] < pos[b] for a, b in bn.edges)


class TestParentsTable:
    def test_matches_parents_on_every_dag_over_at_most_four_nodes(self):
        # criterion 7's DAGs, with the variables declared in name order and reversed
        for n in range(1, 5):
            for dag in all_dags(n):
                for variables in (dag.variables, dag.variables[::-1]):
                    bn = DiscreteBN(variables, dag.cards, dag.edges)
                    table = bayesnet._parents_table(bn)
                    assert list(table) == list(variables)
                    edges = set(bn.edges)
                    for v in variables:
                        expected = tuple(a for a in variables if (a, v) in edges)
                        assert table[v] == bn.parents(v) == expected


class TestCptLookups:
    def test_edge_labels_and_joint_match_the_per_vertex_cpt_rows(self, rng):
        # criterion 7's DAGs, each given random CPTs
        for n in range(1, 5):
            for dag in all_dags(n):
                cpts = {
                    v: [list(rng.dirichlet([1.0, 1.0])) for _ in range(2 ** len(dag.parents(v)))]
                    for v in dag.variables
                }
                bn = binary_bn(dag.variables, dag.edges, cpts)
                order = bn.default_order()
                theta = bn_edge_labels(bn, order)
                for var, history, stage in bayesnet._unfolding(bn, order):
                    assert [theta[(stage, 1)], theta[(stage, 2)]] == bn.cpt_row(var, history)
                for states in itertools.product((0, 1), repeat=n):
                    x = dict(zip(bn.variables, states))
                    expected = math.prod(bn.cpt_row(v, x)[x[v]] for v in bn.variables)
                    assert bn.joint_probability(x) == expected

    def test_lookups_without_cpts_refused(self):
        bn = binary_bn("AB", [("A", "B")])
        for call in (
            lambda: bn.cpt_row("B", {"A": 0}),
            lambda: bn.joint_probability({"A": 0, "B": 1}),
            lambda: bn_edge_labels(bn),
        ):
            with pytest.raises(StagedTreeError, match="^BN has no CPTs"):
                call()


class TestClassify:
    def test_chain_certified_and_regular(self):
        report = classify_bn(CHAIN)
        assert report.regular_certified
        assert is_regular(bn_to_staged_tree(CHAIN))[0]

    def test_collider_not_certified_and_not_regular(self):
        report = classify_bn(COLLIDER)
        assert not report.regular_certified
        assert not is_regular(bn_to_staged_tree(COLLIDER))[0]

    def test_empty_bn_certified(self):
        report = classify_bn(EMPTY3)
        assert report.decomposable and report.regular_certified
        assert is_regular(bn_to_staged_tree(EMPTY3))[0]

    def test_corollary_sound_on_three_node_dags(self):
        for bn in all_dags(3):
            report = classify_bn(bn)
            if report.regular_certified:
                order = report.simple_ordering or bn.default_order()
                assert is_regular(bn_to_staged_tree(bn, order))[0]

    def test_long_chain_without_recursion(self):
        names = [f"X{i}" for i in range(1200)]
        report = classify_bn(binary_bn(names, zip(names, names[1:])))
        assert report.simple_ordering == tuple(names) and report.regular_certified

    def test_many_edgeless_variables_without_recursion(self):
        names = [f"X{i}" for i in range(1100)]
        report = classify_bn(binary_bn(names, []))
        assert report.simple_ordering == tuple(sorted(names))
        assert report.decomposable and report.regular_certified

    def test_simple_ordering_gives_simple_tree(self):
        for bn in all_dags(3):
            order = find_simple_ordering(bn)
            if order is not None:
                assert is_simple(bn_to_staged_tree(bn, order))


class TestJointEquality:
    def test_chain_fixture_joint(self):
        import json

        from conftest import data_path

        bn = DiscreteBN.from_json(data_path("chain_bn.json").read_text())
        tree = bn_to_staged_tree(bn)
        theta = bn_edge_labels(bn)
        dist = distribution_from_labels(tree, theta)
        order = bn.default_order()
        for atom, p in dist.items():
            assignment = {order[lvl]: j - 1 for lvl, (_, j) in enumerate(atom.steps)}
            assert p == pytest.approx(bn.joint_probability(assignment), abs=1e-12)

    def test_random_cpt_bns_match_factorization(self, rng):
        for _ in range(30):
            bn = random_cpt_bn(rng)
            order = bn.default_order()
            tree = bn_to_staged_tree(bn, order)
            assert tree.n <= 81
            theta = bn_edge_labels(bn, order)
            dist = distribution_from_labels(tree, theta)
            for atom in tree.atoms:
                assignment = {order[lvl]: j - 1 for lvl, (_, j) in enumerate(atom.steps)}
                assert dist[atom] == pytest.approx(
                    bn.joint_probability(assignment), abs=1e-12
                )

    def test_cpt_row_sum_validated(self):
        with pytest.raises(StagedTreeError):
            binary_bn("AB", [("A", "B")], cpts={"A": [[0.5, 0.6]], "B": [[0.5, 0.5]] * 2})

    def test_wide_cpt_row_sums_to_one(self):
        # the row's left-to-right sum is 1 + 1.005e-12, its correctly rounded sum 1
        kappa = 36217
        bn = DiscreteBN(("A",), {"A": kappa}, (), {"A": [[1.0 / kappa] * kappa]})
        assert bn.cards == {"A": kappa}


class TestMalformedSpec:
    def test_unknown_variable_field_refused(self):
        spec = {"variables": [{"name": "X", "card": 2, "crad": 3}, {"name": "Y", "card": 2}],
                "edges": [["X", "Y"]]}
        with pytest.raises(StagedTreeError, match=re.escape("unknown variable fields: ['crad']")):
            DiscreteBN.from_spec(spec)

    def test_cpt_of_no_variable_refused(self):
        spec = {"variables": [{"name": "X", "card": 2}], "edges": [],
                "cpts": {"X": [[0.5, 0.5]], "Q": [[0.3, 0.7]]}}
        with pytest.raises(StagedTreeError,
                           match=re.escape("cpts name variables not in the BN: ['Q']")):
            DiscreteBN.from_spec(spec)


def random_digraphs(rng, count, max_nodes=9):
    """Seeded digraphs over 1..max_nodes shuffled nodes, edges in shuffled order.

    Half draw forward edges of a hidden order, so they are acyclic; the other
    half draw any ordered pairs with replacement, so they include cycles,
    self-loops and repeated edges.
    """
    for i in range(count):
        n = int(rng.integers(1, max_nodes + 1))
        nodes = [f"N{k}" for k in rng.permutation(n)]
        hidden = list(rng.permutation(nodes))
        p = rng.random()
        if i % 2 == 0:
            pairs = itertools.combinations(hidden, 2)
            edges = [pair for pair in pairs if rng.random() < p]
        else:
            ends = rng.integers(n, size=(int(rng.integers(0, 2 * n + 1)), 2))
            edges = [(nodes[x], nodes[y]) for x, y in ends]
        yield nodes, [edges[k] for k in rng.permutation(len(edges))]


class TestGraphOracles:
    """The standard-library graph code against networkx as the oracle."""

    @staticmethod
    def digraph(nodes, edges):
        g = nx.DiGraph()
        g.add_nodes_from(nodes)
        g.add_edges_from(edges)
        return g

    def check(self, nodes, edges):
        """Topological order against networkx; on a DAG, also the theorem that
        ``is_decomposable`` rests on: no immorality makes the skeleton chordal.
        """
        g = self.digraph(nodes, edges)
        expected = tuple(nx.topological_sort(g)) if nx.is_directed_acyclic_graph(g) else None
        assert _topological_order(nodes, edges) == expected, (nodes, edges)
        loopless = [(a, b) for a, b in edges if a != b]
        chordal = nx.is_chordal(nx.Graph(loopless)) if loopless else True
        if expected is not None:
            bn = binary_bn(nodes, dict.fromkeys(edges))  # DiscreteBN refuses repeated edges
            assert is_decomposable(bn) == (not has_immorality(bn) and chordal), (nodes, edges)
        return expected is None, chordal

    def test_every_dag_over_at_most_four_nodes(self):
        verdicts = Counter()
        for n in range(1, 5):
            for bn in all_dags(n):
                verdicts[self.check(list(bn.variables), list(bn.edges))] += 1
        assert verdicts[(False, False)] > 0 and verdicts[(False, True)] > 0

    def test_seeded_random_digraphs(self):
        verdicts = Counter(
            self.check(nodes, edges)
            for nodes, edges in random_digraphs(np.random.default_rng(11), 3000)
        )
        assert all(verdicts[key] > 100 for key in itertools.product((False, True), repeat=2))
