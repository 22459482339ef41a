import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stagedtree import (
    Atom,
    AtomTable,
    ParameterVector,
    StagedTree,
    atom_probability,
    density_expform,
    dimensions,
    distribution_from_labels,
    labels_from_distribution,
    mle,
    natural_parameters,
    product_tree,
    star,
    sufficient_statistic,
)
from stagedtree.errors import (
    CycleDetected,
    DownwardEdgeInconsistentWithinStage,
    NontrivialStaging,
    StageOutDegreeMismatch,
    StagedTreeError,
    VertexWithOneChild,
    ZeroMass,
)
from stagedtree import tree as tree_module
from stagedtree.cli import run
from stagedtree.random_trees import random_staged_tree
from stagedtree.tree import log_atom_probability
from conftest import DATA, caterpillar


class TestConstruction:
    def test_fig1a_counts(self, fig1a):
        assert fig1a.k == 7
        assert fig1a.n == 8
        assert fig1a.stage_of["v2"] == fig1a.stage_of["v3"] == "cyan"

    def test_star(self):
        t = star(4)
        assert t.k == 1
        assert t.out_degree(t.root) == 4
        assert t.n == 4

    def test_one_child_rejected(self):
        with pytest.raises(VertexWithOneChild):
            StagedTree({"r": ["a", "b"], "a": ["c"]})

    def test_stage_out_degree_mismatch(self):
        with pytest.raises(StageOutDegreeMismatch):
            StagedTree(
                {"r": ["a", "b"], "a": ["x", "y", "z"]},
                stages={"r": "s", "a": "s"},
            )

    def test_two_parents_rejected(self):
        with pytest.raises(CycleDetected):
            StagedTree({"r": ["a", "b"], "a": ["c", "d"], "b": ["c", "e"]})

    def test_downward_conflict_within_stage(self):
        with pytest.raises(DownwardEdgeInconsistentWithinStage):
            StagedTree(
                {"r": ["a", "b"], "a": ["x", "y"], "b": ["u", "w"]},
                stages={"a": "s", "b": "s"},
                downward={"a": 1, "b": 2},
            )

    def test_downward_defaults_to_last_edge(self, fig1b):
        assert all(j == 2 for j in fig1b.downward.values())

    def test_bfs_enumeration(self, fig1a):
        assert fig1a.inner == ("v1", "v2", "v3", "v4", "v5", "v6", "v7")
        assert fig1a.index["v1"] == 1

    def test_spec_roundtrip(self, fig1b):
        rebuilt = StagedTree.from_spec(fig1b.to_spec())
        assert rebuilt.stage_of == fig1b.stage_of
        assert rebuilt.children == fig1b.children

    def test_a_tree_needs_an_inner_vertex(self):
        # the root is inferred, so no tree of one vertex can be built
        builds = (lambda: product_tree([]), lambda: StagedTree({}),
                  lambda: StagedTree({"only": []}))
        for build in builds:
            with pytest.raises(StagedTreeError, match="expected a vertex with children, found"):
                build()

    def test_unknown_spec_field_rejected(self):
        with pytest.raises(StagedTreeError):
            StagedTree.from_spec({"vertices": [], "colour": "blue"})

    def test_stray_stage_keys_rejected(self):
        # a leaf and an id that is no vertex were ignored without a word
        tree = StagedTree({"r": ["a", "b"]})
        with pytest.raises(StagedTreeError) as err:
            tree.with_staging({"a": "s", "zzz": "q"})
        assert str(err.value) == "'stages' names ids that are not inner vertices: ['a', 'zzz']"
        assert tree.with_staging({"r": "s"}).stage_of == {"r": "s"}


class TestFromJson:
    """``from_json`` reads the vertex list straight into the children map and
    hands only the texts it refuses to ``from_spec(loads(text))``.
    """

    def test_every_layout_the_package_writes_is_read_directly(self, monkeypatch, tmp_path):
        trees = [product_tree([2, 3, 2]), caterpillar(6),
                 random_staged_tree(np.random.default_rng(3))]
        texts = []
        for tree in trees:
            spec = tree.to_spec()
            texts += [json.dumps(spec), json.dumps(spec, indent=2),
                      json.dumps(spec, separators=(",", ":"))]
        for bn in ("chain_bn.json", "collider_bn.json"):
            for pretty in ([], ["--pretty"]):
                out = tmp_path / "tree.json"
                assert run(["from-bn", str(DATA / bn), "--output", str(out), *pretty]) == 0
                texts.append(out.read_text())
        fixtures = ["example1.json", "fig1a.json", "fig1b.json", "ternary_downward.json"]
        texts += [(DATA / name).read_text() for name in fixtures]
        expected = [StagedTree.from_spec(json.loads(text)) for text in texts]

        def refuse(text):
            raise AssertionError(f"the reader refused {text[:80]!r}")

        monkeypatch.setattr(tree_module, "loads", refuse)
        for text, tree in zip(texts, expected):
            read = StagedTree.from_json(text)
            assert (read.vertices, read.stage_ids, read.downward) == \
                (tree.vertices, tree.stage_ids, tree.downward)
            assert read._stage == tree._stage and read._degree == tree._degree

    def test_peak_stays_below_that_of_the_parse(self):
        text = json.dumps(product_tree([2] * 12).to_spec())
        peaks = []
        for read in (json.loads, StagedTree.from_json):
            tracemalloc.start()
            try:
                read(text)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0], peaks

    def test_stages_after_the_vertices_add_nothing_to_the_peak(self):
        # the children map is laid out and freed before 'stages' is scanned
        tree = product_tree([2] * 12)
        vertices = tree.to_spec()["vertices"]
        by_level = {v: f"d{d}" for v, d in tree.depth.items() if v in tree.children}
        assert len(set(by_level.values())) == 12
        peaks = []
        for spec in ({"vertices": vertices, "stages": by_level}, {"vertices": vertices}):
            text = json.dumps(spec)
            tracemalloc.start()
            try:
                StagedTree.from_json(text)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 1.02 * peaks[1], peaks


class TestAtoms:
    def test_fig1b_has_eight_atoms(self, fig1b):
        assert len(fig1b.atoms) == 8

    def test_star_atoms(self):
        t = star(5)
        assert len(t.atoms) == 5
        assert all(len(x) == 1 for x in t.atoms)

    def test_first_atom_is_all_up(self, example1):
        first = example1.atoms[0]
        assert first.steps == (("v1", 1), ("v2", 1), ("v4", 1))

    def test_edge_indicators_sum_to_vertex_indicator(self, rng):
        # the vertex indicator of v is 1 iff the atom's steps leave v
        for _ in range(25):
            t = random_staged_tree(rng)
            for x in t.atoms:
                visited = {v for v, _ in x.steps}
                for v in t.inner:
                    total = sum(x.traverses(v, j) for j in range(1, t.out_degree(v) + 1))
                    assert total == (v in visited)

    def test_last_edge_indicator_identity(self, rng):
        # alpha_{i kappa}(x) = alpha_i(x) * (1 - sum_{j<kappa} alpha_ij(x))
        for _ in range(25):
            t = random_staged_tree(rng)
            for x in t.atoms:
                visited = {v for v, _ in x.steps}
                for v in t.inner:
                    kappa = t.out_degree(v)
                    rest = sum(x.traverses(v, j) for j in range(1, kappa))
                    assert x.traverses(v, kappa) == (v in visited) * (1 - rest)


class TestAtomOfAnotherTree:
    """Functions that take an atom refuse one that is no root-to-leaf path of the tree."""

    FOREIGN = {
        "other root": (star(3), product_tree([2, 2]).atoms[0]),
        "wrong leaf": (star(3), Atom((("r", 1),), "e2")),
        "misnamed vertex": (star(3), Atom((("v_root", 1),), "e1")),
        "edge out of range": (star(3), Atom((("r", 4),), "e4")),
        "edge index no integer": (star(3), Atom((("r", "1"),), "e1")),
        "stops at an inner vertex": (product_tree([2, 2]), Atom((("v_root", 1),), "v_0")),
        "skips a vertex": (product_tree([2, 2]), Atom((("v_0", 1),), "v_0.0")),
        "goes past a leaf": (star(2), Atom((("r", 1), ("e1", 1)), "x")),
    }

    @pytest.fixture(params=sorted(FOREIGN))
    def foreign(self, request):
        return self.FOREIGN[request.param]

    def test_refused(self, foreign):
        tree, atom = foreign
        theta = ParameterVector.uniform(tree)
        table = AtomTable(tree, range(tree.n))
        for call in (
            lambda: atom_probability(tree, theta, atom),
            lambda: log_atom_probability(tree, theta, atom),
            lambda: density_expform(tree, theta, atom),
            lambda: sufficient_statistic(tree, atom),
            lambda: table.count(atom),
        ):
            with pytest.raises(StagedTreeError, match="is not a root-to-leaf path of the tree"):
                call()


class TestParameterVector:
    def test_boundary_rejected(self):
        with pytest.raises(StagedTreeError):
            ParameterVector({("s", 1): 0.0, ("s", 2): 1.0})

    def test_sum_to_one_enforced(self):
        with pytest.raises(StagedTreeError):
            ParameterVector({("s", 1): 0.5, ("s", 2): 0.6})

    @pytest.mark.parametrize("label", ["0.5", None, [0.5], True], ids=repr)
    def test_label_that_is_no_real_number_refused(self, label):
        with pytest.raises(StagedTreeError, match=r"label theta\[s,1\]=.* is not a real number"):
            ParameterVector({("s", 1): label, ("s", 2): 0.5})
        with pytest.raises(StagedTreeError, match=r"label theta\[s,1\]=.* is not a real number"):
            ParameterVector({("s", 1): label, ("s", 2): 0.5}, allow_boundary=True)

    @pytest.mark.parametrize(
        "key", [("s", 1.5), ("s", True), ("s", 0), ("s", -1), ("s", "a"), ("s", 1, 2), "s1", None],
        ids=repr,
    )
    def test_key_that_is_no_stage_edge_pair_refused(self, key):
        # int() turned 1.5 and True into edge 1, and "s1" unpacked into ("s", "1")
        message = re.escape(f"label key {key!r} is not a (stage, edge index >= 1) pair")
        for allow_boundary in (False, True):
            with pytest.raises(StagedTreeError, match=message):
                ParameterVector({key: 0.5, ("s", 2): 0.5}, allow_boundary=allow_boundary)

    def test_integer_edge_index_of_numpy_becomes_an_int(self):
        theta = ParameterVector({("s", np.int64(1)): 0.5, ("s", 2): 0.5})
        assert [type(j) for _, j in theta] == [int, int] and theta[("s", 1)] == 0.5

    def test_uniform_on_a_wide_star(self):
        # 36217 labels of 1/36217 add up, one after another, to 1 + 1.005e-12;
        # their correctly rounded sum is within SUM_TOL of 1
        t = star(36217)
        theta = ParameterVector.uniform(t)
        theta.validate_for(t)
        assert len(theta) == 36217

    def test_uniform(self, fig1b):
        theta = ParameterVector.uniform(fig1b)
        assert theta[("cyan", 1)] == 0.5
        assert len(theta) == 8  # 4 stages x 2 edges

    def test_validate_for_rejects_stage_not_in_tree(self, fig1a):
        vals = {**ParameterVector.uniform(fig1a), ("nosuch", 1): 0.5, ("nosuch", 2): 0.5}
        theta = ParameterVector(vals)
        message = r"edges not in the tree: \[\('nosuch', 1\), \('nosuch', 2\)\]"
        with pytest.raises(StagedTreeError, match=message):
            theta.validate_for(fig1a)
        with pytest.raises(StagedTreeError, match=message):
            distribution_from_labels(fig1a, theta)

    def test_validate_for_rejects_edge_index_above_kappa(self, fig1a):
        vals = {**ParameterVector.uniform(fig1a), ("cyan", 1): 0.3, ("cyan", 2): 0.3}
        theta = ParameterVector({**vals, ("cyan", 3): 0.4})
        message = r"edges not in the tree: \[\('cyan', 3\)\]"
        with pytest.raises(StagedTreeError, match=message):
            theta.validate_for(fig1a)
        with pytest.raises(StagedTreeError, match=message):
            distribution_from_labels(fig1a, theta)


class TestAtomProbability:
    def test_uniform_cube(self, example1):
        theta = ParameterVector.uniform(example1)
        for x in example1.atoms:
            assert atom_probability(example1, theta, x) == pytest.approx(0.125, abs=1e-15)

    def test_star_single_edge(self):
        t = star(4)
        theta = ParameterVector({(t.root, j): p for j, p in enumerate([0.1, 0.2, 0.3, 0.4], 1)})
        assert atom_probability(t, theta, t.atoms[2]) == pytest.approx(0.3, abs=1e-15)

    def test_fig1a_hand_product(self, fig1a):
        vals = {("cyan", 1): 0.6, ("cyan", 2): 0.4, ("v1", 1): 0.5, ("v1", 2): 0.5}
        for v in ["v4", "v5", "v6", "v7"]:
            vals[(v, 1)] = 0.7
            vals[(v, 2)] = 0.3
        theta = ParameterVector(vals)
        up = fig1a.atoms[0]
        assert atom_probability(fig1a, theta, up) == pytest.approx(0.5 * 0.6 * 0.7, rel=1e-14)

    def test_distribution_sums_to_one(self, rng):
        for _ in range(30):
            t = random_staged_tree(rng)
            theta = ParameterVector.random(t, rng)
            dist = distribution_from_labels(t, theta)
            assert abs(math.fsum(dist.values()) - 1.0) < 1e-12

    def test_boundary_labels_refused_with_zero_mass(self):
        t = star(3)
        theta = mle(t, AtomTable(t, [3, 0, 1]))
        assert theta[("r", 2)] == 0.0
        for fn in (distribution_from_labels, natural_parameters):
            with pytest.raises(ZeroMass, match=r"label theta\[r,2\] is 0"):
                fn(t, theta)

    def test_a_zero_label_on_the_path_gives_probability_zero(self):
        t = product_tree([2])
        theta = ParameterVector({("v_root", 1): 0.0, ("v_root", 2): 1.0}, allow_boundary=True)
        zero, one = t.atoms
        assert atom_probability(t, theta, zero) == 0.0
        assert log_atom_probability(t, theta, zero) == -math.inf
        assert atom_probability(t, theta, one) == 1.0
        assert log_atom_probability(t, theta, one) == 0.0

    @pytest.mark.parametrize("fn", [atom_probability, log_atom_probability])
    def test_a_label_theta_lacks_is_refused(self, fn):
        t = product_tree([2])
        theta = ParameterVector({("other", 1): 0.5, ("other", 2): 0.5})
        with pytest.raises(StagedTreeError, match=r"lacks the label theta\[v_root,1\]"):
            fn(t, theta, t.atoms[0])

    def test_underflowing_atom_refused_with_zero_mass(self):
        # 2**-1074 is the smallest positive double; 2**-1075 rounds to 0
        t = caterpillar(1074)
        dist = distribution_from_labels(t, ParameterVector.uniform(t))
        assert dist[t.atoms[-1]] == 2.0**-1074
        t = caterpillar(1100)
        with pytest.raises(ZeroMass, match="leaf 'l1075' .* below the smallest positive double"):
            distribution_from_labels(t, ParameterVector.uniform(t))


class TestLabelsFromDistribution:
    def test_star_identity(self):
        t = star(2)
        p = dict(zip(t.atoms, [0.25, 0.75]))
        theta = labels_from_distribution(t, p)
        assert theta[(t.root, 1)] == pytest.approx(0.25, abs=1e-15)

    def test_uniform_gives_half_labels(self, example1):
        p = dict(zip(example1.atoms, [0.125] * 8))
        theta = labels_from_distribution(example1, p)
        assert all(v == pytest.approx(0.5, abs=1e-14) for v in theta.values())

    def test_depth_two_hand_fractions(self):
        t = StagedTree({"v1": ["v2", "v3"], "v2": ["a", "b"], "v3": ["c", "d"]})
        p = dict(zip(t.atoms, [0.1, 0.2, 0.3, 0.4]))
        theta = labels_from_distribution(t, p)
        assert theta[("v1", 1)] == pytest.approx(0.3)
        assert theta[("v1", 2)] == pytest.approx(0.7)
        assert theta[("v2", 1)] == pytest.approx(1 / 3)
        assert theta[("v3", 1)] == pytest.approx(3 / 7)

    def test_zero_mass_rejected(self):
        t = star(3)
        p = dict(zip(t.atoms, [0.5, 0.5, 0.0]))
        with pytest.raises(ZeroMass):
            labels_from_distribution(t, p)

    def test_negative_mass_rejected_as_zero_mass(self):
        t = star(2)
        with pytest.raises(ZeroMass, match="atom at leaf 'e1' has mass -0.5, not a positive"):
            labels_from_distribution(t, dict(zip(t.atoms, [-0.5, 1.5])))

    def test_a_missing_atom_is_refused(self):
        t = product_tree([2])
        with pytest.raises(StagedTreeError, match="atom at leaf 'v_1' has mass None, not a"):
            labels_from_distribution(t, {t.atoms[0]: 1.0})

    @pytest.mark.parametrize("mass", ["0.5", None, math.nan, math.inf, True], ids=repr)
    def test_a_mass_that_is_no_positive_real_is_refused(self, mass):
        t = product_tree([2])
        message = re.escape(f"atom at leaf 'v_0' has mass {mass!r}, not a positive number")
        with pytest.raises(StagedTreeError, match=message) as info:
            labels_from_distribution(t, {t.atoms[0]: mass, t.atoms[1]: 0.5})
        assert info.type is StagedTreeError

    def test_nontrivial_staging_rejected(self, fig1a):
        p = dict(zip(fig1a.atoms, [0.125] * 8))
        with pytest.raises(NontrivialStaging):
            labels_from_distribution(fig1a, p)

    @given(
        raw=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=8, max_size=8)
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_on_cube(self, raw):
        t = StagedTree(
            {
                "v1": ["v2", "v3"],
                "v2": ["v4", "v5"],
                "v3": ["v6", "v7"],
                "v4": ["l1", "l2"],
                "v5": ["l3", "l4"],
                "v6": ["l5", "l6"],
                "v7": ["l7", "l8"],
            }
        )
        total = sum(raw)
        p = dict(zip(t.atoms, [r / total for r in raw]))
        theta = labels_from_distribution(t, p)
        back = distribution_from_labels(t, theta)
        for x in t.atoms:
            assert back[x] == pytest.approx(p[x], abs=1e-12)

    def test_roundtrip_random_trees(self, rng):
        for _ in range(20):
            t = random_staged_tree(rng, merge_prob=0.0)
            theta = ParameterVector.random(t, rng)
            dist = distribution_from_labels(t, theta)
            theta2 = labels_from_distribution(t, dict(dist))
            for key in theta:
                assert theta2[key] == pytest.approx(theta[key], abs=1e-12)


class TestDimensions:
    def test_fig1a(self, fig1a):
        assert dimensions(fig1a) == (7, 6)

    def test_fig1b(self, fig1b):
        assert dimensions(fig1b) == (7, 4)

    def test_star(self):
        assert dimensions(star(6)) == (5, 5)

    def test_additive_over_stages(self, rng):
        for _ in range(30):
            t = random_staged_tree(rng)
            d0, d = dimensions(t)
            assert d == sum(kappa - 1 for kappa in t.stage_degrees.values())
            assert d <= d0
            assert (d == d0) == t.is_saturated()
