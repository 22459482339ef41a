import math
import re
from types import MappingProxyType

import numpy as np
import pytest

from stagedtree import (
    ParameterVector,
    StagedTree,
    atom_probability,
    check_np_identity,
    density_expform,
    natural_parameters,
    product_tree,
    star,
    statistic_layout,
    sufficient_statistic,
    symbolic_natural_parameters,
    theta_from_eta,
)
from stagedtree.errors import NontrivialStaging, StagedTreeError
from stagedtree.expfam import log_downward_products
from stagedtree.random_trees import random_staged_tree
from conftest import caterpillar


def half_labels(tree):
    return ParameterVector.uniform(tree)


def downward_products(tree, theta):
    """N_v for every vertex, as exp(log N_v)."""
    return {v: math.exp(lv) for v, lv in log_downward_products(tree, theta).items()}


class TestDownwardProducts:
    def test_example1_hand_recursion(self, example1):
        N = downward_products(example1, half_labels(example1))
        for v in ["v4", "v5", "v6", "v7"]:
            assert N[v] == pytest.approx(0.5)
        assert N["v2"] == pytest.approx(0.25)
        assert N["v3"] == pytest.approx(0.25)
        assert N["v1"] == pytest.approx(0.125)

    def test_leaves_are_one(self, example1):
        N = downward_products(example1, half_labels(example1))
        for leaf in example1.leaves:
            assert N[leaf] == 1.0

    def test_star_root(self):
        t = star(4)
        theta = ParameterVector({(t.root, j): p for j, p in enumerate([0.1, 0.2, 0.3, 0.4], 1)})
        N = downward_products(t, theta)
        assert N[t.root] == pytest.approx(0.4)

    def test_root_equals_all_downward_path_product(self, rng):
        for _ in range(20):
            t = random_staged_tree(rng)
            theta = ParameterVector.random(t, rng)
            N = downward_products(t, theta)
            prod, v = 1.0, t.root
            while not t.is_leaf(v):
                j = t.downward_edge(v)
                prod *= theta.label(t, v, j)
                v = t.child(v, j)
            assert N[t.root] == pytest.approx(prod, rel=1e-12)


class TestNaturalParameters:
    def test_uniform_example1(self, example1):
        form = natural_parameters(example1, half_labels(example1))
        assert all(abs(e) < 1e-14 for e in form.eta.values())
        assert form.psi == pytest.approx(math.log(8), abs=1e-12)

    def test_uniform_star(self):
        t = star(5)
        form = natural_parameters(t, half_labels(t))
        assert all(abs(e) < 1e-14 for e in form.eta.values())
        assert form.psi == pytest.approx(math.log(5))

    def test_psi_is_negative_log_downward_path(self, rng):
        for _ in range(20):
            t = random_staged_tree(rng)
            theta = ParameterVector.random(t, rng)
            form = natural_parameters(t, theta)
            logs, v = 0.0, t.root
            while not t.is_leaf(v):
                j = t.downward_edge(v)
                logs += math.log(theta.label(t, v, j))
                v = t.child(v, j)
            assert form.psi == pytest.approx(-logs, rel=1e-12)

    def test_symbolic_eta1_formula(self, example1):
        # eta_1 = log(t1 (1-t2)(1-t5) / ((1-t1)(1-t3)(1-t7)))
        num, den = symbolic_natural_parameters(example1)[("v1", 1)]
        assert sorted(num) == sorted([("v1", 1), ("v2", 2), ("v5", 2)])
        assert sorted(den) == sorted([("v1", 2), ("v3", 2), ("v7", 2)])

    def test_symbolic_leaf_level_is_logit(self, example1):
        num, den = symbolic_natural_parameters(example1)[("v4", 1)]
        assert num == (("v4", 1),)
        assert den == (("v4", 2),)


class TestSufficientStatistic:
    def test_layout_length_is_d0(self, example1):
        assert len(statistic_layout(example1)) == 7

    def test_all_downward_atom_is_zero_vector(self, example1):
        down = example1.atoms[-1]
        vec = sufficient_statistic(example1, down)
        assert vec == (0,) * 7

    def test_all_up_atom(self, example1):
        up = example1.atoms[0]
        vec = sufficient_statistic(example1, up)
        layout = statistic_layout(example1)
        assert type(vec) is tuple and set(vec) == {0, 1}
        ones = {key for key, x in zip(layout, vec, strict=True) if x}
        assert ones == {("v1", 1), ("v2", 1), ("v4", 1)}

    def test_star_unit_vectors(self):
        t = star(4)
        for r, atom in enumerate(t.atoms[:-1]):
            vec = sufficient_statistic(t, atom)
            assert vec == tuple(int(i == r) for i in range(3))


class TestDensityExpform:
    def test_uniform_example1(self, example1):
        theta = half_labels(example1)
        for x in example1.atoms:
            assert density_expform(example1, theta, x) == pytest.approx(0.125, rel=1e-12)

    def test_star_cancellation(self):
        t = star(4)
        theta = ParameterVector({(t.root, j): p for j, p in enumerate([0.1, 0.2, 0.3, 0.4], 1)})
        for j, x in enumerate(t.atoms, start=1):
            assert density_expform(t, theta, x) == pytest.approx(theta[(t.root, j)], rel=1e-12)

    def test_matches_product_formula(self, rng):
        for _ in range(40):
            t = random_staged_tree(rng)
            theta = ParameterVector.random(t, rng)
            for x in t.atoms:
                a = atom_probability(t, theta, x)
                b = density_expform(t, theta, x)
                assert abs(math.log(a) - math.log(b)) < 1e-10

    def test_normalization(self, rng):
        for _ in range(20):
            t = random_staged_tree(rng)
            theta = ParameterVector.random(t, rng)
            total = math.fsum(density_expform(t, theta, x) for x in t.atoms)
            assert abs(total - 1.0) < 1e-10


class TestLogSpaceFold:
    """At depth 1100, exp(eta) overflows and 2**-1100 underflows a double."""

    @pytest.fixture(params=["uniform", "random"])
    def deep(self, request):
        tree = caterpillar(1100)
        if request.param == "uniform":
            return tree, ParameterVector.uniform(tree)
        return tree, ParameterVector.random(tree, np.random.default_rng(1100))

    def test_np_identity_holds(self, deep):
        tree, theta = deep
        assert check_np_identity(tree, theta) < 1e-10

    def test_eta_round_trips_to_the_labels(self, deep):
        tree, theta = deep
        back = theta_from_eta(tree, natural_parameters(tree, theta).eta)
        assert back.keys() == theta.keys()
        for key, p in theta.items():
            assert back[key] == pytest.approx(p, abs=1e-9)


class TestThetaFromEta:
    def test_zero_eta_gives_half_labels(self, example1):
        theta = theta_from_eta(example1, [0.0] * 7)
        assert all(v == pytest.approx(0.5, abs=1e-12) for v in theta.values())

    def test_star_hand_inverse(self):
        t = star(4)
        theta = theta_from_eta(t, [math.log(2), 0.0, 0.0])
        expected = [0.4, 0.2, 0.2, 0.2]
        for j, e in enumerate(expected, start=1):
            assert theta[(t.root, j)] == pytest.approx(e, abs=1e-12)

    def test_roundtrip_random_saturated(self, rng):
        for _ in range(25):
            t = random_staged_tree(rng, merge_prob=0.0)
            theta = ParameterVector.random(t, rng)
            form = natural_parameters(t, theta)
            theta2 = theta_from_eta(t, [form.eta[key] for key in form.layout])
            for key in theta:
                assert theta2[key] == pytest.approx(theta[key], abs=1e-9)

    def test_eta_roundtrips_forward(self, rng):
        for _ in range(10):
            t = random_staged_tree(rng, merge_prob=0.0)
            eta = rng.normal(size=len(statistic_layout(t)))
            theta = theta_from_eta(t, eta)
            form = natural_parameters(t, theta)
            back = [form.eta[key] for key in form.layout]
            assert max(abs(b - e) for b, e in zip(back, eta, strict=True)) < 1e-9

    def test_requires_saturated(self, fig1a):
        with pytest.raises(NontrivialStaging):
            theta_from_eta(fig1a, [0.0] * 7)

    def test_vector_of_wrong_length_rejected(self, example1):
        with pytest.raises(StagedTreeError, match="expected 7 natural parameters, got 6"):
            theta_from_eta(example1, [0.0] * 6)

    def test_empty_mapping_rejected(self):
        with pytest.raises(StagedTreeError, match="statistic layout"):
            theta_from_eta(product_tree([2, 2]), {})

    def test_downward_edge_key_rejected(self):
        # (v_root, 2) is the root's downward edge, which has no natural parameter
        with pytest.raises(StagedTreeError, match="statistic layout"):
            theta_from_eta(product_tree([2, 2]), {("v_root", 2): 3.0})

    def test_any_mapping_is_read_by_key(self):
        t = product_tree([2, 2])
        eta = {("v_root", 1): 0.5, ("v_0", 1): -1.0, ("v_1", 1): 2.0}
        expected = theta_from_eta(t, [eta[key] for key in statistic_layout(t)])
        assert dict(theta_from_eta(t, MappingProxyType(eta))) == dict(expected)

    def test_string_entry_of_a_mapping_rejected(self):
        with pytest.raises(StagedTreeError, match=r"eta\[r,1\]='x' is not a finite number"):
            theta_from_eta(star(3), {("r", 1): "x", ("r", 2): 0.0})

    def test_string_as_vector_rejected(self):
        with pytest.raises(StagedTreeError, match=r"eta\[r,1\]='a' is not a finite number"):
            theta_from_eta(star(3), "ab")

    def test_non_iterable_rejected(self):
        with pytest.raises(StagedTreeError, match="mapping or a sequence, got 1.0"):
            theta_from_eta(star(3), 1.0)

    @pytest.mark.parametrize(
        "tree, eta, vertex, given",
        [
            (star(2), [40.0], "r", "eta[r,1]=40.0"),
            (star(2), [-40.0], "r", "eta[r,1]=-40.0"),
            (star(3), [800, 0], "r", "eta[r,1]=800, eta[r,2]=0"),
            # labels about 0.0, 0.5 and 0.5: one rounds to 0, none to 1
            (star(3), [-800, 0], "r", "eta[r,1]=-800, eta[r,2]=0"),
            (product_tree([2, 2]), [0.0, 40.0, 40.0], "v_0", "eta[v_0,1]=40.0"),
            # P(xi) of the child at the root's downward edge is 1 + exp(40)
            (product_tree([2, 2]), [0.0, 0.0, 40.0], "v_root", "eta[v_root,1]=0.0"),
        ],
        ids=["star2+40", "star2-40", "star3+800", "star3-800", "inner", "above"],
    )
    def test_labels_that_round_to_the_boundary_are_refused(self, tree, eta, vertex, given):
        message = (
            f"the labels at vertex {vertex!r} round to the boundary 0 or 1 in double"
            f" precision (its eta: {given})"
        )
        with pytest.raises(StagedTreeError, match=f"^{re.escape(message)}$"):
            theta_from_eta(tree, eta)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, None])
    def test_entry_that_is_no_finite_real_rejected(self, bad):
        with pytest.raises(StagedTreeError, match=r"eta\[r,2\]=.* is not a finite number"):
            theta_from_eta(star(3), [0.5, bad])


class TestStarForm:
    """The classical multinomial form: on a star with downward edge k,
    eta_r = log(theta_r / theta_k) and psi = -log theta_k.
    """

    def test_binary_logit(self):
        t = star(2)
        p = 0.3
        theta = ParameterVector({(t.root, 1): p, (t.root, 2): 1 - p})
        form = natural_parameters(t, theta)
        assert form.eta[(t.root, 1)] == pytest.approx(math.log(p / (1 - p)))
        assert form.psi == pytest.approx(-math.log(1 - p))

    def test_uniform_is_zero(self):
        t = star(6)
        assert all(abs(e) < 1e-14 for e in natural_parameters(t, half_labels(t)).eta.values())

    def test_hand_values_n4(self):
        t = star(4)
        theta = ParameterVector({(t.root, j): p for j, p in enumerate([0.1, 0.2, 0.3, 0.4], 1)})
        form = natural_parameters(t, theta)
        assert list(form.eta) == list(form.layout)
        eta = list(form.eta.values())
        assert eta[0] == pytest.approx(math.log(0.25))
        assert eta[1] == pytest.approx(math.log(0.5))
        assert eta[2] == pytest.approx(math.log(0.75))
        assert form.psi == pytest.approx(-math.log(0.4))

    def test_first_edge_downward(self):
        t = StagedTree({"r": ["a", "b", "c"]}, downward={"r": 1})
        theta = ParameterVector({("r", 1): 0.2, ("r", 2): 0.3, ("r", 3): 0.5})
        form = natural_parameters(t, theta)
        assert form.layout == (("r", 2), ("r", 3))
        assert form.eta[("r", 2)] == pytest.approx(math.log(1.5), abs=1e-15)
        assert form.eta[("r", 3)] == pytest.approx(math.log(2.5), abs=1e-15)
        assert form.psi == pytest.approx(-math.log(0.2), abs=1e-15)
