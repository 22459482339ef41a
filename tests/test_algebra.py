import math
from collections import Counter

import pytest

from stagedtree import (
    FormalPolynomial,
    ParameterVector,
    check_np_identity,
    classify,
    constraint_matrix,
    dimensions,
    downward_monomials,
    interpolating_polynomials,
    is_balanced,
    is_regular,
    is_simple,
    natural_parameters,
    product_tree,
    stage_equations,
    star,
)
from stagedtree.random_trees import random_staged_tree


def poly(*monomials):
    return FormalPolynomial(Counter(tuple(sorted(m)) for m in monomials))


def eval_poly(p, xi):
    return sum(c * math.prod(xi.get(lbl, 1.0) for lbl in m) for m, c in p.terms.items())


class TestFormalPolynomial:
    def test_no_sum_to_one_simplification(self):
        # theta_s1 + theta_s2 stays a two-term sum, it never collapses to 1
        p = poly([("s", 1)], [("s", 2)])
        assert len(p) == 2

    def test_product_distributes(self):
        a = poly([("a", 1)], [("a", 2)])
        b = poly([("b", 1)], [("b", 2)])
        assert len(a * b) == 4

    def test_multiset_equality(self):
        assert poly([("a", 1), ("b", 1)]) == poly([("b", 1), ("a", 1)])
        assert poly([("a", 1)], [("a", 1)]) != poly([("a", 1)])


class TestInterpolatingPolynomial:
    def test_leaf_is_one(self, fig1b):
        assert interpolating_polynomials(fig1b)["l1"] == FormalPolynomial.one()

    def test_fig1b_red_vertex(self, fig1b):
        assert interpolating_polynomials(fig1b)["v4"] == poly([("red", 1)], [("red", 2)])

    def test_fig1b_v2_four_paths(self, fig1b):
        expected = poly(
            [("cyan", 1), ("red", 1)],
            [("cyan", 1), ("red", 2)],
            [("cyan", 2), ("green", 1)],
            [("cyan", 2), ("green", 2)],
        )
        assert interpolating_polynomials(fig1b)["v2"] == expected


class TestDownwardMonomial:
    def test_fig1b_root(self, fig1b):
        assert downward_monomials(fig1b)["v1"] == tuple(
            sorted([("v1", 2), ("cyan", 2), ("green", 2)])
        )

    def test_leaf_empty(self, fig1b):
        assert downward_monomials(fig1b)["l3"] == ()

    def test_star_root(self):
        t = star(4)
        assert downward_monomials(t)[t.root] == ((t.root, 4),)


class TestClassification:
    def test_fig1a_not_regular_with_witness(self, fig1a):
        ok, witnesses = is_regular(fig1a)
        assert not ok
        assert witnesses[0] == ("v2", "v3", 1)

    def test_fig1b_regular_balanced_simple(self, fig1b):
        assert is_regular(fig1b)[0]
        assert is_balanced(fig1b)
        assert is_simple(fig1b)

    def test_fig1a_not_balanced_not_simple(self, fig1a):
        assert not is_balanced(fig1a)
        assert not is_simple(fig1a)

    def test_trivial_staging_always_regular(self, example1):
        assert is_regular(example1) == (True, [])
        assert is_balanced(example1)
        assert is_simple(example1)

    def test_alternative_fig1b_stagings_balanced(self, example1):
        # staging v4~v5 and v6~v7 also gives a balanced and regular tree
        t = example1.with_staging(
            {"v2": "c", "v3": "c", "v4": "a", "v5": "a", "v6": "b", "v7": "b"}
        )
        assert is_balanced(t)
        assert is_regular(t)[0]

    def test_simple_implies_balanced_implies_regular(self, rng):
        for _ in range(400):
            t = random_staged_tree(rng)
            simple, balanced, regular = is_simple(t), is_balanced(t), is_regular(t)[0]
            if simple:
                assert balanced
            if balanced:
                assert regular

    def test_thirteen_binary_variables_with_two_staged_vertices(self):
        # t of each level-2 vertex has 2**11 terms over its own labels; the
        # fingerprints refute balance and simplicity without expanding them
        t = product_tree([2] * 13).with_staging({"v_0": "s", "v_1": "s"})
        report = classify(t)
        assert (report["regular"], report["balanced"], report["simple"]) == (False, False, False)
        assert report["witnesses"] == [("v_0", "v_1", 1)]


class TestConstraintMatrix:
    def test_fig1a_single_row(self, fig1a):
        cm = constraint_matrix(fig1a)
        assert len(cm.coords) == 7 and len(cm.rows) == 1
        assert cm.kernel_dimension() == 6
        (plus, minus), = cm.rows
        assert cm.coords[plus] == ("v2", 1) and cm.coords[minus] == ("v3", 1)

    def test_fig1b_three_rows(self, fig1b):
        cm = constraint_matrix(fig1b)
        assert len(cm.coords) == 7 and len(cm.rows) == 3
        assert cm.kernel_dimension() == 4

    def test_trivial_staging_no_rows(self, example1):
        cm = constraint_matrix(example1)
        assert len(cm.coords) == 7 and cm.rows == ()
        assert cm.kernel_dimension() == 7

    def test_entries_in_minus_one_zero_one(self, rng):
        # a row is +1 and -1 in two distinct columns, and zero elsewhere
        for _ in range(50):
            t = random_staged_tree(rng)
            cm = constraint_matrix(t)
            for plus, minus in cm.rows:
                assert 0 <= plus < len(cm.coords) and 0 <= minus < len(cm.coords)
                assert plus != minus

    def test_kernel_dimension_matches_free_parameters(self, rng):
        for _ in range(100):
            t = random_staged_tree(rng)
            _, d = dimensions(t)
            assert constraint_matrix(t).kernel_dimension() == d

    def test_vanishes_exactly_on_staged_parameters(self, rng):
        for _ in range(20):
            t = random_staged_tree(rng)
            cm = constraint_matrix(t)
            theta = ParameterVector.random(t, rng)
            staged_coords = [theta.label(t, v, j) for v, j in cm.coords]
            assert all(staged_coords[a] - staged_coords[b] == 0.0 for a, b in cm.rows)
            sat = ParameterVector.random(t.saturated(), rng)
            free_coords = [sat.label(t.saturated(), v, j) for v, j in cm.coords]
            if cm.rows:
                assert max(abs(free_coords[a] - free_coords[b]) for a, b in cm.rows) > 1e-6


class TestStageEquations:
    def test_fig1a_displayed_equation(self, fig1a):
        eq = next(e for e in stage_equations(fig1a) if e.j == 1)
        assert (eq.vi, eq.vs, eq.kappa) == ("v2", "v3", 2)
        assert eq.lhs_eta == ("v2", 1) and eq.rhs_eta == ("v3", 1)
        xi_plus_one = lambda v: poly([(v, 1)], [])
        assert eq.lhs_logs == (xi_plus_one("v4"), xi_plus_one("v7"))
        assert eq.rhs_logs == (xi_plus_one("v6"), xi_plus_one("v5"))
        assert not eq.linear

    def test_fig1a_pretty_form(self, fig1a):
        eq = next(e for e in stage_equations(fig1a) if e.j == 1)
        assert eq.pretty(fig1a) == (
            "eta2 + log(1 + xi4) + log(1 + xi7) = eta3 + log(1 + xi6) + log(1 + xi5)"
        )

    def test_fig1b_linear(self, fig1b):
        eqs = stage_equations(fig1b)
        assert all(e.linear for e in eqs)

    def test_regular_iff_all_flags_linear(self, rng):
        for _ in range(200):
            t = random_staged_tree(rng)
            regular, _ = is_regular(t)
            flags = [e.linear for e in stage_equations(t)]
            assert regular == all(flags)

    def test_numeric_residual_of_equations(self, rng):
        for _ in range(20):
            t = random_staged_tree(rng, merge_prob=0.7)
            theta = ParameterVector.random(t, rng)
            form = natural_parameters(t, theta)
            xi = {key: math.exp(val) for key, val in form.eta.items()}
            for eq in stage_equations(t):
                lhs = (0.0 if eq.lhs_eta is None else form.eta[eq.lhs_eta]) + sum(
                    math.log(eval_poly(p, xi)) for p in eq.lhs_logs
                )
                rhs = (0.0 if eq.rhs_eta is None else form.eta[eq.rhs_eta]) + sum(
                    math.log(eval_poly(p, xi)) for p in eq.rhs_logs
                )
                assert abs(lhs - rhs) < 1e-10

    def test_linear_flag_means_equal_etas(self, rng):
        # when the log terms cancel, the constraint is eta_ij = eta_sj
        hits = 0
        for _ in range(100):
            t = random_staged_tree(rng, merge_prob=0.7)
            eqs = [e for e in stage_equations(t) if e.linear and e.lhs_eta is not None]
            if not eqs:
                continue
            theta = ParameterVector.random(t, rng)
            form = natural_parameters(t, theta)
            for eq in eqs:
                hits += 1
                assert abs(form.eta[eq.lhs_eta] - form.eta[eq.rhs_eta]) < 1e-10
        assert hits > 0


class TestNPIdentity:
    def test_example1_uniform(self, example1):
        theta = ParameterVector.uniform(example1)
        assert check_np_identity(example1, theta) < 1e-12

    def test_star_analytic(self, rng):
        t = star(5)
        theta = ParameterVector.random(t, rng)
        assert check_np_identity(t, theta) < 1e-12

    def test_random_staged_trees(self, rng):
        for _ in range(100):
            t = random_staged_tree(rng)
            theta = ParameterVector.random(t, rng)
            assert check_np_identity(t, theta) < 1e-10


def verdict_flips(tree):
    """The one-stage downward changes (stage, edge) under which the regular
    or the balanced verdict differs from the tree's own.
    """
    base = (is_regular(tree)[0], is_balanced(tree))
    flips = []
    for s_id, kappa in tree.stage_degrees.items():
        for j in range(1, kappa + 1):
            if j != tree.downward[s_id]:
                alt = tree.with_staging(tree.stage_of, downward={**tree.downward, s_id: j})
                if (is_regular(alt)[0], is_balanced(alt)) != base:
                    flips.append((s_id, j))
    return flips


class TestDownwardInvarianceProbe:
    """Regularity and balance do not depend on the downward edges (the
    proofs are in the docstrings of is_regular and is_balanced).
    """

    def test_fig1b_choice_invariant(self, fig1b):
        assert verdict_flips(fig1b) == []

    def test_fig1a_choice_invariant(self, fig1a):
        assert verdict_flips(fig1a) == []

    def test_random_trees_show_no_flip(self, rng):
        found = []
        for _ in range(50):
            t = random_staged_tree(rng)
            found.extend(verdict_flips(t))
        assert found == []
