import io
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from stagedtree import (
    AtomTable,
    ParameterVector,
    SearchConfig,
    bic,
    distribution_from_labels,
    ingest_csv,
    log_likelihood,
    mle,
    product_tree,
    select_staging,
    star,
)
from stagedtree import StagedTree
from stagedtree.errors import (
    RowDoesNotReachLeaf,
    StagedTreeError,
    UnknownCategory,
    ZeroStageTraffic,
)
from stagedtree.fit import table_from_rows
from stagedtree.random_trees import random_staged_tree
from conftest import data_path


def csv_table(text, tree, levels=None):
    return ingest_csv(io.StringIO(text), tree, levels)


# r -> a, b, c, each with three leaves; both texts put 2 on atom 1 and 1 on atom 2
BOM_LAYOUTS = {
    "counts": ("atom_id,count\n1,2\n2,1\n", None),
    "levels": ("L1,L2\nx,q\nx,p\nx,p\n", {"L1": ["x", "y", "z"], "L2": ["p", "q", "s"]}),
}


class TestIngest:
    def test_path_rows_on_fig1a(self, fig1a):
        table = ingest_csv(str(data_path("xyz_rows.csv")), fig1a)
        assert table.n_obs == 4
        assert len(table.counts) == 8

    def test_row_maps_to_expected_atom(self, fig1a):
        table = csv_table("X,Y,Z\n0,0,0\n", fig1a)
        assert table.counts[0] == 1 and sum(table.counts) == 1

    def test_atom_id_format(self, fig1a):
        table = ingest_csv(str(data_path("atom_counts.csv")), fig1a)
        assert list(table.counts) == [5, 3, 2, 1, 4, 0, 6, 9]

    def test_unknown_category(self, fig1a):
        with pytest.raises(UnknownCategory):
            csv_table("X,Y,Z\n0,maybe,1\n", fig1a)

    def test_out_of_range_state(self, fig1a):
        with pytest.raises(UnknownCategory):
            csv_table("X,Y,Z\n0,2,1\n", fig1a)

    def test_named_levels(self, fig1a):
        table = csv_table(
            "X,Y,Z\nno,no,yes\n",
            fig1a,
            levels={"X": ["no", "yes"], "Y": ["no", "yes"], "Z": ["no", "yes"]},
        )
        assert table.counts[1] == 1

    def test_short_row_rejected(self, fig1a):
        with pytest.raises(RowDoesNotReachLeaf):
            csv_table("X,Y,Z\n0,0,\n", fig1a)

    @pytest.mark.parametrize("layout", BOM_LAYOUTS)
    @pytest.mark.parametrize("source", ["file", "stream"])
    def test_a_leading_bom_is_dropped(self, tmp_path, layout, source):
        # as a spreadsheet's "CSV UTF-8" export writes it, from a path and from a text
        # stream such as stdin
        text, levels = BOM_LAYOUTS[layout]
        tree = StagedTree({"r": ["a", "b", "c"], **{v: [v + i for i in "012"] for v in "abc"}})
        data = ("\ufeff" + text).encode("utf-8")
        if source == "file":
            path = tmp_path / "data.csv"
            path.write_bytes(data)
            table = ingest_csv(str(path), tree, levels)
        else:
            table = ingest_csv(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"), tree, levels)
        assert table.counts == csv_table(text, tree, levels).counts == (2, 1) + (0,) * 7

    @pytest.mark.parametrize(
        "text, width",
        [("X,Y,Z\n0,0,0,1\n", 3), ("X,Y,Z\n0,1,1\n1,0,0,, 1\n", 3), ("X,Y\n0,0,0\n", 2)],
        ids=["fourth-cell", "fifth-cell", "past-a-short-header"],
    )
    def test_a_cell_past_the_header_is_refused(self, fig1a, text, width):
        # zip stopped at the header's last column, so the cell was dropped unread
        with pytest.raises(RowDoesNotReachLeaf, match=rf"\] has a cell past column {width}$"):
            csv_table(text, fig1a)

    def test_empty_cells_past_the_header_are_accepted(self, fig1a):
        table = csv_table("X,Y,Z\n0,0,0,\n0,1,1, ,\n", fig1a)
        assert table.counts == csv_table("X,Y,Z\n0,0,0\n0,1,1\n", fig1a).counts

    def test_empty_trailing_cells_of_atom_counts_are_accepted(self, fig1a):
        # the row layout reads empty trailing cells too
        table = csv_table("atom_id,count\n1,5,\n2,3, , \n", fig1a)
        assert table.counts == csv_table("atom_id,count\n1,5\n2,3\n", fig1a).counts
        message = re.escape("line 2: expected two integers 'atom_id,count', got ['1', '5', '', '7']")
        with pytest.raises(StagedTreeError, match=message):
            csv_table("atom_id,count\n1,5,,7\n", fig1a)

    def test_category_outside_the_levels_refused(self, fig1a):
        levels = {"X": ["no", "yes"], "Y": ["no", "yes"], "Z": ["no", "yes"]}
        with pytest.raises(UnknownCategory) as err:
            csv_table("X,Y,Z\nno,maybe,yes\n", fig1a, levels=levels)
        assert str(err.value) == "category 'maybe' not among ['no', 'yes']"

    def test_blank_lines_of_atom_counts_are_skipped(self, fig1a):
        table = csv_table("atom_id,count\n1,5\n\n,\n2,3\n", fig1a)
        assert table.counts == (5, 3) + (0,) * 6

    @pytest.mark.parametrize("atom_id", [0, 9])
    def test_atom_id_out_of_range_refused(self, fig1a, atom_id):
        with pytest.raises(StagedTreeError) as err:
            csv_table(f"atom_id,count\n1,5\n{atom_id},3\n", fig1a)
        assert type(err.value) is StagedTreeError
        assert str(err.value) == f"atom_id {atom_id} out of range 1..8"

    def test_table_from_rows_refuses_a_state_past_the_depth(self, example1):
        message = r"row \['0', '0', '0', '1'\] has a cell past column 3"
        with pytest.raises(RowDoesNotReachLeaf, match=message):
            table_from_rows(example1, [[0, 0, 0, 1], [0, 1, 1]])
        table = table_from_rows(example1, [[0, 0, 0, None], [0, 1, 1]])
        assert table.counts == (1, 0, 0, 1, 0, 0, 0, 0)

    def test_ragged_tree_rows(self):
        # left branch is a leaf at depth one, right branch goes deeper
        t = StagedTree({"r": ["a", "b"], "b": ["c", "d"]})
        table = csv_table("c0,c1\n0,\n1,0\n1,1\n1,1\n", t)
        assert list(table.counts) == [1, 1, 2]


class TestAtomTable:
    @pytest.mark.parametrize("counts", [[2.5, 1.9], [2.0, 1], [True, 1], ["2", 1]], ids=str)
    def test_non_integer_counts_rejected(self, counts):
        with pytest.raises(StagedTreeError, match="atom counts must be integers"):
            AtomTable(star(2), counts)

    @pytest.mark.parametrize(
        "counts, message",
        [([1, 2], "expected 3 counts, got 2"), ([1, -2, 3], "atom counts must be non-negative")],
        ids=["wrong-length", "negative"],
    )
    def test_malformed_counts_refused(self, counts, message):
        with pytest.raises(StagedTreeError) as err:
            AtomTable(star(3), counts)
        assert type(err.value) is StagedTreeError and str(err.value) == message

    def test_count_looks_up_the_atom_position(self, fig1a):
        table = AtomTable(fig1a, range(10, 18))
        assert [table.count(x) for x in fig1a.atoms] == list(range(10, 18))

    @pytest.mark.parametrize(
        "fn",
        [
            mle,
            lambda t, table: log_likelihood(t, ParameterVector.uniform(t), table),
            bic,
            select_staging,
        ],
        ids=["mle", "log_likelihood", "bic", "select_staging"],
    )
    @pytest.mark.parametrize("n_tree, n_table", [(3, 2), (2, 3)], ids=["short", "long"])
    def test_table_of_another_tree_rejected(self, fn, n_tree, n_table):
        table = AtomTable(star(n_table), range(1, n_table + 1))
        with pytest.raises(
            StagedTreeError,
            match=rf"^expected {n_tree} leaf values, one per atom, got {n_table}$",
        ):
            fn(star(n_tree), table)

    def test_counts_must_total_at_most_two_to_the_53(self):
        # every count and every partial total stays exact in a double
        assert AtomTable(star(2), [2**52, 2**52]).n_obs == 2**53
        message = rf"^atom counts total {2**53 + 1}, over 2\*\*53$"
        with pytest.raises(StagedTreeError, match=message):
            AtomTable(star(2), [2**52, 2**52 + 1])
        # str() writes no more than 4300 digits
        with pytest.raises(StagedTreeError, match=r"^atom counts total 10\*\*4300 or more, over"):
            AtomTable(star(2), [10**4300, 10**4300])

    def test_numpy_integer_counts_become_ints(self):
        table = AtomTable(star(2), np.array([3, 4], dtype=np.int64))
        assert table.counts == (3, 4)
        assert all(type(c) is int for c in table.counts)


class TestMLE:
    def test_star_boundary_estimate(self):
        t = star(4)
        theta = mle(t, AtomTable(t, [3, 1, 0, 0]))
        assert theta[(t.root, 1)] == pytest.approx(0.75)
        assert theta[(t.root, 3)] == 0.0
        assert theta.is_boundary()

    def test_fig1a_pooled_counts(self, fig1a):
        # v2 takes edge 1 on 3 of 4 visits, v3 on 1 of 4: pooled (3+1)/(4+4)
        rows = ["0,0,0"] * 3 + ["0,1,0"] + ["1,0,0"] + ["1,1,0"] * 3
        table = csv_table("X,Y,Z\n" + "\n".join(rows) + "\n", fig1a)
        theta = mle(fig1a, table, alpha=1.0)  # smoothing for unvisited Z stages
        pooled = (3 + 1 + 1.0) / (4 + 4 + 2.0)
        assert theta[("cyan", 1)] == pytest.approx(pooled)

    def test_uniform_counts_give_uniform_labels(self, fig1b):
        table = AtomTable(fig1b, [2] * 8)
        theta = mle(fig1b, table)
        assert all(p == pytest.approx(0.5) for p in theta.values())

    def test_zero_stage_traffic(self, fig1a):
        table = csv_table("X,Y,Z\n0,0,0\n", fig1a)  # v3 subtree never visited
        with pytest.raises(ZeroStageTraffic):
            mle(fig1a, table)

    def test_smoothing_avoids_boundary(self):
        t = star(4)
        theta = mle(t, AtomTable(t, [3, 1, 0, 0]), alpha=0.5)
        assert not theta.is_boundary()
        assert theta[(t.root, 1)] == pytest.approx(3.5 / 6)

    def test_brute_force_optimality(self, rng):
        for _ in range(5):
            t = random_staged_tree(rng, max_depth=2, max_children=3)
            if t.n > 12:
                continue
            counts = rng.multinomial(25, np.ones(t.n) / t.n)
            table = AtomTable(t, counts)
            theta_hat = mle(t, table, alpha=1e-9)
            best = log_likelihood(t, theta_hat, table)
            for _ in range(200):
                theta = ParameterVector.random(t, rng)
                assert best >= log_likelihood(t, theta, table) - 1e-9

    def test_saturated_fit_matches_empirical_rationally(self, rng):
        # independent oracle in exact rational arithmetic
        for _ in range(10):
            t = random_staged_tree(rng, max_depth=2, max_children=3, merge_prob=0.0)
            counts = [int(c) for c in rng.integers(1, 6, size=t.n)]
            n_obs = sum(counts)
            visit = {v: Fraction(0) for v in t.vertices}
            edge = {}
            for atom, c in zip(t.atoms, counts):
                for v, j in atom.steps:
                    visit[v] += c
                    edge[(v, j)] = edge.get((v, j), Fraction(0)) + c
            for atom, c in zip(t.atoms, counts):
                prob = Fraction(1)
                for v, j in atom.steps:
                    prob *= edge[(v, j)] / visit[v]
                assert prob == Fraction(c, n_obs)
            # float implementation agrees within rounding
            theta_hat = mle(t, AtomTable(t, counts))
            dist = distribution_from_labels(t, theta_hat)
            for atom, c in zip(t.atoms, counts):
                assert dist[atom] == pytest.approx(c / n_obs, abs=1e-12)


class TestLogLikelihood:
    def test_single_observation(self, example1):
        theta = ParameterVector.uniform(example1)
        table = AtomTable(example1, [1] + [0] * 7)
        assert log_likelihood(example1, theta, table) == pytest.approx(math.log(0.125))

    def test_empty_table_is_zero(self, example1):
        theta = ParameterVector.uniform(example1)
        assert log_likelihood(example1, theta, AtomTable(example1, [0] * 8)) == 0.0

    def test_a_positive_count_on_a_zero_label_gives_minus_infinity(self):
        t = product_tree([2])
        theta = mle(t, AtomTable(t, [0, 3]))  # the labels 0 and 1
        assert log_likelihood(t, theta, AtomTable(t, [1, 1])) == -math.inf
        # a zero count on the zero label adds 0 * log 0 = 0
        assert log_likelihood(t, theta, AtomTable(t, [0, 2])) == 0.0

    def test_an_mle_fit_scored_on_new_data(self):
        t = star(3)
        theta = mle(t, AtomTable(t, [3, 0, 1]))
        assert log_likelihood(t, theta, AtomTable(t, [2, 1, 1])) == -math.inf
        expected = 2 * math.log(0.75) + math.log(0.25)
        assert log_likelihood(t, theta, AtomTable(t, [2, 0, 1])) == pytest.approx(expected)

    @pytest.mark.parametrize("counts", [[1, 1], [0, 0]], ids=str)
    def test_a_label_theta_lacks_is_refused(self, counts):
        t = product_tree([2])
        theta = ParameterVector({("other", 1): 0.5, ("other", 2): 0.5})
        with pytest.raises(StagedTreeError, match=r"lacks the label theta\[v_root,1\]"):
            log_likelihood(t, theta, AtomTable(t, counts))

    def test_saturated_mle_multinomial_identity(self, rng):
        t = star(6)
        counts = [4, 1, 2, 7, 3, 3]
        table = AtomTable(t, counts)
        theta = mle(t, table)
        expected = sum(c * math.log(c / 20) for c in counts)
        assert log_likelihood(t, theta, table) == pytest.approx(expected, rel=1e-12)


class TestBIC:
    def test_star_two_fixture(self):
        t = star(2)
        result = bic(t, AtomTable(t, [3, 1]))
        assert result.log_likelihood == pytest.approx(3 * math.log(0.75) + math.log(0.25))
        assert result.d == 1
        assert result.bic == pytest.approx(math.log(4) - 2 * result.log_likelihood)
        assert result.bic == pytest.approx(5.8850, abs=1e-3)

    def test_penalty_difference_fig1b(self, fig1b, example1):
        table = AtomTable(fig1b, [3, 1, 4, 1, 5, 9, 2, 6])
        staged = bic(fig1b, table)
        saturated = bic(example1, AtomTable(example1, table.counts))
        penalty_gap = (7 - 4) * math.log(table.n_obs)
        ll_gap = 2 * (saturated.log_likelihood - staged.log_likelihood)
        assert ll_gap >= -1e-12
        assert saturated.bic - staged.bic == pytest.approx(penalty_gap - ll_gap, abs=1e-10)

    def test_zero_count_table_errors(self, example1):
        empty = AtomTable(example1, [0] * 8)
        with pytest.raises(ZeroStageTraffic):
            mle(example1, empty)
        # BIC refuses the empty table as empty, before any stage's estimate
        for alpha in (0.0, 0.5):
            with pytest.raises(StagedTreeError, match="the table is empty") as caught:
                bic(example1, empty, alpha=alpha)
            assert caught.type is StagedTreeError


class TestSelect:
    def test_max_merges_zero_returns_saturated(self, example1):
        table = AtomTable(example1, [3, 1, 4, 1, 5, 9, 2, 6])
        result = select_staging(example1, table, SearchConfig(max_merges=0))
        assert result.tree.is_saturated()
        assert result.trace == ()

    def test_uniform_data_merges_each_level(self, example1):
        table = AtomTable(example1, [5] * 8)
        result = select_staging(example1, table)
        part = {}
        for v in result.tree.inner:
            part.setdefault(result.tree.stage_of[v], set()).add(v)
        groups = {frozenset(g) for g in part.values()}
        assert groups == {
            frozenset({"v1"}),
            frozenset({"v2", "v3"}),
            frozenset({"v4", "v5", "v6", "v7"}),
        }

    def test_fig1b_data_beats_saturated(self, fig1b, rng):
        vals = {("v1", 1): 0.3, ("v1", 2): 0.7, ("cyan", 1): 0.6, ("cyan", 2): 0.4,
                ("red", 1): 0.2, ("red", 2): 0.8, ("green", 1): 0.55, ("green", 2): 0.45}
        dist = distribution_from_labels(fig1b, ParameterVector(vals))
        counts = rng.multinomial(10_000, [dist[x] for x in fig1b.atoms])
        table = AtomTable(fig1b, counts)
        result = select_staging(fig1b, table)
        saturated = bic(fig1b.saturated(), AtomTable(fig1b.saturated(), counts))
        assert result.fit.bic <= saturated.bic
        assert all(step.delta < 0 for step in result.trace)

    def test_trace_deltas_match_scores(self, example1, rng):
        counts = rng.multinomial(500, np.ones(8) / 8)
        table = AtomTable(example1, counts)
        result = select_staging(example1, table)
        for before, after in zip(result.trace, result.trace[1:]):
            assert after.bic_before == pytest.approx(before.bic_after)
        if result.trace:
            assert result.trace[-1].bic_after == pytest.approx(result.fit.bic)

    def test_deterministic(self, example1, rng):
        counts = rng.multinomial(300, np.ones(8) / 8)
        table = AtomTable(example1, counts)
        r1 = select_staging(example1, table)
        r2 = select_staging(example1, table)
        assert r1.tree.stage_of == r2.tree.stage_of
        assert r1.fit.bic == r2.fit.bic

    def test_cross_depth_merge_allowed_by_config(self, rng):
        # a three-level binary comb where depth restriction matters
        t = StagedTree({"r": ["a", "b"], "a": ["c", "d"], "c": ["e", "f"]})
        counts = rng.multinomial(200, np.ones(4) / 4)
        table = AtomTable(t, counts)
        free = select_staging(t, table, SearchConfig(same_depth=False))
        constrained = select_staging(t, table, SearchConfig(same_depth=True))
        assert free.fit.bic <= constrained.fit.bic + 1e-9
