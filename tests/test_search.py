"""Differential tests of the closed-form stage-merge search.

``oracle_select_staging`` is the direct implementation the search replaced:
it rebuilds and refits a tree for every candidate merge.  The closed-form
search must agree with it on staging, trace and fit, except where two
candidate merges tie in exact arithmetic; there, both implementations order
the tied candidates by floating-point rounding, so the test checks that the
first step where they part is such a tie.
"""

import json
import math

import numpy as np
import pytest

from stagedtree import AtomTable, SearchConfig, StagedTree, bic, product_tree, select_staging
from stagedtree.errors import StagedTreeError, ZeroStageTraffic
from stagedtree.fit import MergeStep, SearchResult
from conftest import BINARY_GRAPH


# The depth map the search used before ``StagedTree.depth``, kept unchanged
# for the oracle.
def _depths(tree: StagedTree) -> dict[str, int]:
    depth = {tree.root: 0}
    for v in tree.vertices:
        for c in tree.children.get(v, ()):
            depth[c] = depth[v] + 1
    return depth


def oracle_select_staging(
    tree: StagedTree, table: AtomTable, config: SearchConfig = SearchConfig()
) -> SearchResult:
    """Greedy backward stage merging, scored by BIC.

    Starts from the trivial staging of the given tree graph and repeatedly
    applies the merge with the best (lowest) BIC, until no merge improves
    the score or ``max_merges`` is reached.  Ties break on the
    lexicographically smallest (depth, vertex-index) candidate pair, so the
    search is deterministic.
    """
    current = tree.saturated()
    table = AtomTable(current, table.counts)
    current_fit = bic(current, table, alpha=config.alpha)
    depth = _depths(current)
    trace: list[MergeStep] = []
    limit = config.max_merges if config.max_merges is not None else float("inf")

    while len(trace) < limit:
        best = None  # (bic, sort_key, merged_tree, fit, kept, absorbed)
        stages = current.stage_ids
        members = current.stage_members
        for a_pos, sa in enumerate(stages):
            for sb in stages[a_pos + 1 :]:
                if current.stage_degrees[sa] != current.stage_degrees[sb]:
                    continue
                if current.downward[sa] != current.downward[sb]:
                    continue
                if config.same_depth and depth[members[sa][0]] != depth[members[sb][0]]:
                    continue
                merged_stages = {
                    v: (sa if s == sb else s) for v, s in current.stage_of.items()
                }
                candidate = current.with_staging(merged_stages, downward=current.downward)
                try:
                    fit = bic(candidate, AtomTable(candidate, table.counts), config.alpha)
                except ZeroStageTraffic:
                    continue
                key = (
                    fit.bic,
                    depth[members[sa][0]],
                    current.index[members[sa][0]],
                    current.index[members[sb][0]],
                )
                if best is None or key < best[0]:
                    best = (key, candidate, fit, sa, sb)
        if best is None or best[2].bic >= current_fit.bic - 1e-12:
            break
        _, candidate, fit, kept, absorbed = best
        trace.append(
            MergeStep(kept=kept, absorbed=absorbed, bic_before=current_fit.bic, bic_after=fit.bic)
        )
        current, current_fit = candidate, fit

    return SearchResult(tree=current, fit=current_fit, trace=tuple(trace))


COMB = {"r": ["a", "b"], "a": ["c", "d"], "c": ["e", "f"]}
TREES = {
    "example1": lambda: StagedTree(BINARY_GRAPH),
    "comb": lambda: StagedTree(COMB),
    "binary3": lambda: product_tree([2] * 3),
    "binary4": lambda: product_tree([2] * 4),
    "binary5": lambda: product_tree([2] * 5),
    "ternary322": lambda: product_tree([3, 2, 2]),
}
SIZES = (20, 100, 1_000, 10_000)
CONFIGS = [
    SearchConfig(max_merges=m, same_depth=sd, alpha=a)
    for a in (0.0, 0.5)
    for sd in (True, False)
    for m in (None, 2)
]


def oracle_affordable(name: str, n_obs: int, config: SearchConfig) -> bool:
    """Whether the oracle runs on this case within the test's time budget.

    The oracle refits a tree per candidate, about 1 ms each on 5 binary
    variables.  There it runs at the benchmark's sample size only, and not
    the cross-depth search to the end (thousands of candidates, ~3 s each).
    """
    if name != "binary5":
        return True
    return n_obs == 10_000 and (config.same_depth or config.max_merges is not None)


# Relative tolerance for trace scores: the closed-form search accumulates
# one BIC difference per merge, the oracle refits, so they agree to rounding.
TRACE_RTOL = 1e-11
# Two merges whose refitted BICs agree this closely tie in exact arithmetic.
TIE_RTOL = 1e-9


def staged_counts(tree: StagedTree, n_obs: int, rng) -> list[int]:
    """Multinomial counts from a model with two label vectors per level.

    Vertices at one depth draw their labels from a pool of two Dirichlet
    vectors, so the data has stage structure for the search to recover.
    """
    depth = _depths(tree)
    pools = {}
    labels = {}
    for v in tree.inner:
        key = (depth[v], tree.out_degree(v))
        if key not in pools:
            pools[key] = [rng.dirichlet([2.0] * key[1]) for _ in range(2)]
        labels[v] = pools[key][rng.integers(2)]
    probs = [math.prod(labels[v][j - 1] for v, j in atom.steps) for atom in tree.atoms]
    probs = np.array(probs) / sum(probs)
    return [int(c) for c in rng.multinomial(n_obs, probs)]


def staging_after(tree: StagedTree, steps) -> dict[str, str]:
    stage_of = {v: v for v in tree.inner}
    for kept, absorbed in steps:
        stage_of = {v: (kept if s == absorbed else s) for v, s in stage_of.items()}
    return stage_of


def refit(tree: StagedTree, counts, alpha: float, steps) -> float:
    staged = tree.with_staging(staging_after(tree, steps))
    return bic(staged, AtomTable(staged, counts), alpha).bic


def pairs(result: SearchResult):
    return [(step.kept, step.absorbed) for step in result.trace]


def assert_same_or_tied(tree, counts, config, fast, slow) -> bool:
    """Assert agreement; return True when the results part at an exact tie."""
    fast_steps, slow_steps = pairs(fast), pairs(slow)
    if fast_steps == slow_steps:
        assert fast.tree.stage_of == slow.tree.stage_of
        assert fast.fit.as_dict() == slow.fit.as_dict()
        for a, b in zip(fast.trace, slow.trace):
            assert math.isclose(a.bic_before, b.bic_before, rel_tol=TRACE_RTOL)
            assert math.isclose(a.bic_after, b.bic_after, rel_tol=TRACE_RTOL)
        return False
    i = next(
        i for i, (a, b) in enumerate(zip(fast_steps + [None], slow_steps + [None])) if a != b
    )
    common = fast_steps[:i]
    # a missing step stands for stopping, scored as the current staging
    scores = [
        refit(tree.saturated(), counts, config.alpha, common + steps[i : i + 1])
        for steps in (fast_steps, slow_steps)
    ]
    assert math.isclose(scores[0], scores[1], rel_tol=TIE_RTOL), (
        f"step {i}: {fast_steps[i:i + 1]} scores {scores[0]!r}, "
        f"oracle's {slow_steps[i:i + 1]} scores {scores[1]!r}"
    )
    return True


def test_differential_against_oracle():
    rng = np.random.default_rng(20261017)
    cases = refused = tied = 0
    for name, make in TREES.items():
        tree = make()
        for n_obs in SIZES:
            counts = staged_counts(tree, n_obs, rng)
            table = AtomTable(tree, counts)
            for config in CONFIGS:
                if not oracle_affordable(name, n_obs, config):
                    continue
                cases += 1
                try:
                    slow = oracle_select_staging(tree, table, config)
                except ZeroStageTraffic:
                    with pytest.raises(ZeroStageTraffic):
                        select_staging(tree, table, config)
                    refused += 1
                    continue
                fast = select_staging(tree, table, config)
                tied += assert_same_or_tied(tree, counts, config, fast, slow)
    print(f"\n{cases} cases, {refused} refused by both, {tied} parted at an exact tie")
    assert refused < cases // 2
    assert tied <= cases // 20


def test_exact_tie_is_broken_by_vertex_index():
    # every depth-2 vertex uses one edge only: all merges there score the
    # same, and the smallest (depth, index) pair wins in both searches
    tree = StagedTree(BINARY_GRAPH)
    table = AtomTable(tree, [7, 0, 3, 0, 5, 0, 2, 0])
    fast = select_staging(tree, table)
    slow = oracle_select_staging(tree, table)
    assert pairs(fast) == pairs(slow)
    assert pairs(fast)[:3] == [("v4", "v5"), ("v4", "v6"), ("v4", "v7")]


def test_tie_check_accepts_only_exact_ties():
    tree = StagedTree(BINARY_GRAPH)
    counts = [7, 0, 3, 0, 5, 0, 2, 0]
    table = AtomTable(tree, counts)
    slow = oracle_select_staging(tree, table, SearchConfig(max_merges=1))
    tied = SearchResult(tree, slow.fit, (MergeStep("v6", "v7", 0.0, 0.0),))
    assert assert_same_or_tied(tree, counts, SearchConfig(), tied, slow)
    worse = SearchResult(tree, slow.fit, (MergeStep("v2", "v3", 0.0, 0.0),))
    with pytest.raises(AssertionError):
        assert_same_or_tied(tree, counts, SearchConfig(), worse, slow)


def test_search_builds_no_tree_per_candidate(monkeypatch):
    tree = product_tree([2] * 4)
    table = AtomTable(tree, staged_counts(tree, 1_000, np.random.default_rng(7)))
    calls = []
    set_stages = StagedTree._set_stages  # every tree is staged once, however it is built

    def counting(self, *args, **kwargs):
        calls.append(1)
        set_stages(self, *args, **kwargs)

    monkeypatch.setattr(StagedTree, "_set_stages", counting)
    result = select_staging(tree, table, SearchConfig(same_depth=False))
    assert len(result.trace) > 1
    assert len(calls) == 2  # the saturated tree and the result


@pytest.mark.parametrize("name", TREES)
def test_tree_depth_matches_oracle_depths(name):
    tree = TREES[name]()
    assert tree.depth == _depths(tree)


class TestSearchPairLimit:
    """A search whose groups hold over MAX_SEARCH_PAIRS candidate pairs is
    refused before any pair is scored.  product_tree([2] * 5) has
    0 + 1 + 6 + 28 + 120 = 155 pairs of same-depth stages.
    """

    TREE = product_tree([2] * 5)
    COUNTS = list(range(1, 33))

    def test_library_refuses_past_the_bound(self, monkeypatch):
        from stagedtree import fit
        table = AtomTable(self.TREE, self.COUNTS)
        monkeypatch.setattr(fit, "MAX_SEARCH_PAIRS", 155)
        assert select_staging(self.TREE, table).trace
        monkeypatch.setattr(fit, "MAX_SEARCH_PAIRS", 154)
        scored = []
        monkeypatch.setattr(fit, "_stage_loglik", lambda *a: scored.append(a) or 0.0)
        with pytest.raises(StagedTreeError,
                           match=r"^search would cache 155 candidate pairs, over 154$"):
            select_staging(self.TREE, table)
        # one log-likelihood per stage of the start, and no pair scored
        assert len(scored) == self.TREE.k
        # without same_depth every binary stage is in one group: 31 * 30 / 2 pairs
        monkeypatch.setattr(fit, "MAX_SEARCH_PAIRS", 464)
        with pytest.raises(StagedTreeError, match=r"^search would cache 465 candidate pairs"):
            select_staging(self.TREE, table, SearchConfig(same_depth=False))

    def test_cli_exits_2_past_the_bound(self, monkeypatch, capsys, tmp_path):
        from stagedtree import fit
        from stagedtree.cli import run
        tree, data = tmp_path / "tree.json", tmp_path / "counts.csv"
        tree.write_text(json.dumps(self.TREE.to_spec()))
        data.write_text("atom_id,count\n" + "".join(f"{i},{c}\n" for i, c in
                                                     enumerate(self.COUNTS, start=1)))
        argv = ["select", "--tree-graph", str(tree), "--data", str(data)]
        monkeypatch.setattr(fit, "MAX_SEARCH_PAIRS", 154)
        assert run(argv) == 2
        assert json.loads(capsys.readouterr().out) == {"error": {
            "type": "StagedTreeError",
            "message": "search would cache 155 candidate pairs, over 154",
        }}
        monkeypatch.setattr(fit, "MAX_SEARCH_PAIRS", 155)
        assert run(argv) == 0
        assert json.loads(capsys.readouterr().out)["trace"]

    def test_the_bound_refuses_twelve_binary_variables(self):
        # counted, not run: the sum over the levels of m(m - 1) / 2
        from stagedtree import fit
        count = {n: sum(2**d * (2**d - 1) // 2 for d in range(n)) for n in (5, 11, 12, 14)}
        assert count == {5: 155, 11: 698_027, 12: 2_794_155, 14: 44_731_051}
        assert count[11] <= fit.MAX_SEARCH_PAIRS < count[12]
