"""Seeded input generators for the benchmark.

Every input is a pure function of (workload, seed, op number), so two
commits replay the same operations in the same order.  This module must not
import ``stagedtree``: the inputs, and the facts the verifier checks them
against, come from here and from numpy alone.
"""

from __future__ import annotations

import itertools
import json
from math import prod

import numpy as np

WORKLOAD_IDS = {"select-5bin": 1, "check-bn6": 2, "fit-bn14": 3}

SELECT_VARS, SELECT_ROWS, SELECT_CPT_FLOOR = 5, 10_000, 0.2
# number of parents of each variable of each op's BN, cycled, so every run
# searches the same mix of true stagings (10 stages on average, as with
# unconstrained draws of at most 2 parents)
SELECT_CYCLE = ((0, 1, 2, 1, 2), (0, 0, 1, 2, 0), (0, 1, 0, 2, 1),
                (0, 1, 1, 1, 1), (0, 0, 2, 0, 2), (0, 1, 1, 0, 1))
# the stream of the sparse-data probe, apart from every op's
SPARSE_PROBE = 1 << 30
CHECK_VARS, CHECK_CARD = 6, 3
# (has an immorality, number of edges) of the DAG of each op, cycled: one
# op in three unfolds to a balanced tree (about 0.42 of unconstrained draws)
CHECK_CYCLE = ((True, 3), (True, 4), (False, 3), (True, 5), (True, 6), (False, 5))
FIT_VARS, FIT_ROWS, FIT_CPT_FLOOR = 14, 20_000, 0.1
# number of parents of each variable: 48 stages in every seed's tree
FIT_PARENTS = (0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1)


def rng_for(workload: str, seed: int, op: int) -> np.random.Generator:
    """Independent stream per (workload, seed, op)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(WORKLOAD_IDS[workload], op))
    return np.random.default_rng(ss)


# -- Bayesian networks --------------------------------------------------------


class BN:
    """A DAG over variables X0..X{m-1} in topological declaration order.

    ``parents[i]`` is sorted ascending; ``cpts[i]``, when drawn, has one row
    per parent configuration, row-major with the first parent most
    significant, which is the layout of the CLI's BN format.
    """

    def __init__(self, cards: list[int], parents: list[tuple[int, ...]], cpts):
        self.cards = cards
        self.parents = parents
        self.cpts = cpts

    def config_index(self, i: int, states) -> np.ndarray:
        """Row of var i's CPT for each state vector (last axis = variables)."""
        idx = np.zeros(np.shape(states)[:-1], dtype=np.int64)
        for p in self.parents[i]:
            idx = idx * self.cards[p] + np.asarray(states)[..., p]
        return idx

    def n_configs(self, i: int) -> int:
        return int(np.prod([self.cards[p] for p in self.parents[i]], dtype=np.int64))

    def stage_name(self, i: int, states) -> str:
        return f"X{i}|" + ",".join(f"X{p}={states[p]}" for p in self.parents[i])

    def to_spec(self) -> dict:
        """The CLI's BN description, without CPTs."""
        return {
            "variables": [{"name": f"X{i}", "card": c} for i, c in enumerate(self.cards)],
            "edges": [[f"X{p}", f"X{i}"] for i, pa in enumerate(self.parents) for p in pa],
        }


def random_bn(rng: np.random.Generator, m: int, card: int, max_parents: int,
              cpts: bool = True, floor: float = 0.0, n_parents=None) -> BN:
    """Random DAG with at most ``max_parents`` parents per variable.

    ``n_parents[i]``, when given, fixes how many parents variable i has;
    which earlier variables they are is still drawn.  CPT rows are
    ``floor + (1 - card * floor) * Dirichlet(1)``.
    """
    cards = [card] * m
    parents = []
    for i in range(m):
        if n_parents is None:
            k = int(rng.integers(0, min(i, max_parents) + 1))
        else:
            k = n_parents[i]
        parents.append(tuple(sorted(int(p) for p in rng.choice(i, size=k, replace=False))))
    bn = BN(cards, parents, None)
    if cpts:
        bn.cpts = [
            floor + (1.0 - card * floor) * rng.dirichlet(np.ones(card), size=bn.n_configs(i))
            for i in range(m)
        ]
    return bn


def sample_rows(rng: np.random.Generator, bn: BN, n_rows: int) -> np.ndarray:
    """Ancestral sampling; one row of 0-based states per observation."""
    m = len(bn.cards)
    rows = np.zeros((n_rows, m), dtype=np.int64)
    for i in range(m):
        cdf = np.cumsum(bn.cpts[i], axis=1)[bn.config_index(i, rows)]
        u = rng.random(n_rows)
        rows[:, i] = np.minimum((u[:, None] >= cdf).sum(axis=1), bn.cards[i] - 1)
    return rows


def rows_csv(rows: np.ndarray) -> bytes:
    header = ",".join(f"c{i}" for i in range(rows.shape[1]))
    body = "\n".join(",".join(map(str, r)) for r in rows.tolist())
    return (header + "\n" + body + "\n").encode()


# -- tree descriptions --------------------------------------------------------


def vertex_name(states) -> str:
    return "v_" + ".".join(map(str, states)) if len(states) else "v_root"


def product_tree_spec(cards: list[int], stage=None) -> dict:
    """Tree over the product state space, vertices named by their history.

    ``stage(level, states)`` names the stage of each inner vertex; without it
    every vertex is its own stage (the saturated tree).
    """
    vertices, stages = [], {}
    for level in range(len(cards)):
        for states in itertools.product(*(range(c) for c in cards[:level])):
            name = vertex_name(states)
            vertices.append(
                {"id": name, "children": [vertex_name(states + (s,)) for s in range(cards[level])]}
            )
            if stage is not None:
                stages[name] = stage(level, states)
    spec = {"vertices": vertices}
    if stage is not None:
        spec["stages"] = stages
    return spec


def bn_tree_spec(bn: BN) -> dict:
    """The staged tree a BN unfolds to in declaration order."""
    return product_tree_spec(bn.cards, bn.stage_name)


def bn_theta(bn: BN) -> dict:
    """Stage labels equal to the CPT rows, keyed by stage name."""
    theta = {}
    for i, pa in enumerate(bn.parents):
        configs = itertools.product(*(range(bn.cards[p]) for p in pa))  # CPT row order
        for row, config in zip(bn.cpts[i], configs):
            theta[bn.stage_name(i, dict(zip(pa, config)))] = row.tolist()
    return theta


def dumps(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode()


# -- workloads ----------------------------------------------------------------


class Op:
    """One CLI operation: its arguments, input files and verification facts.

    ``argv`` lists the subcommand arguments; ``{name}`` placeholders refer to
    the keys of ``files`` and are replaced by paths when the op is written
    out.  ``pipe_to``, when set, is a second subcommand that reads the first
    one's stdout.
    """

    def __init__(self, kind: str, argv: list[str], files: dict[str, bytes], facts: dict,
                 pipe_to: list[str] | None = None):
        self.kind = kind
        self.argv = argv
        self.files = files
        self.facts = facts
        self.pipe_to = pipe_to


def has_unvisited_vertex(rows: np.ndarray, cards: list[int]) -> bool:
    """True iff some inner vertex of the product tree has no row through it."""
    return any(
        len(np.unique(rows[:, :level], axis=0)) < prod(cards[:level])
        for level in range(1, rows.shape[1])
    )


class Session:
    """Ops on the same files, run one after another and timed as one operation.

    A user parametrizing and fitting one model issues these commands in
    turn; timing the whole session also keeps one run's median off the
    boundary between commands of different cost.
    """

    kind = "session"

    def __init__(self, parts: list[Op]):
        self.parts = parts
        self.files = parts[0].files
        self.facts = parts[0].facts


def select_op(seed: int, i: int) -> Op:
    """Rows of a BN whose CPT entries lie in [0.2, 0.8].

    The least likely inner vertex is then reached by at least 16 of the 10^4
    rows on average, and an op leaves one unvisited with probability below
    2 in 10^6 (such an op would be refused, checked and counted as failed).
    """
    rng = rng_for("select-5bin", seed, i)
    bn = random_bn(rng, SELECT_VARS, 2, max_parents=2, floor=SELECT_CPT_FLOOR,
                   n_parents=SELECT_CYCLE[i % len(SELECT_CYCLE)])
    return _select_op(bn, sample_rows(rng, bn, SELECT_ROWS))


def sparse_select_op(seed: int) -> Op:
    """The first unconstrained draw (Dirichlet(1) CPTs) that leaves an inner vertex unvisited.

    About one such draw in five does.  The CLI refuses these inputs with
    ``ZeroStageTraffic``; the benchmark runs one, untimed, as a probe.
    """
    rng = rng_for("select-5bin", seed, SPARSE_PROBE)
    while True:
        bn = random_bn(rng, SELECT_VARS, 2, max_parents=2)
        rows = sample_rows(rng, bn, SELECT_ROWS)
        if has_unvisited_vertex(rows, bn.cards):
            return _select_op(bn, rows)


def _select_op(bn: BN, rows: np.ndarray) -> Op:
    files = {
        "tree.json": dumps(product_tree_spec([2] * SELECT_VARS)),
        "rows.csv": rows_csv(rows),
    }
    return Op("select", ["select", "--tree-graph", "{tree.json}", "--data", "{rows.csv}"],
              files, {"rows": rows, "cards": [2] * SELECT_VARS, "bn": bn})


def has_immorality(bn: BN) -> bool:
    """True iff some variable has two parents that are not adjacent."""
    return any(
        a not in bn.parents[b] and b not in bn.parents[a]
        for pa in bn.parents
        for a, b in itertools.combinations(pa, 2)
    )


def check_op(seed: int, i: int) -> Op:
    """A random DAG with the immorality flag and edge count of slot i of CHECK_CYCLE.

    Both properties drive classification time.  In this family the DAGs
    without an immorality unfold to balanced (and regular) trees and those
    with one do not, on every draw classified while sizing the workload, and
    balanced trees take several times longer to classify; fewer edges mean
    larger stages and slower checks.  Left to chance, their mix in a run
    swings with the seed and moves the run's median and p90 with it; the
    fixed cycle keeps the mix the same in every run.  DAGs are drawn until
    one has the slot's properties.
    """
    rng = rng_for("check-bn6", seed, i)
    want = CHECK_CYCLE[i % len(CHECK_CYCLE)]
    while True:
        bn = random_bn(rng, CHECK_VARS, CHECK_CARD, max_parents=2, cpts=False)
        if (has_immorality(bn), sum(map(len, bn.parents))) == want:
            break
    return Op("check", ["from-bn", "{net.json}"], {"net.json": dumps(bn.to_spec())},
              {"bn": bn}, pipe_to=["check", "-"])


def fit_session(seed: int) -> "Session":
    """inspect, expfam and fit, one after another, on one BN's unfolded tree."""
    rng = rng_for("fit-bn14", seed, 0)
    # CPT entries stay in [0.1, 0.9] so every stage is visited: this workload
    # measures one large fit, not the sparse-data refusal
    bn = random_bn(rng, FIT_VARS, 2, max_parents=3, floor=FIT_CPT_FLOOR, n_parents=FIT_PARENTS)
    rows = sample_rows(rng, bn, FIT_ROWS)
    files = {
        "tree.json": dumps(bn_tree_spec(bn)),
        "theta.json": dumps(bn_theta(bn)),
        "rows.csv": rows_csv(rows),
    }
    facts = {"bn": bn, "rows": rows, "sample_seed": seed}
    return Session([
        Op("inspect", ["inspect", "{tree.json}"], files, facts),
        Op("expfam", ["expfam", "{tree.json}", "--theta", "{theta.json}", "--symbolic"],
           files, facts),
        Op("fit", ["fit", "--tree", "{tree.json}", "--data", "{rows.csv}"], files, facts),
    ])


def op_stream(workload: str, seed: int):
    """Infinite, deterministic sequence of ops for a workload."""
    if workload == "fit-bn14":
        return itertools.repeat(fit_session(seed))
    make = {"select-5bin": select_op, "check-bn6": check_op}[workload]
    return (make(seed, i) for i in itertools.count())
