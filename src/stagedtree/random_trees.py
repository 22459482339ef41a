"""Random staged trees for fuzz tests."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .tree import StagedTree

if TYPE_CHECKING:
    import numpy as np


def random_tree_shape(
    rng: np.random.Generator,
    max_depth: int = 3,
    max_children: int = 3,
    leaf_prob: float = 0.35,
) -> dict[str, list[str]]:
    """Children map of a random tree; every vertex has 0 or >= 2 children."""
    children: dict[str, list[str]] = {}
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"w{counter[0]}"

    def grow(v: str, depth: int) -> None:
        if depth >= max_depth or (depth > 0 and rng.random() < leaf_prob):
            return
        kappa = int(rng.integers(2, max_children + 1))
        kids = [fresh() for _ in range(kappa)]
        children[v] = kids
        for c in kids:
            grow(c, depth + 1)

    grow("w0", 0)
    if "w0" not in children:  # root must be inner
        children["w0"] = [fresh(), fresh()]
    return children


def random_staging(
    tree: StagedTree, rng: np.random.Generator, merge_prob: float = 0.5
) -> StagedTree:
    """Random staging: merge vertices of equal out-degree with given probability."""
    stages: dict[str, str] = {}
    open_stages: dict[int, list[str]] = {}
    for v in tree.inner:
        kappa = tree.out_degree(v)
        pool = open_stages.setdefault(kappa, [])
        if pool and rng.random() < merge_prob:
            stages[v] = pool[int(rng.integers(len(pool)))]
        else:
            stages[v] = v
            pool.append(v)
    return tree.with_staging(stages)


def random_staged_tree(
    rng: np.random.Generator,
    max_depth: int = 3,
    max_children: int = 3,
    leaf_prob: float = 0.35,
    merge_prob: float = 0.5,
) -> StagedTree:
    shape = StagedTree(random_tree_shape(rng, max_depth, max_children, leaf_prob))
    return random_staging(shape, rng, merge_prob)
