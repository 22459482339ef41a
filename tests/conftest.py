import json
import os
from pathlib import Path

import numpy as np
import pytest

from stagedtree import StagedTree

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"

BINARY_GRAPH = {
    "v1": ["v2", "v3"],
    "v2": ["v4", "v5"],
    "v3": ["v6", "v7"],
    "v4": ["l1", "l2"],
    "v5": ["l3", "l4"],
    "v6": ["l5", "l6"],
    "v7": ["l7", "l8"],
}


@pytest.fixture
def example1():
    """Saturated binary tree of depth three (the running example graph)."""
    return StagedTree(BINARY_GRAPH)


@pytest.fixture
def fig1a():
    """Collider staging: v2 and v3 share a stage, everything else singleton."""
    return StagedTree(BINARY_GRAPH, stages={"v2": "cyan", "v3": "cyan"})


@pytest.fixture
def fig1b():
    """Staging encoding X indep Y and Z indep X given Y."""
    return StagedTree(
        BINARY_GRAPH,
        stages={
            "v2": "cyan",
            "v3": "cyan",
            "v4": "red",
            "v6": "red",
            "v5": "green",
            "v7": "green",
        },
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260824)


def data_path(name: str) -> Path:
    return DATA / name


def load_json(name: str):
    return json.loads(data_path(name).read_text())


def src_env() -> dict:
    """This environment with the checkout's ``src`` first on PYTHONPATH, for
    the tests that run the package in a child process.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def caterpillar(depth: int) -> StagedTree:
    """Saturated binary tree whose vertex v_i has a leaf at edge 1 and
    v_{i+1} at edge 2, down to depth ``depth``; its deepest atoms have
    probability 2**-depth under uniform labels.
    """
    children = {f"v{i}": [f"l{i}", f"v{i + 1}"] for i in range(1, depth)}
    children[f"v{depth}"] = [f"l{depth}", f"l{depth + 1}"]
    return StagedTree(children)
