"""Metamorphic relations of the command line: changes to the input that the
paper's objects do not see must not change the output.

A staged tree is a rooted tree with ordered edges and a partition of its
inner vertices, and the edge counts are sufficient statistics.  So

* listing a tree description's ``vertices`` in another order leaves
  ``inspect``, ``expfam``, ``check`` and ``fit`` byte-identical;
* so does another JSON layout of the description: its fields and each
  entry's keys in another order, other whitespace, and its leaves listed,
  with empty ``children`` or none;
* renaming vertex and stage ids injectively maps ``check``'s witness and
  ``select``'s staging, trace and labels by the renaming, and changes no
  number (ties break on the BFS index, not on names);
* permuting the rows of a CSV leaves ``fit`` and ``select`` byte-identical;
* moving one stage's downward edge changes eta but not the density: for the
  same labels, ``density_expform`` agrees atom by atom;
* ``from-bn`` under a fixed ``--order`` gives the same bytes whatever order
  the BN lists its ``variables`` and ``edges`` in;
* the golden cases give the same bytes under several ``PYTHONHASHSEED``
  values.

They run in process on derandomized Hypothesis draws, as
``tests/test_cli.py::TestFuzz`` does, through ``cli.run`` where a command
exists; the density, which no command prints, through ``density_expform``.
"""

import json
import math
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stagedtree import ParameterVector, StagedTree, density_expform, natural_parameters
from stagedtree.cli import run
from stagedtree.tree import _read_description
from conftest import DATA, src_env
from test_golden import CASES, argv_for

SETTINGS = settings(max_examples=60, derandomize=True, deadline=None)


@st.composite
def staged_trees(draw):
    """A valid tree description of at most seven inner vertices, with stages
    shared at equal out-degree, some downward edges, and a seed for data.
    """
    leaves, children = ["v0"], {}
    for _ in range(draw(st.integers(1, 7))):
        v = leaves.pop(draw(st.integers(0, len(leaves) - 1)))
        children[v] = [f"v{len(children)}.{j}" for j in range(draw(st.integers(2, 3)))]
        leaves.extend(children[v])
    stages = {v: draw(st.sampled_from([v, f"s{len(cs)}"])) for v, cs in children.items()}
    downward = {}
    for v, cs in children.items():
        if draw(st.integers(0, 2)) == 0:
            downward[stages[v]] = draw(st.integers(1, len(cs)))
    spec = {"vertices": [{"id": v, "children": cs} for v, cs in children.items()],
            "stages": stages, "downward": downward}
    return spec, draw(st.integers(0, 2**32))


def rows_of(spec, seed, n: int = 40) -> list[list[str]]:
    """``n`` rows of 0-based states along random root-to-leaf paths, or with
    ``seed`` None every path once, padded with empty cells to the depth of
    the tree.
    """
    children = {e["id"]: e["children"] for e in spec["vertices"]}
    root = (children.keys() - {c for cs in children.values() for c in cs}).pop()

    def paths(v):
        if v not in children:
            return [[]]
        return [[str(j)] + p for j, c in enumerate(children[v]) for p in paths(c)]

    every = paths(root)
    width = max(map(len, every))
    if seed is not None:
        rng = random.Random(seed)
        every = [rng.choice(every) for _ in range(n)]
    return [row + [""] * (width - len(row)) for row in every]


def csv_text(rows) -> str:
    header = ",".join(f"c{i}" for i in range(len(rows[0])))
    return "\n".join([header] + [",".join(row) for row in rows]) + "\n"


class Runner:
    """cli.run on files in one directory, the output as bytes."""

    def __init__(self, path):
        self.path = path

    def write(self, name: str, content) -> str:
        target = self.path / name
        target.write_text(content if isinstance(content, str) else json.dumps(content))
        return str(target)

    def __call__(self, *argv) -> bytes:
        out = self.path / "out.json"
        code = run([*argv, "--output", str(out)])
        assert code in (0, 2), argv
        return out.read_bytes()


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    return Runner(tmp_path_factory.mktemp("metamorphic"))


def commands(runner, spec, rows):
    """The outputs of the tree commands and of fit, with and without smoothing,
    on a description or its text.
    """
    tree, data = runner.write("tree.json", spec), runner.write("rows.csv", csv_text(rows))
    return [
        runner("inspect", tree),
        runner("expfam", tree, "--symbolic"),
        runner("check", tree, "--equations", "json"),
        runner("fit", "--tree", tree, "--data", data),
        runner("fit", "--tree", tree, "--data", data, "--alpha", "0.5"),
    ]


@given(case=staged_trees(), order=st.randoms(use_true_random=False))
@SETTINGS
def test_vertex_listing_order_changes_no_byte(runner, case, order):
    spec, seed = case
    rows = rows_of(spec, seed)
    expected = commands(runner, spec, rows)
    shuffled = dict(spec, vertices=order.sample(spec["vertices"], len(spec["vertices"])))
    assert commands(runner, shuffled, rows) == expected


def relaid(spec, rng) -> str:
    """The text of ``spec`` with its fields and each entry's keys in a random
    order, random whitespace, and its leaves listed at random places, each
    with ``[]`` or without ``children``.
    """
    listed = {e["id"] for e in spec["vertices"]}
    entries = list(spec["vertices"])
    for e in spec["vertices"]:
        for c in e["children"]:
            if c not in listed:
                leaf = rng.choice([{"id": c}, {"id": c, "children": []}])
                entries.insert(rng.randrange(len(entries) + 1), leaf)
    entries = [dict(rng.sample(list(e.items()), len(e))) for e in entries]
    fields = list({**spec, "vertices": entries}.items())
    text = json.dumps(dict(rng.sample(fields, len(fields))), indent=rng.choice([None, 0, 2, "\t"]),
                      separators=rng.choice([None, (",", ":"), (" ,", " : ")]))
    return rng.choice(["", " \n"]) + text + rng.choice(["", "\n", "\r\n"])


@given(case=staged_trees(), order=st.randoms(use_true_random=False))
@settings(max_examples=30, derandomize=True, deadline=None)
def test_json_layout_changes_no_byte(runner, case, order):
    spec, seed = case
    rows = rows_of(spec, seed)
    text = relaid(spec, order)
    assert _read_description(text) is not None  # read straight into the children map
    assert commands(runner, text, rows) == commands(runner, spec, rows)


def renamed_spec(spec, rename):
    return {
        "vertices": [{"id": rename[e["id"]], "children": [rename[c] for c in e["children"]]}
                     for e in spec["vertices"]],
        "stages": {rename[v]: rename[s] for v, s in spec["stages"].items()},
        "downward": {rename[s]: j for s, j in spec["downward"].items()},
    }


# names that sort in another order than the originals, some with JSON escapes
NEW_NAMES = st.lists(st.text(st.sampled_from('ab"\\,\u00e9\U0001f600'), min_size=1, max_size=4),
                     min_size=64, max_size=64, unique=True)


@given(case=staged_trees(), names=NEW_NAMES)
@SETTINGS
def test_renaming_maps_witnesses_staging_and_trace(runner, case, names):
    spec, seed = case
    ids = {e["id"] for e in spec["vertices"]} | {c for e in spec["vertices"] for c in e["children"]}
    ids |= set(spec["stages"].values())
    rename = dict(zip(sorted(ids), names))
    other = renamed_spec(spec, rename)

    def check(s):
        return json.loads(runner("check", runner.write("tree.json", s)))

    before, after = check(spec), check(other)
    witness = before.pop("witness")
    assert after.pop("witness") == (None if witness is None else
                                    [rename[witness[0]], rename[witness[1]], witness[2]])
    assert after == before

    config = runner.write("config.json", {"alpha": 0.5})

    def select(s, rows):
        graph = {"vertices": s["vertices"]}
        return json.loads(runner("select", "--tree-graph", runner.write("tree.json", graph),
                                 "--data", runner.write("rows.csv", csv_text(rows)),
                                 "--config", config))

    # random rows, and every path once, where merges of equal counts tie
    for rows in (rows_of(spec, seed), rows_of(spec, None)):
        before, after = select(spec, rows), select(other, rows)
        theta = {}
        for key, p in before.pop("theta").items():
            stage, j = key.rsplit(",", 1)
            theta[f"{rename[stage]},{j}"] = p
        assert after.pop("theta") == theta
        stages = before.pop("stages")
        assert after.pop("stages") == {rename[v]: rename[s] for v, s in stages.items()}
        for step in before["trace"]:
            step["kept"], step["absorbed"] = rename[step["kept"]], rename[step["absorbed"]]
        assert after == before


@given(case=staged_trees(), order=st.randoms(use_true_random=False))
@SETTINGS
def test_row_order_changes_no_byte(runner, case, order):
    spec, seed = case
    rows = rows_of(spec, seed)
    tree = runner.write("tree.json", spec)
    graph = runner.write("graph.json", {"vertices": spec["vertices"]})
    config = runner.write("config.json", {"alpha": 0.5})

    def outputs(rows):
        data = runner.write("rows.csv", csv_text(rows))
        return [
            runner("fit", "--tree", tree, "--data", data),
            runner("fit", "--tree", tree, "--data", data, "--alpha", "0.5"),
            runner("select", "--tree-graph", graph, "--data", data),
            runner("select", "--tree-graph", graph, "--data", data, "--config", config),
        ]

    assert outputs(order.sample(rows, len(rows))) == outputs(rows)


def random_labels(tree: StagedTree, rng: random.Random) -> ParameterVector:
    """Labels of every stage, each edge's weight drawn from [0.05, 1)."""
    vals = {}
    for s, kappa in tree.stage_degrees.items():
        weights = [rng.uniform(0.05, 1.0) for _ in range(kappa)]
        total = math.fsum(weights)
        vals.update({(s, j): w / total for j, w in enumerate(weights, start=1)})
    return ParameterVector(vals)


@given(case=staged_trees(), pick=st.randoms(use_true_random=False))
@SETTINGS
def test_moving_a_downward_edge_changes_eta_not_the_density(case, pick):
    spec, seed = case
    tree = StagedTree.from_spec(spec)
    theta = random_labels(tree, random.Random(seed))
    stage = pick.choice(tree.stage_ids)
    others = [j for j in range(1, tree.stage_degrees[stage] + 1) if j != tree.downward[stage]]
    moved = tree.with_staging(tree.stage_of, {**tree.downward, stage: pick.choice(others)})
    assert natural_parameters(moved, theta).eta != natural_parameters(tree, theta).eta
    for atom in tree.atoms:
        assert math.isclose(density_expform(moved, theta, atom),
                            density_expform(tree, theta, atom), rel_tol=1e-12)


@st.composite
def bayes_nets(draw):
    """A DAG over at most four variables of two or three states, with edges
    only from earlier to later names, so that the name order is topological.
    """
    names = [f"X{i}" for i in range(draw(st.integers(1, 4)))]
    edges = [[a, b] for i, a in enumerate(names) for b in names[i + 1 :] if draw(st.booleans())]
    variables = [{"name": v, "card": draw(st.integers(2, 3))} for v in names]
    return {"variables": variables, "edges": edges}, ",".join(names)


@given(case=bayes_nets(), order=st.randoms(use_true_random=False))
@SETTINGS
def test_from_bn_bytes_do_not_depend_on_the_listing_order(runner, case, order):
    bn, names = case
    expected = runner("from-bn", runner.write("bn.json", bn), "--order", names)
    shuffled = {key: order.sample(items, len(items)) for key, items in bn.items()}
    assert runner("from-bn", runner.write("bn.json", shuffled), "--order", names) == expected


def test_golden_bytes_do_not_depend_on_the_hash_seed():
    # one child process per seed runs every golden case
    names = sorted(CASES)
    script = ("import json, sys\nfrom stagedtree.cli import run\n"
              "for argv in json.loads(sys.argv[1]):\n    run(argv)\n")
    argvs = json.dumps([argv_for(name) for name in names])
    expected = "".join((DATA / "golden" / f"{name}.out").read_text() for name in names)
    for seed in ("0", "1", "2"):
        proc = subprocess.run([sys.executable, "-c", script, argvs], capture_output=True,
                              text=True, env=dict(src_env(), PYTHONHASHSEED=seed))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected, seed
