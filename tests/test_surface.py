"""The public surface: what ``stagedtree.__all__`` exports, and that the
traced benchmark run finds every name it calls there.
"""

import ast
import inspect
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

import stagedtree
from conftest import src_env

ROOT = Path(__file__).resolve().parent.parent
TRACED = ROOT / "benchmark" / "traced.py"
PYPROJECT = ROOT / "pyproject.toml"


def test_public_names_resolve_and_the_traced_run_finds_its_own():
    names = stagedtree.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(stagedtree, name) is not None
    for gone in ("downward_invariance_probe", "star_form", "StarForm", "downward_products",
                 "AtomDistribution"):
        assert gone not in names and not hasattr(stagedtree, gone)
    for cls, gone in ((stagedtree.StagedTree, "indicator"),
                      (stagedtree.StagedTree, "indicator_vertex"), (stagedtree.Atom, "visits"),
                      (stagedtree.ExpFamForm, "eta_vector"),
                      (stagedtree.ConstraintMatrix, "matrix"), (stagedtree.ExpFamForm, "logN")):
        assert not hasattr(cls, gone), gone
    assert stagedtree.ExpFamForm.__slots__ == ("layout", "eta", "psi")
    # the root is the one parentless vertex, never an argument
    assert "root" not in inspect.signature(stagedtree.StagedTree).parameters
    # read as text, so the test does not import the benchmark
    called = set(re.findall(r"\bst\.([A-Za-z_]\w*)", TRACED.read_text()))
    assert {"StagedTree", "ingest_csv", "select_staging", "is_regular"} <= called
    assert called <= set(names), sorted(called - set(names))


def run_fresh(code: str) -> str:
    """stdout of ``code`` in a new interpreter, where nothing is imported yet."""
    proc = subprocess.run(
        [sys.executable, "-c", code], env=src_env(), capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_names_resolve_lazily_from_their_modules():
    out = run_fresh(
        "import json, sys, stagedtree\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('stagedtree.'))\n"
        "before = loaded()\n"
        "found = {}\n"
        "for name in stagedtree.__all__:\n"
        "    value = getattr(stagedtree, name)\n"
        "    found[name] = [getattr(value, '__module__', None), name in vars(stagedtree)]\n"
        "print(json.dumps([before, found, loaded()]))\n"
    )
    before, found, after = json.loads(out)
    assert before == []
    assert set(found) == set(stagedtree.__all__)
    for name, (module, cached) in found.items():
        assert cached, name
        if module is not None:  # a function or class names the module that defines it
            assert module == getattr(stagedtree, name).__module__
    assert set(after) == {
        f"stagedtree.{m}"
        for m in ("algebra", "bayesnet", "errors", "expfam", "fit", "random_trees", "tree")
    }


def test_the_library_runs_without_numpy():
    out = run_fresh(
        "import sys\n"
        "from stagedtree import *\n"
        "tree = StagedTree({'r': ['a', 'b'], 'a': ['w', 'x'], 'b': ['y', 'z']},\n"
        "                  stages={'a': 's', 'b': 's'})\n"
        "cm = constraint_matrix(tree)\n"
        "form = natural_parameters(tree, ParameterVector.uniform(tree))\n"
        "theta = theta_from_eta(tree.saturated(), [0.0, 1.0, -1.0])\n"
        "print(cm.rank, cm.kernel_dimension(), sufficient_statistic(tree, tree.atoms[0]),\n"
        "      form.psi, classify(tree)['regular'], len(theta), 'numpy' in sys.modules)\n"
    )
    assert out == f"1 2 (1, 1, 0) {math.log(4)} True 6 False\n"


def test_pyproject_lists_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert project.get("dependencies", []) == []
    assert "numpy" in " ".join(project["optional-dependencies"]["test"])


def test_the_package_parses_under_its_oldest_python():
    # this interpreter may be newer than the requires-python floor, whose
    # grammar lacks later syntax such as except* (3.11) and type aliases (3.12)
    tomllib = pytest.importorskip("tomllib")
    floor = tomllib.loads(PYPROJECT.read_text())["project"]["requires-python"]
    major, minor = map(int, re.fullmatch(r">=(\d+)\.(\d+)", floor).groups())
    sources = sorted((ROOT / "src" / "stagedtree").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(), str(path), feature_version=(major, minor))


def test_dir_lists_every_public_name():
    names = json.loads(run_fresh("import json, stagedtree; print(json.dumps(dir(stagedtree)))"))
    assert names == sorted(names)
    assert set(stagedtree.__all__) | {"__version__"} <= set(names)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from stagedtree import *", namespace)
    assert set(stagedtree.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(stagedtree, name) for name in stagedtree.__all__)


def test_submodule_resolves_after_a_bare_import():
    out = run_fresh(
        "import stagedtree\n"
        "print(stagedtree.tree.StagedTree is stagedtree.StagedTree, stagedtree.fit.__name__)\n"
        "try:\n"
        "    stagedtree.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert out == "True stagedtree.fit\nmodule 'stagedtree' has no attribute 'no_such_name'\n"
