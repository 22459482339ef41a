"""The public surface: what ``stagedtree.__all__`` exports, and that the
traced benchmark run finds every name it calls there.
"""

import re
from pathlib import Path

import stagedtree

TRACED = Path(__file__).resolve().parent.parent / "benchmark" / "traced.py"


def test_public_names_resolve_and_the_traced_run_finds_its_own():
    names = stagedtree.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(stagedtree, name) is not None
    for gone in ("downward_invariance_probe", "star_form", "StarForm"):
        assert gone not in names and not hasattr(stagedtree, gone)
    # read as text, so the test does not import the benchmark
    called = set(re.findall(r"\bst\.([A-Za-z_]\w*)", TRACED.read_text()))
    assert {"StagedTree", "ingest_csv", "select_staging", "is_regular"} <= called
    assert called <= set(names), sorted(called - set(names))
