"""Byte-identical CLI output on the fixtures.

Each case's expected stdout in ``tests/data/golden/`` was captured from the
recursive tree walkers that the iterative fold replaced; the fold must leave
every byte of it unchanged.  ``ternary_downward.json`` has a ternary stage and
a binary stage with a non-default downward edge, so its cases pin the
bracket-style names ``th[i,j]``, ``eta[i,j]`` and ``xi[i,j]`` next to the
single-index ones.
"""

import pytest

from stagedtree.cli import run
from conftest import DATA, data_path

TREES = ("example1", "fig1a", "fig1b")
NAMED = TREES + ("ternary_downward",)  # the trees whose names are printed

CASES = {
    **{f"inspect_{t}": ["inspect", f"{t}.json"] for t in TREES},
    **{f"expfam_{t}": ["expfam", f"{t}.json", "--symbolic"] for t in NAMED},
    "expfam_fig1a_theta": ["expfam", "fig1a.json", "--theta", "fig1a_theta.json"],
    **{
        f"fit_{t}_counts": ["fit", "--tree", f"{t}.json", "--data", "atom_counts.csv"]
        for t in TREES
    },
    **{f"fit_{t}_rows": ["fit", "--tree", f"{t}.json", "--data", "xyz_rows.csv"] for t in TREES},
    **{
        f"check_{t}_{style}": ["check", f"{t}.json", "--equations", style]
        for t in NAMED
        for style in ("json", "pretty")
    },
    "from_bn_chain": ["from-bn", "chain_bn.json"],
    "from_bn_collider": ["from-bn", "collider_bn.json"],
}


def argv_for(name: str) -> list[str]:
    """The case's arguments with fixture file names resolved under tests/data."""
    return [str(data_path(a)) if (DATA / a).is_file() else a for a in CASES[name]]


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_is_byte_identical(capsys, name):
    assert run(argv_for(name)) == 0
    assert capsys.readouterr().out == (DATA / "golden" / f"{name}.out").read_text()
