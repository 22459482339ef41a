"""Byte-identical CLI output on the fixtures.

Each case's expected stdout in ``tests/data/golden/`` was captured from the
recursive tree walkers that the iterative fold replaced; the fold must leave
every byte of it unchanged.  ``ternary_downward.json`` has a ternary stage and
a binary stage with a non-default downward edge, so its cases pin the
bracket-style names ``th[i,j]``, ``eta[i,j]`` and ``xi[i,j]`` next to the
single-index ones.

The six ``check_{fig1a,fig1b,ternary_downward}_{json,pretty}`` cases were
regenerated when ``stage_equations`` stopped emitting one equation per
same-stage pair and edge: it now emits one per later member of a stage,
against the stage's first member, and none at the downward edge, where the
equation reads 0 = 0.  Only their ``equations`` changed; the verdicts,
dimensions and first witness are the bytes the pairwise checks printed.

The same cases, with and without ``--pretty`` and on stdout and ``--output``,
are also compared with the emitter the streamed one replaced: one
``json.dumps`` of the whole payload, whose ``layout``, ``eta`` and
``formulas`` come from ``natural_parameters`` and ``render_formulas``.  So
are ``inspect`` and ``expfam --symbolic`` on a 400-level caterpillar, whose
entries of several KiB each end the writes at other places.
"""

import json

import pytest

from stagedtree.cli import _load_theta, _load_tree, _round, build_parser, run
from stagedtree.expfam import natural_parameters, render_formulas
from stagedtree.errors import StagedTreeError
from conftest import DATA, caterpillar, data_path

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


# cases whose payload is the error object
ERRORS = {
    "missing_file": ["check", "no-such-file.json"],
    "not_a_tree": ["inspect", "chain_bn.json"],
    "bad_theta": ["expfam", "fig1a.json", "--theta", "fig1b.json"],
}


def oracle_output(argv: list[str], pretty: bool) -> str:
    """The document of the emitter the streamed one replaced: the payload,
    with the streamed values of inspect and expfam built as they were (the
    latter from ``natural_parameters`` and ``render_formulas``), dumped whole.
    """
    args = build_parser().parse_args(argv)
    try:
        payload = args.func(args)
    except (StagedTreeError, OSError, json.JSONDecodeError) as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    if args.command == "inspect" and "error" not in payload:
        tree = _load_tree(args.tree)
        payload.update(
            inner=list(tree.inner),
            stages={v: tree.stage_of[v] for v in tree.inner},
            downward=dict(tree.downward),
            atoms=[x.steps for x in tree.atoms],
        )
    if args.command == "expfam" and "error" not in payload:
        tree = _load_tree(args.tree)
        form = natural_parameters(tree, _load_theta(args.theta, tree))
        payload.update(
            layout=form.layout,
            eta={f"{v},{j}": _round(x) for (v, j), x in form.eta.items()},
        )
        if args.symbolic:
            payload["formulas"] = render_formulas(tree)
    assert not any(hasattr(value, "__next__") for value in payload.values())
    return json.dumps(payload, indent=2 if pretty else None, sort_keys=False) + "\n"


# cases on caterpillar(400), written to a file by the test: its deepest atoms
# and formulas are several KiB each, so the writes end between long entries
CATERPILLAR = {
    "inspect_caterpillar": ["inspect", "caterpillar.json"],
    "expfam_caterpillar": ["expfam", "caterpillar.json", "--symbolic"],
}


@pytest.mark.parametrize("sink", ["stdout", "output"])
@pytest.mark.parametrize("pretty", [False, True], ids=["compact", "pretty"])
@pytest.mark.parametrize("name", sorted(CASES) + sorted(ERRORS) + sorted(CATERPILLAR))
def test_output_matches_whole_document_dump(capsys, tmp_path, name, pretty, sink):
    argv = {**CASES, **ERRORS, **CATERPILLAR}[name]
    if name in CATERPILLAR:
        (tmp_path / argv[1]).write_text(json.dumps(caterpillar(400).to_spec()))
        argv = [argv[0], str(tmp_path / argv[1]), *argv[2:]]
    argv = [str(data_path(a)) if (DATA / a).is_file() else a for a in argv]
    expected = oracle_output(argv, pretty)
    extra = ["--pretty"] * pretty
    if sink == "output":
        extra += ["--output", str(tmp_path / "out.json")]
    assert run(argv + extra) == (2 if name in ERRORS else 0)
    out = capsys.readouterr().out
    if sink == "output":
        assert out == ""
        out = (tmp_path / "out.json").read_text()
    assert out == expected
