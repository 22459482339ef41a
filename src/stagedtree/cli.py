"""Command-line entry point.

Subcommands: inspect, expfam, check, from-bn, fit, select.  Every command
reads JSON/CSV inputs, writes a JSON object to stdout (or ``--output``), and
exits 0 on success, 2 on validation errors (with a machine-readable error
object), 1 on internal errors and when stdout is closed before the output is
written.  ``-`` stands for stdin/stdout.  The commands
that print floats round them to 12 significant digits so outputs are
byte-stable.  Each subcommand imports the modules it runs, and no others.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from . import __version__
from .errors import StagedTreeError, loads


def _round(x: float) -> float:
    """12 significant digits, applied where a command emits a float."""
    return float(f"{x:.12g}")


def _fit_dict(fit) -> dict:
    """A fit's JSON object, floats rounded."""
    out = fit.as_dict()
    for key in ("log_likelihood", "bic"):
        out[key] = _round(out[key])
    out["theta"] = {key: _round(p) for key, p in out["theta"].items()}
    out["bic_convention"] = "d*log(N) - 2*loglik"
    return out


def _emit(payload: dict, output, pretty: bool) -> None:
    """Write ``payload`` as one JSON object, the text of ``json.dumps(payload)``
    (``indent=2`` under ``pretty``) and a newline, to ``output`` or stdout.

    Each value is encoded on its own, so no string of the whole document is
    built; the texts are joined into writes of ``WRITE_SIZE`` characters plus
    at most one piece.  A value that is an iterator yields its JSON text in
    pieces, in the form ``pretty`` asks for; it runs as it is written, so it
    must not fail.  Under ``pretty`` each value's ``indent=2`` text is
    indented one more level by two spaces after each newline: with
    ``ensure_ascii`` its only raw newlines are indentation.
    """
    if output and output != "-":
        with open(output, "w", encoding="utf-8") as fh:
            _write_object(payload, fh.write, pretty)
    else:
        _write_object(payload, sys.stdout.write, pretty)
        sys.stdout.flush()


WRITE_SIZE = 2**16  # about one write per 64 KiB, also on an unbuffered stdout


def _write_object(payload: dict, write, pretty: bool) -> None:
    lead, sep, close = ("\n  ", ",\n  ", "\n}") if pretty else ("", ", ", "}")
    batch, size, indent = ["{"], 1, 2 if pretty else None
    for key, value in payload.items():
        pieces = value if hasattr(value, "__next__") else (json.dumps(value, indent=indent),)
        batch.append(lead + encode_basestring_ascii(key) + ": ")
        size += len(batch[-1])
        for piece in (p.replace("\n", "\n  ") for p in pieces) if pretty else pieces:
            batch.append(piece)
            size += len(piece)
            if size >= WRITE_SIZE:
                write("".join(batch))
                batch, size = [], 0
        lead = sep
    batch.append((close if payload else "}") + "\n")
    write("".join(batch))


def _error(exc: BaseException) -> dict:
    return {"error": {"type": type(exc).__name__, "message": str(exc)}}


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise StagedTreeError(f"input {path!r} is not UTF-8 text: {exc}") from None


def _load_tree(path: str) -> StagedTree:
    from .tree import StagedTree
    return StagedTree.from_json(_read_text(path))


def _load_theta(spec: str, tree: StagedTree) -> ParameterVector:
    from .tree import ParameterVector, _is_real
    if spec == "uniform":
        return ParameterVector.uniform(tree)
    raw = loads(_read_text(spec))
    if not isinstance(raw, dict):
        raise StagedTreeError("theta file must be a JSON object of stage -> label list")
    unknown = set(raw) - set(tree.stage_degrees)
    if unknown:
        raise StagedTreeError(f"theta file names stages not in the tree: {sorted(unknown)}")
    for stage, probs in raw.items():
        kappa = tree.stage_degrees[stage]
        if (
            not isinstance(probs, list)
            or len(probs) != kappa
            or not all(map(_is_real, probs))
        ):
            raise StagedTreeError(
                f"theta of stage {stage!r} must be a list of {kappa} numbers, got {probs!r}"
            )
    return ParameterVector(
        {(stage, j): p for stage, probs in raw.items() for j, p in enumerate(probs, start=1)}
    )


# -- subcommands --------------------------------------------------------------


def cmd_inspect(args) -> dict:
    from .tree import dimensions
    tree = _load_tree(args.tree)
    d0, d = dimensions(tree)
    enc, names, pretty = encode_basestring_ascii, tree.vertices, args.pretty
    return {
        "k": tree.k,
        "n": tree.n,
        "d0": d0,
        "d": d,
        "root": tree.root,
        "inner": _json_items(map(enc, map(names.__getitem__, tree._inner_pos)), "[]", pretty),
        "stages": _stages_json(tree, pretty),
        "downward": _json_items((f"{enc(s)}: {j}" for s, j in tree.downward.items()), "{}", pretty),
        "atoms": _json_items(_atom_texts(tree, pretty), "[]", pretty),
    }


def _stages_json(tree, pretty: bool):
    """The JSON text of the stage id of each inner vertex, in BFS order."""
    enc, names = encode_basestring_ascii, tree.vertices
    texts = list(map(enc, tree.stage_ids))
    items = map("{}: {}".format, map(enc, map(names.__getitem__, tree._inner_pos)),
                map(texts.__getitem__, tree._stage))
    return _json_items(items, "{}", pretty)


def _json_items(texts, brackets: str, pretty: bool):
    """The JSON text of a list (``brackets`` ``"[]"``) or an object (``"{}"``)
    with the given entry texts, one entry per piece, which
    :func:`_write_object` joins into its writes of about ``WRITE_SIZE``.

    Under ``pretty`` each entry starts a line one level in, so an entry text
    that spans lines indents them as ``json.dumps(..., indent=2)`` does one
    level down.
    """
    opened, closed = brackets
    if pretty:
        lead, between, end = opened + "\n  ", ",\n  ", "\n" + closed
    else:
        lead, between, end = opened, ", ", closed
    for text in texts:
        yield lead + text
        lead = between
    yield end if lead is between else opened + closed


def _atom_texts(tree, pretty: bool):
    """The JSON text of each atom's steps, depth-first in edge order, from one
    explicit-stack walk that builds no ``Atom``.

    Each stack entry carries the encoded text of its path's steps, so a
    vertex's step is encoded once for all the atoms below it.
    """
    if pretty:
        opened, sep, closed = "[\n    ", ",\n    ", "\n  ]"
        step = "[\n      {},\n      {}\n    ]"
    else:
        opened, sep, closed = "[", ", ", "]"
        step = "[{}, {}]"
    names, degree, first = tree.vertices, tree._degree, tree._first
    stack = [(0, "")]
    while stack:
        p, path = stack.pop()
        d = degree[p]
        if d == 0:
            yield opened + path + closed if path else "[]"
        else:
            head = path + sep if path else ""
            name, f = encode_basestring_ascii(names[p]), first[p] - 1
            stack.extend((f + j, head + step.format(name, j)) for j in range(d, 0, -1))


def cmd_expfam(args) -> dict:
    """The layout, eta and formulas are streamed from one edge table; every
    check runs before the first byte is written.
    """
    tree = _load_tree(args.tree)  # expfam's code is then not alive at the reader's peak
    from .expfam import _edge_table, _eta, _formulas, _log_downward
    theta = _load_theta(args.theta, tree)
    log_n, edges = _log_downward(tree, theta), _edge_table(tree)
    enc, pretty = encode_basestring_ascii, args.pretty
    vertices = list(map(tree.vertices.__getitem__, edges[1]))
    pair = "[\n    {},\n    {}\n  ]" if pretty else "[{}, {}]"
    keys = map(enc, map("{},{}".format, vertices, edges[3]))
    eta = map("{}: {!r}".format, keys, map(_round, _eta(tree, theta, log_n, edges)))
    out = {
        "layout": _json_items(map(pair.format, map(enc, vertices), edges[3]), "[]", pretty),
        "eta": _json_items(eta, "{}", pretty),
        "psi": _round(-log_n[0]),
    }
    if args.symbolic:
        names, formulas = _formulas(tree, edges)
        texts = map("{}: {}".format, map(enc, names), map(enc, formulas))
        out["formulas"] = _json_items(texts, "{}", pretty)
    return out


def cmd_check(args) -> dict:
    from .algebra import classify, stage_equations
    tree = _load_tree(args.tree)
    out = classify(tree)
    witnesses = out.pop("witnesses")
    out["witness"] = list(witnesses[0]) if witnesses else None
    if args.equations != "none":
        eqs = stage_equations(tree)
        if args.equations == "pretty":
            out["equations"] = [eq.pretty(tree) for eq in eqs]
        else:
            out["equations"] = [
                {"pair": [eq.vi, eq.vs], "edge": eq.j, "linear": eq.linear}
                for eq in eqs
            ]
    return out


def cmd_from_bn(args) -> dict:
    from .bayesnet import DiscreteBN, bn_to_staged_tree
    bn = DiscreteBN.from_json(_read_text(args.bn))
    order = args.order.split(",") if args.order is not None else None
    tree = bn_to_staged_tree(bn, order)
    # output stays a pure tree-description so it can be piped into `check -`
    return tree.to_spec()


def cmd_fit(args) -> dict:
    tree = _load_tree(args.tree)  # fit's code is then not alive at the reader's peak
    from .fit import bic, ingest_csv
    table = ingest_csv(sys.stdin if args.data == "-" else args.data, tree)
    return _fit_dict(bic(tree, table, alpha=args.alpha))


def cmd_select(args) -> dict:
    from .fit import SearchConfig, ingest_csv, select_staging
    tree = _load_tree(args.tree_graph)
    table = ingest_csv(sys.stdin if args.data == "-" else args.data, tree)
    config = SearchConfig()
    if args.config:
        raw = loads(_read_text(args.config))
        if not isinstance(raw, dict):
            raise StagedTreeError("search configuration must be a JSON object")
        unknown = set(raw) - set(SearchConfig.__slots__)
        if unknown:
            raise StagedTreeError(f"unknown search configuration keys: {sorted(unknown)}")
        config = SearchConfig(**raw)
    result = select_staging(tree, table, config)
    out = _fit_dict(result.fit)
    out["stages"] = _stages_json(result.tree, args.pretty)
    out["trace"] = [
        {
            "kept": step.kept,
            "absorbed": step.absorbed,
            "bic_before": _round(step.bic_before),
            "bic_after": _round(step.bic_after),
        }
        for step in result.trace
    ]
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stagedtree", description="Staged tree models as curved exponential families"
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", default=None, help="output path, '-' for stdout")
        p.add_argument("--pretty", action="store_true", help="indent the JSON output")

    p = sub.add_parser("inspect", help="summarize a tree-description file")
    p.add_argument("tree")
    common(p)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("expfam", help="natural parameters, statistic layout, cumulant")
    p.add_argument("tree")
    p.add_argument("--theta", default="uniform", help="'uniform' or a JSON label file")
    p.add_argument("--symbolic", action="store_true", help="also print label formulas")
    common(p)
    p.set_defaults(func=cmd_expfam)

    p = sub.add_parser("check", help="regular/balanced/simple classification")
    p.add_argument("tree")
    p.add_argument("--equations", choices=["none", "json", "pretty"], default="none")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("from-bn", help="unfold a Bayesian network into a staged tree")
    p.add_argument("bn")
    p.add_argument("--order", default=None, help="comma-separated topological order")
    common(p)
    p.set_defaults(func=cmd_from_bn)

    p = sub.add_parser("fit", help="closed-form MLE and BIC for a staging")
    p.add_argument("--tree", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--alpha", type=float, default=0.0, help="Laplace smoothing")
    common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("select", help="greedy BIC-driven stage-merge search")
    p.add_argument("--tree-graph", required=True, dest="tree_graph")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None, help="JSON search configuration")
    common(p)
    p.set_defaults(func=cmd_select)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, code = args.func(args), 0
    except (StagedTreeError, OSError, json.JSONDecodeError) as exc:
        payload, code = _error(exc), 2
    except Exception as exc:  # pragma: no cover - internal errors
        sys.stderr.write(f"internal error: {exc}\n")
        return 1
    try:
        _emit(payload, args.output, args.pretty)
    except OSError as exc:
        if args.output and args.output != "-":
            _emit(_error(exc), None, args.pretty)
            return 2
        if not isinstance(exc, BrokenPipeError):
            raise
        # the reader left: point stdout at devnull, so that the flush at
        # interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
