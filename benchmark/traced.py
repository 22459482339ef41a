"""The traced run: each op once more in-process, with spans per layer.

For every op the traced run times ``stagedtree.cli.run`` on the op's
arguments, then replays the same pipeline through the public functions the
subcommand calls, each call inside a span named ``<module>.<function>``.
Spans are kept in memory and written out when the run ends; nothing in
``src/`` is edited or patched.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from itertools import combinations
from math import comb


class Tracer:
    """Spans as [name, start, end, parent index, op id], kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def self_times(self, first: int) -> dict[str, float]:
        """Self time per span name over spans[first:]: duration minus children."""
        child: dict[int, float] = {}
        for _, start, end, parent, _ in self.spans[first:]:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + end - start
        out: dict[str, float] = {}
        for idx in range(first, len(self.spans)):
            name, start, end = self.spans[idx][:3]
            out[name] = out.get(name, 0.0) + end - start - child.get(idx, 0.0)
        return out


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def search_candidates(tree, trace) -> int:
    """Candidate pairs the greedy search scored, rebuilt from its merge trace.

    Every round scores each pair of same-depth stages (all stages of the
    saturated binary tree share out-degree and downward edge); the search
    runs one round per merge plus the final round that finds no gain.
    """
    depth = {tree.root: 0}
    for v in tree.vertices:
        for c in tree.children.get(v, ()):
            depth[c] = depth[v] + 1
    per_depth = Counter(depth[v] for v in tree.inner)
    total = sum(comb(n, 2) for n in per_depth.values())
    for step in trace:
        per_depth[depth[step.absorbed]] -= 1
        total += sum(comb(n, 2) for n in per_depth.values())
    return total


def balanced_term_products(tree) -> int:
    """Monomial products ``is_balanced`` expands when it compares every pair.

    The interpolating polynomial t_v has one term per leaf below v, and each
    same-stage pair (v_i, v_s) with downward edge k is compared through
    t_ij * t_sk and t_ik * t_sj for every other edge j.  Exact for balanced
    trees; an upper bound where the check stops at the first violation.
    """
    leaves: dict[str, int] = {}
    for v in reversed(tree.vertices):
        leaves[v] = sum(leaves[c] for c in tree.children.get(v, ())) or 1
    total = 0
    for stage, members in tree.stage_members.items():
        k = tree.downward[stage]
        for vi, vs in combinations(members, 2):
            below_i, below_s = tree.children[vi], tree.children[vs]
            for j in range(len(below_i)):
                if j != k - 1:
                    total += (leaves[below_i[j]] * leaves[below_s[k - 1]]
                              + leaves[below_i[k - 1]] * leaves[below_s[j]])
    return total


class Replayer:
    """Replays each subcommand's pipeline through public functions."""

    def __init__(self, st, tracer: Tracer):
        self.st = st
        self.tr = tracer

    def tree(self, path: str):
        text = _read(path)
        with self.tr.span("tree.from_json"):
            return self.st.StagedTree.from_json(text)

    def atoms(self, tree) -> None:
        with self.tr.span("tree.atoms"):
            tree.atoms  # noqa: B018 - cached property, computed here

    def ingest(self, path: str, tree):
        with self.tr.span("fit.ingest_csv"):
            return self.st.ingest_csv(path, tree)

    def select(self, paths: dict) -> dict:
        tree = self.tree(paths["tree.json"])
        self.atoms(tree)
        table = self.ingest(paths["rows.csv"], tree)
        with self.tr.span("fit.select_staging"):
            result = self.st.select_staging(tree, table)
        return {
            "tree.k": tree.k,
            "tree.n": tree.n,
            "fit.ingest_csv.rows": table.n_obs,
            "fit.select_staging.merges": len(result.trace),
            "fit.select_staging.candidates": search_candidates(tree, result.trace),
        }

    def check(self, paths: dict) -> dict:
        st, tr = self.st, self.tr
        text = _read(paths["net.json"])
        with tr.span("bayesnet.from_json"):
            bn = st.DiscreteBN.from_json(text)
        with tr.span("bayesnet.bn_to_staged_tree"):
            tree = st.bn_to_staged_tree(bn)
        with tr.span("tree.to_spec"):
            spec = tree.to_spec()
        text = json.dumps(spec)
        with tr.span("tree.from_json"):
            tree = st.StagedTree.from_json(text)
        with tr.span("algebra.is_regular"):
            st.is_regular(tree)
        with tr.span("algebra.is_balanced"):
            st.is_balanced(tree)
        with tr.span("algebra.is_simple"):
            st.is_simple(tree)
        return {
            "tree.k": tree.k,
            "tree.n": tree.n,
            "algebra.same_stage_pairs": sum(
                comb(len(m), 2) for m in tree.stage_members.values()
            ),
            "algebra.poly_terms": balanced_term_products(tree),
        }

    def inspect(self, paths: dict) -> dict:
        tree = self.tree(paths["tree.json"])
        self.atoms(tree)
        return {"tree.k": tree.k, "tree.n": tree.n}

    def expfam(self, paths: dict) -> dict:
        st, tr = self.st, self.tr
        tree = self.tree(paths["tree.json"])
        raw = json.loads(_read(paths["theta.json"]))
        theta = st.ParameterVector(
            {(s, j): p for s, probs in raw.items() for j, p in enumerate(probs, start=1)}
        )
        with tr.span("expfam.natural_parameters"):
            st.natural_parameters(tree, theta)
        with tr.span("expfam.render_formulas"):
            st.render_formulas(tree)
        return {"tree.k": tree.k, "tree.n": tree.n}

    def fit(self, paths: dict) -> dict:
        tree = self.tree(paths["tree.json"])
        self.atoms(tree)
        table = self.ingest(paths["rows.csv"], tree)
        with self.tr.span("fit.bic"):
            self.st.bic(tree, table)
        return {"tree.k": tree.k, "tree.n": tree.n, "fit.ingest_csv.rows": table.n_obs}
