"""Fitting staged trees to categorical data: MLE, likelihood, BIC, search.

The maximum-likelihood estimate under a staging has a closed form: for every
stage, pool the edge-traversal counts of its member vertices and divide by
the pooled vertex-visit counts.  BIC uses the Schwarz convention
``d * log(N) - 2 * log-likelihood`` (smaller is better), with d the number
of free parameters of the staging.
"""

from __future__ import annotations

import csv
import math
import operator
import re
import sys
from collections import Counter
from typing import Optional, Sequence

from .errors import (
    IndexOutOfRange,
    RowDoesNotReachLeaf,
    StagedTreeError,
    UnknownCategory,
    ZeroStageTraffic,
    int_text,
)
from .tree import (
    Atom, ParameterVector, StagedTree, _is_integer, _is_real, _log_label, _Record,
    _require_atom_of, dimensions,
)


class AtomTable:
    """Observed counts per atom, a tuple of ints aligned with the tree's atom order."""

    def __init__(self, tree: StagedTree, counts: Sequence[int]):
        counts = tuple(counts)
        # plain ints skip the per-count check
        if not set(map(type, counts)) <= {int} and not all(map(_is_integer, counts)):
            raise StagedTreeError("atom counts must be integers")
        counts = tuple(map(int, counts))  # numpy integers become ints
        if len(counts) != tree.n:
            raise StagedTreeError(f"expected {tree.n} counts, got {len(counts)}")
        if any(c < 0 for c in counts):
            raise StagedTreeError("atom counts must be non-negative")
        total = sum(counts)
        if total > 2**53:  # beyond it, a count or a sum of counts may be inexact in a double
            raise StagedTreeError(f"atom counts total {int_text(total)}, over 2**53")
        self.tree = tree
        self.counts = counts
        self.n_obs = total

    def count(self, atom: Atom) -> int:
        _require_atom_of(self.tree, atom)
        return self.counts[self.tree.leaf_position[atom.leaf]]

    def __repr__(self) -> str:
        return f"AtomTable(n_obs={self.n_obs}, atoms={len(self.counts)})"


_INTEGER = re.compile(r"-?[0-9]+")


def _csv_int(cell: str) -> int:
    """A CSV cell's integer, written as ASCII digits after an optional minus.

    ``int`` alone also reads ``+2``, ``1_0`` and non-ASCII digits; those
    raise ValueError here.
    """
    cell = cell.strip()
    if not _INTEGER.fullmatch(cell):
        raise ValueError(f"not an integer: {cell!r}")
    return int(cell)


def _resolve_step(value: str, kappa: int, levels: Optional[Sequence[str]]) -> int:
    """Map a CSV cell onto a 1-based edge index."""
    if levels is not None:
        if value not in levels:
            raise UnknownCategory(f"category {value!r} not among {list(levels)}")
        return levels.index(value) + 1
    try:
        state = _csv_int(value)
    except ValueError:
        raise UnknownCategory(f"category {value!r} is not an integer state") from None
    if not 0 <= state < kappa:
        raise UnknownCategory(f"state {state} out of range 0..{kappa - 1}")
    return state + 1


def ingest_csv(
    source,
    tree: StagedTree,
    levels: Optional[dict[str, Sequence[str]]] = None,
) -> AtomTable:
    """Read observations into an atom table.

    Two CSV layouts are accepted, both with a header row:

    * ``atom_id,count``: direct counts, atom ids 1..n in the deterministic
      atom order;
    * one categorical column per tree level: each row traces a root-to-leaf
      path.  Cells hold 0-based integer states, or category names when a
      ``levels`` mapping (column name -> ordered category list) is given.
      Trailing cells beyond the leaf, and past the header, must be empty.

    Counts are aligned with ``tree.atoms``, whose order is unchanged.  A BOM
    before the header is dropped.  Input that is not UTF-8 text or that the
    csv module cannot parse raises StagedTreeError.
    """
    if isinstance(source, (str, bytes)):
        with open(source, newline="", encoding="utf-8") as fh:
            return ingest_csv(fh, tree, levels)
    reader = csv.reader(source)
    try:
        return _read_csv(reader, tree, levels)
    except UnicodeDecodeError as exc:
        raise StagedTreeError(f"CSV input is not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise StagedTreeError(f"line {reader.line_num}: {exc}") from None


def _read_csv(reader, tree: StagedTree, levels) -> AtomTable:
    """The two layouts of :func:`ingest_csv`, read from a csv reader."""
    try:
        header = next(reader)
    except StopIteration:
        raise StagedTreeError("empty CSV input") from None
    header[:1] = [h.removeprefix("\ufeff") for h in header[:1]]  # a "CSV UTF-8" file's BOM
    header = [h.strip() for h in header]
    if header == ["atom_id", "count"]:
        counts = [0] * tree.n
        for row in reader:
            if not row or not any(cell.strip() for cell in row):
                continue
            try:
                atom_id, count = map(_csv_int, row)
            except ValueError:
                raise StagedTreeError(
                    f"line {reader.line_num}: expected two integers 'atom_id,count', got {row}"
                ) from None
            if count < 0:
                raise StagedTreeError(f"line {reader.line_num}: negative count {count}")
            if not 1 <= atom_id <= tree.n:
                raise StagedTreeError(f"atom_id {atom_id} out of range 1..{tree.n}")
            counts[atom_id - 1] += count
        return AtomTable(tree, counts)

    return _count_rows(tree, reader, [(levels or {}).get(col) for col in header])


def _count_rows(tree: StagedTree, rows, column_levels) -> AtomTable:
    """Walk each distinct row of state cells from the root once and count it
    at its leaf as often as it occurs.

    Distinct rows are walked in order of first occurrence, so the first bad
    row of the input is the one reported.  The walk steps from a position to
    its child at edge j, position ``_first[p] + j - 1``.
    """
    degree, first = tree._degree, tree._first
    at = [0] * len(degree)  # the count of each leaf, by position
    # a 0-based state written the canonical way maps straight onto its edge;
    # every other cell, and a state past the out-degree, goes to _resolve_step
    edge_of_state = {str(i): i + 1 for i in range(max(degree))}
    width = len(column_levels)
    for row, times in Counter(map(tuple, rows)).items():
        if not any(cell.strip() for cell in row):
            continue
        if len(row) > width and any(cell.strip() for cell in row[width:]):
            raise RowDoesNotReachLeaf(f"row {list(row)} has a cell past column {width}")
        p = 0
        for levels, cell in zip(column_levels, row):
            cell = cell.strip()
            d = degree[p]
            if d == 0:
                if cell:
                    raise RowDoesNotReachLeaf(f"row {list(row)} continues past a leaf")
                continue
            if not cell:
                raise RowDoesNotReachLeaf(f"row {list(row)} stops before reaching a leaf")
            j = edge_of_state.get(cell) if levels is None else None
            if j is None or j > d:
                j = _resolve_step(cell, d, levels)
                if j > d:  # a levels list longer than the out-degree
                    v = tree.vertices[p]
                    raise IndexOutOfRange(f"edge index {j} out of range at vertex {v!r}")
            p = first[p] + j - 1
        if degree[p]:
            raise RowDoesNotReachLeaf(f"row {list(row)} stops before reaching a leaf")
        at[p] += times
    return AtomTable(tree, [at[p] for p in tree._leaf_order])


def _stage_traffic(tree: StagedTree, table: AtomTable):
    """Pooled per-stage visit and edge-traversal counts.

    Edge j out of v carries every observation at the leaves below its child,
    so a vertex's edge-traversal counts are its edge totals of the table.
    """
    pooled = [[0] * kappa for kappa in tree._kappa]
    for s, counts in zip(tree._stage, tree._edge_totals(table.counts)):
        pooled[s] = list(map(operator.add, pooled[s], counts))
    ids = tree.stage_ids
    visits = {ids[s]: sum(counts) for s, counts in enumerate(pooled)}
    edges = {
        (ids[s], j): n for s, counts in enumerate(pooled) for j, n in enumerate(counts, start=1)
    }
    return visits, edges


def mle(tree: StagedTree, table: AtomTable, alpha: float = 0.0) -> ParameterVector:
    """Closed-form maximum-likelihood labels under the staging.

    ``alpha`` adds Laplace smoothing per stage edge; with ``alpha=0`` a stage
    that is never visited raises ZeroStageTraffic, and zero-count edges give
    a boundary estimate (the returned vector then reports ``is_boundary()``).
    """
    _check_alpha(alpha)
    return _mle(tree, *_stage_traffic(tree, table), alpha)


def _mle(tree: StagedTree, visits: dict, edges: dict, alpha: float) -> ParameterVector:
    """Labels from the pooled counts of :func:`_stage_traffic`."""
    vals: dict[tuple[str, int], float] = {}
    for s, kappa in tree.stage_degrees.items():
        denom = visits[s] + alpha * kappa
        if denom == 0:
            raise ZeroStageTraffic(f"stage {s!r} receives no observations")
        if denom == math.inf:
            raise StagedTreeError(f"alpha {alpha!r} is too large: {kappa} * alpha overflows")
        for j in range(1, kappa + 1):
            vals[(s, j)] = (edges[(s, j)] + alpha) / denom
    return ParameterVector(vals, allow_boundary=True)


def log_likelihood(tree: StagedTree, theta: ParameterVector, table: AtomTable) -> float:
    """Sum of count-weighted log atom probabilities; 0 * log 0 counts as 0,
    and a positive count on a zero label gives -inf.

    An atom's log-probability is the sum of the log-labels along its path, so
    the sum over atoms regroups by stage edge into that of n_sj * log(theta_sj)
    over the pooled edge-traversal counts n_sj.
    """
    return _pooled_log_likelihood(theta, _stage_traffic(tree, table)[1])


def _pooled_log_likelihood(theta: ParameterVector, edges: dict) -> float:
    # a zero count adds 0 * log 0 = 0, but a label that theta lacks is refused
    return math.fsum(n * _log_label(theta, e) for e, n in edges.items() if n or e not in theta)


class FitResult(_Record):
    __slots__ = ("theta", "log_likelihood", "d", "n_obs", "bic", "boundary")
    _hidden = ("theta",)

    def __init__(self, theta: ParameterVector, log_likelihood: float, d: int, n_obs: int,
                 bic: float, boundary: bool):
        super().__init__(theta, log_likelihood, d, n_obs, bic, boundary)

    def as_dict(self) -> dict:
        return {
            "log_likelihood": self.log_likelihood,
            "d": self.d,
            "n_obs": self.n_obs,
            "bic": self.bic,
            "boundary": self.boundary,
            "theta": {f"{s},{j}": p for (s, j), p in sorted(self.theta.items())},
        }


def bic(tree: StagedTree, table: AtomTable, alpha: float = 0.0) -> FitResult:
    """Fit the staging and score it with d * log(N) - 2 * log-likelihood."""
    _check_alpha(alpha)
    if table.n_obs == 0:
        raise StagedTreeError("BIC needs at least one observation, the table is empty")
    visits, edges = _stage_traffic(tree, table)
    theta = _mle(tree, visits, edges, alpha)
    ll = _pooled_log_likelihood(theta, edges)
    _, d = dimensions(tree)
    return FitResult(
        theta=theta,
        log_likelihood=ll,
        d=d,
        n_obs=table.n_obs,
        bic=d * math.log(table.n_obs) - 2.0 * ll,
        boundary=theta.is_boundary(),
    )


def _check_alpha(alpha) -> None:
    """Reject a smoothing constant that is not a finite number >= 0 within the
    range of a double (NaN fails both comparisons).
    """
    if not _is_real(alpha) or not 0 <= alpha <= sys.float_info.max:
        raise StagedTreeError(f"alpha must be a finite number >= 0, got {alpha!r}")


class SearchConfig(_Record):
    __slots__ = ("max_merges", "same_depth", "alpha")

    def __init__(self, max_merges: Optional[int] = None, same_depth: bool = True,
                 alpha: float = 0.0):
        if max_merges is not None and (not _is_integer(max_merges) or max_merges < 0):
            raise StagedTreeError(
                f"max_merges must be null or an integer >= 0, got {max_merges!r}"
            )
        if not isinstance(same_depth, bool):
            raise StagedTreeError(f"same_depth must be a boolean, got {same_depth!r}")
        _check_alpha(alpha)
        super().__init__(max_merges, same_depth, alpha)


class MergeStep(_Record):
    __slots__ = ("kept", "absorbed", "bic_before", "bic_after")

    def __init__(self, kept: str, absorbed: str, bic_before: float, bic_after: float):
        super().__init__(kept, absorbed, bic_before, bic_after)

    @property
    def delta(self) -> float:
        return self.bic_after - self.bic_before


class SearchResult(_Record):
    __slots__ = ("tree", "fit", "trace")

    def __init__(self, tree: StagedTree, fit: FitResult, trace: tuple[MergeStep, ...]):
        super().__init__(tree, fit, trace)


def _stage_loglik(counts: Sequence[int], alpha: float) -> float:
    """Log-likelihood of one stage's pooled edge counts at its (smoothed) MLE."""
    denom = sum(counts) + alpha * len(counts)
    return sum(n * math.log((n + alpha) / denom) for n in counts if n)


MAX_SEARCH_PAIRS = 2**21  # about 0.6 GB of cached scores, at about 300 B a pair


def select_staging(
    tree: StagedTree, table: AtomTable, config: SearchConfig = SearchConfig()
) -> SearchResult:
    """Greedy backward stage merging, scored by BIC.

    Starts from the trivial staging of the given tree graph and repeatedly
    applies the merge with the best (lowest) BIC, until no merge improves
    the score by more than 1e-12 or ``max_merges`` is reached.  Ties break
    on the lexicographically smallest (depth, vertex-index) candidate pair,
    so the search is deterministic.

    The pooled edge counts n_s of the stages are sufficient statistics, so
    BIC splits into one term per stage, ``(kappa_s - 1) * log N - 2 * l(n_s)``
    with l the multinomial log-likelihood at the stage's estimate.  Merging
    stages a and b therefore changes BIC by
    ``-(kappa - 1) * log N - 2 * [l(n_a + n_b) - l(n_a) - l(n_b)]``.  The
    search counts edge traversals in one fold up the tree, scores the
    candidate pairs from count vectors in O(S^2 kappa) for S stages, and
    after each merge rescores only the pairs of the merged stage, in
    O(S kappa), plus a scan of the cached scores for the best pair.  It
    builds one tree, for the result, whose fit comes from :func:`bic`.
    Where two candidates tie in exact arithmetic, they are ordered by
    floating-point rounding of their scores, as in the refitting search
    that the tests keep as the reference.  A search whose groups hold more
    than MAX_SEARCH_PAIRS candidate pairs is refused before any is scored.
    """
    saturated = tree.saturated()
    start = bic(saturated, table, alpha=config.alpha)
    limit = config.max_merges if config.max_merges is not None else float("inf")
    log_n = math.log(table.n_obs)
    alpha = config.alpha

    # A stage is the 0-based index of its first member in BFS order, so that
    # order breaks ties, and every stage of the saturated tree has the
    # default (last) downward edge, so equal out-degrees imply equal
    # downward edges.
    counts = list(map(tuple, saturated._edge_totals(table.counts)))
    loglik = [_stage_loglik(c, alpha) for c in counts]
    members = {s: [s] for s in range(len(counts))}
    depth = [saturated._depth[p] for p in saturated._inner_pos]

    def group_key(s: int) -> tuple[int, int]:
        return len(counts[s]), depth[s] if config.same_depth else 0

    groups: dict[tuple[int, int], list[int]] = {}
    for s in members:
        groups.setdefault(group_key(s), []).append(s)
    pairs = sum(len(group) * (len(group) - 1) // 2 for group in groups.values())
    if pairs > MAX_SEARCH_PAIRS:
        raise StagedTreeError(
            f"search would cache {int_text(pairs)} candidate pairs, over {MAX_SEARCH_PAIRS}"
        )

    def score(a: int, b: int):
        merged = tuple(x + y for x, y in zip(counts[a], counts[b]))
        ll = _stage_loglik(merged, alpha)
        delta = -(len(merged) - 1) * log_n - 2.0 * (ll - loglik[a] - loglik[b])
        return delta, ll, merged

    cache = {
        (a, b): score(a, b)
        for group in groups.values()
        for i, a in enumerate(group)
        for b in group[i + 1 :]
    }
    current = start.bic
    names = saturated.inner
    trace: list[MergeStep] = []
    while len(trace) < limit and cache:
        (kept, absorbed), (delta, ll, merged) = min(
            cache.items(),
            key=lambda item: (current + item[1][0], depth[item[0][0]], *item[0]),
        )
        if current + delta >= current - 1e-12:
            break
        trace.append(MergeStep(names[kept], names[absorbed], bic_before=current,
                               bic_after=current + delta))
        current += delta
        counts[kept], loglik[kept] = merged, ll
        members[kept] += members.pop(absorbed)
        group = groups[group_key(kept)]
        group.remove(absorbed)
        # the pairs of the kept stage all lie in its group and are rescored
        cache = {pair: entry for pair, entry in cache.items() if absorbed not in pair}
        for s in group:
            if s != kept:
                pair = (kept, s) if kept < s else (s, kept)
                cache[pair] = score(*pair)

    if not trace:
        return SearchResult(tree=saturated, fit=start, trace=())
    result = saturated.with_staging(
        {names[v]: names[s] for s, vs in members.items() for v in vs}
    )
    fit = bic(result, table, alpha=alpha)
    return SearchResult(tree=result, fit=fit, trace=tuple(trace))


def table_from_rows(tree: StagedTree, rows: Sequence[Sequence[int]]) -> AtomTable:
    """Build a table from 0-based state rows, none past the tree's depth (tests, notebooks)."""
    depth = max(tree._depth)
    cells = ([("" if c is None else str(c)) for c in row] for row in rows)
    return _count_rows(tree, cells, [None] * depth)
