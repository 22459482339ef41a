"""Discrete Bayesian networks and their staged-tree representation.

A BN over variables X_1, ..., X_m unfolds into the tree over the product
state space in a chosen topological order.  Two level-i vertices end up in
the same stage exactly when their histories agree on the parents of the
level-i variable, so every conditional-independence statement of the DAG is
encoded in the staging.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Optional, Sequence

from .errors import OrderInconsistentWithDAG, StagedTreeError, int_text, loads
from .tree import (
    SUM_TOL, ParameterVector, StagedTree, _is_integer, _is_real, _Record, _state_name,
)


class DiscreteBN(_Record):
    """A DAG over finitely-valued variables, with optional CPTs.

    ``cpts[var]`` is a list of rows, one per configuration of the parents of
    ``var`` enumerated in row-major order (parents sorted by their position
    in ``variables``); each row lists the state probabilities of ``var``.
    """

    __slots__ = ("variables", "cards", "edges", "cpts")

    def __init__(self, variables: tuple[str, ...], cards: dict[str, int],
                 edges: tuple[tuple[str, str], ...],
                 cpts: Optional[dict[str, list[list[float]]]] = None):
        super().__init__(variables, cards, edges, cpts)
        for name in self.variables:
            if not isinstance(name, str):
                raise StagedTreeError(f"variable name {name!r} is not a string")
            if not set(name).isdisjoint("|=,"):
                raise StagedTreeError(f"variable name {name!r} holds a stage-id separator (| = ,)")
        repeated = _repeated(self.variables)
        if repeated:
            raise StagedTreeError(f"repeated variable names: {repeated}")
        known = set(self.variables)
        if set(self.cards) != known:
            missing = sorted(known - set(self.cards))
            extra = sorted(set(self.cards) - known, key=repr)
            raise StagedTreeError(
                f"cards must name exactly the variables: missing {missing}, extra {extra}"
            )
        for name, card in self.cards.items():
            if not _is_integer(card):
                raise StagedTreeError(
                    f"variable {name!r} has cardinality {card!r}, not an integer"
                )
            if card < 2:
                raise StagedTreeError(f"variable {name!r} has cardinality {card} < 2")
        for edge in self.edges:
            if not isinstance(edge, (tuple, list)) or len(edge) != 2:
                raise StagedTreeError(f"edge {edge!r} is not a [parent, child] pair")
            a, b = edge
            if not (isinstance(a, str) and a in known and isinstance(b, str) and b in known):
                raise StagedTreeError(f"edge ({a!r}, {b!r}) references unknown variable")
        repeated = _repeated(tuple(edge) for edge in self.edges)
        if repeated:
            raise StagedTreeError(f"repeated edges: {repeated}")
        if _topological_order(self.variables, self.edges) is None:
            raise StagedTreeError("graph over the variables is not acyclic")
        if self.cpts is not None:
            self._validate_cpts()

    def _validate_cpts(self) -> None:
        if not isinstance(self.cpts, dict):
            raise StagedTreeError("cpts must map each variable to its list of rows")
        parents = _parents_table(self)
        for var in self.variables:
            rows = self.cpts.get(var)
            if rows is None:
                raise StagedTreeError(f"missing CPT for {var!r}")
            if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
                raise StagedTreeError(f"CPT for {var!r} must be a list of rows, got {rows!r}")
            n_configs = math.prod(self.cards[p] for p in parents[var])
            if len(rows) != n_configs:
                raise StagedTreeError(
                    f"CPT for {var!r} has {len(rows)} rows, expected {n_configs}"
                )
            for row in rows:
                bad = [p for p in row if not (_is_real(p) and 0 <= p <= 1)]
                if bad:
                    raise StagedTreeError(
                        f"CPT row for {var!r} holds {bad[0]!r}, not a number in [0, 1]"
                    )
                if len(row) != self.cards[var]:
                    raise StagedTreeError(f"CPT row for {var!r} has wrong width")
                if abs(math.fsum(row) - 1.0) > SUM_TOL:
                    raise StagedTreeError(f"CPT row for {var!r} sums to {math.fsum(row)}")
        extra = self.cpts.keys() - set(self.variables)
        if extra:
            raise StagedTreeError(f"cpts name variables not in the BN: {sorted(extra, key=repr)}")

    def parents(self, var: str) -> tuple[str, ...]:
        """Parents of var, sorted by position in the variable list."""
        return _parents_table(self)[var]

    def default_order(self) -> tuple[str, ...]:
        """The declaration order if topological, else a topological sort."""
        try:
            return validate_order(self, self.variables)
        except OrderInconsistentWithDAG:
            return _topological_order(self.variables, self.edges)

    def cpt_row(self, var: str, assignment: dict[str, int]) -> list[float]:
        """CPT row of var for the parent states in the given assignment."""
        return _cpt_row(self, self.parents(var), var, assignment)

    def joint_probability(self, assignment: dict[str, int]) -> float:
        """Product of CPT entries for a full assignment."""
        parents = _parents_table(self)
        probs = (_cpt_row(self, parents[v], v, assignment)[assignment[v]] for v in self.variables)
        return math.prod(probs, start=1.0)

    @classmethod
    def from_spec(cls, spec: dict) -> "DiscreteBN":
        if not isinstance(spec, dict):
            raise StagedTreeError("a BN description must be a JSON object")
        unknown = set(spec) - {"variables", "edges", "cpts"}
        if unknown:
            raise StagedTreeError(f"unknown BN fields: {sorted(unknown)}")
        entries = spec.get("variables")
        if not isinstance(entries, list) or not all(
            isinstance(entry, dict) and {"name", "card"} <= set(entry) for entry in entries
        ):
            raise StagedTreeError("BN variables must be a list of objects with 'name' and 'card'")
        unknown = set().union(*entries) - {"name", "card"}
        if unknown:
            raise StagedTreeError(f"unknown variable fields: {sorted(unknown, key=repr)}")
        edges = spec.get("edges", [])
        if not isinstance(edges, list):
            raise StagedTreeError(f"BN edges must be a list of pairs, got {edges!r}")
        variables = tuple(entry["name"] for entry in entries)
        # __init__ refuses a name that is not a string; it may be unhashable
        cards = {e["name"]: e["card"] for e in entries if isinstance(e["name"], str)}
        edges = tuple(tuple(e) if isinstance(e, list) else e for e in edges)
        return cls(variables, cards, edges, spec.get("cpts"))

    @classmethod
    def from_json(cls, text: str) -> "DiscreteBN":
        return cls.from_spec(loads(text))


def _parents_table(bn: DiscreteBN) -> dict[str, tuple[str, ...]]:
    """The parents of every variable, each sorted by position in the variable
    list, from one pass over the edges; callers that ask for many variables'
    parents build it once.
    """
    table: dict[str, list[str]] = {v: [] for v in bn.variables}
    for a, b in bn.edges:
        table[b].append(a)
    pos = {v: i for i, v in enumerate(bn.variables)}
    return {v: tuple(sorted(ps, key=pos.get)) for v, ps in table.items()}


def _cpt_row(bn: DiscreteBN, parents: tuple[str, ...], var: str,
             assignment: dict[str, int]) -> list[float]:
    """The row of var's CPT for the states that ``assignment`` gives its parents."""
    if bn.cpts is None:
        raise StagedTreeError("BN has no CPTs")
    idx = 0
    for p in parents:
        idx = idx * bn.cards[p] + assignment[p]
    return bn.cpts[var][idx]


def _repeated(items) -> list:
    """The items that occur more than once, each listed once."""
    return [x for x, n in Counter(items).items() if n > 1]


def _topological_order(
    variables: Sequence[str], edges: Sequence[tuple[str, str]]
) -> Optional[tuple[str, ...]]:
    """Kahn's algorithm with a first-in-first-out queue, or None on a cycle.

    Sources are queued in variable order and a child when its last incoming
    edge is removed, scanning each vertex's children in edge order.  This is
    the order ``networkx.topological_sort`` gives, which the tests check.
    """
    children: dict[str, dict[str, None]] = {v: {} for v in variables}
    for a, b in edges:
        children[a][b] = None  # a dict keeps the first-seen order and drops repeats
    indegree = dict.fromkeys(variables, 0)
    for cs in children.values():
        for c in cs:
            indegree[c] += 1
    order = [v for v in variables if indegree[v] == 0]
    for v in order:  # the loop reaches the vertices appended behind it
        for c in children[v]:
            indegree[c] -= 1
            if indegree[c] == 0:
                order.append(c)
    return tuple(order) if len(order) == len(indegree) else None


def validate_order(bn: DiscreteBN, order: Sequence[str]) -> tuple[str, ...]:
    order = tuple(order)
    if sorted(order) != sorted(bn.variables):
        raise OrderInconsistentWithDAG(f"order {order} is not a permutation of the variables")
    pos = {v: i for i, v in enumerate(order)}
    for a, b in bn.edges:
        if pos[a] > pos[b]:
            raise OrderInconsistentWithDAG(f"edge ({a!r}, {b!r}) goes backwards in {order}")
    return order


# ``from-bn`` peaks at about 1.4 KB per inner vertex (36 MB at k = 16383,
# 193 MB at k = 131071 on binary chains), so the largest unfolding built
# stays near 0.4 GB.  A leaf costs about 0.14 KB, and every binary BN within
# the vertex bound stays within the leaf bound.
MAX_UNFOLDED_VERTICES = 2**18
MAX_UNFOLDED_LEAVES = 2**20


def _unfolding(bn: DiscreteBN, order: Optional[Sequence[str]]):
    """(variable, history, stage) per inner vertex of the unfolded tree, level by
    level; ``history`` maps the earlier variables to the states reaching it.

    An unfolding of more than MAX_UNFOLDED_VERTICES inner vertices, or else
    MAX_UNFOLDED_LEAVES leaves, is refused before any vertex is made.
    """
    order = validate_order(bn, order if order is not None else bn.default_order())
    k, width = 0, 1  # a level is as wide as the product of the earlier cardinalities
    for var in order:
        k, width = k + width, width * bn.cards[var]
    if k > MAX_UNFOLDED_VERTICES:
        raise StagedTreeError(
            f"unfolding has {int_text(k)} inner vertices, over {MAX_UNFOLDED_VERTICES}"
        )
    if width > MAX_UNFOLDED_LEAVES:
        raise StagedTreeError(f"unfolding has {int_text(width)} leaves, over {MAX_UNFOLDED_LEAVES}")
    table = _parents_table(bn)
    for level, var in enumerate(order):
        history = order[:level]
        parents = set(table[var])
        for states in itertools.product(*(range(bn.cards[w]) for w in history)):
            config = ",".join(f"{w}={s}" for w, s in zip(history, states) if w in parents)
            yield var, dict(zip(history, states)), f"{var}|{config}"


def bn_to_staged_tree(bn: DiscreteBN, order: Optional[Sequence[str]] = None) -> StagedTree:
    """Unfold a BN into its staged tree in the given topological order.

    Level-i vertices (emitting the states of the i-th variable in the order)
    share a stage iff their histories agree on that variable's parents.
    """
    children: dict[str, list[str]] = {}
    stages: dict[str, str] = {}
    for var, history, stage in _unfolding(bn, order):
        states = tuple(history.values())
        name = _state_name(states)
        children[name] = [_state_name(states + (s,)) for s in range(bn.cards[var])]
        stages[name] = stage
    return StagedTree(children, stages=stages)


def bn_edge_labels(bn: DiscreteBN, order: Optional[Sequence[str]] = None) -> ParameterVector:
    """Transfer the CPT entries onto the stages of the unfolded tree."""
    if bn.cpts is None:
        raise StagedTreeError("BN has no CPTs to transfer")
    parents = _parents_table(bn)
    vals: dict[tuple[str, int], float] = {}
    for var, history, stage in _unfolding(bn, order):
        for j, p in enumerate(_cpt_row(bn, parents[var], var, history), start=1):
            vals[(stage, j)] = p
    return ParameterVector(vals)


def has_immorality(bn: DiscreteBN) -> bool:
    """True iff some vertex has two non-adjacent parents (a v-structure)."""
    edges = {tuple(e) for e in bn.edges}
    for ps in _parents_table(bn).values():
        for a, b in itertools.combinations(ps, 2):
            if (a, b) not in edges and (b, a) not in edges:
                return True
    return False


def is_decomposable(bn: DiscreteBN) -> bool:
    """No immoralities, which already makes the skeleton chordal.

    Take a chordless cycle of four or more vertices in the skeleton, and its
    vertex v that comes last in a topological order.  Both cycle neighbours
    of v come earlier, so they are parents of v, and they are not adjacent,
    since the cycle has no chord: an immorality at v.  (Lauritzen, *Graphical
    Models*, 1996: a DAG model is decomposable iff the DAG is perfect.)
    """
    return not has_immorality(bn)


def find_simple_ordering(bn: DiscreteBN) -> Optional[tuple[str, ...]]:
    """A topological order where pa(next) is contained in {current} + pa(current).

    Returns None when no topological ordering satisfies the containment.
    Depth-first search over partial orders, pruning as soon as the condition
    fails for the vertex just placed.  An explicit stack holds, per placed
    prefix, the candidates for the next place, in name order.  They depend
    only on the (last vertex, placed set) state, so a state whose candidates
    all failed is never entered again: at most n * 2**n states, not (n - 1)!.

    The first vertex has no parents, so every w with parents follows some
    u != w with pa(w) <= {u} + pa(u).  A BN in which some w has no such u
    has no simple ordering, and is answered before the search, in O(n^2)
    subset tests.
    """
    parents = {v: set(ps) for v, ps in _parents_table(bn).items()}
    names = sorted(bn.variables)
    for w, pw in parents.items():
        if pw and not any(u != w and pw <= pu | {u} for u, pu in parents.items()):
            return None
    placed: list[str] = []
    done: set[str] = set()
    failed: set[tuple[str, frozenset]] = set()  # (last, placed) states with no completion

    def candidates():
        # each placed vertex's parents lie in ``done``, so ``allowed`` does too;
        # a frame is resumed only once ``done`` is back to its own prefix
        allowed = {placed[-1]} | parents[placed[-1]] if placed else set()
        return (v for v in names if v not in done and parents[v] <= allowed
                and (v, frozenset(done | {v})) not in failed)

    stack = [candidates()]
    while len(placed) < len(names):
        v = next(stack[-1], None)
        if v is None:  # every extension of this prefix failed
            stack.pop()
            if not stack:
                return None
            failed.add((placed[-1], frozenset(done)))
            done.discard(placed.pop())
        else:
            placed.append(v)
            done.add(v)
            stack.append(candidates())
    return tuple(placed)


class BNReport(_Record):
    __slots__ = ("decomposable", "simple_ordering", "regular_certified")

    def __init__(self, decomposable: bool, simple_ordering: Optional[tuple[str, ...]],
                 regular_certified: bool):
        super().__init__(decomposable, simple_ordering, regular_certified)


def classify_bn(bn: DiscreteBN) -> BNReport:
    """Certify regularity of the unfolded tree via decomposability or a simple order."""
    decomposable = is_decomposable(bn)
    simple_ordering = find_simple_ordering(bn)
    return BNReport(
        decomposable=decomposable,
        simple_ordering=simple_ordering,
        regular_certified=decomposable or simple_ordering is not None,
    )
