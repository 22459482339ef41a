"""Probability trees and staged trees.

A staged tree is a rooted ordered tree in which every inner vertex carries a
stage id and a designated "downward" outgoing edge.  Vertices in the same
stage share their vector of edge probabilities, so parameters live at the
level of (stage id, edge index) pairs.

Conventions used throughout the package:

* inner vertices are enumerated v_1, ..., v_k breadth-first from the root,
  with the child order as given in the tree description;
* edge indices j are 1-based, following the declared child order;
* atoms (root-to-leaf paths) are enumerated depth-first following the edge
  order, so the path that always takes edge 1 comes first.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from collections.abc import Mapping
from functools import cached_property
from typing import Iterable, Optional

from .errors import (
    CycleDetected,
    DownwardEdgeInconsistentWithinStage,
    IndexOutOfRange,
    NontrivialStaging,
    StagedTreeError,
    StageOutDegreeMismatch,
    VertexWithOneChild,
    ZeroMass,
)

SUM_TOL = 1e-12


def _is_integer(x) -> bool:
    """An integer that is not a bool (bool is an int subclass)."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_real(x) -> bool:
    """A real number that is not a bool (bool is an int subclass)."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


_set = object.__setattr__  # how a record's own __init__ writes its fields


class _Record:
    """Base of the immutable result records, which behave as frozen dataclasses.

    A record lists its fields in ``__slots__``, in constructor order, and sets
    them in its own ``__init__`` with ``_set``; its repr leaves out ``_hidden``.
    Copy and pickle rebuild a record through its constructor.
    """

    __slots__ = ()
    _hidden: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        shown = (f"{name}={getattr(self, name)!r}" for name in self.__slots__
                 if name not in self._hidden)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __reduce__(self):
        return type(self), self._fields()


class Atom:
    """A root-to-leaf path, stored as a tuple of (vertex, edge-index) steps.

    The set behind ``traverses`` is built on first use.
    """

    __slots__ = ("steps", "leaf", "_edge_set")

    def __init__(self, steps: tuple[tuple[str, int], ...], leaf: str):
        self.steps = steps
        self.leaf = leaf
        self._edge_set = None

    def traverses(self, vertex: str, j: int) -> bool:
        if self._edge_set is None:
            self._edge_set = frozenset(self.steps)
        return (vertex, j) in self._edge_set

    def __len__(self) -> int:
        return len(self.steps)

    def __eq__(self, other) -> bool:
        return isinstance(other, Atom) and self.steps == other.steps

    def __hash__(self) -> int:
        return hash(self.steps)

    def __repr__(self) -> str:
        return "Atom(%s)" % "->".join(f"{v}:{j}" for v, j in self.steps)


def _require_atom_of(tree: StagedTree, atom: Atom) -> None:
    """Refuse an atom whose steps do not walk from the root of ``tree`` down
    its edges to ``atom.leaf``; O(depth).
    """
    children, v = tree.children, tree.root
    for u, j in atom.steps:
        cs = children.get(v)
        if u != v or cs is None or not (_is_integer(j) and 1 <= j <= len(cs)):
            break
        v = cs[j - 1]
    else:
        if v == atom.leaf and v not in children:
            return
    raise StagedTreeError(f"{atom!r} at leaf {atom.leaf!r} is not a root-to-leaf path of the tree")


class StagedTree:
    """An immutable staged tree.

    Parameters
    ----------
    children:
        mapping from vertex id to its ordered list of children; leaves may be
        omitted or mapped to an empty list.
    stages:
        optional mapping from inner vertex id to stage id; vertices not
        listed form their own singleton stage (stage id = vertex id).  A key
        that is not an inner vertex is refused.
    downward:
        optional mapping from stage id (or inner vertex id) to the 1-based
        index of the downward edge; defaults to the last edge.
    root:
        optional explicit root; inferred as the unique parentless vertex.
    """

    def __init__(
        self,
        children: Mapping[str, Iterable[str]],
        stages: Optional[Mapping[str, str]] = None,
        downward: Optional[Mapping[str, int]] = None,
        root: Optional[str] = None,
    ):
        self.children: dict[str, tuple[str, ...]] = {
            str(v): tuple(str(c) for c in cs) for v, cs in children.items() if cs
        }
        declared = set(self.children)
        mentioned = {c for cs in self.children.values() for c in cs}
        self.root = str(root) if root is not None else self._infer_root(declared, mentioned)
        self._validate_shape()
        self.vertices = self._bfs_order()
        self.inner = tuple(v for v in self.vertices if v in self.children)
        if len(self.inner) != len(self.children):
            unreachable = set(self.children) - set(self.inner)
            raise CycleDetected(f"vertices not reachable from root: {sorted(unreachable)}")
        self.leaves = tuple(v for v in self.vertices if v not in self.children)
        self.index = {v: i + 1 for i, v in enumerate(self.inner)}

        stages = stages or {}
        stray = stages.keys() - self.index.keys()
        if stray:
            raise StagedTreeError(
                f"'stages' names ids that are not inner vertices: {sorted(stray, key=str)}"
            )
        self.stage_of = {v: str(stages.get(v, v)) for v in self.inner}
        # out-degree per stage id, in order of first appearance (BFS)
        self.stage_degrees = degree = {}
        for v in self.inner:
            s, k = self.stage_of[v], len(self.children[v])
            if degree.setdefault(s, k) != k:
                raise StageOutDegreeMismatch(
                    f"stage {s!r} mixes out-degrees {degree[s]} and {k} (at vertex {v!r})"
                )
        self.downward = self._resolve_downward(downward or {})

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _infer_root(declared: set[str], mentioned: set[str]) -> str:
        candidates = declared - mentioned
        if len(candidates) != 1:
            raise CycleDetected(
                f"expected exactly one parentless vertex, found {sorted(candidates)}"
            )
        return candidates.pop()

    def _validate_shape(self) -> None:
        parent: dict[str, str] = {}
        for v, cs in self.children.items():
            if len(cs) == 1:
                raise VertexWithOneChild(f"vertex {v!r} has exactly one child")
            for c in cs:
                if c in parent:
                    raise CycleDetected(f"vertex {c!r} has two parents: {parent[c]!r}, {v!r}")
                parent[c] = v
        if self.root in parent:
            raise CycleDetected(f"root {self.root!r} has a parent")
        # One parent per vertex and none at the root: no cycle is reachable from
        # the root, so the BFS ends; __init__ checks that it reaches every vertex.

    def _bfs_order(self) -> tuple[str, ...]:
        order = [self.root]
        for v in order:  # the loop reaches the children appended behind it
            order.extend(self.children.get(v, ()))
        return tuple(order)

    def _resolve_downward(self, spec: Mapping[str, int]) -> dict[str, int]:
        """Return downward edge index per stage id."""
        per_stage: dict[str, int] = {}
        for key, j in spec.items():
            key = str(key)
            stage = self.stage_of.get(key, key if key in self.stage_degrees else None)
            if stage is None:
                raise StagedTreeError(f"downward key {key!r} is neither a vertex nor a stage")
            if not _is_integer(j):
                raise StagedTreeError(f"downward index {j!r} for {key!r} is not an integer")
            j = int(j)
            if per_stage.setdefault(stage, j) != j:
                raise DownwardEdgeInconsistentWithinStage(
                    f"stage {stage!r}: conflicting downward indices {per_stage[stage]} and {j}"
                )
        for s, kappa in self.stage_degrees.items():
            j = per_stage.setdefault(s, kappa)
            if not 1 <= j <= kappa:
                raise IndexOutOfRange(f"downward index {j} out of range for stage {s!r}")
        return per_stage

    # -- basic accessors ------------------------------------------------------

    @cached_property
    def stage_ids(self) -> tuple[str, ...]:
        """Distinct stage ids, in order of first appearance (BFS)."""
        return tuple(self.stage_degrees)

    @cached_property
    def stage_members(self) -> dict[str, tuple[str, ...]]:
        members: dict[str, list[str]] = {s: [] for s in self.stage_degrees}
        for v in self.inner:
            members[self.stage_of[v]].append(v)
        return {s: tuple(vs) for s, vs in members.items()}

    def out_degree(self, v: str) -> int:
        return len(self.children.get(v, ()))

    def child(self, v: str, j: int) -> str:
        cs = self.children.get(v, ())
        if not 1 <= j <= len(cs):
            raise IndexOutOfRange(f"edge index {j} out of range at vertex {v!r}")
        return cs[j - 1]

    def downward_edge(self, v: str) -> int:
        """1-based index of the designated downward edge at inner vertex v."""
        return self.downward[self.stage_of[v]]

    def is_leaf(self, v: str) -> bool:
        return v not in self.children

    def is_saturated(self) -> bool:
        """True if every inner vertex forms its own stage."""
        return len(self.stage_degrees) == len(self.inner)

    @property
    def k(self) -> int:
        return len(self.inner)

    @property
    def n(self) -> int:
        return len(self.leaves)

    # -- passes over the vertices --------------------------------------------

    @cached_property
    def depth(self) -> dict[str, int]:
        """Number of edges from the root to each vertex."""
        depth = {self.root: 0}
        for v in self.inner:
            d = depth[v] + 1
            for c in self.children[v]:
                depth[c] = d
        return depth

    def fold(self, leaf_value, combine) -> dict:
        """Bottom-up pass in reversed BFS order: each leaf gets ``leaf_value``,
        each inner v ``combine(v, [children's values in edge order])``.
        """
        out: dict = {}
        children = self.children
        for v in reversed(self.vertices):
            cs = children.get(v)
            out[v] = leaf_value if cs is None else combine(v, [out[c] for c in cs])
        return out

    def edge_totals(self, leaf_values) -> dict[str, list]:
        """Per inner vertex, in ``inner`` order, the total of ``leaf_values``
        over the leaves below each of its edges.

        ``leaf_values`` holds one value per atom, in atom order.  Edge j out
        of v leads to the leaves below its child, so the totals are leaf
        values summed up the reversed BFS order.
        """
        if len(leaf_values) != self.n:
            raise StagedTreeError(
                f"expected {self.n} leaf values, one per atom, got {len(leaf_values)}"
            )
        below = {leaf: leaf_values[i] for leaf, i in self.leaf_position.items()}
        totals = dict.fromkeys(self.inner)
        children = self.children
        for v in reversed(self.inner):
            edges = [below[c] for c in children[v]]
            totals[v] = edges
            below[v] = sum(edges)
        return totals

    @cached_property
    def leaf_position(self) -> dict[str, int]:
        """0-based index of each leaf's atom in the depth-first atom order.

        The same explicit-stack walk as :attr:`atoms`, without building paths.
        """
        out: dict[str, int] = {}
        children = self.children
        stack = [self.root]
        while stack:
            v = stack.pop()
            cs = children.get(v)
            if cs is None:
                out[v] = len(out)
            else:
                stack.extend(reversed(cs))
        return out

    # -- atoms ----------------------------------------------------------------

    @cached_property
    def atoms(self) -> tuple[Atom, ...]:
        """All root-to-leaf paths, depth-first in edge order.

        The order is that of the recursive walk an explicit stack replaced,
        so deep trees no longer hit the recursion limit.
        """
        out: list[Atom] = []
        children = self.children
        stack = [(self.root, ())]
        while stack:
            v, steps = stack.pop()
            cs = children.get(v)
            if cs is None:
                out.append(Atom(steps, v))
            else:
                stack.extend((cs[j - 1], steps + ((v, j),)) for j in range(len(cs), 0, -1))
        return tuple(out)

    # -- restaging ------------------------------------------------------------

    def with_staging(
        self,
        stages: Mapping[str, str],
        downward: Optional[Mapping[str, int]] = None,
    ) -> "StagedTree":
        """Same tree graph with a different staging."""
        return StagedTree(self.children, stages=stages, downward=downward, root=self.root)

    def saturated(self) -> "StagedTree":
        """Same tree graph with the trivial (all-singleton) staging."""
        return self.with_staging({})

    # -- serialization --------------------------------------------------------

    _SPEC_FIELDS = {"vertices", "stages", "downward"}

    @classmethod
    def from_spec(cls, spec: Mapping) -> "StagedTree":
        """Build from the JSON tree-description schema.

        ``{"vertices": [{"id": ..., "children": [...]}, ...],
           "stages": {vertex: stage, ...}, "downward": {stage: index, ...}}``
        """
        if not isinstance(spec, Mapping):
            raise StagedTreeError("tree description must be a JSON object")
        unknown = set(spec) - cls._SPEC_FIELDS
        if unknown:
            raise StagedTreeError(f"unknown tree-description fields: {sorted(unknown)}")
        if "vertices" not in spec:
            raise StagedTreeError("tree description lacks 'vertices'")
        vertices = spec["vertices"]
        if not isinstance(vertices, list):
            raise StagedTreeError(f"'vertices' must be a list of objects, got {vertices!r}")
        children: dict[str, list] = {}
        for entry in vertices:
            if not isinstance(entry, dict):
                raise StagedTreeError(f"vertex entry {entry!r} is not an object")
            bad = entry.keys() - {"id", "children"}
            if bad:
                raise StagedTreeError(f"unknown vertex fields: {sorted(bad)}")
            v, cs = entry.get("id"), entry.get("children", [])
            if not isinstance(v, str):
                raise StagedTreeError(f"vertex entry {entry!r} needs a string 'id'")
            if not isinstance(cs, list):
                raise StagedTreeError(f"children of {v!r} must be a list of vertex ids, got {cs!r}")
            if v in children:
                raise StagedTreeError(f"vertex {v!r} is listed twice")
            children[v] = cs
        # one pass over the types of all children; the loop below only names the culprit
        if not set(map(type, itertools.chain.from_iterable(children.values()))) <= {str}:
            for v, cs in children.items():
                if not all(isinstance(c, str) for c in cs):
                    raise StagedTreeError(
                        f"children of {v!r} must be a list of vertex ids, got {cs!r}"
                    )
        stages, downward = spec.get("stages"), spec.get("downward")
        if stages is not None and (
            not isinstance(stages, Mapping) or not set(map(type, stages.values())) <= {str}
        ):
            raise StagedTreeError(f"'stages' must map vertex ids to stage ids, got {stages!r}")
        if downward is not None and not isinstance(downward, Mapping):
            raise StagedTreeError(f"'downward' must map stage ids to indices, got {downward!r}")
        return cls(children, stages=stages, downward=downward)

    def to_spec(self) -> dict:
        spec: dict = {
            "vertices": [
                {"id": v, "children": list(self.children[v])} for v in self.vertices
                if v in self.children
            ],
            "stages": {v: self.stage_of[v] for v in self.inner},
        }
        nondefault = {
            s: j for s, j in self.downward.items() if j != self.stage_degrees[s]
        }
        if nondefault:
            spec["downward"] = nondefault
        return spec

    @classmethod
    def from_json(cls, text: str) -> "StagedTree":
        return cls.from_spec(json.loads(text))

    def __repr__(self) -> str:
        return f"StagedTree(k={self.k}, n={self.n}, stages={len(self.stage_ids)})"


class ParameterVector(Mapping):
    """Edge probabilities keyed by (stage id, edge index).

    Entries are validated to lie strictly in (0, 1) and to sum to one within
    each stage (the correctly rounded sum, within SUM_TOL).  Boundary values
    are only admitted with ``allow_boundary=True``, which the fitting code
    uses for zero-count maximum-likelihood estimates.
    """

    def __init__(
        self,
        values: Mapping[tuple[str, int], float],
        allow_boundary: bool = False,
    ):
        self.allow_boundary = allow_boundary
        # the range is checked before float(), which overflows on a huge int
        for (s, j), p in values.items():
            if not _is_real(p):
                raise StagedTreeError(f"label theta[{s},{j}]={p!r} is not a real number")
            lo_ok = p > 0.0 if not allow_boundary else p >= 0.0
            hi_ok = p < 1.0 if not allow_boundary else p <= 1.0
            if not (lo_ok and hi_ok):
                raise StagedTreeError(f"label theta[{s},{j}]={p} outside the open unit interval")
        self._values = {(str(s), int(j)): float(p) for (s, j), p in values.items()}
        by_stage: dict[str, list[float]] = {}
        for (s, j), p in self._values.items():
            by_stage.setdefault(s, []).append(p)
        for s, labels in by_stage.items():
            if abs(math.fsum(labels) - 1.0) > SUM_TOL:
                raise StagedTreeError(f"stage {s!r} labels sum to {math.fsum(labels)}, not 1")

    def __getitem__(self, key):
        return self._values[key]

    def __iter__(self):
        return iter(self._values)

    def __len__(self):
        return len(self._values)

    def label(self, tree: StagedTree, v: str, j: int) -> float:
        """Label of edge j out of vertex v, resolved through v's stage."""
        return self._values[(tree.stage_of[v], j)]

    def is_boundary(self) -> bool:
        return any(p in (0.0, 1.0) for p in self._values.values())

    @classmethod
    def uniform(cls, tree: StagedTree) -> "ParameterVector":
        vals = {}
        for s, kappa in tree.stage_degrees.items():
            for j in range(1, kappa + 1):
                vals[(s, j)] = 1.0 / kappa
        return cls(vals)

    @classmethod
    def random(cls, tree: StagedTree, rng) -> "ParameterVector":
        """Independent Dirichlet(1,...,1) draw per stage."""
        vals = {}
        for s, kappa in tree.stage_degrees.items():
            probs = rng.dirichlet([1.0] * kappa)
            # keep away from the boundary so downstream logs are finite
            probs = (probs + 1e-9) / (1.0 + kappa * 1e-9)
            for j, p in enumerate(probs, start=1):
                vals[(s, j)] = p
        return cls(vals)

    def validate_for(self, tree: StagedTree) -> None:
        """Require a label for every (stage, edge) of the tree, for nothing else,
        and no zero label, whose log the parametrizing passes cannot take.
        """
        needed = {
            (s, j) for s, kappa in tree.stage_degrees.items() for j in range(1, kappa + 1)
        }
        missing = needed - set(self._values)
        if missing:
            raise StagedTreeError(f"parameter vector lacks labels for {sorted(missing)}")
        extra = set(self._values) - needed
        if extra:
            raise StagedTreeError(
                f"parameter vector has labels for edges not in the tree: {sorted(extra)}"
            )
        zeros = sorted(key for key, p in self._values.items() if p == 0.0)
        if zeros:
            s, j = zeros[0]
            raise ZeroMass(f"label theta[{s},{j}] is 0, a boundary value with no log")


class AtomDistribution(Mapping):
    """A strictly positive probability distribution over the atoms of a tree."""

    def __init__(self, probs: Mapping[Atom, float]):
        self._probs = dict(probs)
        total = math.fsum(self._probs.values())
        if abs(total - 1.0) > SUM_TOL:
            raise StagedTreeError(f"atom probabilities sum to {total}, not 1")
        if any(p <= 0.0 for p in self._probs.values()):
            raise ZeroMass("atom distribution has a non-positive entry")

    def __getitem__(self, atom):
        return self._probs[atom]

    def __iter__(self):
        return iter(self._probs)

    def __len__(self):
        return len(self._probs)


# -- core operations ----------------------------------------------------------


def _log_atom_probability(tree: StagedTree, theta: ParameterVector, atom: Atom) -> float:
    """The log of an atom's probability, for an atom known to be of ``tree``."""
    return math.fsum(math.log(theta.label(tree, v, j)) for v, j in atom.steps)


def log_atom_probability(tree: StagedTree, theta: ParameterVector, atom: Atom) -> float:
    """Sum of the logs of the traversed edge labels; refuses an atom that is
    not a root-to-leaf path of ``tree``.
    """
    _require_atom_of(tree, atom)
    return _log_atom_probability(tree, theta, atom)


def atom_probability(tree: StagedTree, theta: ParameterVector, atom: Atom) -> float:
    """Product of the traversed edge labels, accumulated in log space; refuses
    an atom that is not a root-to-leaf path of ``tree``.
    """
    return math.exp(log_atom_probability(tree, theta, atom))


def distribution_from_labels(tree: StagedTree, theta: ParameterVector) -> AtomDistribution:
    """The atom probabilities; refused where one underflows to 0.0, which
    happens below exp(-745), e.g. for uniform binary labels from depth 1075 on.
    The tree's own atoms need no membership check.
    """
    theta.validate_for(tree)
    probs = {x: math.exp(_log_atom_probability(tree, theta, x)) for x in tree.atoms}
    for x, p in probs.items():
        if p == 0.0:
            log_p = _log_atom_probability(tree, theta, x)
            raise ZeroMass(
                f"the atom at leaf {x.leaf!r} has probability exp({log_p:.6g}),"
                " below the smallest positive double"
            )
    return AtomDistribution(probs)


def labels_from_distribution(tree: StagedTree, p: Mapping[Atom, float]) -> ParameterVector:
    """Invert an atom distribution into edge labels on a saturated tree.

    The label of edge j out of vertex v is the conditional probability of
    passing through that edge given that v is reached: the mass below the
    edge divided by the sum of the masses below all edges out of v.
    """
    if not tree.is_saturated():
        raise NontrivialStaging("labels_from_distribution requires the trivial staging")
    mass = [p[x] for x in tree.atoms]
    if any(px <= 0.0 for px in mass):
        raise ZeroMass("atom distribution has a zero entry")
    vals = {}
    stage_of = tree.stage_of
    for v, edges in tree.edge_totals(mass).items():
        total = math.fsum(edges)
        for j, m in enumerate(edges, start=1):
            vals[(stage_of[v], j)] = m / total
    return ParameterVector(vals)


def dimensions(tree: StagedTree) -> tuple[int, int]:
    """(d0, d): free parameters of the saturated and of the staged tree."""
    d0 = sum(tree.out_degree(v) - 1 for v in tree.inner)
    d = sum(kappa - 1 for kappa in tree.stage_degrees.values())
    return d0, d


def star(n: int) -> StagedTree:
    """The star tree with n leaves."""
    return StagedTree({"r": [f"e{i}" for i in range(1, n + 1)]})


def product_tree(cards: Iterable[int]) -> StagedTree:
    """Saturated tree over the product state space with the given cardinalities.

    Vertices are named by the partial assignment, e.g. ``"v_0.1"`` for the
    vertex reached by states (0, 1).
    """
    cards = list(cards)
    children: dict[str, list[str]] = {}
    for level in range(len(cards)):
        for config in itertools.product(*(range(c) for c in cards[:level])):
            name = "v_" + ".".join(map(str, config)) if config else "v_root"
            children[name] = [
                "v_" + ".".join(map(str, config + (s,))) for s in range(cards[level])
            ]
    return StagedTree(children, root="v_root")
