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
import re
from array import array
from collections.abc import Mapping
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import (
    CycleDetected,
    DownwardEdgeInconsistentWithinStage,
    IndexOutOfRange,
    NontrivialStaging,
    StagedTreeError,
    StageOutDegreeMismatch,
    VertexWithOneChild,
    ZeroMass,
    loads,
)

SUM_TOL = 1e-12


def _is_integer(x) -> bool:
    """An integer that is not a bool (bool is an int subclass)."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_real(x) -> bool:
    """A real number that is not a bool (bool is an int subclass)."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


class _Record:
    """Base of the immutable result records, which behave as frozen dataclasses.

    A record lists its fields in ``__slots__``, in constructor order.  Its own
    ``__init__`` checks its arguments and passes them on in that order, and
    ``_Record.__init__`` sets the fields in slot order; its repr leaves out
    ``_hidden``.  Copy and pickle rebuild a record through its constructor.
    """

    __slots__ = ()
    _hidden: tuple[str, ...] = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

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
    """An immutable staged tree, stored as arrays in BFS order.

    Position p numbers the vertices breadth-first (the root is 0).  The
    children of each inner vertex are one block of positions, in the order of
    their parents, so the level-order degree sequence (LOUDS) is the graph:
    ``vertices[p]`` names position p, ``_degree[p]`` is its out-degree (0 at
    a leaf), and its children are positions ``_first[p]`` to
    ``_first[p + 1] - 1``, prefix sums of the degrees.  Inner vertex v_{r+1}
    is at position ``_inner_pos[r]``, and ``_stage[r]`` is its stage as a
    small int, which indexes ``stage_ids``, ``_kappa`` (out-degrees) and
    ``_down`` (downward edges).  ``downward`` lists the stages that the
    description names first.  The command paths read only these arrays; the
    vertex-keyed ``children``, ``stage_of``, ``index``, ``inner``, ``leaves``,
    ``depth``, ``stage_members`` and ``leaf_position`` are views built on first use.

    Parameters
    ----------
    children:
        mapping from vertex id to its ordered list of children; leaves may be
        omitted or mapped to an empty list.  The root is the one vertex that
        no list names, and at least one vertex must have children.
    stages:
        optional mapping from inner vertex id to stage id; vertices not
        listed form their own singleton stage (stage id = vertex id).  A key
        that is not an inner vertex is refused.
    downward:
        optional mapping from stage id (or inner vertex id) to the 1-based
        index of the downward edge; defaults to the last edge.
    """

    def __init__(
        self,
        children: Mapping[str, Iterable[str]],
        stages: Optional[Mapping[str, str]] = None,
        downward: Optional[Mapping[str, int]] = None,
    ):
        kids = {str(v): tuple(str(c) for c in cs) for v, cs in children.items() if cs}
        self._set_shape(kids)
        self._set_stages(stages or {}, downward or {})

    # -- construction ---------------------------------------------------------

    def _set_shape(self, kids: Mapping[str, Sequence[str]]) -> None:
        """Lay out ``kids`` (each inner vertex's children, none empty) in BFS
        order from the one parentless vertex, after the checks of
        :func:`_root_of`; then check that the root reaches every vertex.  The
        children of one level, in order, are the next level.
        """
        order, degree, level = [], array("i"), [_root_of(kids)]
        while level:
            order.extend(level)
            below = list(map(kids.get, level, itertools.repeat(())))
            degree.extend(map(len, below))
            level = list(itertools.chain.from_iterable(below))
        inner = array("i", itertools.compress(range(len(order)), degree))
        if len(inner) != len(kids):
            unreachable = set(kids).difference(map(order.__getitem__, inner))
            raise CycleDetected(f"vertices not reachable from root: {sorted(unreachable)}")
        self.vertices = tuple(order)
        self._degree = degree
        self._first = array("i", itertools.accumulate(degree, initial=1))
        self._inner_pos = inner

    def _set_stages(self, stages: Mapping, downward: Mapping) -> None:
        """Number the stages in BFS order of their first member, after checking
        that every key of ``stages`` is an inner vertex, that each stage has one
        out-degree, and that the downward edges agree within a stage and lie in
        range.  A vertex that ``stages`` does not list is its own stage.
        """
        inner = list(map(self.vertices.__getitem__, self._inner_pos))
        if sum(map(stages.__contains__, inner)) != len(stages):
            stray = stages.keys() - set(inner)
            raise StagedTreeError(
                f"'stages' names ids that are not inner vertices: {sorted(stray, key=str)}"
            )
        named = list(map(str, map(stages.get, inner, inner)))
        ids = {s: i for i, s in enumerate(dict.fromkeys(named))}
        stage = array("i", map(ids.__getitem__, named))
        degrees = map(self._degree.__getitem__, self._inner_pos)
        kappa = [0] * len(ids)  # each stage's out-degree, its first member's
        for v, name, s, d in zip(inner, named, stage, degrees):
            if not kappa[s]:
                kappa[s] = d
            elif kappa[s] != d:
                raise StageOutDegreeMismatch(
                    f"stage {name!r} mixes out-degrees {kappa[s]} and {d} (at vertex {v!r})"
                )
        self.stage_ids = tuple(ids)
        self._stage = stage
        self._kappa = kappa
        self.downward = self._resolve_downward(downward, inner, ids)
        self._down = [self.downward[s] for s in self.stage_ids]

    def _resolve_downward(self, spec: Mapping, inner: list[str], ids: dict) -> dict[str, int]:
        """Return downward edge index per stage id: first the stages that
        ``spec`` names, in its order, then the others in stage order.
        """
        keys = {str(key) for key in spec}
        stage_of = {v: self.stage_ids[s] for v, s in zip(inner, self._stage) if v in keys}
        per_stage: dict[str, int] = {}
        for key, j in spec.items():
            key = str(key)
            stage = stage_of.get(key, key if key in ids else None)
            if stage is None:
                raise StagedTreeError(f"downward key {key!r} is neither a vertex nor a stage")
            if not _is_integer(j):
                raise StagedTreeError(f"downward index {j!r} for {key!r} is not an integer")
            j = int(j)
            if per_stage.setdefault(stage, j) != j:
                raise DownwardEdgeInconsistentWithinStage(
                    f"stage {stage!r}: conflicting downward indices {per_stage[stage]} and {j}"
                )
        for s, kappa in zip(self.stage_ids, self._kappa):
            j = per_stage.setdefault(s, kappa)
            if not 1 <= j <= kappa:
                raise IndexOutOfRange(f"downward index {j} out of range for stage {s!r}")
        return per_stage

    # -- name-keyed views -----------------------------------------------------

    @property
    def root(self) -> str:
        return self.vertices[0]

    @cached_property
    def inner(self) -> tuple[str, ...]:
        return tuple(map(self.vertices.__getitem__, self._inner_pos))

    @cached_property
    def leaves(self) -> tuple[str, ...]:
        return tuple(v for v, d in zip(self.vertices, self._degree) if not d)

    @cached_property
    def children(self) -> dict[str, tuple[str, ...]]:
        """Each inner vertex's children, in edge order; the keys in BFS order."""
        names, first = self.vertices, self._first
        return {names[p]: names[first[p] : first[p + 1]] for p in self._inner_pos}

    @cached_property
    def index(self) -> dict[str, int]:
        return {self.vertices[p]: i for i, p in enumerate(self._inner_pos, start=1)}

    @cached_property
    def stage_of(self) -> dict[str, str]:
        return dict(zip(self.inner, map(self.stage_ids.__getitem__, self._stage)))

    @cached_property
    def stage_degrees(self) -> dict[str, int]:
        return dict(zip(self.stage_ids, self._kappa))

    @cached_property
    def stage_members(self) -> dict[str, tuple[str, ...]]:
        names = self.vertices
        members = (tuple(map(names.__getitem__, ps)) for ps in self._members)
        return dict(zip(self.stage_ids, members))

    @cached_property
    def depth(self) -> dict[str, int]:
        """Number of edges from the root to each vertex."""
        return dict(zip(self.vertices, self._depth))

    @cached_property
    def leaf_position(self) -> dict[str, int]:
        """0-based index of each leaf's atom in the depth-first atom order."""
        return dict(zip(map(self.vertices.__getitem__, self._leaf_order), itertools.count()))

    # -- basic accessors ------------------------------------------------------

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
        return len(self.stage_ids) == self.k

    @property
    def k(self) -> int:
        return len(self._inner_pos)

    @property
    def n(self) -> int:
        return len(self.vertices) - self.k

    # -- passes over the positions --------------------------------------------

    @cached_property
    def _depth(self) -> array:
        """Depth of each position.  The levels are runs of positions: the
        level after positions a..b-1 is b..``_first[b]`` - 1.
        """
        first, depth = self._first, array("i")
        a, b, level = 0, 1, 0
        while a < b:
            depth.extend(itertools.repeat(level, b - a))
            a, b, level = b, first[b], level + 1
        return depth

    @cached_property
    def _leaf_order(self) -> array:
        """The positions of the leaves in the depth-first atom order, from the
        same explicit-stack walk as :attr:`atoms`.
        """
        degree, first = self._degree, self._first
        out, stack = array("i"), [0]
        while stack:
            p = stack.pop()
            if degree[p]:
                stack.extend(range(first[p + 1] - 1, first[p] - 1, -1))
            else:
                out.append(p)
        return out

    @cached_property
    def _members(self) -> list[list[int]]:
        """The positions of each stage's members, in BFS order, by stage int."""
        members: list[list[int]] = [[] for _ in self.stage_ids]
        for p, s in zip(self._inner_pos, self._stage):
            members[s].append(p)
        return members

    def _fold(self, leaf_value, combine) -> list:
        """Bottom-up pass in reversed BFS order: each leaf gets ``leaf_value``,
        inner vertex v_{r+1} ``combine(r, [its children's values in edge
        order])``; returns the value of every BFS position.
        """
        first, inner = self._first, self._inner_pos
        out = [leaf_value] * len(self.vertices)
        for r in range(len(inner) - 1, -1, -1):
            p = inner[r]
            out[p] = combine(r, out[first[p] : first[p + 1]])
        return out

    def _downward_fold(self, leaf_value, step) -> list:
        """Fold ``step(r, s, j, below)`` down the all-downward path from every vertex.

        The pass runs over the inner vertices in reversed BFS order, as
        :meth:`_fold` does: r is the 0-based index of the vertex, s its stage
        int and j its downward edge, and ``below`` is the value of the child at
        edge j.  Returns the value of every BFS position.
        """
        first, down = self._first, self._down
        out = [leaf_value] * len(self.vertices)
        inner, stage = self._inner_pos, self._stage
        for r in range(len(inner) - 1, -1, -1):
            p, s = inner[r], stage[r]
            j = down[s]
            out[p] = step(r, s, j, out[first[p] + j - 1])
        return out

    def _edge_totals(self, leaf_values) -> list[list]:
        """Per inner vertex, by inner index, the total of ``leaf_values``
        over the leaves below each of its edges.

        ``leaf_values`` holds one value per atom, in atom order.  Edge j out
        of v leads to the leaves below its child, so the totals are leaf
        values summed up the reversed BFS order.
        """
        if len(leaf_values) != self.n:
            raise StagedTreeError(
                f"expected {self.n} leaf values, one per atom, got {len(leaf_values)}"
            )
        below = [0] * len(self.vertices)
        for p, x in zip(self._leaf_order, leaf_values):
            below[p] = x
        first, inner = self._first, self._inner_pos
        totals = [None] * len(inner)
        for r in range(len(inner) - 1, -1, -1):
            p = inner[r]
            totals[r] = edges = below[first[p] : first[p + 1]]
            below[p] = sum(edges)
        return totals

    def edge_totals(self, leaf_values) -> dict[str, list]:
        """:meth:`_edge_totals` keyed by inner vertex, in ``inner`` order."""
        return dict(zip(self.inner, self._edge_totals(leaf_values)))

    # -- atoms ----------------------------------------------------------------

    @cached_property
    def atoms(self) -> tuple[Atom, ...]:
        """All root-to-leaf paths, depth-first in edge order.

        The order is that of the recursive walk an explicit stack replaced,
        so deep trees no longer hit the recursion limit.
        """
        names, degree, first = self.vertices, self._degree, self._first
        out: list[Atom] = []
        stack = [(0, ())]
        while stack:
            p, steps = stack.pop()
            d = degree[p]
            if d == 0:
                out.append(Atom(steps, names[p]))
            else:
                v, f = names[p], first[p] - 1
                stack.extend((f + j, steps + ((v, j),)) for j in range(d, 0, -1))
        return tuple(out)

    # -- restaging ------------------------------------------------------------

    def with_staging(
        self,
        stages: Mapping[str, str],
        downward: Optional[Mapping[str, int]] = None,
    ) -> "StagedTree":
        """Same tree graph, sharing its arrays, with a different staging."""
        tree = object.__new__(type(self))
        tree.vertices, tree._degree = self.vertices, self._degree
        tree._first, tree._inner_pos = self._first, self._inner_pos
        tree._set_stages(stages or {}, downward or {})
        return tree

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

        The arrays are laid out from the description's own lists, which are
        not copied.
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
        fields = {"id", "children"}
        for entry in vertices:
            if not isinstance(entry, dict):
                raise StagedTreeError(f"vertex entry {entry!r} is not an object")
            if not entry.keys() <= fields:
                raise StagedTreeError(f"unknown vertex fields: {sorted(entry.keys() - fields)}")
            v, cs = entry.get("id"), entry.get("children", [])
            if not isinstance(v, str):
                raise StagedTreeError(f"vertex entry {entry!r} needs a string 'id'")
            if not isinstance(cs, list):
                raise StagedTreeError(f"children of {v!r} must be a list of vertex ids, got {cs!r}")
            if v in children:
                raise StagedTreeError(f"vertex {v!r} is listed twice")
            children[v] = cs
        # the checks in their order: the child types, the types of 'stages' and
        # 'downward', the shape, the staging; from_json lays out the shape first
        kids = _inner_children(children)
        staging = _staging(spec.get("stages"), spec.get("downward"))
        tree = cls.__new__(cls)
        tree._set_shape(kids)
        tree._set_stages(*staging)
        return tree

    def to_spec(self) -> dict:
        names, first, ids = self.vertices, self._first, self.stage_ids
        spec: dict = {
            "vertices": [
                {"id": names[p], "children": list(names[first[p] : first[p + 1]])}
                for p in self._inner_pos
            ],
            "stages": {names[p]: ids[s] for p, s in zip(self._inner_pos, self._stage)},
        }
        nondefault = {s: j for s, j in self.downward.items() if j != self.stage_degrees[s]}
        if nondefault:
            spec["downward"] = nondefault
        return spec

    @classmethod
    def from_json(cls, text: str) -> "StagedTree":
        """Build from the JSON text of a tree description, released once it is
        read; a text that :func:`_read_description` refuses goes to from_spec."""
        parts = _read_description(text, cls)
        if parts is None:
            return cls.from_spec(loads(text))
        del text
        tree, stages, downward = parts
        tree._set_stages(*_staging(stages, downward))
        return tree

    def __repr__(self) -> str:
        return f"StagedTree(k={self.k}, n={self.n}, stages={len(self.stage_ids)})"


def _root_of(kids: Mapping[str, Sequence[str]]) -> str:
    """The one parentless vertex of ``kids``, after checking that no vertex
    has one child or two parents.  One parent per vertex and none at the
    root leave no cycle that the root reaches, so a BFS from it ends.
    """
    if not kids:
        raise StagedTreeError("expected a vertex with children, found none")
    sizes = list(map(len, kids.values()))
    children = dict.fromkeys(itertools.chain.from_iterable(kids.values()))
    candidates = list(itertools.filterfalse(children.__contains__, kids))
    if len(candidates) != 1:
        raise CycleDetected(f"expected exactly one parentless vertex, found {sorted(candidates)}")
    if 1 in sizes or len(children) != sum(sizes):
        # name the first vertex, in declaration order, with one child, or the
        # first child that a second parent lists
        parent: dict[str, str] = {}
        for v, cs in kids.items():
            if len(cs) == 1:
                raise VertexWithOneChild(f"vertex {v!r} has exactly one child")
            for c in cs:
                if c in parent:
                    raise CycleDetected(f"vertex {c!r} has two parents: {parent[c]!r}, {v!r}")
                parent[c] = v
    return candidates[0]


def _inner_children(children: dict) -> dict:
    """``children`` without its listed leaves, after checking that every child is a str."""
    # one pass over the types of all children; the loop below only names the culprit
    if not set(map(type, itertools.chain.from_iterable(children.values()))) <= {str}:
        for v, cs in children.items():
            if not all(isinstance(c, str) for c in cs):
                raise StagedTreeError(f"children of {v!r} must be a list of vertex ids, got {cs!r}")
    if not all(children.values()):
        children = {v: cs for v, cs in children.items() if cs}
    return children


def _staging(stages, downward) -> tuple[Mapping, Mapping]:
    """``stages`` and ``downward``, each ``{}`` if absent, after checking their types."""
    if stages is not None and (
        not isinstance(stages, Mapping) or not set(map(type, stages.values())) <= {str}
    ):
        raise StagedTreeError(f"'stages' must map vertex ids to stage ids, got {stages!r}")
    if downward is not None and not isinstance(downward, Mapping):
        raise StagedTreeError(f"'downward' must map stage ids to indices, got {downward!r}")
    return stages or {}, downward or {}


_scan = json.JSONDecoder().scan_once  # (the JSON value at an index, the index past it)
_token = re.compile(r"[ \t\n\r]*(.?)[ \t\n\r]*", re.S).match  # one character amid spaces
_TAKEN = object()  # what a vertex entry reads as, once it is in the children map


def _read_description(text, cls: type = StagedTree) -> Optional[tuple]:
    """``(tree, stages, downward)`` of a tree description's JSON text, where the
    ``cls`` instance ``tree`` has the shape of the vertex list but no stages yet:
    each entry goes into a children map as the list is scanned, and the map is
    laid out and freed as the list closes, before the next field is scanned.
    None unless the text is one object of distinct known fields, in any order,
    whose entries hold a new string ``id`` and, if any, a list of ``children``,
    and whose shape passes its checks.
    """
    tree, children = cls.__new__(cls), {}

    def take(pairs):  # a vertex entry: "id" and "children" in either order, or "id" alone
        if len(pairs) == 2 and pairs[0][0] == "children":
            pairs.reverse()
        elif len(pairs) == 1:
            pairs.append(("children", []))
        (a, v), (b, cs) = pairs  # any other number of keys raises ValueError
        if (a, b, type(v), type(cs)) != ("id", "children", str, list) or v in children:
            raise ValueError
        children[v] = cs
        return _TAKEN

    def lay_out(text, i):  # the vertex list, as the shape of ``tree``
        entries, i = scan_entries(text, i)
        # each entry is one at the top of the list: no object was nested in another
        if type(entries) is not list or not len(entries) == entries.count(_TAKEN) == len(children):
            raise ValueError
        tree._set_shape(_inner_children(children))
        children.clear()
        return _TAKEN, i

    scan_entries = json.JSONDecoder(object_pairs_hook=take).scan_once
    scanners = dict.fromkeys(StagedTree._SPEC_FIELDS, _scan)
    scanners["vertices"] = lay_out
    parts: dict = {}
    try:  # any ValueError (JSONDecodeError, too many digits, a refused entry or shape) refuses
        m, sep = _token(text), "{"
        while m[1] == sep and text.startswith('"', m.end()):
            key, i = _scan(text, m.end())
            m = _token(text, i)
            if m[1] != ":" or key in parts or key not in scanners:
                return None
            parts[key], i = scanners[key](text, m.end())
            m, sep = _token(text, i), ","
    except (ValueError, TypeError, RecursionError, StopIteration):  # TypeError: not a str
        return None
    if (m[1], m.end()) != ("}", len(text)) or "vertices" not in parts:
        return None
    return tree, parts.get("stages"), parts.get("downward")


class ParameterVector(Mapping):
    """Edge probabilities keyed by (stage id, edge index >= 1).

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
        for key, p in values.items():
            s, j = key if isinstance(key, tuple) and len(key) == 2 else (key, None)
            if not (_is_integer(j) and j >= 1):
                raise StagedTreeError(f"label key {key!r} is not a (stage, edge index >= 1) pair")
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
        degrees = tree.stage_degrees.items()
        return cls({(s, j): 1.0 / kappa for s, kappa in degrees for j in range(1, kappa + 1)})

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


def _log_label(theta: Mapping[tuple[str, int], float], key: tuple[str, int]) -> float:
    """log theta[key], and -inf at a zero label; a label theta lacks is refused."""
    p = theta.get(key)
    if p is None:
        raise StagedTreeError(f"parameter vector lacks the label theta[{key[0]},{key[1]}]")
    return math.log(p) if p else -math.inf


def _log_atom_probability(tree: StagedTree, theta: ParameterVector, atom: Atom) -> float:
    """The log of an atom's probability, for an atom known to be of ``tree``."""
    return math.fsum(_log_label(theta, (tree.stage_of[v], j)) for v, j in atom.steps)


def log_atom_probability(tree: StagedTree, theta: ParameterVector, atom: Atom) -> float:
    """Sum of the logs of the traversed edge labels, -inf where one is 0;
    refuses an atom that is not a root-to-leaf path of ``tree``.
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
    mass = [p.get(x) for x in tree.atoms]
    for x, px in zip(tree.atoms, mass):
        if not (_is_real(px) and 0.0 < px < math.inf):  # NaN fails the comparison
            kind = ZeroMass if _is_real(px) and px <= 0.0 else StagedTreeError
            raise kind(f"atom at leaf {x.leaf!r} has mass {px!r}, not a positive number")
    vals = {}
    ids = tree.stage_ids
    for s, edges in zip(tree._stage, tree._edge_totals(mass)):
        total = math.fsum(edges)
        for j, m in enumerate(edges, start=1):
            vals[(ids[s], j)] = m / total
    return ParameterVector(vals)


def dimensions(tree: StagedTree) -> tuple[int, int]:
    """(d0, d): free parameters of the saturated and of the staged tree; the
    out-degrees count every vertex but the root, so d0 = (k + n - 1) - k.
    """
    return tree.n - 1, sum(tree._kappa) - len(tree._kappa)


def _single_index(kappa: int, down: int) -> bool:
    """A binary vertex with the default downward edge, whose labels and
    parameters are named by the vertex index alone.
    """
    return kappa == 2 and down == 2


def star(n: int) -> StagedTree:
    """The star tree with n leaves."""
    return StagedTree({"r": [f"e{i}" for i in range(1, n + 1)]})


def _state_name(states: tuple[int, ...]) -> str:
    """The product-tree vertex that ``states`` reach: ``v_root``, ``v_0.1``."""
    return "v_" + ".".join(map(str, states)) if states else "v_root"


def product_tree(cards: Iterable[int]) -> StagedTree:
    """Saturated tree over the product state space with the given
    cardinalities, its vertices named by :func:`_state_name`.
    """
    cards = list(cards)
    children: dict[str, list[str]] = {}
    for level in range(len(cards)):
        for config in itertools.product(*(range(c) for c in cards[:level])):
            name = _state_name(config)
            children[name] = [_state_name(config + (s,)) for s in range(cards[level])]
    return StagedTree(children)
