"""Symbolic classification of stagings: regular, balanced, simple.

Monomials and polynomials here are purely formal objects.  No local
sum-to-one simplification is ever applied, and all coefficients are
nonnegative integers, so polynomials are multisets of monomials and
monomials are multisets of labels.  The public tables over label tuples,
built in one bottom-up pass over the tree, present the polynomials: the
interpolating polynomials t_v and downward monomials N_v over (stage id,
edge) labels, and the xi-polynomials P_v of the stage equations over
(vertex, edge) labels.

The checks read integer tables instead (:class:`_Codes`).  Each (stage,
edge) label has its own prime, so a monomial is coded by the product of its
labels' primes, exactly, by unique factorization.  Each t_v is also
fingerprinted: evaluated modulo the prime 2**61 - 1 at a fixed point.
Evaluation is a ring homomorphism, so a fingerprint mismatch proves that an
identity fails; where all fingerprints agree, the identity is confirmed on
the prime-coded polynomials.  Every verdict is exact, and the point changes
only how often the exact confirmation runs.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter

from .tree import StagedTree, _Record, _set, _single_index, dimensions

Label = tuple[str, int]
Monomial = tuple[Label, ...]  # sorted tuple, repeats = exponents


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(sorted(a + b))


class FormalPolynomial:
    """A formal sum of monomials with positive integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Counter):
        self.terms = terms

    @classmethod
    def one(cls) -> "FormalPolynomial":
        return cls(Counter({(): 1}))

    def __mul__(self, other: "FormalPolynomial") -> "FormalPolynomial":
        out: Counter = Counter()
        right = other.terms.items()
        for m1, c1 in self.terms.items():
            for m2, c2 in right:
                out[tuple(sorted(m1 + m2))] += c1 * c2  # monomial_mul, inlined
        return FormalPolynomial(out)

    def __eq__(self, other) -> bool:
        # no coefficient is zero, so plain dict equality is multiset equality
        # (and faster than Counter's, which treats missing keys as zero)
        return isinstance(other, FormalPolynomial) and dict.__eq__(self.terms, other.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __len__(self) -> int:
        return sum(self.terms.values())

    def __repr__(self) -> str:
        return f"FormalPolynomial({dict(self.terms)!r})"


def _path_polynomials(tree: StagedTree, label) -> dict[str, FormalPolynomial]:
    """Formal sum over v-to-leaf paths of the products of ``label(r, j)`` at
    edge j out of v_{r+1}, for every vertex v, in BFS order; an edge
    labelled None contributes no factor.
    """

    def combine(r: int, below: list[FormalPolynomial]) -> FormalPolynomial:
        terms: Counter = Counter()
        for j, poly in enumerate(below, start=1):
            lbl = label(r, j)
            for m, c in poly.terms.items():
                terms[m if lbl is None else monomial_mul(m, (lbl,))] += c
        return FormalPolynomial(terms)

    return dict(zip(tree.vertices, tree._fold(FormalPolynomial.one(), combine)))


def interpolating_polynomials(tree: StagedTree) -> dict[str, FormalPolynomial]:
    """t_v for every vertex: paths from v to a leaf over (stage id, edge) labels."""
    ids, stage = tree.stage_ids, tree._stage
    return _path_polynomials(tree, lambda r, j: (ids[stage[r]], j))


def xi_polynomials(tree: StagedTree) -> dict[str, FormalPolynomial]:
    """P_v for every vertex: paths from v to a leaf over xi labels.

    xi of a downward edge equals one (its natural parameter is zero), so
    downward labels are omitted from the monomials.  Labels are vertex-level
    (vertex, edge) pairs since natural parameters live on the saturated tree.
    """
    names, inner, stage, down = tree.vertices, tree._inner_pos, tree._stage, tree._down
    return _path_polynomials(
        tree, lambda r, j: None if j == down[stage[r]] else (names[inner[r]], j)
    )


def downward_monomials(tree: StagedTree) -> dict[str, Monomial]:
    """N_v for every vertex: the (stage id, edge) labels along the
    all-downward path from v; empty for leaves.
    """
    ids = tree.stage_ids
    monomials = tree._downward_fold((), lambda r, s, j, below: monomial_mul(below, ((ids[s], j),)))
    return dict(zip(tree.vertices, monomials))


# -- integer tables of the checks ---------------------------------------------

_P = (1 << 61) - 1  # the Mersenne prime modulus of the fingerprints
_M64 = (1 << 64) - 1


def _first_primes(n: int) -> list[int]:
    """The first n primes, from one sieve of Eratosthenes."""
    # p_n < n (ln n + ln ln n) for n >= 6 (Rosser, 1941); p_6 = 13
    limit = 13 if n < 6 else int(n * (math.log(n) + math.log(math.log(n))))
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return list(itertools.compress(range(limit + 1), sieve))[:n]


def _residue(i: int) -> int:
    """The fingerprint point at label i: splitmix64 of i, mapped into [1, _P)."""
    z = (i + 1) * 0x9E3779B97F4A7C15 & _M64
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _M64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & _M64
    return (z ^ z >> 31) % (_P - 1) + 1


class _Codes:
    """The integer tables of one tree, as lists by stage int or BFS position.

    ``prime[s][j - 1]`` is the prime of label (s, j), one per label in stage
    order from one sieve.  ``ncode[p]`` is N_v of the vertex v at position p
    as the product of its labels' primes, from one downward fold, and
    ``fp[p]`` is t_v modulo _P with label number i set to ``_residue(i)``,
    from one bottom-up fold.  :meth:`exact` gives t_v itself.
    """

    __slots__ = ("tree", "prime", "ncode", "fp", "_exact")

    def __init__(self, tree: StagedTree):
        self.tree, self._exact, stage = tree, None, tree._stage
        ends = list(itertools.accumulate(tree._kappa, initial=0))
        primes = _first_primes(ends[-1])
        self.prime = prime = [primes[a:b] for a, b in zip(ends, ends[1:])]
        point = [list(map(_residue, range(a, b))) for a, b in zip(ends, ends[1:])]
        self.ncode = tree._downward_fold(1, lambda r, s, j, below: prime[s][j - 1] * below)
        self.fp = tree._fold(
            1, lambda r, below: sum(map(operator.mul, point[stage[r]], below)) % _P
        )

    def exact(self) -> list[dict[int, int]]:
        """t_v at every position as {code of a monomial: coefficient}, built on
        first use by one fold.
        """
        if self._exact is None:
            prime, stage = self.prime, self.tree._stage

            def combine(r: int, below: list[dict[int, int]]) -> dict[int, int]:
                terms: dict[int, int] = {}
                for p, poly in zip(prime[stage[r]], below):
                    for m, c in poly.items():
                        m *= p
                        terms[m] = terms.get(m, 0) + c
                return terms

            self._exact = self.tree._fold({1: 1}, combine)
        return self._exact


def _times(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """The product of two prime-coded polynomials."""
    out: dict[int, int] = {}
    right = b.items()
    for m1, c1 in a.items():
        for m2, c2 in right:
            m = m1 * m2
            out[m] = out.get(m, 0) + c1 * c2
    return out


def _member_pairs(tree: StagedTree, table: list):
    """(k, p, q, the values in ``table`` of p's children, those of q's
    children) for the first member p and every later member q of every
    stage, in stage and BFS order; k is the 0-based downward edge.
    """
    first = tree._first
    for members, down in zip(tree._members, tree._down):
        p = members[0]
        for q in members[1:]:
            yield down - 1, p, q, table[first[p] : first[p + 1]], table[first[q] : first[q + 1]]


def _linear(k: int, n1: list[int], ns: list[int]) -> list[bool]:
    """Whether N_1j N_sk = N_sj N_1k at each edge j, on the N-codes: equal
    products of primes are equal monomials.
    """
    n1k, nsk = n1[k], ns[k]
    return [a * nsk == n1k * b for a, b in zip(n1, ns)]


def _regular(tree: StagedTree, codes: _Codes) -> tuple[bool, list[tuple[str, str, int]]]:
    names, witnesses = tree.vertices, []
    for k, p, q, n1, ns in _member_pairs(tree, codes.ncode):
        witnesses.extend(
            (names[p], names[q], j) for j, ok in enumerate(_linear(k, n1, ns), start=1) if not ok
        )
    return not witnesses, witnesses


def is_regular(tree: StagedTree) -> tuple[bool, list[tuple[str, str, int]]]:
    """Check N_1j N_sk = N_sj N_1k for each stage's first member 1 in BFS
    order, every later member s and every edge j.

    Returns (flag, witnesses); each witness is a violating (v_1, v_s, j)
    triple, in stage, member and edge order.  Monomials form a cancellative
    monoid, so the condition says N_sj / N_sk = N_1j / N_1k, and equality of
    ratios is transitive: a pair (i, s) that violates N_ij N_sk = N_sj N_ik
    at edge j has (v_1, v_i, j) or (v_1, v_s, j) among the witnesses.

    Neither this verdict nor balance (see :func:`is_balanced`) depends on the
    downward edges.  With Q_v(j) = N_c / N_v for v's child c at edge j, a
    stage is regular iff each Q_v(j) is one Laurent monomial for all members.
    Move stage g's downward edge from k to k' on a regular tree; let m(u) be
    the (g, k)-exponent of N_u.  At each g-member, m(c_wk') - m(c_wk) is that
    of Q_w(k') / Q_w(k), so stage-constant, and 0 at a lowest one.  Up the
    tree, N'_u = N_u c^m(u) with c = theta_gk' Q_g(k'), so Q'_v(j) / Q_v(j)
    = c^(m(c_vj) - m(v)) is stage-constant.  README "check" has the steps.
    """
    return _regular(tree, _Codes(tree))


def _balanced(tree: StagedTree, codes: _Codes) -> bool:
    """t_1j t_sk = t_1k t_sj for the first member 1 and every later member s.

    Z[labels] is an integral domain and no t_v is zero, so this says that
    t_sj / t_sk equals t_1j / t_1k, and equality with the first member's
    ratios is transitive.  The fingerprints are compared first, for every
    stage; only if all agree is each identity confirmed on the exact
    tables.  Cancellation there decides the pairs that share a factor
    without a product: if t_1k = t_sk the condition is t_1j = t_sj, and if
    not, t_1j = t_sj violates it.
    """
    for k, _, _, f1, fs in _member_pairs(tree, codes.fp):
        f1k, fsk = f1[k], fs[k]
        if any((a * fsk - f1k * b) % _P for a, b in zip(f1, fs)):
            return False
    if tree.is_saturated():  # no pair, so no exact table
        return True
    for k, _, _, t1, ts in _member_pairs(tree, codes.exact()):
        if t1[k] == ts[k]:
            if ts != t1:
                return False
            continue
        for j, (t1j, tsj) in enumerate(zip(t1, ts)):
            if j != k and (t1j == tsj or _times(t1j, ts[k]) != _times(t1[k], tsj)):
                return False
    return True


def _simple(tree: StagedTree, codes: _Codes) -> bool:
    """t_sj = t_1j for the first member 1, every later member s and edge j,
    on the fingerprints first and then on the exact tables.
    """
    if any(f1 != fs for *_, f1, fs in _member_pairs(tree, codes.fp)):
        return False
    pairs = () if tree.is_saturated() else _member_pairs(tree, codes.exact())
    return all(t1 == ts for *_, t1, ts in pairs)


def is_balanced(tree: StagedTree) -> bool:
    """Check t_ij t_sk = t_ik t_sj for all same-stage pairs and edges.

    The verdict does not depend on the downward edges: t_v does not, and
    t_sj / t_sk' is t_sj / t_sk divided by t_sk' / t_sk, so equal ratios for
    one reference edge k give equal ratios for any other k'.
    """
    # a saturated tree has no same-stage pair, so no table is built
    return tree.is_saturated() or _balanced(tree, _Codes(tree))


def is_simple(tree: StagedTree) -> bool:
    """Check t_ij = t_sj for all same-stage pairs and edges."""
    return tree.is_saturated() or _simple(tree, _Codes(tree))


class ConstraintMatrix(_Record):
    """Linear identifications of edge labels over the saturated coordinates.

    ``coords`` are the d0 coordinates (v, j) with j < kappa_v.  There is one
    row theta_aj - theta_bj per edge j < kappa and per pair of consecutive
    members a, b of a stage, stored as the column indices of its +1 and -1.
    """

    __slots__ = ("coords", "rows")

    def __init__(self, coords: tuple[tuple[str, int], ...], rows: tuple[tuple[int, int], ...]):
        _set(self, "coords", coords)
        _set(self, "rows", rows)

    @property
    def rank(self) -> int:
        """The number of rows: the matrix has full row rank.

        The rows of one (stage, j) group are the incidence rows of the path
        through the stage's members, and the incidence matrix of a tree with
        m vertices has rank m - 1 (Biggs, Algebraic Graph Theory, 1974).  The
        groups use disjoint columns, so their ranks add up.
        """
        return len(self.rows)

    def kernel_dimension(self) -> int:
        return len(self.coords) - self.rank


def constraint_matrix(tree: StagedTree) -> ConstraintMatrix:
    names, degree = tree.vertices, tree._degree
    coords = tuple((names[p], j) for p in tree._inner_pos for j in range(1, degree[p]))
    col = {c: i for i, c in enumerate(coords)}
    rows = tuple(
        (col[(names[a], j)], col[(names[b], j)])
        for members in tree._members
        for a, b in zip(members, members[1:])
        for j in range(1, degree[a])
    )
    return ConstraintMatrix(coords, rows)


# -- stage equations in natural coordinates -----------------------------------


class StageEquation(_Record):
    """eta_1j + log P_1j + log P_sk = eta_sj + log P_sj + log P_1k.

    The equation of a stage's first member v_1 (``vi``) and a later member
    v_s (``vs``) at an edge j other than the downward edge k, where P_vj is
    the xi-polynomial of v's child at edge j.  ``kappa`` holds k, the index
    of the downward edge, not the stage's out-degree.  ``lhs_eta`` and
    ``rhs_eta`` are the (vertex, edge) pairs (v_1, j) and (v_s, j).  The
    equation is linear in the natural parameters iff the log terms cancel,
    which happens iff the downward monomials satisfy N_1j N_sk = N_sj N_1k.
    """

    __slots__ = ("vi", "vs", "j", "kappa", "lhs_eta", "rhs_eta", "lhs_logs", "rhs_logs", "linear")

    def __init__(self, vi: str, vs: str, j: int, kappa: int, lhs_eta: tuple[str, int],
                 rhs_eta: tuple[str, int],
                 lhs_logs: tuple[FormalPolynomial, FormalPolynomial],
                 rhs_logs: tuple[FormalPolynomial, FormalPolynomial], linear: bool):
        _set(self, "vi", vi)
        _set(self, "vs", vs)
        _set(self, "j", j)
        _set(self, "kappa", kappa)
        _set(self, "lhs_eta", lhs_eta)
        _set(self, "rhs_eta", rhs_eta)
        _set(self, "lhs_logs", lhs_logs)
        _set(self, "rhs_logs", rhs_logs)
        _set(self, "linear", linear)

    def pretty(self, tree: StagedTree) -> str:
        def side(eta_term, logs):
            parts = [_name(tree, "eta", *eta_term)]
            parts += [f"log({_poly_str(tree, p)})" for p in logs]
            return " + ".join(parts)

        return (
            side(self.lhs_eta, self.lhs_logs)
            + " = "
            + side(self.rhs_eta, self.rhs_logs)
        )


def _name(tree: StagedTree, symbol: str, v: str, j: int) -> str:
    """``xi3`` for a single-index vertex v_3, else ``xi[3,j]``."""
    i = tree.index[v]
    s = tree._stage[i - 1]
    single = _single_index(tree._kappa[s], tree._down[s])
    return f"{symbol}{i}" if single else f"{symbol}[{i},{j}]"


def _poly_str(tree: StagedTree, poly: FormalPolynomial) -> str:
    def mono_str(m: Monomial, c: int) -> str:
        factors = [_name(tree, "xi", v, j) for v, j in m]
        body = "*".join(factors) if factors else "1"
        return body if c == 1 else f"{c}*{body}"

    keys = sorted(poly.terms, key=lambda m: (len(m), m))
    return " + ".join(mono_str(m, poly.terms[m]) for m in keys)


def stage_equations(tree: StagedTree) -> list[StageEquation]:
    """One equation per later member s of each stage and per edge j other
    than the downward edge k, against the stage's first member 1: d0 - d
    equations, one per row of :func:`constraint_matrix`.

    The equation of members i and s at edge j says g_j(i) = g_j(s), with
    g_j(v) = eta_vj + log P_vj - log P_vk, so every pairwise equation is the
    difference of two of these, and the one at j = k reads 0 = 0.
    """
    if tree.is_saturated():
        return []
    xi = list(xi_polynomials(tree).values())  # by BFS position
    names, equations = tree.vertices, []
    pairs = zip(_member_pairs(tree, xi), _member_pairs(tree, _Codes(tree).ncode))
    for (k, p, q, x1, xs), (*_, n1, ns) in pairs:
        v1, vs = names[p], names[q]
        equations.extend(
            StageEquation(v1, vs, j, k + 1, (v1, j), (vs, j), (x1[j - 1], xs[k]),
                          (xs[j - 1], x1[k]), linear)
            for j, linear in enumerate(_linear(k, n1, ns), start=1)
            if j != k + 1
        )
    return equations


def classify(tree: StagedTree) -> dict:
    """Regular/balanced/simple report, with dimensions and witnesses."""
    codes = _Codes(tree)  # one set of tables serves all three checks
    regular, witnesses = _regular(tree, codes)
    d0, d = dimensions(tree)
    return {
        "regular": regular,
        "balanced": _balanced(tree, codes),
        "simple": _simple(tree, codes),
        "d0": d0,
        "d": d,
        "witnesses": witnesses,
    }

