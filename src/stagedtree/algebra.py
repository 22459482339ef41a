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
from collections import Counter
from typing import Optional

from .tree import ParameterVector, StagedTree, _Record, _set, dimensions

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
    """Formal sum over v-to-leaf paths of the products of ``label(u, j)``,
    for every vertex v; an edge labelled None contributes no factor.
    """

    def combine(u: str, below: list[FormalPolynomial]) -> FormalPolynomial:
        terms: Counter = Counter()
        for j, poly in enumerate(below, start=1):
            lbl = label(u, j)
            for m, c in poly.terms.items():
                terms[m if lbl is None else monomial_mul(m, (lbl,))] += c
        return FormalPolynomial(terms)

    return tree.fold(FormalPolynomial.one(), combine)


def interpolating_polynomials(tree: StagedTree) -> dict[str, FormalPolynomial]:
    """t_v for every vertex: paths from v to a leaf over (stage id, edge) labels."""
    return _path_polynomials(tree, lambda u, j: (tree.stage_of[u], j))


def xi_polynomials(tree: StagedTree) -> dict[str, FormalPolynomial]:
    """P_v for every vertex: paths from v to a leaf over xi labels.

    xi of a downward edge equals one (its natural parameter is zero), so
    downward labels are omitted from the monomials.  Labels are vertex-level
    (vertex, edge) pairs since natural parameters live on the saturated tree.
    """
    return _path_polynomials(
        tree, lambda u, j: None if j == tree.downward_edge(u) else (u, j)
    )


def downward_monomials(tree: StagedTree) -> dict[str, Monomial]:
    """N_v for every vertex: the (stage id, edge) labels along the
    all-downward path from v; empty for leaves.
    """
    from .expfam import _downward_fold

    ids = tree.stage_ids
    monomials = _downward_fold(tree, (), lambda r, s, j, below: monomial_mul(below, ((ids[s], j),)))
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
    """The integer tables of one tree, from one pass in reversed BFS order.

    ``prime[s][j - 1]`` is the prime of label (s, j), one per label in
    ``stage_degrees`` order from one sieve.  ``ncode[v]`` is N_v as the
    product of its labels' primes, and ``fp[v]`` is t_v modulo _P with label
    number i set to ``_residue(i)``.  :meth:`exact` gives t_v itself.
    """

    __slots__ = ("tree", "prime", "ncode", "fp", "_exact")

    def __init__(self, tree: StagedTree):
        self.tree, self._exact = tree, None
        degrees = tree.stage_degrees
        primes = _first_primes(sum(degrees.values()))
        prime, point, i = {}, {}, 0
        for s, kappa in degrees.items():
            prime[s] = primes[i : i + kappa]
            point[s] = [_residue(n) for n in range(i, i + kappa)]
            i += kappa
        stage_of, downward, children = tree.stage_of, tree.downward, tree.children
        self.prime, ncode, fp = prime, {}, {}
        self.ncode, self.fp = ncode, fp
        for v in reversed(tree.vertices):
            cs = children.get(v)
            if cs is None:
                ncode[v] = fp[v] = 1
            else:
                s = stage_of[v]
                k = downward[s] - 1
                ncode[v] = prime[s][k] * ncode[cs[k]]
                fp[v] = sum(r * fp[c] for r, c in zip(point[s], cs)) % _P

    def exact(self) -> dict[str, dict[int, int]]:
        """t_v for every vertex as {code of a monomial: coefficient}, built on
        first use by one fold.
        """
        if self._exact is None:
            prime, stage_of = self.prime, self.tree.stage_of

            def combine(v: str, below: list[dict[int, int]]) -> dict[int, int]:
                terms: dict[int, int] = {}
                for p, poly in zip(prime[stage_of[v]], below):
                    for m, c in poly.items():
                        m *= p
                        terms[m] = terms.get(m, 0) + c
                return terms

            self._exact = self.tree.fold({1: 1}, combine)
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


def _member_ratios(tree: StagedTree, ncode: dict[str, int]):
    """(kappa, members, keys) for every stage with at least two members.

    ``keys[m][j - 1]`` is the ratio N_cj / N_ck of member m's children at
    edge j and at the downward edge k = kappa, as a fraction of the codes in
    lowest terms, so equal keys are equal Laurent monomials.
    """
    for s_id, members in tree.stage_members.items():
        if len(members) < 2:
            continue
        kappa = tree.downward[s_id]
        keys = []
        for v in members:
            cs = tree.children[v]
            den = ncode[cs[kappa - 1]]
            key = []
            for c in cs:
                num = ncode[c]
                g = math.gcd(num, den)
                key.append((num // g, den // g))
            keys.append(key)
        yield kappa, members, keys


def _member_pairs(tree: StagedTree):
    """(k, children of a stage's first member, children of a later member)
    for every later member of every stage; k is the 0-based downward edge.
    """
    children = tree.children
    for s_id, members in tree.stage_members.items():
        first, k = children[members[0]], tree.downward[s_id] - 1
        for vs in members[1:]:
            yield k, first, children[vs]


def _regular(tree: StagedTree, codes: _Codes) -> tuple[bool, list[tuple[str, str, int]]]:
    witnesses = []
    for _, members, keys in _member_ratios(tree, codes.ncode):
        if all(key == keys[0] for key in keys):
            continue
        for (vi, ki), (vs, ks) in itertools.combinations(zip(members, keys), 2):
            witnesses.extend(
                (vi, vs, j) for j, (a, b) in enumerate(zip(ki, ks), start=1) if a != b
            )
    return not witnesses, witnesses


def is_regular(tree: StagedTree) -> tuple[bool, list[tuple[str, str, int]]]:
    """Check N_ij N_sk = N_sj N_ik for all same-stage pairs and edges.

    Returns (flag, witnesses); each witness is a violating (v_i, v_s, j)
    triple, in lexicographic order of the vertex enumeration.  Monomials
    form a cancellative monoid, so a pair violates at edge j exactly when
    the ratios N_ij / N_ik and N_sj / N_sk differ, and a stage whose members
    all share the first member's ratios has no witness.

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
    fp, pairs = codes.fp, list(_member_pairs(tree))
    for k, first, other in pairs:
        f1k, fsk = fp[first[k]], fp[other[k]]
        if any((fp[a] * fsk - f1k * fp[b]) % _P for a, b in zip(first, other)):
            return False
    t = codes.exact() if pairs else None
    for k, first, other in pairs:
        t1, ts = [t[c] for c in first], [t[c] for c in other]
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
    fp, pairs = codes.fp, list(_member_pairs(tree))
    if any(fp[a] != fp[b] for _, first, other in pairs for a, b in zip(first, other)):
        return False
    t = codes.exact() if pairs else None
    return all(t[a] == t[b] for _, first, other in pairs for a, b in zip(first, other))


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
    coords = tuple((v, j) for v in tree.inner for j in range(1, tree.out_degree(v)))
    col = {c: i for i, c in enumerate(coords)}
    rows = tuple(
        (col[(va, j)], col[(vb, j)])
        for members in tree.stage_members.values()
        for va, vb in zip(members, members[1:])
        for j in range(1, tree.out_degree(va))
    )
    return ConstraintMatrix(coords, rows)


# -- stage equations in natural coordinates -----------------------------------


class StageEquation(_Record):
    """eta_ij + log P_ij + log P_sk = eta_sj + log P_sj + log P_ik.

    ``lhs_eta``/``rhs_eta`` are (vertex, edge) pairs or None when the edge is
    downward (its natural parameter is identically zero).  The equation is
    linear in the natural parameters iff the log terms cancel, which happens
    iff the downward monomials satisfy N_ij N_sk = N_sj N_ik.
    """

    __slots__ = ("vi", "vs", "j", "kappa", "lhs_eta", "rhs_eta", "lhs_logs", "rhs_logs", "linear")

    def __init__(self, vi: str, vs: str, j: int, kappa: int, lhs_eta: Optional[tuple[str, int]],
                 rhs_eta: Optional[tuple[str, int]],
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
            parts = ["0" if eta_term is None else _name(tree, "eta", *eta_term)]
            parts += [f"log({_poly_str(tree, p)})" for p in logs]
            return " + ".join(parts)

        return (
            side(self.lhs_eta, self.lhs_logs)
            + " = "
            + side(self.rhs_eta, self.rhs_logs)
        )


def _name(tree: StagedTree, symbol: str, v: str, j: int) -> str:
    """``xi3`` for a single-index vertex v_3, else ``xi[3,j]``."""
    from .expfam import _single_index

    i = tree.index[v]
    single = _single_index(tree.out_degree(v), tree.downward_edge(v))
    return f"{symbol}{i}" if single else f"{symbol}[{i},{j}]"


def _poly_str(tree: StagedTree, poly: FormalPolynomial) -> str:
    def mono_str(m: Monomial, c: int) -> str:
        factors = [_name(tree, "xi", v, j) for v, j in m]
        body = "*".join(factors) if factors else "1"
        return body if c == 1 else f"{c}*{body}"

    keys = sorted(poly.terms, key=lambda m: (len(m), m))
    return " + ".join(mono_str(m, poly.terms[m]) for m in keys)


def stage_equations(tree: StagedTree) -> list[StageEquation]:
    """One equation per same-stage pair per edge j = 1..kappa."""
    if tree.is_saturated():
        return []
    xi = xi_polynomials(tree)
    equations = []
    for kappa, members, keys in _member_ratios(tree, _Codes(tree).ncode):
        for (vi, ki), (vs, ks) in itertools.combinations(zip(members, keys), 2):
            ci, cs = tree.children[vi], tree.children[vs]
            for j in range(1, len(ci) + 1):
                equations.append(
                    StageEquation(
                        vi=vi,
                        vs=vs,
                        j=j,
                        kappa=kappa,
                        lhs_eta=None if j == kappa else (vi, j),
                        rhs_eta=None if j == kappa else (vs, j),
                        lhs_logs=(xi[ci[j - 1]], xi[cs[kappa - 1]]),
                        rhs_logs=(xi[cs[j - 1]], xi[ci[kappa - 1]]),
                        linear=ki[j - 1] == ks[j - 1],
                    )
                )
    return equations


def check_np_identity(tree: StagedTree, theta: ParameterVector) -> float:
    """Max residual |N_v * P_v(xi) - 1| over all vertices, xi = exp(eta).

    Each residual is |expm1(log N_v + log P_v)|, with log P_v from the
    log-space fold of the xi-polynomials, so no exp(eta) is formed.
    """
    from .expfam import _log_xi_fold, natural_parameters

    form = natural_parameters(tree, theta)
    _, logP = _log_xi_fold(tree, form.eta)
    return max(abs(math.expm1(form.logN[v] + logP[v])) for v in tree.vertices)


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

