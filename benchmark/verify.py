"""Checks of CLI outputs that do not use the library.

Each check recomputes what it can from the op's own generated inputs with
numpy and returns ``None`` when the output is right, or a one-line reason.
Floats in CLI output carry 12 significant digits, hence REL_TOL.
"""

from __future__ import annotations

import json
import math
from math import comb, prod

import numpy as np

from gen import BN, vertex_name

REL_TOL = 1e-9
EXPFAM_SAMPLE = 32


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-9)


def vertex_counts(rows: np.ndarray, cards: list[int]) -> dict[str, np.ndarray]:
    """Edge-traversal counts of every inner vertex of the product tree."""
    out = {}
    key = np.zeros(len(rows), dtype=np.int64)
    for level, card in enumerate(cards):
        n_prefix = prod(cards[:level])
        counts = np.bincount(key * card + rows[:, level], minlength=n_prefix * card)
        counts = counts.reshape(n_prefix, card)
        for idx in range(n_prefix):
            states, rest = [], idx
            for c in reversed(cards[:level]):
                states.append(rest % c)
                rest //= c
            out[vertex_name(tuple(reversed(states)))] = counts[idx]
        key = key * card + rows[:, level]
    return out


def pooled_fit(stage_of: dict[str, str], counts: dict[str, np.ndarray]):
    """(log-likelihood, d) of the MLE under a staging; empty stages add 0."""
    pooled: dict[str, np.ndarray] = {}
    for v, s in stage_of.items():
        pooled[s] = pooled.get(s, 0) + counts[v]
    ll = 0.0
    for n in pooled.values():
        total = n.sum()
        nz = n[n > 0]
        ll += float((nz * np.log(nz / total)).sum())
    d = sum(len(n) - 1 for n in pooled.values())
    return ll, d, pooled


def has_unvisited_vertex(counts: dict[str, np.ndarray]) -> bool:
    return any(n.sum() == 0 for n in counts.values())


def expected_refusal(rc: int, out: dict) -> str | None:
    if rc == 2 and out.get("error", {}).get("type") == "ZeroStageTraffic":
        return None
    return f"expected a ZeroStageTraffic refusal, got exit {rc}"


def check_bic(out: dict, ll: float, d: int, n_obs: int) -> str | None:
    if out["n_obs"] != n_obs or out["d"] != d:
        return f"n_obs/d {out['n_obs']}/{out['d']} != {n_obs}/{d}"
    if not close(out["log_likelihood"], ll):
        return f"log_likelihood {out['log_likelihood']} != {ll}"
    if not close(out["bic"], d * math.log(n_obs) - 2.0 * ll):
        return f"bic {out['bic']} inconsistent with d={d}, loglik={ll}"
    return None


def verify_select(rc: int, out: dict, facts: dict) -> str | None:
    rows, cards = facts["rows"], facts["cards"]
    counts = vertex_counts(rows, cards)
    sparse = has_unvisited_vertex(counts)
    if rc != 0:
        return expected_refusal(rc, out) if sparse else f"exit {rc} on fully visited data"
    stage_of = out["stages"]
    if set(stage_of) != set(counts):
        return "stages do not cover the inner vertices"
    ll, d, pooled = pooled_fit(stage_of, counts)
    bad = check_bic(out, ll, d, len(rows))
    if bad:
        return bad
    scores = [step["bic_before"] for step in out["trace"][:1]]
    scores += [step["bic_after"] for step in out["trace"]]
    if any(b >= a for a, b in zip(scores, scores[1:])):
        return "trace bic_after does not decrease"
    if scores and not close(scores[-1], out["bic"]):
        return "final trace step disagrees with the reported bic"
    if sparse:
        return None
    # replay the merges from the saturated staging and rescore each step
    staging = {v: v for v in counts}
    n_obs = len(rows)
    ll0, d0, _ = pooled_fit(staging, counts)
    prev = d0 * math.log(n_obs) - 2.0 * ll0
    for step in out["trace"]:
        if not close(step["bic_before"], prev):
            return f"trace bic_before {step['bic_before']} != {prev}"
        staging = {v: step["kept"] if s == step["absorbed"] else s for v, s in staging.items()}
        ll_s, d_s, _ = pooled_fit(staging, counts)
        prev = d_s * math.log(n_obs) - 2.0 * ll_s
        if not close(step["bic_after"], prev):
            return f"trace bic_after {step['bic_after']} != {prev}"
    if staging != stage_of:
        return "replayed merges do not give the reported staging"
    for s, n in pooled.items():
        for j, c in enumerate(n, start=1):
            if not close(out["theta"][f"{s},{j}"], c / n.sum()):
                return f"theta[{s},{j}] is not the pooled MLE"
    return None


def bn_dimension(bn: BN) -> int:
    """d = sum over variables of (card - 1) * number of parent configurations."""
    return sum((c - 1) * bn.n_configs(i) for i, c in enumerate(bn.cards))


def same_stage_pairs(bn: BN) -> int:
    """Pairs of level-i vertices whose histories agree on X_i's parents."""
    total = 0
    for i in range(len(bn.cards)):
        members = prod(bn.cards[:i]) // bn.n_configs(i)
        total += bn.n_configs(i) * comb(members, 2)
    return total


def _states(name: str) -> tuple[int, ...]:
    return () if name == "v_root" else tuple(int(s) for s in name[2:].split("."))


def verify_check(rc: int, out: dict, facts: dict) -> str | None:
    bn = facts["bn"]
    if rc != 0:
        return f"exit {rc}"
    if out["simple"] and not out["balanced"] or out["balanced"] and not out["regular"]:
        return "violates simple => balanced => regular"
    if out["d"] != bn_dimension(bn):
        return f"d {out['d']} != {bn_dimension(bn)}"
    d0 = sum(prod(bn.cards[:i]) * (c - 1) for i, c in enumerate(bn.cards))
    if out["d0"] != d0:
        return f"d0 {out['d0']} != {d0}"
    witness = out["witness"]
    if (witness is None) != out["regular"]:
        return "witness present iff not regular fails"
    if witness is not None:
        a, b = _states(witness[0]), _states(witness[1])
        level = len(a)
        if len(b) != level or level >= len(bn.cards) or a == b:
            return f"witness {witness} is not a pair of same-level vertices"
        if any(a[p] != b[p] for p in bn.parents[level]):
            return f"witness {witness} is not a same-stage pair"
    return None


def verify_inspect(rc: int, out: dict, facts: dict) -> str | None:
    bn = facts["bn"]
    k = sum(prod(bn.cards[:i]) for i in range(len(bn.cards)))
    n = prod(bn.cards)
    if rc != 0:
        return f"exit {rc}"
    if (out["k"], out["n"], len(out["atoms"]), len(out["inner"])) != (k, n, n, k):
        return f"k/n/atoms {out['k']}/{out['n']}/{len(out['atoms'])} != {k}/{n}/{n}"
    if out["d"] != bn_dimension(bn) or out["root"] != "v_root":
        return f"d {out['d']} != {bn_dimension(bn)} or wrong root"
    return None


def verify_expfam(rc: int, out: dict, facts: dict) -> str | None:
    """exp(eta . T(x) - psi) against the CPT product on a seeded atom sample."""
    bn = facts["bn"]
    if rc != 0:
        return f"exit {rc}"
    m = len(bn.cards)
    if len(out["layout"]) != sum(prod(bn.cards[:i]) * (c - 1) for i, c in enumerate(bn.cards)):
        return "layout length != d0"
    if len(out["formulas"]) != len(out["layout"]) + 1:
        return "formula count != layout length + 1"
    rng = np.random.default_rng(facts["sample_seed"])
    for x in rng.integers(0, bn.cards, size=(EXPFAM_SAMPLE, m)):
        score, logp = -out["psi"], 0.0
        for i in range(m):
            key = f"{vertex_name(tuple(x[:i]))},{x[i] + 1}"
            score += out["eta"].get(key, 0.0)
            logp += math.log(bn.cpts[i][bn.config_index(i, x)][x[i]])
        if abs(score - logp) > REL_TOL:  # in log space: a relative error on the density
            return f"exp-form density {math.exp(score)} != CPT product {math.exp(logp)} at {x}"
    return None


def verify_fit(rc: int, out: dict, facts: dict) -> str | None:
    bn, rows = facts["bn"], facts["rows"]
    stage_counts = [
        np.bincount(bn.config_index(i, rows) * c + rows[:, i], minlength=c * bn.n_configs(i))
        .reshape(-1, c)
        for i, c in enumerate(bn.cards)
    ]
    if any((c.sum(axis=1) == 0).any() for c in stage_counts):
        return expected_refusal(rc, out)
    if rc != 0:
        return f"exit {rc}"
    ll = 0.0
    for c in stage_counts:
        for n in c:
            nz = n[n > 0]
            ll += float((nz * np.log(nz / n.sum())).sum())
    return check_bic(out, ll, bn_dimension(bn), len(rows))


VERIFIERS = {
    "select": verify_select,
    "check": verify_check,
    "inspect": verify_inspect,
    "expfam": verify_expfam,
    "fit": verify_fit,
}


def verify(kind: str, rc: int, stdout: bytes, facts: dict) -> str | None:
    try:
        out = json.loads(stdout)
    except ValueError:
        return f"exit {rc}, stdout is not one JSON object"
    try:
        return VERIFIERS[kind](rc, out, facts)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
