"""Tests of the benchmark's own input generation and output checks.

    python3 -m pytest benchmark/test_inputs.py
"""

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys

import pytest

import gen
import verify


def stream_bytes(workload: str, seed: int, n: int) -> str:
    h = hashlib.sha256()
    for op in itertools.islice(gen.op_stream(workload, seed), n):
        h.update(json.dumps([part.argv for part in getattr(op, "parts", [op])]).encode())
        for name in sorted(op.files):
            h.update(name.encode() + b"\0" + op.files[name])
    return h.hexdigest()


@pytest.mark.parametrize("workload", sorted(gen.WORKLOAD_IDS))
def test_same_seed_same_input_bytes(workload):
    assert stream_bytes(workload, 3, 4) == stream_bytes(workload, 3, 4)
    assert stream_bytes(workload, 3, 4) != stream_bytes(workload, 4, 4)


def test_generators_do_not_import_the_library():
    code = (
        "import sys, itertools, gen, verify\n"
        "for w in gen.WORKLOAD_IDS:\n"
        "    list(itertools.islice(gen.op_stream(w, 1), 2))\n"
        "assert 'stagedtree' not in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, cwd=os.path.dirname(gen.__file__))


def test_bn_rows_follow_the_cpts():
    bn = gen.random_bn(gen.rng_for("fit-bn14", 1, 0), 3, 2, max_parents=0, floor=0.1)
    rows = gen.sample_rows(gen.rng_for("fit-bn14", 1, 1), bn, 40_000)
    for i in range(3):
        assert abs(rows[:, i].mean() - bn.cpts[i][0][1]) < 0.01
    assert all(0.1 <= p <= 0.9 for cpt in bn.cpts for row in cpt for p in row)


def saturated_output(op):
    """A select output with no merges, computed by the verifier's own helpers."""
    counts = verify.vertex_counts(op.facts["rows"], op.facts["cards"])
    stages = {v: v for v in counts}
    ll, d, pooled = verify.pooled_fit(stages, counts)
    n = len(op.facts["rows"])
    theta = {f"{s},{j}": c / c_s.sum() for s, c_s in pooled.items() for j, c in
             enumerate(c_s, start=1)}
    return {"log_likelihood": ll, "d": d, "n_obs": n, "bic": d * math.log(n) - 2 * ll,
            "theta": theta, "stages": stages, "trace": []}


def test_select_check_flags_a_wrong_likelihood():
    op = next(gen.op_stream("select-5bin", 1))
    out = saturated_output(op)
    assert verify.verify("select", 0, json.dumps(out).encode(), op.facts) is None
    out["log_likelihood"] *= 1 + 1e-6
    assert verify.verify("select", 0, json.dumps(out).encode(), op.facts) is not None


def is_sparse(op) -> bool:
    return verify.has_unvisited_vertex(verify.vertex_counts(op.facts["rows"], op.facts["cards"]))


def test_select_ops_visit_every_vertex_and_the_probe_does_not():
    ops = [op for seed in (1, 2) for op in itertools.islice(gen.op_stream("select-5bin", seed), 12)]
    assert not any(is_sparse(op) for op in ops)
    assert not any(gen.has_unvisited_vertex(op.facts["rows"], op.facts["cards"]) for op in ops)
    probe = gen.sparse_select_op(1)
    assert is_sparse(probe) and gen.has_unvisited_vertex(probe.facts["rows"], probe.facts["cards"])


def test_refusal_is_expected_only_on_sparse_inputs():
    refusal = json.dumps({"error": {"type": "ZeroStageTraffic", "message": ""}}).encode()
    assert verify.verify("select", 2, refusal, gen.sparse_select_op(1).facts) is None
    assert verify.verify("select", 2, refusal, next(gen.op_stream("select-5bin", 1)).facts)


def test_fixed_parent_counts():
    for seed in (1, 2):
        bns = [op.facts["bn"] for op in itertools.islice(gen.op_stream("select-5bin", seed), 6)]
        assert [tuple(map(len, bn.parents)) for bn in bns] == list(gen.SELECT_CYCLE)
        bn = next(gen.op_stream("fit-bn14", seed)).facts["bn"]
        assert tuple(map(len, bn.parents)) == gen.FIT_PARENTS


def test_check_hierarchy_and_dimension():
    op = next(gen.op_stream("check-bn6", 1))
    bn = op.facts["bn"]
    good = {"regular": True, "balanced": True, "simple": False, "d0": 728,
            "d": verify.bn_dimension(bn), "witness": None}
    assert verify.verify("check", 0, json.dumps(good).encode(), op.facts) is None
    for bad in [{"regular": False}, {"simple": True, "balanced": False}, {"d": good["d"] + 1}]:
        out = dict(good, **bad)
        assert verify.verify("check", 0, json.dumps(out).encode(), op.facts) is not None


def test_self_time_subtracts_child_spans():
    from traced import Tracer

    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    tr.spans[0][1:3] = [0.0, 5.0]
    tr.spans[1][1:3] = [1.0, 3.0]
    assert tr.self_times(0) == {"outer": 3.0, "inner": 2.0}
