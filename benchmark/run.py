"""Benchmark of the stagedtree command line.

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client: the next operation starts
when the previous one has exited.  An operation is a real
``python -m stagedtree.cli ...`` process (or a two-process pipe), timed from
spawn to exit, with CPU time and peak RSS taken per child from ``os.wait4``.
Inputs are generated from ``--seed`` by ``gen.py``, which does not import the
library, and every output is checked by ``verify.py``, which does not either.

Workloads:

* ``select-5bin``: ``select`` on the saturated tree over 5 binary variables,
  10^4 rows from a fresh random BN per op.  The greedy stage-merge search
  dominates.  CPT entries lie in [0.2, 0.8], so every inner vertex is
  visited and no op is refused.  One input that leaves a vertex unvisited,
  which the CLI refuses with ``ZeroStageTraffic`` (exit 2), runs untimed
  before the loop; its outcome is reported as ``sparse_probe`` among the
  input properties and does not count as an op.
* ``check-bn6``: ``from-bn net.json | check -`` on a random DAG over 6
  ternary variables (k=364), at most 2 parents.  Classification dominates;
  fit/search never run.  DAGs follow a fixed cycle of (immorality, edge
  count), so one op in three is a balanced tree (see ``gen.check_op``).
* ``fit-bn14``: each op is the session ``inspect``, ``expfam --symbolic``,
  ``fit``, three processes one after another, on the unfolded tree of one
  random BN over 14 binary variables (k=16383, 48 stages in every seed) with
  2*10^4 rows.  Build, atoms, parametrize, ingest and one large ``bic``
  dominate.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` is the traced
run (see ``traced.py``) and reports the per-layer metrics: per-op medians
over the ops in which the layer ran, 0 where it never runs.  Human-readable
lines come first; the last line of stdout is one JSON object with the
metrics listed in BENCHMARK.json.  A fuller record (environment, input
properties, output digests, per-op samples and, when traced, every span) is
written to ``.benchwork/results/``.

Seeds 1-10 are for routine runs.  Seed 9001 is held out: use it only to
confirm a claim made on other seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from math import prod
from pathlib import Path

import numpy as np

import gen
import verify
from traced import Replayer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".benchwork"

SETUP_EVERY = 4  # CLI processes (or pipes) per set-up sample
OP_TIMEOUT_S = 60.0
DIGEST_OPS = 10
TRACE_OPS = {"select-5bin": 8, "check-bn6": 6, "fit-bn14": 1}
E2E_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "latency_p50_s": "s", "latency_p90_s": "s",
    "cpu_p50_s": "s", "peak_rss_mb": "MB", "error_ratio": "1",
}


# -- running CLI processes ----------------------------------------------------


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Sample:
    """One timed operation."""

    def __init__(self, kind, rc, stdout, wall, cpu, rss_mb, stderr):
        self.kind = kind
        self.rc = rc
        self.stdout = stdout
        self.wall = wall
        self.cpu = cpu
        self.rss_mb = rss_mb
        self.stderr = stderr
        self.error = None

    @property
    def ok(self) -> bool:
        return self.rc == 0 and self.error is None

    @classmethod
    def session(cls, parts: list["Sample"]) -> "Sample":
        """The samples of a session's commands as one op: times add up, RSS is the peak."""
        s = cls("session", next((p.rc for p in parts if p.rc), 0),
                b"".join(p.stdout for p in parts), sum(p.wall for p in parts),
                sum(p.cpu for p in parts), max(p.rss_mb for p in parts),
                "".join(p.stderr for p in parts))
        s.error = next((f"{p.kind}: {p.error}" for p in parts if p.error), None)
        return s

    def reason(self) -> str:
        """Why the op failed: the verifier's reason, or the CLI's error type."""
        if self.error:
            return self.error.split(" | ")[0]
        try:
            return f"exit {self.rc} {json.loads(self.stdout)['error']['type']}"
        except (ValueError, KeyError, TypeError):
            return f"exit {self.rc}"

    def record(self) -> dict:
        return {
            "kind": self.kind, "rc": self.rc, "wall_s": self.wall, "cpu_s": self.cpu,
            "rss_mb": self.rss_mb, "error": self.error,
        }


class Spawner:
    """The helper process that runs every CLI pipe (see spawner.py)."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=cli_env(), cwd=ROOT, text=True,
        )

    def run(self, commands: list[list[str]], kind: str) -> Sample:
        out, err = self.tmp / "stdout.bin", self.tmp / "stderr.txt"
        request = {"commands": commands, "stdout": str(out), "stderr": str(err),
                   "timeout_s": OP_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit("the spawner process exited")
        r = json.loads(line)
        return Sample(kind, r["rc"], out.read_bytes(), r["wall_s"], r["cpu_s"], r["rss_mb"],
                      err.read_bytes()[-400:].decode(errors="replace"))

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=OP_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class OpFiles:
    """Writes each op's input files into the run's temporary directory."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self._written = None

    def paths(self, op: gen.Op) -> dict[str, str]:
        paths = {name: str(self.tmp / name) for name in op.files}
        if self._written is not op.files:
            for name, data in op.files.items():
                Path(paths[name]).write_bytes(data)
            self._written = op.files
        return paths

    def commands(self, op: gen.Op) -> list[list[str]]:
        paths = self.paths(op)
        argv = [paths[a[1:-1]] if a.startswith("{") else a for a in op.argv]
        return [argv] + ([op.pipe_to] if op.pipe_to else [])


def steps(op) -> list[gen.Op]:
    """The commands (or pipes) of an op, in order."""
    return op.parts if isinstance(op, gen.Session) else [op]


def run_op(op: gen.Op, files: OpFiles, spawner: Spawner) -> Sample:
    if isinstance(op, gen.Session):
        return Sample.session([run_op(part, files, spawner) for part in op.parts])
    sample = spawner.run(files.commands(op), op.kind)
    sample.error = verify.verify(op.kind, sample.rc, sample.stdout, op.facts)
    if sample.error and sample.stderr:
        sample.error += f" | stderr: {sample.stderr.strip()[-200:]}"
    return sample


def sparse_probe(seed: int, files: OpFiles, spawner: Spawner) -> dict:
    """Run the seed's sparse select input once and report how the CLI answered."""
    sample = run_op(gen.sparse_select_op(seed), files, spawner)
    return {"rc": sample.rc, "answer": sample.reason() if sample.rc else "a staging",
            "refused_with_zero_stage_traffic": sample.rc != 0 and sample.error is None}


def setup_time(spawner: Spawner) -> float:
    """Wall time of ``--version``: interpreter start plus every import."""
    s = spawner.run([["--version"]], "setup")
    if s.rc != 0 or not s.stdout.strip():
        raise SystemExit(f"stagedtree.cli --version failed (exit {s.rc}): {s.stderr}")
    return s.wall


class RunLog:
    """Samples of a run, the digest of their stdout, and input properties.

    stdout is dropped once digested, so a run holds one op's output at most.
    """

    def __init__(self, spawner: Spawner):
        self.spawner = spawner
        self.setup: list[float] = []
        self.samples: list[Sample] = []
        self.failures: Counter = Counter()
        self.props: list[dict] = []
        self.first_op = None
        self.commands = 0
        self._all = hashlib.sha256()
        self._head = hashlib.sha256()

    def add(self, op: gen.Op, sample: Sample) -> None:
        """Record an op; every SETUP_EVERY commands also time one set-up."""
        self._all.update(sample.stdout)
        if len(self.samples) < DIGEST_OPS:
            self._head.update(sample.stdout)
        self.props.append(op_properties(op, sample))
        self.first_op = self.first_op or op
        if not sample.ok:
            self.failures[sample.reason()] += 1
        sample.stdout = None
        self.samples.append(sample)
        self.commands += len(steps(op))
        while len(self.setup) <= (self.commands - 1) // SETUP_EVERY:
            self.setup.append(setup_time(self.spawner))

    def digest(self) -> dict:
        n = len(self.samples)
        return {
            f"first_{min(n, DIGEST_OPS)}_ops_sha256": self._head.hexdigest(),
            f"all_{n}_ops_sha256": self._all.hexdigest(),
        }


# -- metrics ------------------------------------------------------------------


def median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def end_to_end(samples: list[Sample], setup: list[float]) -> tuple[dict, dict]:
    """The seven end-to-end metrics, and their sample counts."""
    ok = [s for s in samples if s.ok]
    lat = [s.wall for s in ok]
    p90 = float(np.percentile(lat, 90)) if lat else 0.0
    busy = sum(s.wall for s in samples)
    metrics = {
        "setup_s": median(setup),
        "ops_per_s": len(ok) / busy if busy else 0.0,
        "latency_p50_s": median(lat),
        "latency_p90_s": p90,
        "cpu_p50_s": median([s.cpu for s in ok]),
        "peak_rss_mb": max((s.rss_mb for s in samples), default=0.0),
        "error_ratio": (len(samples) - len(ok)) / len(samples) if samples else 0.0,
    }
    counts = {
        "setup_s": len(setup),
        "ops_per_s": len(samples),
        "latency_p50_s": len(lat),
        "latency_p90_s": len(lat),
        "cpu_p50_s": len(lat),
        "peak_rss_mb": len(samples),
        "error_ratio": len(samples),
    }
    return metrics, counts


def tree_size(cards: list[int]) -> dict:
    return {"k": sum(prod(cards[:i]) for i in range(len(cards))), "n": prod(cards)}


def op_properties(op: gen.Op, sample: Sample) -> dict:
    """The input properties of one op that a later change might depend on."""
    if op.kind == "select":
        counts = verify.vertex_counts(op.facts["rows"], op.facts["cards"])
        return {"unvisited_inner_vertex": verify.has_unvisited_vertex(counts)}
    if op.kind == "check":
        verdict = json.loads(sample.stdout) if sample.ok else {}
        return {
            **{k: verdict.get(k) for k in ("regular", "balanced", "simple")},
            "same_stage_pairs": verify.same_stage_pairs(op.facts["bn"]),
        }
    return {}


def input_properties(workload: str, log: RunLog) -> dict:
    """Shares and sizes of the inputs a run used, so a later claim can state them."""
    facts, props = log.first_op.facts, log.props

    def share(key):
        known = [p[key] for p in props if p.get(key) is not None]
        return sum(known) / len(known) if known else 0.0

    if workload == "select-5bin":
        return {**tree_size(facts["cards"]), "rows": gen.SELECT_ROWS, "inputs": len(props),
                "unvisited_inner_vertex_share": share("unvisited_inner_vertex")}
    if workload == "check-bn6":
        return {**tree_size(facts["bn"].cards), "inputs": len(props),
                "balanced_share": share("balanced"), "regular_share": share("regular"),
                "simple_share": share("simple"),
                "same_stage_pairs_p50": median([p["same_stage_pairs"] for p in props])}
    bn = facts["bn"]
    return {**tree_size(bn.cards), "rows": gen.FIT_ROWS, "stages": verify.bn_dimension(bn),
            "same_stage_pairs": verify.same_stage_pairs(bn)}


# -- environment --------------------------------------------------------------


def environment() -> dict:
    import networkx

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        cpu = platform.processor() or cpu
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    src = hashlib.sha256()
    for path in sorted((SRC / "stagedtree").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "networkx": networkx.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "loadavg_start": os.getloadavg()[0],
    }


# -- the two kinds of run -----------------------------------------------------


def closed_loop(workload: str, seed: int, seconds: float, files: OpFiles, spawner: Spawner):
    """Untraced run: fresh ops until the measured op time reaches ``seconds``."""
    log = RunLog(spawner)
    busy = 0.0
    for op in gen.op_stream(workload, seed):
        if busy >= seconds:
            break
        sample = run_op(op, files, spawner)
        busy += sample.wall
        log.add(op, sample)
    return log


def load_library():
    sys.path.insert(0, str(SRC))
    import stagedtree
    from stagedtree import cli

    if Path(stagedtree.__file__).resolve().parent != (SRC / "stagedtree").resolve():
        raise SystemExit(f"imported stagedtree from {stagedtree.__file__}, not from {SRC}")
    return stagedtree, cli


def run_in_process(cli, commands: list[list[str]], tmp: Path) -> tuple[int, bytes, int]:
    """``cli.run`` on each command with ``--output``; a pipe reads the previous file."""
    outs = [tmp / f"out{i}.json" for i in range(len(commands))]
    rc = 0
    for i, args in enumerate(commands):
        args = [str(outs[i - 1]) if a == "-" else a for a in args]
        rc = cli.run(args + ["--output", str(outs[i])]) or rc
    n_bytes = sum(p.stat().st_size for p in outs if p.exists())
    stdout = outs[-1].read_bytes() if outs[-1].exists() else b""
    for p in outs:
        p.unlink(missing_ok=True)
    return rc, stdout, n_bytes


def traced_loop(workload: str, seed: int, seconds: float, files: OpFiles, spawner: Spawner):
    """Traced run over the workload's first TRACE_OPS ops, cycled.

    Each op runs as a process (for its end-to-end time), then in-process
    through ``cli.run`` and through the replayed pipeline.  Counts come from
    the first pass, so they repeat exactly; times are per-op medians over
    every pass.  At least one full pass runs unless it would take more than
    three times ``seconds``.  Spans and counts of a session's commands add
    up to the op's.
    """
    st, cli = load_library()
    tracer = Tracer()
    replayer = Replayer(st, tracer)
    ops = list(itertools.islice(gen.op_stream(workload, seed), TRACE_OPS[workload]))
    log, per_op = RunLog(spawner), []
    busy = 0.0
    for n in itertools.count():
        if busy >= seconds and (n >= len(ops) or busy >= 3 * seconds):
            break
        op = ops[n % len(ops)]
        sample = run_op(op, files, spawner)
        start = time.perf_counter()
        tracer.op = n
        first = len(tracer.spans)
        error, n_bytes = None, 0
        for part in steps(op):
            with tracer.span("cli.run"):
                rc, stdout, part_bytes = run_in_process(cli, files.commands(part), files.tmp)
            n_bytes += part_bytes
            error = error or verify.verify(part.kind, rc, stdout, part.facts)
        counts = None
        if error is None and sample.ok:
            try:
                counts = {}
                for part in steps(op):
                    counts.update(getattr(replayer, part.kind)(files.paths(part)))
            except Exception as exc:  # a library failure is a failed op, not a crash
                counts, error = None, f"replay raised {type(exc).__name__}: {exc}"
        if error and sample.error is None:
            sample.error = f"in-process: {error}"
        busy += sample.wall + time.perf_counter() - start
        log.add(op, sample)
        if counts is not None:
            per_op.append((n, tracer.self_times(first), counts, n_bytes))
    return log, per_op, tracer, len(ops), len(steps(ops[0]))


def per_layer(per_op: list, n_distinct: int, n_commands: int, e2e: dict) -> dict:
    """Per-op medians of each layer's self time, and of the counts.

    ``n_commands`` commands run one after another in each op, and each pays
    the set-up time once.
    """
    values: dict[str, list[float]] = {}

    def add(name, value):
        values.setdefault(name, []).append(value)

    for n, selftimes, counts, out_bytes in per_op:
        layers = {k: v for k, v in selftimes.items() if k != "cli.run"}
        for name, t in layers.items():
            add(f"{name}.self_s", t)
        add("cli.run.total_s", selftimes["cli.run"])
        add("cli.self_s", selftimes["cli.run"] - sum(layers.values()))
        if "fit.select_staging" in layers:
            add("fit.select_staging.us_per_candidate",
                1e6 * layers["fit.select_staging"] / counts["fit.select_staging.candidates"])
        if "fit.ingest_csv" in layers:
            add("fit.ingest_csv.us_per_row",
                1e6 * layers["fit.ingest_csv"] / counts["fit.ingest_csv.rows"])
        if n < n_distinct:  # sizes and counts: first pass only, so they repeat exactly
            add("cli.output_bytes", out_bytes)
            for name, c in counts.items():
                add(name, c)
    out = {name: median(v) for name, v in values.items()}
    out["trace.unattributed_s"] = (
        e2e["latency_p50_s"] - n_commands * e2e["setup_s"] - out.get("cli.run.total_s", 0.0)
    )
    return out


# -- main ---------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOAD_IDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    contract = ROOT / "BENCHMARK.json"
    if not (SRC / "stagedtree" / "cli.py").is_file() or not contract.is_file():
        print(f"no stagedtree sources under {SRC} or no {contract.name}", file=sys.stderr)
        return 2
    spec = json.loads(contract.read_text())

    env = environment()
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    files = OpFiles(tmp)
    spawner = Spawner(tmp)
    try:
        setup_time(spawner)  # writes bytecode caches; not a sample
        probe = sparse_probe(args.seed, files, spawner) if args.workload == "select-5bin" else None
        if args.trace:
            log, per_op, tracer, n_distinct, n_commands = traced_loop(
                args.workload, args.seed, args.seconds, files, spawner)
        else:
            log = closed_loop(args.workload, args.seed, args.seconds, files, spawner)
    finally:
        spawner.close()
        shutil.rmtree(tmp, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()[0]
    env["overloaded"] = max(env["loadavg_start"], env["loadavg_end"]) > env["nproc"]

    samples, setup = log.samples, log.setup
    e2e, n_samples = end_to_end(samples, setup)
    failures = [s for s in samples if not s.ok]
    wrong = [s for s in failures if s.error is not None]
    metrics = dict(e2e)
    if args.trace:
        metrics.update(per_layer(per_op, n_distinct, n_commands, e2e))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {**E2E_UNITS, **{m["name"]: m["unit"] for m in spec["per_layer"]}}
    props = input_properties(args.workload, log)
    if probe is not None:
        props["sparse_probe"] = probe

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "properties": props,
        "stdout_digest": log.digest(),
        "metrics": {k: {"value": v, "unit": units.get(k, "")} for k, v in metrics.items()},
        "samples": n_samples,
        "setup_samples_s": setup,
        "ops": [s.record() for s in samples],
    }
    if args.trace:
        record["spans"] = tracer.spans
    out_path = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record))

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  (closed loop, 1 client)")
    print("environment " + json.dumps(env))
    if env["overloaded"]:
        print(f"warning: load average exceeded nproc={env['nproc']}; timings are suspect",
              file=sys.stderr)
    beyond_p90 = sum(s.wall > e2e["latency_p90_s"] for s in samples if s.ok)
    for name in E2E_UNITS:
        note = f"n={n_samples[name]}"
        if name == "latency_p90_s":
            note += f", {beyond_p90} beyond p90" + (" (<10: noisy)" if beyond_p90 < 10 else "")
        print(f"  {name:<16} {e2e[name]:>12.6g} {units[name]:<6} {note}")
    if args.trace:
        for m in spec["per_layer"]:
            print(f"  {m['name']:<38} {metrics.get(m['name'], 0.0):>12.6g} {m['unit']}")
    print(f"failed {len(failures)} of {len(samples)} ops"
          + "".join(f"; {n} x {r}" for r, n in log.failures.most_common(5)))
    print("input properties " + json.dumps(props))
    print("stdout digest " + json.dumps(log.digest()))
    print(f"record {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {
            m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
            for m in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
