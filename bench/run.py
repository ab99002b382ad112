#!/usr/bin/env python3
"""Benchmark of the wildcat CLI: time to a checked verdict, end to end and per layer.

    python3 bench/run.py --workload tuple_generic --seed 0 --seconds 30 --trace 0

Run from the repository root.  The program is driven only through
``wildcat.cli.run_command([... "--format", "machine"])`` in this process,
one op (one command on one instance) at a time.  Inputs are generated from
``--seed`` into ``.bench_work/``; every output is checked (see checks.py).

The corpus holds as many independent rounds of the workload's shapes as
fit ``--seconds`` at the nominal round time (corpus.NOMINAL_ROUND_S), so
every commit is measured on the same ops.  End-to-end times are scaled to a
reference machine speed by gauge.py.  ``--trace 0`` makes one pass
over it and reports the end-to-end metrics.  ``--trace 1`` uses half as many
rounds for a plain, a traced and a call-counting pass, then runs the known
defect probes, and reports the per-layer metrics.  The last line of stdout
is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import checks
import corpus
import gauge
import layers
from setup_probe import set_up

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
MIN_TAIL_OPS = 10


@dataclass
class OpResult:
    instance: object            # corpus.Instance
    command: str
    path: str
    seed: int
    code: Optional[int]
    seconds: float
    out: str
    err: str
    error: Optional[str]        # traceback when the command raised
    candidate: Optional[dict] = None  # for ops on a sampled candidate
    scale: float = 1.0          # gauge factor to the reference machine speed

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale

    @property
    def label(self) -> str:
        return f"{Path(self.path).stem}:{self.command}:{self.seed}"


def run_op(cli, instance, command, path, seed=0, candidate=None) -> OpResult:
    out, err = io.StringIO(), io.StringIO()
    argv = [command, "--instance", path, "--seed", str(seed), "--format", "machine"]
    error = code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run_command(argv)
    except Exception:  # a traceback is an outcome to count, not to stop on
        error = traceback.format_exc()
    took = time.perf_counter() - start
    return OpResult(instance, command, path, seed, code, took, out.getvalue(),
                    err.getvalue(), error, candidate)


def run_instance(cli, inst, workdir: Path):
    """All ops of one instance; sampled candidates are verified and analyzed."""
    results = [run_op(cli, inst, cmd, inst.path) for cmd in inst.commands]
    for seed in inst.expect.get("sample_seeds", []):
        sample = run_op(cli, inst, "sample", inst.path, seed)
        results.append(sample)
        if sample.code != 0 or sample.error is not None:
            continue
        candidate = json.loads(sample.out)["candidate"]
        path = workdir / f"{inst.name}.seed{seed}.json"
        path.write_text(json.dumps(dict(inst.data, candidate=candidate), sort_keys=True))
        for cmd in ("verify", "analyze"):
            results.append(run_op(cli, inst, cmd, str(path), seed, candidate))
    return results


def run_pass(cli, instances, workdir):
    """All ops once, each instance's ops gauged by the speed loop around them."""
    start = time.perf_counter()
    results = []
    before = gauge.loop_seconds()
    for inst in instances:
        ops = run_instance(cli, inst, workdir)
        after = gauge.loop_seconds()
        for r in ops:
            r.scale = gauge.scale(before, after)
        results += ops
        before = after
    return results, time.perf_counter() - start


def check_passes(cli, passes):
    """Failed ops per pass; later passes must repeat the first byte for byte."""
    first = {}
    failures = []
    for k, results in enumerate(passes):
        for r in results:
            digest = hashlib.sha256(r.out.encode()).hexdigest()
            if k == 0:
                first[r.label] = digest
                problems = checks.check_op(cli, r)
            else:
                problems = [] if first.get(r.label) == digest else \
                    ["output differs from the first pass"]
            if problems:
                failures.append((r.label, problems))
    return failures, first


def tail(times):
    """Value at the highest percentile with MIN_TAIL_OPS ops beyond it, and that percentile."""
    ordered = sorted(times)
    k = max(0, len(ordered) - MIN_TAIL_OPS - 1)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def setup_seconds(corpus_dir: Path):
    """Median set-up time of fresh processes: import, parse every instance, warm fields."""
    probe = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), str(corpus_dir)]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(probe, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "wildcat" / "__init__.py").is_file():
        print(f"no wildcat sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from wildcat import cli
    from wildcat.instances import parse_instance, render_instance

    if args.workload not in corpus.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {corpus.WORKLOADS}", file=sys.stderr)
        return 2
    per_round = corpus.NOMINAL_ROUND_S[args.workload] * (2 if args.trace else 1)
    rounds = max(1, int(args.seconds // per_round))
    workdir = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    instances = corpus.write_corpus(corpus.generate(args.workload, args.seed, rounds), workdir)
    defects = corpus.write_corpus(corpus.defect_instances(args.workload, args.seed),
                                  workdir / "defects")
    corpus_problems = [f"{inst.name}: does not round-trip through parse/render"
                       for inst in instances + defects
                       if render_instance(parse_instance(inst.path)) != inst.data]

    setup = setup_seconds(workdir) if args.trace == 0 else None
    set_up(SRC, workdir)

    if args.trace == 0:
        passes = [run_pass(cli, instances, workdir)]
        metrics = None
    else:
        passes, metrics = traced_run(cli, instances, defects, workdir)
    failures, digests = check_passes(cli, [p[0] for p in passes])
    attempted = sum(len(p[0]) for p in passes)
    (workdir / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True))
    combined = hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()

    times = [r.scaled for r in passes[0][0]]
    tail_s, tail_pct = tail(times)
    for label, problems in (failures + [("corpus", corpus_problems)])[:20]:
        if problems:
            print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {rounds} rounds, {len(times)} ops; "
          f"op_tail_s is p{tail_pct:.1f} of {len(times)} ops; unscaled pass "
          f"{passes[0][1]:.3f}s at mean gauge "
          f"{statistics.mean(r.scale for r in passes[0][0]):.3f}; outputs sha256 {combined}")

    if metrics is None:
        metrics = {
            "setup_s": (setup, "s"),
            "wall_s": (sum(times), "s"),
            "op_p50_s": (statistics.median(times), "s"),
            "op_tail_s": (tail_s, "s"),
            "ok_frac": ((attempted - len(failures)) / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics["op_tail.percentile"] = (tail_pct, "%")
    result = {
        "correct": not failures and not corpus_problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def traced_run(cli, instances, defects, workdir):
    """A plain, a traced and a call-counting pass, then the known-defect probes."""
    plain = run_pass(cli, instances, workdir)
    tracer = layers.Tracer()
    with layers.installed(tracer):
        traced = run_pass(cli, instances, workdir)
    passes = [plain, traced]
    metrics = tracer.metrics()

    counter = layers.CallCounter()
    with layers.installed(counter):
        run_pass(cli, instances, workdir)
    for _, _, _, name in layers.COUNTED_METHODS:
        metrics[name] = (counter.counts[name], "count")

    metrics["trace.wall_s"] = (traced[1], "s")
    metrics["trace.untraced_wall_s"] = (plain[1], "s")
    metrics["trace.overhead_frac"] = (traced[1] / plain[1] - 1, "ratio")
    metrics["ops.per_pass"] = (len(plain[0]), "count")

    failed_probes = set()
    for inst in defects:
        for r in run_instance(cli, inst, workdir / "defects"):
            problems = checks.check_op(cli, r)
            if problems:
                failed_probes.add(inst.name)
                print(f"known defect {inst.name}: {'; '.join(problems)}", file=sys.stderr)
    every_probe = [p.name for w in corpus.WORKLOADS for p in corpus.defect_instances(w, 0)]
    for name in sorted(every_probe):
        metrics[f"{name}.failed"] = (int(name in failed_probes), "count")
    metrics["defects.attempted"] = (len(defects), "count")
    metrics["defects.failed"] = (len(failed_probes), "count")
    return passes, metrics


if __name__ == "__main__":
    sys.exit(main())
