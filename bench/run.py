"""Benchmark of the ewflow package: three workloads, end to end and per layer.

    python3 bench/run.py --workload qipo-bandit --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                     # all three workloads, one after another

Each workload runs in WORKERS fresh worker processes, one after another, with
BLAS pinned to one thread; worker 0 also checks the outputs. --seconds sets a
fixed number of whole rounds per worker (from the nominal round times in
ROUND_S), so the work of a run never depends on how fast it runs. With
--trace 0 the last line of standard output is a JSON object with the
end-to-end metrics (medians over the workers); with --trace 1 it holds the
per-layer metrics, measured by tracing workers 1.. while worker 0 runs
untraced to give the tracing overhead. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_DIR = ROOT / ".bench_runs"
WORKLOADS = ("train-guided", "qipo-bandit", "oracle-quad")
# Worker processes per run; set-up time is a median over them.
WORKERS = {"train-guided": 4, "qipo-bandit": 4, "oracle-quad": 3}
# Seconds one round of each workload takes on the reference machine
# (2-core VM, numpy 2.4.6, OpenBLAS 0.3.31, one BLAS thread).
ROUND_S = {"train-guided": 7.2, "qipo-bandit": 3.4, "oracle-quad": 10.5}
DEADLINE_S = 170.0
WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
END_TO_END = {"rows_per_s": "rows/s", "peak_rss_mb": "MiB", "setup_s": "s"}
PER_LAYER = {
    "nn.forward_cached.us_per_row": "us/row",
    "nn.backward.us_per_row": "us/row",
    "nn.time_embedding.us_per_row": "us/row",
    "nn.forward.us_per_row": "us/row",
    "nn.adam_step.us_per_call": "us/call",
    "nn.soft_update.us_per_call": "us/call",
    "nn.forward.minflt_per_row": "faults/row",
    "nn.forward_cached.minflt_per_row": "faults/row",
    "training.build_weighted_batch.us_per_row": "us/row",
    "training.loss.self_us_per_row": "us/row",
    "paths.perturb.us_per_row": "us/row",
    "training.loss_exact.ns_per_pair": "ns/pair",
    "sampling.sample_ode.us_per_row_nfe": "us/row-nfe",
    "sampling.nfe_per_row": "count",
    "rl.build_support_set.s_per_renewal": "s",
    "rl.renewal_share": "ratio",
    "rl.fit.us_per_row": "us/row",
    "rl.behavior_pretrain.s": "s",
    "oracle.guided_velocity.ns_per_pair": "ns/pair",
    "oracle.intermediate_energy.ns_per_pair": "ns/pair",
    "oracle.marginal_logdensity.ns_per_pair": "ns/pair",
    "oracle.block_mb": "MiB",
    "oracle.rss_over_block": "ratio",
    "oracle.init_s": "s",
    "mixtures.gmm_sample.s": "s",
    "proc.minflt_per_row": "faults/row",
    "proc.cpu_over_wall": "ratio",
    "trace.overhead_share": "ratio",
}


class BenchError(RuntimeError):
    pass


def run_worker(workload, seed, rounds, traced, index, deadline) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--rounds", str(rounds), "--trace", "1" if traced else "0",
        "--check", "1" if index == 0 else "0",
    ]
    if traced:
        TRACE_DIR.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(TRACE_DIR / f"trace-{workload}-seed{seed}-w{index}.json")]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"{workload}: out of time before worker {index}")
    env = dict(os.environ, **WORKER_ENV)
    launch = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--launch", repr(launch)], env=env, stdout=subprocess.PIPE,
            text=True, timeout=remaining, check=False,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker {index} did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker {index} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace, deadline) -> dict:
    n_workers = WORKERS[workload]
    rounds = max(1, round(seconds / (n_workers * ROUND_S[workload])))
    workers = [
        run_worker(workload, seed, rounds, trace and i > 0, i, deadline) for i in range(n_workers)
    ]
    print(f"== {workload}  seed {seed}  {n_workers} workers x {rounds} round(s)  trace {trace}")
    print(f"  numpy {workers[0]['numpy']}, {workers[0]['openblas']}")
    for i, w in enumerate(workers):
        print(
            f"  worker {i}{' (traced)' if trace and i > 0 else ''}: setup {w['setup_s']:.3f} s, "
            f"{w['rows_per_s']:.1f} rows/s over {w['timed_s']:.2f} s, "
            f"peak {w['peak_rss_mb']:.1f} MiB, "
            f"cpu/wall {w['cpu_over_wall']:.3f}, {w['minflt_per_row']:.3f} faults/row, "
            f"{w['failed']}/{w['attempted']} failed, BLAS threads {w['blas_threads']}"
        )
    digests = {w["digest"] for w in workers}
    correct = len(digests) == 1
    print(f"  {'PASS' if correct else 'FAIL'}  same outputs in every worker  "
          f"({len(digests)} distinct output hash(es))")
    for i, w in enumerate(workers):
        for name, ok, detail in w["checks"]:
            correct &= bool(ok)
            print(f"  {'PASS' if ok else 'FAIL'}  worker {i} {name}  {detail}")
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    correct &= attempted > failed

    if trace:
        plain, traced = workers[0], workers[1:]
        values = {
            name: statistics.median(w["layers"][name] for w in traced)
            for name in PER_LAYER
            if not name.startswith(("proc.", "trace."))
        }
        values["proc.minflt_per_row"] = plain["minflt_per_row"]
        values["proc.cpu_over_wall"] = plain["cpu_over_wall"]
        traced_rate = statistics.median(w["rows_per_s"] for w in traced)
        values["trace.overhead_share"] = (
            1.0 - traced_rate / plain["rows_per_s"] if plain["rows_per_s"] else 0.0
        )
        print(f"  untraced {plain['rows_per_s']:.1f} rows/s, traced {traced_rate:.1f} rows/s")
        units = PER_LAYER
    else:
        values = {name: statistics.median(w[name] for w in workers) for name in END_TO_END}
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "ewflow" / "__init__.py").is_file():
        print(f"bench: no ewflow package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print(f"machine: {os.cpu_count()} cpus, python {sys.version.split()[0]}, "
          f"worker env {WORKER_ENV}")
    results = {}
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        except BenchError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
