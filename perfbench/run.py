"""EDDA pipeline benchmark: synth -> align -> train -> eval through the CLI.

    python3 perfbench/run.py --workload align_heavy --seed 1 --seconds 40 --trace 0

runs one workload and prints each metric with its unit, then, as the last
line, a JSON object with `correct`, `attempted`, `failed` and `metrics`.
`--trace 0` reports the end-to-end metrics of BENCHMARK.json, `--trace 1`
the per-layer ones. `--workload all` runs every workload in turn, each in
its own process. Files go to `.perfbench_work/` at the repository root.
The exit code is 0 only when every command succeeded and every check held.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench_work"
REFERENCE = BENCH_DIR / "reference_hashes.json"
# one BLAS thread: the CLI runs single-threaded, and a second thread on a
# 2-CPU box only adds contention noise
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="workload name, or `all`")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def stamp(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "git_commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),  # what `nproc` prints
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
    }


def reference_status(workload: str, seed: int, hashes: dict[str, str]) -> dict:
    stored = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    ref = stored.get(workload, {}).get(str(seed))
    if ref is None:
        return {"status": "no reference for this seed", "differs": []}
    differs = sorted(name for name in set(ref) | set(hashes) if ref.get(name) != hashes.get(name))
    return {"status": "differs" if differs else "matches", "differs": differs}


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    from workloads import WORKLOADS

    results = {}
    code = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, capture_output=True, text=True)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        code = code or child.returncode
        lines = child.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    done = [r for r in results.values() if r is not None]
    print(json.dumps({
        "correct": code == 0 and len(done) == len(results) and all(r["correct"] for r in done),
        "attempted": sum(r["attempted"] for r in done),
        "failed": sum(r["failed"] for r in done),
        "metrics": {f"{w}.{k}": v for w, r in results.items() if r for k, v in r["metrics"].items()},
    }))
    return code or int(len(done) != len(results))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "edda" / "__init__.py").is_file():
        print(f"perfbench: no edda sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import pipeline

    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    work_dir = WORK_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work_dir, ignore_errors=True)
    bench = pipeline.Bench(workload, args.seed, work_dir)
    with bench.logging_attached():
        measure = pipeline.measure_traced if args.trace else pipeline.measure
        m = measure(bench, work_dir, args.seconds)
    if not args.trace:
        m.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {d["name"]: {"value": m.metrics[d["name"]], "unit": d["unit"]}
               for d in declared if d["name"] in m.metrics}
    not_gated = {name: value for name, value in m.metrics.items() if name not in metrics}
    correct = bench.failed == 0 and len(metrics) == len(declared)
    reference = reference_status(workload.name, args.seed, m.hashes)

    info = stamp(args.seed)
    (work_dir / "result.json").write_text(json.dumps({
        "workload": workload.name, "trace": args.trace, "stamp": info, "correct": correct,
        "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics,
        "not_gated": not_gated, "runs": m.runs, "failures": bench.failures, "hashes": m.hashes, "reference": reference,
    }, indent=1) + "\n")
    if m.spans:
        with open(work_dir / "spans.jsonl", "w", encoding="utf-8") as handle:
            for rep, spans in enumerate(m.spans):
                for span in spans:
                    handle.write(json.dumps({"rep": rep, **span}) + "\n")

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
          f"{sum('train' in r for r in m.runs)} pipeline reps, results in {work_dir.relative_to(ROOT)}")
    print(f"  stamp: {json.dumps(info)}")
    for name, entry in metrics.items():
        print(f"  {name:34s} {entry['value']:14.6f} {entry['unit']}")
    if not args.trace:
        print("  not gated: " + ", ".join(f"{name}={value:.6f}" for name, value in not_gated.items()))
    print(f"  commands failed: {bench.failed} of {bench.attempted}")
    for attempt, message in bench.failures:
        print(f"  FAILED command {attempt}: {message}")
    print(f"  artifacts: {len(m.hashes)} hashed; reference: {reference['status']}"
          + (f" ({', '.join(reference['differs'])})" if reference["differs"] else ""))
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
