"""kinwave benchmark: one command, three workloads, end-to-end or per layer.

    python3 perfbench/run.py --workload ladder|kinetic|battery --seed N \\
        --seconds S --trace 0|1

Run it from the root of a kinwave checkout; it imports the package from
``src/`` and writes only under ``.perfbench/``.  ``--trace 0`` prints the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` its per-layer metrics.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Set-up is timed from here, before each worker interpreter starts, to the end
of the worker's set-up; it is sampled SETUP_SAMPLES times (the last sample is
the worker that goes on to run the timed section) and reported as a median.
BLAS and OpenMP are pinned to one thread.  See README.md for the workloads
and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
THREAD_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unavailable: checkout is not a git repository"
    try:
        return subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unavailable"


def _spawn(cmd: list[str], env: dict, log: Path, deadline: float) -> float:
    """Run one worker to completion; returns perf_counter at its launch."""
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise TimeoutError("benchmark deadline reached")
    t0 = time.perf_counter()
    with open(log, "w", encoding="utf-8") as fh:
        proc = subprocess.Popen(cmd, env=env, stdout=fh, stderr=subprocess.STDOUT)
        try:
            rc = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
    if rc != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-3000:]
        raise RuntimeError(f"worker exited {rc}; log {log}:\n{tail}")
    return t0


def _end_to_end(result: dict, setups: list[float]) -> tuple[dict, dict]:
    reps = result["reps"]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "work_per_s": statistics.median(r["units"] / r["wall_s"] for r in reps),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    samples = {"setup_s": len(setups), "wall_s": len(reps), "cpu_s": len(reps),
               "work_per_s": len(reps), "peak_rss_mb": 1}
    return values, samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = time.perf_counter()
    deadline = start + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "kinwave" / "__init__.py").is_file():
        print(f"no kinwave sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = root / ".perfbench" / tag
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = {**os.environ, **THREAD_PIN,
           "PYTHONPATH": os.pathsep.join(
               [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    base = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]

    setups = []
    try:
        for i in range(SETUP_SAMPLES):
            last = i == SETUP_SAMPLES - 1
            work = out / ("work" if last else f"setup{i}")
            res_path = out / ("result.worker.json" if last else f"setup{i}.json")
            cmd = base + ["--work", str(work), "--result", str(res_path)]
            if not last:
                cmd.append("--setup-only")
            t0 = _spawn(cmd, env, out / f"worker{i}.log", deadline)
            result = json.loads(res_path.read_text(encoding="utf-8"))
            setups.append(result["t_ready"] - t0)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        checks = result["checks"]
        values = result["per_layer"]
        samples = {}
    else:
        checks = {f"rep{i}.{k}": v for i, r in enumerate(result["reps"])
                  for k, v in r["checks"].items()}
        values, samples = _end_to_end(result, setups)
    names = [m["name"] for m in declared]
    if set(values) != set(names):
        print(f"metric names differ from BENCHMARK.json: "
              f"{sorted(set(values) ^ set(names))}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    attempted = len(checks)
    failed = sum(1 for ok in checks.values() if not ok)

    env_info = {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "versions": result["versions"],
        "git_commit": _git_commit(root),
        "thread_pin": THREAD_PIN,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env_info,
        "setup_samples_s": setups, "metrics": metrics, "samples": samples,
        "work_unit": result["work_unit"],
        "failed_frac": failed / attempted if attempted else 1.0,
        "checks": checks,
        "failed_checks": sorted(k for k, ok in checks.items() if not ok),
        **{k: v for k, v in result.items()
           if k in ("reps", "baseline", "trace")},
    }
    (out / "result.json").write_text(json.dumps(record, indent=1, default=repr),
                                     encoding="utf-8")

    for name, m in metrics.items():
        n = samples.get(name)
        count = f"  (median of {n})" if n else ""
        print(f"{args.workload:8s} {name:36s} {m['value']:.6g} {m['unit']}{count}")
    print(f"{args.workload:8s} {'failed_frac':36s} {record['failed_frac']:.6g} "
          f"({failed}/{attempted} operations)")
    for name in record["failed_checks"]:
        print(f"{args.workload:8s} FAILED {name}")
    print(f"{args.workload:8s} results in {out / 'result.json'}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
