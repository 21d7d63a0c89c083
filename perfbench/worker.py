"""One benchmark process: set up a workload, then run its timed section.

Started by run.py, never by hand.  It writes its findings as JSON to
``--result``; ``t_ready`` (perf_counter at the end of set-up, a clock shared
by all processes on the host) lets the parent time set-up from before the
interpreter started.

Untraced (``--trace 0``): repetitions of the pipeline run back to back until
``--seconds`` would be exceeded (at least one); each is checked.
Traced (``--trace 1``): one untraced and one traced repetition at the same
seed, whose artifacts must match byte for byte, then the per-layer
reduction of the traced one.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

perf_counter = time.perf_counter


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0   # ru_maxrss is in KiB on Linux


def _repetition(wl, out: Path, rec=None) -> dict:
    """Run and check one repetition; a crash fails every operation."""
    out.mkdir(parents=True, exist_ok=True)
    error = None
    cpu0, t0 = _cpu(), perf_counter()
    try:
        outcome = wl.run(out, rec)
    except Exception:
        outcome, error = {}, traceback.format_exc()
    wall, cpu = perf_counter() - t0, _cpu() - cpu0
    try:
        checks = wl.check(outcome, out) if error is None else dict.fromkeys(wl.ops(), False)
        units = wl.completed(outcome, out) if error is None else 0
    except Exception:
        checks, units = dict.fromkeys(wl.ops(), False), 0
        error = traceback.format_exc()
    return {"wall_s": wall, "cpu_s": cpu, "units": units, "checks": checks,
            "error": error, "outcome": outcome}


def _strip(rep: dict) -> dict:
    return {k: v for k, v in rep.items() if k != "outcome"}


def timed(wl, work: Path, seconds: float) -> dict:
    reps = []
    start = perf_counter()
    while True:
        rep = _repetition(wl, work / f"rep{len(reps)}")
        reps.append(_strip(rep))
        # start another repetition only if it should end within the budget
        if perf_counter() - start + rep["wall_s"] > seconds:
            break
    return {"reps": reps, "peak_rss_mb": _peak_rss_mb()}


def traced(wl, work: Path) -> dict:
    from perlayer import baseline, layer_metrics
    from tracer import Recorder

    plain = _repetition(wl, work / "untraced")
    rec = Recorder()
    t_origin = perf_counter()
    with rec:
        trace = _repetition(wl, work / "traced", rec)
    checks = {f"untraced.{k}": v for k, v in plain["checks"].items()}
    checks.update({f"traced.{k}": v for k, v in trace["checks"].items()})
    extras: dict[str, float] = {}
    if plain["error"] is None and trace["error"] is None:
        same_a = wl.artifacts(plain["outcome"], work / "untraced")
        same_b = wl.artifacts(trace["outcome"], work / "traced")
        for name in sorted(set(same_a) | set(same_b)):
            checks[f"identical.{name}"] = same_a.get(name) == same_b.get(name)
        extras.update(wl.accuracy(trace["outcome"], work / "traced"))
        extras.update(wl.traced_extras(work / "traced"))
    else:
        checks["identical"] = False
    metrics = layer_metrics(rec, trace["wall_s"], plain["wall_s"], wl.validate_s, extras)
    return {
        "reps": [_strip(plain), _strip(trace)],
        "checks": checks,
        "per_layer": metrics,
        "baseline": baseline(rec),
        "trace": rec.to_obj(t_origin),
        "peak_rss_mb": _peak_rss_mb(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(Path.cwd() / "src"))
    import numpy
    import scipy
    import kinwave
    from workloads import WORKLOADS

    src = (Path.cwd() / "src").resolve()
    if src not in Path(kinwave.__file__).resolve().parents:
        raise SystemExit(f"kinwave imported from {kinwave.__file__}, not {src}")

    work = Path(args.work)
    wl = WORKLOADS[args.workload](args.seed)
    wl.setup(work)
    t_ready = perf_counter()
    result = {"t_ready": t_ready, "validate_s": wl.validate_s}
    if not args.setup_only:
        result["versions"] = {"python": sys.version.split()[0],
                              "numpy": numpy.__version__, "scipy": scipy.__version__,
                              "kinwave": kinwave.__version__}
        result["work_unit"] = wl.work_unit
        if args.trace:
            result.update(traced(wl, work))
        else:
            result.update(timed(wl, work, args.seconds))
    Path(args.result).write_text(json.dumps(result, default=repr), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
