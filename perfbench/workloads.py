"""The three benchmark workloads: set-up, one timed repetition, output checks.

Each workload is a closed loop: one process runs one pipeline to completion,
then checks what it wrote.  ``setup`` covers imports, writing the config and,
for CLI-driven workloads, ``--validate-only``.  ``run`` is the timed part.
``check`` turns the outputs into a fixed list of pass/fail operations; a
crash fails every one of them.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import time
from pathlib import Path

perf_counter = time.perf_counter

OUTPUT_DIR_ENV = "KINWAVE_OUTPUT_DIR"

# study physics shared by the ladder and kinetic workloads (DEFAULT_STUDY)
STUDY_PACKET = {"type": "wkb", "k0": [0.125, 0.0, 0.0], "sigma": 0.5}
STUDY_EPSILONS = (0.5, 0.25, 0.125)
STUDY_L = 64
LADDER_REALIZATIONS = 4
LADDER_PARTICLES = 20_000
BOLTZMANN_PARTICLES = 200_000
N_OBSERVABLES = 12


def _couplings_obj():
    from kinwave import io
    from kinwave.harness import DEFAULT_STUDY

    return io.couplings_to_obj(DEFAULT_STUDY.couplings)


def _write_config(path: Path, doc: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


def _validate(sub: str, config: Path) -> float:
    from kinwave import cli

    t0 = perf_counter()
    rc = cli.dispatch([sub, "--config", str(config), "--validate-only"])
    if rc != 0:
        raise RuntimeError(f"kinwave {sub} --validate-only exited {rc}")
    return perf_counter() - t0


def _monotone_down(values) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


class Workload:
    name = ""
    work_unit = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.validate_s = 0.0

    def setup(self, work: Path) -> None:
        raise NotImplementedError

    def run(self, out: Path, rec=None) -> dict:
        raise NotImplementedError

    def ops(self) -> list[str]:
        raise NotImplementedError

    def check(self, outcome: dict, out: Path) -> dict[str, bool]:
        raise NotImplementedError

    def completed(self, outcome: dict, out: Path) -> int:
        """Work units finished by one repetition (the work_per_s numerator)."""
        raise NotImplementedError

    def artifacts(self, outcome: dict, out: Path) -> dict[str, bytes]:
        """Outputs that a traced and an untraced run must reproduce exactly."""
        raise NotImplementedError

    def accuracy(self, outcome: dict, out: Path) -> dict[str, float]:
        return {}

    def traced_extras(self, out: Path) -> dict[str, float]:
        return {}


class Ladder(Workload):
    """``kinwave compare`` on the study physics with 4 realizations per rung."""

    name = "ladder"
    work_unit = "realizations"

    def setup(self, work: Path) -> None:
        self.config = _write_config(work / "compare.json", {
            "couplings": _couplings_obj(),
            "epsilons": list(STUDY_EPSILONS),
            "box_sizes": [STUDY_L] * len(STUDY_EPSILONS),
            "t_bar": 0.5,
            "realizations": LADDER_REALIZATIONS,
            "distribution": "rademacher",
            "initial": STUDY_PACKET,
            "M": 48,
            "beta": 0.06,
            "xi2": 1.0,
            "particles": LADDER_PARTICLES,
            "master_seed": self.seed,
            "workers": 1,
        })
        self.validate_s = _validate("compare", self.config)

    def run(self, out: Path, rec=None) -> dict:
        from kinwave import cli

        os.environ[OUTPUT_DIR_ENV] = str(out)
        return {"rc": cli.dispatch(["compare", "--config", str(self.config)])}

    def ops(self) -> list[str]:
        n = LADDER_REALIZATIONS
        names = [f"{side}{i}.r{r}" for side in ("rung", "transport")
                 for i in range(len(STUDY_EPSILONS)) for r in range(n)]
        return names + ["compare_exit0",
                        "c12_monotone_err", "c12_final_err", "c12_bound_ok",
                        "c13_monotone_t", "c13_monotone_gap0", "c13_overall_ratio"]

    def check(self, outcome: dict, out: Path) -> dict[str, bool]:
        res = dict.fromkeys(self.ops(), False)
        res["compare_exit0"] = outcome.get("rc") == 0
        if not res["compare_exit0"]:
            return res
        n = LADDER_REALIZATIONS
        report = json.loads((out / "report.json").read_text())
        for i, rung in enumerate(report["rungs"]):
            for r in range(n):
                res[f"rung{i}.r{r}"] = r < n - rung["n_dropped"]
        for i in range(len(STUDY_EPSILONS)):
            (path,) = out.glob(f"transport_{i}_*.json")
            kept = json.loads(path.read_text())["count"]
            for r in range(n):
                res[f"transport{i}.r{r}"] = r < kept
        summary = json.loads((out / "summary.json").read_text())
        err = [e for _, e in sorted(summary["err"].items(),
                                    key=lambda kv: -float(kv[0]))]
        res["c12_monotone_err"] = _monotone_down(err)
        res["c12_final_err"] = err[-1] <= 0.2
        res["c12_bound_ok"] = summary["bound_ok"] is True
        tr = summary["transport"]
        res["c13_monotone_t"] = _monotone_down(tr["gaps_t"])
        res["c13_monotone_gap0"] = _monotone_down(tr["gap0"])
        res["c13_overall_ratio"] = tr["gap0"][0] / tr["gap0"][-1] >= 1.6
        return res

    def completed(self, outcome: dict, out: Path) -> int:
        if outcome.get("rc") != 0:
            return 0
        report = json.loads((out / "report.json").read_text())
        kept = sum(r["count"] for r in report["rungs"])
        kept += sum(json.loads(p.read_text())["count"]
                    for p in out.glob("transport_*_*.json"))
        return kept

    def artifacts(self, outcome: dict, out: Path) -> dict[str, bytes]:
        files = {"summary.json": (out / "summary.json").read_bytes()}
        # rung "elapsed" is the wall time of the rung itself, not a result
        report = json.loads((out / "report.json").read_text())
        for rung in report["rungs"]:
            rung.pop("elapsed")
        files["report.json minus elapsed"] = json.dumps(report, sort_keys=True).encode()
        for path in sorted(out.glob("*.csv")):
            files[path.name] = path.read_bytes()
        return files

    def accuracy(self, outcome: dict, out: Path) -> dict[str, float]:
        report = json.loads((out / "report.json").read_text())
        return {f"harness.err.rung{i}": r["err"] for i, r in enumerate(report["rungs"])}

    def traced_extras(self, out: Path) -> dict[str, float]:
        """Warm ``compare`` rerun on the traced output dir, and one rung at
        workers = 2 against workers = 1 (both untraced)."""
        from kinwave import cli, harness
        from kinwave.initial import WKBPacket
        from kinwave.wigner import RunConfig, disorder_average

        os.environ[OUTPUT_DIR_ENV] = str(out)
        t0 = perf_counter()
        rc = cli.dispatch(["compare", "--config", str(self.config)])
        resume_s = perf_counter() - t0
        if rc != 0:
            raise RuntimeError(f"warm compare rerun exited {rc}")
        walls = {}
        for workers in (1, 2):
            run = RunConfig(
                couplings=harness.DEFAULT_STUDY.couplings, L=STUDY_L,
                eps=STUDY_EPSILONS[0], t_bar=0.5, distribution="rademacher",
                realizations=LADDER_REALIZATIONS,
                initial=WKBPacket(k0=tuple(STUDY_PACKET["k0"]),
                                  sigma=STUDY_PACKET["sigma"]),
                seed=self.seed, workers=workers, pairing=harness.gaussian_bump,
            )
            t0 = perf_counter()
            disorder_average(run, list(harness.DEFAULT_OBSERVABLES))
            walls[workers] = perf_counter() - t0
        return {"harness.resume_s": resume_s,
                "wigner.workers2_speedup": walls[1] / walls[2]}


class Kinetic(Workload):
    """``kinwave boltzmann`` at study size, then the jump/Dyson cross-check."""

    name = "kinetic"
    work_unit = "particle paths"

    def setup(self, work: Path) -> None:
        from kinwave.harness import DEFAULT_STUDY

        self.config = _write_config(work / "boltzmann.json", {
            "couplings": _couplings_obj(),
            "M": 48,
            "beta": 0.06,
            "xi2": 1.0,
            "initial": STUDY_PACKET,
            "t_bar": 0.5,
            "particles": BOLTZMANN_PARTICLES,
            "master_seed": self.seed,
        })
        self.study = dataclasses.replace(DEFAULT_STUDY, master_seed=self.seed)
        self.validate_s = _validate("boltzmann", self.config)

    def run(self, out: Path, rec=None) -> dict:
        from kinwave import cli, harness

        os.environ[OUTPUT_DIR_ENV] = str(out)
        rc = cli.dispatch(["boltzmann", "--config", str(self.config)])
        if rc != 0:
            return {"rc": rc}
        return {"rc": rc, "crosscheck": harness.solver_crosscheck(self.study)}

    def ops(self) -> list[str]:
        return (["boltzmann_exit0"]
                + [f"estimate{i}_bounded" for i in range(N_OBSERVABLES)]
                + ["crosscheck_worst_z", "crosscheck_tail_bound"])

    def check(self, outcome: dict, out: Path) -> dict[str, bool]:
        res = dict.fromkeys(self.ops(), False)
        res["boltzmann_exit0"] = outcome.get("rc") == 0
        if not res["boltzmann_exit0"]:
            return res
        mass = json.loads((out / "boltzmann.json").read_text())["mass"]
        with open(out / "boltzmann_estimates.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for i, row in enumerate(rows[:N_OBSERVABLES]):
            f = complex(float(row["re_mean"]), float(row["im_mean"]))
            res[f"estimate{i}_bounded"] = (
                len(rows) == N_OBSERVABLES
                and math.isfinite(f.real) and math.isfinite(f.imag)
                and abs(f) <= mass * (1.0 + 1e-12)
            )
        rep = outcome["crosscheck"]
        res["crosscheck_worst_z"] = rep.worst_z <= 3.0
        res["crosscheck_tail_bound"] = rep.tail_bound <= 1e-3 * self.study.initial.mass
        return res

    def completed(self, outcome: dict, out: Path) -> int:
        if "crosscheck" not in outcome:
            return 0
        return BOLTZMANN_PARTICLES + self.study.particles + self.study.dyson_samples

    def artifacts(self, outcome: dict, out: Path) -> dict[str, bytes]:
        rep = outcome["crosscheck"]
        cross = {
            "jump_means": [[m.real, m.imag] for m in rep.jump_means],
            "dyson_means": [[m.real, m.imag] for m in rep.dyson_means],
            "combined_se": rep.combined_se, "z_scores": rep.z_scores,
            "tail_bound": rep.tail_bound, "counts_mean": rep.counts_mean,
        }
        return {
            "boltzmann_estimates.csv": (out / "boltzmann_estimates.csv").read_bytes(),
            "boltzmann.json": (out / "boltzmann.json").read_bytes(),
            "crosscheck": json.dumps(cross).encode(),
        }

    def accuracy(self, outcome: dict, out: Path) -> dict[str, float]:
        return {"harness.worst_z": outcome["crosscheck"].worst_z}


def criterion_2_t100():
    """Criterion 2 cut at t = 100: the same L = 16 lattice, packet, dt and
    chunks of t = 1, gated on its energy envelope |E - E0| / E0 <= 1e-4.

    The full criterion goes on to t = 1000 (about 108k Verlet steps, some
    20 s), too long to repeat within one run; this keeps its per-step cost,
    which at L = 16 is mostly fixed per-call overhead, over about 10.8k steps.
    Functions are looked up on their modules at call time so that a traced
    run sees them.
    """
    import numpy as np
    from kinwave import dispersion, initial, lattice
    from kinwave.harness import CriterionResult

    c = dispersion.couplings_nn(1.0)
    L, eps = 16, 0.25
    disorder = lattice.sample_disorder(L, "rademacher", seed=5)
    packet = initial.WKBPacket(k0=(0.125, 0.0, 0.0), sigma=0.5)
    state = lattice.from_wavefunction(
        lattice.wkb_state(L, eps, packet.envelope, packet.phase), c, disorder, eps)
    dt = 0.05 / (np.sqrt(13.0) * (1.0 + np.sqrt(eps)))
    e0 = lattice.energy(state, disorder, eps, c)
    envelope = 0.0
    for _ in range(100):
        state = lattice.evolve(state, disorder, eps, c, t_final=1.0, dt=dt)
        e = lattice.energy(state, disorder, eps, c)
        envelope = max(envelope, abs(e - e0) / e0)
    return CriterionResult(2, "energy conservation envelope to t = 100",
                           envelope <= 1e-4,
                           {"envelope_t100": envelope, "tolerance": 1e-4, "dt": dt})


class Battery(Workload):
    """Acceptance criteria 1, 3-7 and 9-11, and criterion 2 cut at t = 100;
    criterion 8 runs in ``kinetic`` and 12-13 in ``ladder``.  Every criterion
    fixes its own random stream, so the seed does not change this workload."""

    name = "battery"
    work_unit = "criteria"
    CRITERIA = ("1", "2_t100", "3", "4", "5", "6", "7", "9", "10", "11")

    def setup(self, work: Path) -> None:
        from kinwave.harness import CRITERION_RUNNERS

        self.runners = {cid: criterion_2_t100 if cid == "2_t100"
                        else CRITERION_RUNNERS[int(cid)] for cid in self.CRITERIA}

    def run(self, out: Path, rec=None) -> dict:
        results = {}
        for cid, runner in self.runners.items():
            if rec is None:
                results[cid] = runner()
            else:
                results[cid] = rec.call(f"harness.criterion_{cid}", "harness", runner)
        return {"results": results}

    def ops(self) -> list[str]:
        return [f"criterion_{cid}" for cid in self.CRITERIA]

    def check(self, outcome: dict, out: Path) -> dict[str, bool]:
        results = outcome.get("results", {})
        return {f"criterion_{cid}": cid in results and bool(results[cid].passed)
                for cid in self.CRITERIA}

    def completed(self, outcome: dict, out: Path) -> int:
        return len(outcome.get("results", {}))

    def artifacts(self, outcome: dict, out: Path) -> dict[str, bytes]:
        return {
            f"criterion_{cid}": json.dumps(
                {"passed": r.passed, "detail": r.detail}, sort_keys=True,
                default=repr).encode()
            for cid, r in outcome["results"].items()
        }


WORKLOADS = {w.name: w for w in (Ladder, Kinetic, Battery)}
