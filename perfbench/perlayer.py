"""Per-layer metrics and the baseline table, reduced from one traced section.

A metric whose layer the workload never enters reads 0 (for example every
``lattice.*`` metric on ``kinetic``); README.md lists which workload moves
which metric.
"""

from __future__ import annotations

import statistics

from tracer import WRITERS, Recorder
from workloads import STUDY_EPSILONS, STUDY_L


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _fft(rec: Recorder) -> tuple[dict[int, float], dict[int, float]]:
    pairs: dict[int, float] = {}
    secs: dict[int, float] = {}
    for key, value in rec.counts.items():
        if key.startswith("fft_pairs.L"):
            pairs[int(key[len("fft_pairs.L"):])] = value
        elif key.startswith("fft_s.L"):
            secs[int(key[len("fft_s.L"):])] = value
    return pairs, secs


def _evolve_per_rung(rec: Recorder) -> dict[int, list[float]]:
    """Durations of single evolve calls at the study box, by ladder rung."""
    out: dict[int, list[float]] = {i: [] for i in range(len(STUDY_EPSILONS))}
    for i, row in enumerate(rec.spans):
        attrs = row[5]
        if row[0] == "lattice.evolve" and attrs["L"] == STUDY_L \
                and attrs["eps"] in STUDY_EPSILONS:
            out[STUDY_EPSILONS.index(attrs["eps"])].append(rec.duration(i))
    return out


def _disorder_average(rec: Recorder):
    return [(rec.duration(i), row[5]) for i, row in enumerate(rec.spans)
            if row[0] == "wigner.disorder_average"]


def layer_metrics(rec: Recorder, wall: float, untraced_wall: float,
                  validate_s: float, extras: dict[str, float]) -> dict[str, float]:
    T = rec.total
    c = rec.counts
    m: dict[str, float] = {}

    # lattice
    evolve = T("lattice.evolve")
    pairs, fft_s = _fft(rec)
    m["lattice.evolve_s"] = evolve
    m["lattice.evolve_calls"] = rec.calls("lattice.evolve")
    m["lattice.fft_pairs"] = sum(pairs.values())
    for L in (16, 32, 64):
        m[f"lattice.fft_pair_ms.L{L}"] = 1e3 * _ratio(fft_s.get(L, 0.0), pairs.get(L, 0))
    m["lattice.step_overhead_frac"] = _ratio(evolve - sum(fft_s.values()), evolve)
    site_time = sum(r[5]["L"] ** 3 * r[5]["t_final"]
                    for r in rec.spans if r[0] == "lattice.evolve")
    m["lattice.ns_per_site_time"] = 1e9 * _ratio(evolve, site_time)
    for i, durs in _evolve_per_rung(rec).items():
        m[f"lattice.evolve_call_s.rung{i}"] = statistics.median(durs) if durs else 0.0
    m["lattice.to_wavefunction_s"] = T("lattice.to_wavefunction")
    m["lattice.energy_s"] = T("lattice.energy")
    m["lattice.sample_disorder_s"] = T("lattice.sample_disorder")

    # wigner
    averages = _disorder_average(rec)
    m["wigner.disorder_average_s.study"] = sum(
        d for d, a in averages if a["convention"] == "rescaled")
    m["wigner.disorder_average_s.transport"] = sum(
        d for d, a in averages if a["convention"] == "direct")
    for i, eps in enumerate(STUDY_EPSILONS):
        per = [d / a["realizations"] for d, a in averages
               if a["convention"] == "rescaled" and a["eps"] == eps and a["L"] == STUDY_L]
        m[f"wigner.realization_s.rung{i}"] = statistics.median(per) if per else 0.0
    m["wigner.f_transform_s"] = T("wigner.f_transform")
    m["wigner.f_transform_calls"] = rec.calls("wigner.f_transform")
    m["wigner.energy_pairing_s"] = T("wigner.energy_density_pairing")
    m["wigner.self_s"] = rec.self_time(lambda r: r[1] == "wigner")
    m["wigner.dropped"] = c.get("dropped", 0)
    m["wigner.workers2_speedup"] = extras.get("wigner.workers2_speedup", 0.0)

    # initial data
    m["initial.wavefunction_s"] = sum(
        rec.duration(i) for i in rec.outermost(lambda r: r[1] == "initial"))

    # kinetic
    simulate = T("kinetic.simulate")
    jump = T("kinetic.sample_jump")
    draws = c.get("jump_draws", 0)
    m["kinetic.build_table_s"] = T("kinetic.build_collision_table")
    m["kinetic.sample_initial_s"] = T("kinetic.sample_initial")
    m["kinetic.simulate_s"] = simulate
    m["kinetic.free_flight_s"] = simulate - rec.child_total("kinetic.simulate",
                                                            "kinetic.sample_jump")
    m["kinetic.sample_jump_s"] = jump
    m["kinetic.jump_draws"] = draws
    m["kinetic.jump_us_per_draw"] = 1e6 * _ratio(jump, draws)
    m["kinetic.jump_acceptance"] = _ratio(draws, c.get("jump_proposals", 0))
    m["kinetic.collisions_per_particle"] = _ratio(c.get("collisions", 0),
                                                  c.get("simulated_particles", 0))
    m["kinetic.characteristic_function_s"] = T("kinetic.characteristic_function")
    m["kinetic.dyson_s"] = T("kinetic.dyson_characteristic")
    m["kinetic.dyson_self_s"] = rec.self_time(
        lambda r: r[0] == "kinetic.dyson_characteristic")
    m["kinetic.dyson_tail_bound"] = c.get("dyson_tail_bound", 0.0)

    # dispersion, moments
    m["dispersion.build_s"] = T("dispersion.build_dispersion")
    m["dispersion.critical_points_s"] = T("dispersion.find_critical_points")
    m["dispersion.decay_fit_s"] = T("dispersion.decay_exponent")
    m["moments.verify_moment_mc_s"] = T("moments.verify_moment_mc")
    m["moments.enumerate_partitions_s"] = T("moments.enumerate_partitions")

    # harness (orchestration) and accuracy, reported not gated
    m["harness.self_s"] = wall - rec.work_time()
    m["harness.substitution_gap_s"] = T("harness.substitution_gap_exact")
    m["harness.resume_s"] = extras.get("harness.resume_s", 0.0)
    for i in range(len(STUDY_EPSILONS)):
        m[f"harness.err.rung{i}"] = extras.get(f"harness.err.rung{i}", 0.0)
    m["harness.worst_z"] = extras.get("harness.worst_z", 0.0)

    # io and cli
    m["io.write_s"] = sum(rec.duration(i)
                          for i in rec.outermost(lambda r: r[0] in WRITERS))
    m["io.files_written"] = c.get("files_written", 0)
    m["io.bytes_written"] = c.get("bytes_written", 0)
    m["cli.validate_s"] = validate_s

    m["trace.overhead_frac"] = _ratio(wall, untraced_wall) - 1.0
    return {k: float(v) for k, v in m.items()}


def baseline(rec: Recorder) -> dict:
    """The ROADMAP baseline rows, measured from the traced section.

    Per-200k figures scale the measured total linearly by the work count;
    rows whose layer this workload does not run are None."""
    pairs, fft_s = _fft(rec)
    c = rec.counts
    out: dict = {
        "fft_pair_ms.L64": 1e3 * fft_s[64] / pairs[64] if pairs.get(64) else None,
    }
    for i, durs in _evolve_per_rung(rec).items():
        out[f"evolve_s.eps{STUDY_EPSILONS[i]}"] = statistics.median(durs) if durs else None
    for i, row in enumerate(rec.spans):
        if row[0] == "lattice.evolve" and row[5]["L"] == STUDY_L:
            out.setdefault(f"evolve_fft_pairs.eps{row[5]['eps']}", row[5].get("fft_pairs"))
    study = [(d, a) for d, a in _disorder_average(rec) if a["convention"] == "rescaled"]
    n_real = sum(a["realizations"] for _, a in study)
    f_study = sum(rec.duration(i) for i, r in enumerate(rec.spans)
                  if r[0] == "wigner.f_transform" and r[4] >= 0
                  and rec.spans[r[4]][5].get("convention") == "rescaled")
    out["f_transform_ms_per_realization"] = 1e3 * f_study / n_real if n_real else None

    def per(total: float, count: float, scale: float) -> float | None:
        return total * scale / count if count else None

    out["sample_initial_s.per200k"] = per(rec.total("kinetic.sample_initial"),
                                          c.get("initial_particles", 0), 200_000)
    out["sample_jump_s.per200k_draws"] = per(rec.total("kinetic.sample_jump"),
                                             c.get("jump_draws", 0), 200_000)
    out["jump_acceptance.path_averaged"] = (
        c["jump_draws"] / c["jump_proposals"] if c.get("jump_proposals") else None)
    out["simulate_s.per200k"] = per(rec.total("kinetic.simulate"),
                                    c.get("simulated_particles", 0), 200_000)
    out["collisions_per_particle"] = per(c.get("collisions", 0),
                                         c.get("simulated_particles", 0), 1)
    # per call, since the reference, the crosscheck and the Dyson chains
    # differ in size and collision rate
    jump_under: dict[int, float] = {}
    for i, r in enumerate(rec.spans):
        if r[0] == "kinetic.sample_jump" and r[4] >= 0:
            jump_under[r[4]] = jump_under.get(r[4], 0.0) + rec.duration(i)
    out["sample_initial.calls"] = [
        {"particles": r[5]["particles"], "s": rec.duration(i)}
        for i, r in enumerate(rec.spans) if r[0] == "kinetic.sample_initial"]
    out["simulate.calls"] = [
        {"particles": r[5]["particles"],
         "collisions_per_particle": r[5]["collisions"] / r[5]["particles"],
         "s": rec.duration(i), "sample_jump_s": jump_under.get(i, 0.0)}
        for i, r in enumerate(rec.spans) if r[0] == "kinetic.simulate"]
    dyson = rec.calls("kinetic.dyson_characteristic")
    out["dyson_characteristic_s"] = per(rec.total("kinetic.dyson_characteristic"),
                                        dyson, 1)
    tables = [rec.duration(i) for i, r in enumerate(rec.spans)
              if r[0] == "kinetic.build_collision_table"]
    out["build_collision_table_ms"] = 1e3 * statistics.median(tables) if tables else None
    return out
