import json

import numpy as np
import pytest

from kinwave import harness, io
from kinwave.dispersion import build_dispersion, couplings_nn
from kinwave.errors import ConfigError
from kinwave.harness import (
    CriterionResult,
    DEFAULT_OBSERVABLES,
    DEFAULT_STUDY,
    StudyConfig,
    _eps_seed,
    _load_stage,
    free_flight_check,
    gaussian_bump,
    mean_inverse_mass_sq,
    substitution_gap_exact,
)
from kinwave.initial import WKBPacket
from kinwave.lattice import (
    evolve_free_spectral,
    from_wavefunction,
    macro_grid,
    sample_disorder,
    to_wavefunction,
    wkb_state,
)
from kinwave.wigner import Observable

C = couplings_nn(1.0)


def test_default_study_is_admissible():
    grid = build_dispersion(DEFAULT_STUDY.couplings, 8)
    DEFAULT_STUDY.validate(grid.max_group_speed)
    assert DEFAULT_STUDY.epsilons == (0.5, 0.25, 0.125)


def test_study_validation_errors():
    grid = build_dispersion(C, 8)
    good = dict(couplings=C)
    StudyConfig(**good).validate(grid.max_group_speed)

    with pytest.raises(ConfigError):
        StudyConfig(**good, epsilons=(0.25, 0.5, 0.125)).validate(grid.max_group_speed)
    with pytest.raises(ConfigError):
        StudyConfig(**good, epsilons=(0.5, 0.25), box_sizes=(64,)).validate(
            grid.max_group_speed)
    with pytest.raises(ConfigError):
        StudyConfig(**good, distribution="gaussian").validate(grid.max_group_speed)
    with pytest.raises(ConfigError):
        StudyConfig(**good, realizations=1).validate(grid.max_group_speed)
    with pytest.raises(ConfigError):
        # rademacher needs eps < 1
        StudyConfig(**good, epsilons=(1.5, 0.5), box_sizes=(64, 64)).validate(
            grid.max_group_speed)
    with pytest.raises(ConfigError):
        # wrap-around guard: tiny box cannot hold the flight distance
        StudyConfig(**good, box_sizes=(4, 4, 4)).validate(grid.max_group_speed)
    with pytest.raises(ConfigError):
        # observable set must anchor the mass channel
        StudyConfig(**good, observables=(
            Observable(p=(0.5, 0.0, 0.0), n=(0, 0, 0)),)).validate(
            grid.max_group_speed)


def test_observable_set_has_the_anchor():
    assert any(o.p == (0.0, 0.0, 0.0) and o.n == (0, 0, 0)
               for o in DEFAULT_OBSERVABLES)
    assert len(DEFAULT_OBSERVABLES) == 12


def test_config_hash_stable_under_field_order():
    obj = DEFAULT_STUDY.to_obj()
    scrambled = dict(reversed(list(obj.items())))
    assert io.config_hash(obj) == io.config_hash(scrambled)


def test_eps_seed_lanes_distinct():
    seeds = [_eps_seed(7, i) for i in range(60)]
    assert len(set(seeds)) == len(seeds)
    assert _eps_seed(8, 0) not in seeds


def test_load_stage_rejects_other_configs(tmp_path):
    path = tmp_path / "stage.json"
    io.write_json(path, {"config_hash": "aaaa", "value": 1})
    assert _load_stage(path, "aaaa") == {"config_hash": "aaaa", "value": 1}
    assert _load_stage(path, "bbbb") is None
    assert _load_stage(tmp_path / "missing.json", "aaaa") is None


def test_gaussian_bump():
    x = np.zeros((2, 3))
    x[1] = [1.0, 0.0, 0.0]
    vals = gaussian_bump(x)
    assert vals[0] == 1.0
    assert vals[1] == pytest.approx(np.exp(-0.5))


def test_mean_inverse_mass_sq_closed_forms():
    # rademacher: (1/2)[(1+s)^-2 + (1-s)^-2] = (1+eps)/(1-eps)^2, s = sqrt(eps)
    for eps in (0.5, 0.25, 0.125):
        s = np.sqrt(eps)
        direct = 0.5 * ((1 + s) ** -2 + (1 - s) ** -2)
        assert mean_inverse_mass_sq("rademacher", eps) == pytest.approx(direct)
    # uniform on [-sqrt(3), sqrt(3)]: integral gives 1/(1 - 3 eps)
    eps = 0.2
    xs = np.linspace(-np.sqrt(3), np.sqrt(3), 2_000_001)
    direct = np.mean((1 + np.sqrt(eps) * xs) ** -2)
    assert mean_inverse_mass_sq("uniform", eps) == pytest.approx(direct, rel=1e-4)
    with pytest.raises(ConfigError):
        mean_inverse_mass_sq("rademacher", 1.0)
    with pytest.raises(ConfigError):
        mean_inverse_mass_sq("gaussian", 0.1)


def test_substitution_gap_matches_monte_carlo():
    """The closed-form disorder mean of the time-zero pairing gap agrees
    with a direct average over sampled disorder fields."""
    packet = WKBPacket(k0=(0.125, 0.0, 0.0), sigma=0.5)
    L, eps = 16, 0.25
    gap, ref = substitution_gap_exact(packet, C, L, eps, "rademacher")
    assert ref > 0.0

    from kinwave.lattice import from_wavefunction, signed_axis
    from kinwave.wigner import energy_density_pairing, initial_wavefunction

    psi = initial_wavefunction(packet, L, eps)
    state = from_wavefunction(psi, C)        # substitution data, no disorder
    samples = []
    for r in range(40):
        d = sample_disorder(L, "rademacher", seed=(123, r))
        e = energy_density_pairing(state, d, eps, C, gaussian_bump)
        samples.append(e - ref)
    mc = np.mean(samples)
    se = np.std(samples, ddof=1) / np.sqrt(len(samples))
    assert abs(mc - gap) <= 4.0 * se + 1e-12
    # (1 + sqrt(eps) xi)^-2 >= 1 - 2 sqrt(eps) xi, with equality on no
    # rademacher site, so the direct data overshoot on every realization
    assert min(samples) > 0.0


def test_substitution_gap_decays_linearly():
    # signed mean self-averages the xi-linear term, so the gap is O(eps)
    packet = WKBPacket(k0=(0.125, 0.0, 0.0), sigma=0.5)
    gaps = [substitution_gap_exact(packet, C, 32, eps, "rademacher")[0]
            for eps in (0.5, 0.25, 0.125)]
    assert gaps[0] > gaps[1] > gaps[2] > 0.0
    assert gaps[0] / gaps[1] > 1.6
    assert gaps[1] / gaps[2] > 1.6


def test_free_flight_sigma_mismatch():
    with pytest.raises(ConfigError):
        free_flight_check(sigmas=(1.0,), epsilons=(0.25, 0.125))


def _round_trip_velocity(c, packet, eps, L, t_macro, n_samples):
    """Packet drift by the state round trip: evolve_free_spectral from the
    clean state to each sample time, then the centroid of |psi|^2 over the
    full macroscopic grid."""
    state0 = from_wavefunction(wkb_state(L, eps, packet.envelope, packet.phase), c)
    x = macro_grid(L, eps)
    times = np.linspace(0.0, t_macro, n_samples + 1)
    cents = []
    for tm in times:
        state = evolve_free_spectral(state0, c, tm / eps) if tm > 0.0 else state0
        density = np.abs(to_wavefunction(state, None, eps, c)) ** 2
        cents.append([np.sum(x[..., i] * density) / np.sum(density) for i in range(3)])
    return np.polynomial.polynomial.polyfit(times, np.array(cents), 1)[1]


def test_free_flight_velocities_match_the_state_round_trip():
    rep = free_flight_check()
    for eps, sigma, v in zip(rep.epsilons, rep.sigmas, rep.velocities):
        ref = _round_trip_velocity(C, WKBPacket(k0=tuple(rep.k0), sigma=sigma), eps,
                                   64, 1.5, 4)
        assert np.linalg.norm(np.array(v) - ref) <= 1e-12 * np.linalg.norm(ref)
    ref_c = _round_trip_velocity(C, WKBPacket(k0=(0.5, 0.5, 0.5), sigma=rep.sigmas[0]),
                                 0.25, 32, 1.5, 4)
    assert abs(rep.critical_speed - np.linalg.norm(ref_c)) <= 1e-12 * np.linalg.norm(ref_c)


def test_criterion_7_p_values_match_scipy_chisquare(monkeypatch):
    """On the pooled cells of each of the criterion's three streams, the
    statistic and p-value equal scipy.stats.chisquare's."""
    import scipy.stats

    calls = []
    chi_square = harness._chi_square

    def recording(observed, expected):
        out = chi_square(observed, expected)
        calls.append((observed, expected, out))
        return out

    monkeypatch.setattr(harness, "_chi_square", recording)
    result = harness.criterion_7()
    assert len(calls) == 3
    for observed, expected, (chi2, p_value) in calls:
        ref = scipy.stats.chisquare(observed, expected)
        assert chi2 == pytest.approx(ref.statistic, rel=1e-12, abs=0.0)
        assert p_value == pytest.approx(ref.pvalue, rel=1e-12, abs=0.0)
    assert result.detail["p_values"] == [p for *_, (_, p) in calls]


def test_criteria_4_to_6_share_one_read_only_grid(monkeypatch):
    """Criteria 4, 5 and 6 build their M = 48 grid once per process; every
    array of the shared grid, its flat views and levels included, is
    read-only, so no criterion can change what the next one reads."""
    builds = []

    def counting(c, M):
        builds.append(M)
        return build_dispersion(c, M)

    harness._nn_grid_48.cache_clear()
    monkeypatch.setattr(harness, "build_dispersion", counting)
    try:
        for criterion in (harness.criterion_4, harness.criterion_5, harness.criterion_6):
            assert criterion().passed
        grid = harness._nn_grid_48()
    finally:
        harness._nn_grid_48.cache_clear()
    assert builds.count(48) == 1
    arrays = (grid.omega, grid.omega_flat, grid.grad, grid.grad_flat, *grid.levels)
    assert not any(a.flags.writeable for a in arrays)


def test_criterion_result_line():
    r = CriterionResult(3, "something quantitative", True, {})
    assert r.line() == "criterion  3 [PASS] something quantitative"
    r2 = CriterionResult(12, "other", False, {})
    assert r2.line() == "criterion 12 [FAIL] other"


def test_run_acceptance_summary_shape(tmp_path, monkeypatch):
    # Plumbing only: stub the runners so the summary contract is cheap to check.
    # The real criteria run in tests/test_acceptance.py.
    from kinwave import harness

    # criterion 8 is handed the study config, the others nothing
    stubs = {cid: (lambda *cfg, cid=cid: CriterionResult(cid, f"stub {cid}", True, {}))
             for cid in range(1, 12)}
    monkeypatch.setattr(harness, "CRITERION_RUNNERS", stubs)
    monkeypatch.setattr(harness, "run_study", lambda cfg, out_dir=None: ("rep", "tr"))
    monkeypatch.setattr(
        harness, "criterion_12",
        lambda report: CriterionResult(12, "stub 12", report == "rep", {}))
    monkeypatch.setattr(
        harness, "criterion_13",
        lambda transport: CriterionResult(13, "stub 13", False, {"why": transport}))

    summary = harness.run_acceptance(out_dir=tmp_path)

    assert [row["id"] for row in summary["criteria"]] == list(range(1, 14))
    assert all(set(row) == {"id", "name", "passed", "detail"}
               for row in summary["criteria"])
    assert summary["all_passed"] is False
    assert summary["master_seed"] == DEFAULT_STUDY.master_seed
    assert len(summary["config_hash"]) == 64

    on_disk = json.loads((tmp_path / "summary.json").read_text())
    assert on_disk == json.loads(json.dumps(summary))


def test_criterion_8_runs_on_the_acceptance_config(tmp_path, monkeypatch):
    """run_acceptance hands its study config to criterion 8: the cross-check
    runs on it and reports its crosscheck_xi2, under its config hash."""
    from dataclasses import replace

    from kinwave import harness

    cfg = replace(DEFAULT_STUDY, crosscheck_xi2=0.5, master_seed=11)
    seen = []

    def crosscheck(study):
        seen.append(study)
        return harness.CrosscheckReport(
            observables=study.observables[:1], jump_means=[1.0], dyson_means=[1.0],
            combined_se=[0.1], z_scores=[0.0], worst_z=0.0, tail_bound=0.0,
            counts_mean=1.0)

    stubs = {cid: (lambda cid=cid: CriterionResult(cid, f"stub {cid}", True, {}))
             for cid in range(1, 12) if cid != 8}
    monkeypatch.setattr(harness, "CRITERION_RUNNERS",
                        {**stubs, 8: harness.criterion_8})
    monkeypatch.setattr(harness, "solver_crosscheck", crosscheck)
    monkeypatch.setattr(harness, "run_study", lambda cfg, out_dir=None: ("rep", "tr"))
    for cid in (12, 13):
        monkeypatch.setattr(harness, f"criterion_{cid}",
                            lambda report, cid=cid: CriterionResult(cid, "stub", True, {}))

    summary = harness.run_acceptance(out_dir=tmp_path, cfg=cfg)

    assert seen == [cfg]
    (row,) = [row for row in summary["criteria"] if row["id"] == 8]
    assert row["passed"] and row["detail"]["xi2"] == 0.5
    assert summary["config_hash"] == io.config_hash(cfg.to_obj())
    assert summary["master_seed"] == 11


def test_one_disorder_draw_per_realization_for_both_ladders(monkeypatch):
    """A rung draws each of its R disorder fields once: the convergence and
    the transport ladder share the draws, so a study of n rungs makes n R
    draws, not 2 n R, and each transport row carries its rung's count."""
    from kinwave import harness, wigner

    draws = []

    def counting(*args, **kwargs):
        draws.append(kwargs["seed"])
        return sample_disorder(*args, **kwargs)

    monkeypatch.setattr(wigner, "sample_disorder", counting)
    cfg = StudyConfig.from_obj({"epsilons": [0.5, 0.25], "box_sizes": [16, 20],
                                "t_bar": 0.1, "realizations": 3, "M": 8,
                                "particles": 2000, "master_seed": 7})
    report, transport = harness.run_study(cfg)
    assert sorted(draws) == sorted((_eps_seed(7, i), r) for i in range(2) for r in range(3))
    assert [r.count for r in report.rungs] == [3, 3]
    assert transport.micro_t == [r.pairing_t_mean for r in report.rungs]
    assert transport.micro_t_se == [r.pairing_t_se for r in report.rungs]


DEFAULT_HASH = "341eb2f4612b98bc968cd004415c937d2aac3b9c2a837f8e1146456e6396ee11"


def _hash(cfg):
    return io.config_hash(cfg.to_obj())


def test_study_from_obj_keeps_the_config_hashes():
    assert _hash(DEFAULT_STUDY) == DEFAULT_HASH
    assert _hash(StudyConfig.from_obj({"master_seed": 7})) == DEFAULT_HASH
    # every default spelled out, numbers as JSON may carry them; keys that
    # name no field (couplings_tag, pairing, propagator, output routing) are
    # ignored
    spelled = {**DEFAULT_STUDY.to_obj(), "workers": 1, "output_dir": "x",
               "resume": False, "M": 48.0, "realizations": 100.0}
    del spelled["couplings"]
    assert StudyConfig.from_obj(spelled) == DEFAULT_STUDY
    assert _hash(StudyConfig.from_obj(spelled)) == DEFAULT_HASH
    # explicit couplings carry no tag, which the hash records
    explicit = StudyConfig.from_obj({**spelled, "couplings": io.couplings_to_obj(C)})
    assert explicit.couplings.entries == C.entries
    assert _hash(explicit).startswith("8395cd42f23b")


def test_study_from_obj_coerces_numbers():
    one = StudyConfig.from_obj({"master_seed": 7, "t_bar": 1})
    assert one.t_bar == 1.0 and isinstance(one.t_bar, float)
    assert _hash(one) == _hash(StudyConfig.from_obj({"master_seed": 7, "t_bar": 1.0}))
    cfg = StudyConfig.from_obj({"master_seed": 7.0, "box_sizes": [64.0, 64.0],
                                "workers": 2})
    assert cfg.box_sizes == (64, 64) and isinstance(cfg.box_sizes[0], int)
    assert isinstance(cfg.master_seed, int) and cfg.workers == 2


def test_study_from_obj_refuses_a_fractional_shift():
    """An observable shift of 1.9 is refused, not truncated to 1; 1.0 is the
    shift 1 and keeps the config hash of the integer spelling."""
    doc = {"master_seed": 7, "observables": [[[0, 0, 0], [0, 0, 0]],
                                             [[0.5, 0, 0], [1.9, 0, 0]]]}
    with pytest.raises(ConfigError, match="shift"):
        StudyConfig.from_obj(doc)
    doc["observables"][1][1] = [1.0, 0, 0]
    as_float = StudyConfig.from_obj(doc)
    doc["observables"][1][1] = [1, 0, 0]
    assert _hash(as_float) == _hash(StudyConfig.from_obj(doc))
    assert as_float.observables[1].n == (1, 0, 0)


def test_study_from_obj_refuses_non_integral_integers():
    """Integer fields refuse a fractional number instead of truncating it."""
    cases = [("master_seed", {"master_seed": 7.9}),
             ("box_sizes", {"master_seed": 7, "box_sizes": [64.5] * 3}),
             ("realizations", {"master_seed": 7, "realizations": 4.7})]
    for name, doc in cases:
        with pytest.raises(ConfigError, match=f"{name}: .* is not an integer"):
            StudyConfig.from_obj(doc)


def test_study_to_obj_round_trips():
    from kinwave.initial import PointSource

    cfg = StudyConfig(
        couplings=C, distribution="uniform",
        initial=PointSource.from_dict({(0, 0, 0): 1.0, (1, 0, 0): 0.5 - 0.25j}),
        observables=(Observable((0.0, 0.0, 0.0), (0, 0, 0)),
                     Observable((0.5, 0.0, 0.0), (1, 0, 0))),
    )
    doc = json.loads(json.dumps(cfg.to_obj()))
    del doc["couplings"]          # absent couplings are DEFAULT_STUDY's, i.e. C
    assert StudyConfig.from_obj(doc) == cfg
