from dataclasses import replace

import numpy as np
import pytest

from kinwave.dispersion import couplings_nn
from kinwave import wigner
from kinwave.errors import ConfigError
from kinwave.initial import WKBPacket
from kinwave.lattice import from_wavefunction, propagate, sample_disorder, to_wavefunction
from kinwave.wigner import (
    Observable,
    RunConfig,
    disorder_average,
    energy_density_pairing,
    f_row,
    f_transform,
    initial_wavefunction,
)

C = couplings_nn(1.0)
PACKET = WKBPacket(k0=(0.125, 0.0, 0.0), sigma=0.5)


def random_psi(L, seed):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(L, L, L)) + 1j * rng.normal(size=(L, L, L))) / L**1.5


def test_zero_mode_is_the_norm():
    psi = random_psi(10, 1)
    val = f_transform(psi, 0.3, Observable(p=(0.0, 0.0, 0.0), n=(0, 0, 0)))
    assert val.imag == pytest.approx(0.0, abs=1e-14)
    assert val.real == pytest.approx(float(np.sum(np.abs(psi) ** 2)), rel=1e-13)


def test_hermitian_symmetry():
    """F(-p, -n) = conj F(p, n) for box-commensurate wavenumbers (eps p L
    integer, so the plane wave is periodic and the wrap is exact)."""
    L, eps = 8, 0.25
    psi = random_psi(L, 2)
    rng = np.random.default_rng(3)
    step = 1.0 / (eps * L)
    for _ in range(10):
        p = tuple(step * int(m) for m in rng.integers(-3, 4, size=3))
        n = tuple(int(x) for x in rng.integers(-3, 4, size=3))
        a = f_transform(psi, eps, Observable(p=p, n=n))
        b = f_transform(psi, eps, Observable(p=tuple(-x for x in p),
                                             n=tuple(-x for x in n)))
        assert b == pytest.approx(np.conj(a), abs=1e-12)


def test_zero_mode_dominates():
    psi = random_psi(8, 4)
    norm = float(np.sum(np.abs(psi) ** 2))
    rng = np.random.default_rng(5)
    for _ in range(20):
        obs = Observable(p=tuple(rng.uniform(-2, 2, size=3)),
                         n=tuple(int(x) for x in rng.integers(-4, 5, size=3)))
        assert abs(f_transform(psi, 0.5, obs)) <= norm * (1 + 1e-12)


def test_f_row_is_one_f_transform_per_observable():
    """The row groups observables by shift n, forming each shift product
    once; every entry is bitwise the f_transform of its observable."""
    from kinwave.harness import DEFAULT_OBSERVABLES

    psi = random_psi(12, 8)
    observables = [*DEFAULT_OBSERVABLES, Observable(p=(0.5, -1.0, 0.25), n=(1, 0, 0))]
    assert len({o.n for o in observables}) < len(observables)
    row = f_row(psi, 0.125, observables)
    assert row.tolist() == [f_transform(psi, 0.125, o) for o in observables]
    with pytest.raises(ConfigError):
        f_row(psi, 0.125, [Observable(p=(0.0, 0.0, 0.0), n=(7, 0, 0))])


def test_shift_bound():
    psi = random_psi(8, 6)
    with pytest.raises(ConfigError):
        f_transform(psi, 0.5, Observable(p=(0.0, 0.0, 0.0), n=(5, 0, 0)))
    with pytest.raises(ConfigError):
        Observable(p=(0.0, 0.0), n=(0, 0, 0))


@pytest.mark.parametrize("p, n", [
    ((1.0, 0.0, 0.0), (0.7, 0, 0)),
    ((0.0, 0.0, 0.0), (0, -1.5, 0)),
    ((0.5, 0.0, 0.0), (float("nan"), 0, 0)),
    ((float("nan"), 0.0, 0.0), (0.5, 0, 0)),
    ((float("nan"), 0.0, 0.0), (0, 0, 0)),
    ((0.0, float("inf"), 0.0), (1, 0, 0)),
    ((0.0, 0.0, "1"), (1, 0, 0)),
    ((0.0, 0.0, 0.0), (1, None, 0)),
])
def test_observable_refuses_modes_outside_the_mathematics(p, n):
    """A shift must be integral and a wavenumber finite; neither is
    reinterpreted, whether built directly or decoded from JSON."""
    with pytest.raises(ConfigError):
        Observable(p=p, n=n)
    with pytest.raises(ConfigError):
        Observable.from_obj([list(p), list(n)])


def test_observable_stores_integral_shifts_as_int():
    obs = Observable.from_obj([[1, 0, 0], [1.0, -2.0, np.int64(0)]])
    assert obs == Observable(p=(1.0, 0.0, 0.0), n=(1, -2, 0))
    assert [type(x) for x in obs.n] == [int, int, int]
    assert [type(x) for x in obs.p] == [float, float, float]


def run_config(**kw):
    base = dict(couplings=C, L=16, eps=0.25, t_bar=0.1,
                distribution="rademacher", realizations=4, initial=PACKET,
                seed=77)
    base.update(kw)
    return RunConfig(**base)


def test_run_config_validation():
    with pytest.raises(ConfigError):
        run_config(convention="sideways")
    with pytest.raises(ConfigError):
        run_config(realizations=1)
    with pytest.raises(ConfigError):
        run_config(t_bar=-0.5)
    with pytest.raises(ConfigError):
        run_config(eps=0.0)
    with pytest.raises(ConfigError):
        run_config(distribution="gaussian")
    with pytest.raises(ConfigError):
        run_config(eps=1.0)        # sqrt(eps) xi_bar hits 1 for rademacher


def test_disorder_average_requires_observables():
    """A run needs something to measure: observables, a pairing, or both.
    A pairing alone measures no F row at all."""
    with pytest.raises(ConfigError):
        disorder_average(run_config(), [])
    res = disorder_average(run_config(pairing=bump), [])
    assert res.estimates.mean.shape == (0,) and res.estimates.count == 4
    assert res.pairing_t.shape == (4,)
    assert res.bound_ok
    both = disorder_average(run_config(pairing=bump), [ZERO])
    assert res.pairing_t.tolist() == both.pairing_t.tolist()
    assert res.norm_mean == both.norm_mean


ZERO = Observable(p=(0.0, 0.0, 0.0), n=(0, 0, 0))
MODES = [ZERO, Observable(p=(0.5, 0.0, 0.0), n=(0, 0, 0)),
         Observable(p=(0.0, 0.0, 0.0), n=(1, 0, 0))]


def test_rescaled_convention_pins_the_norm():
    """Inverting the disordered wave map per realization makes F(0,0) start
    at the wave norm exactly; at t = 0 its spread across realizations is fp
    noise, and the exact propagation keeps it there to rounding."""
    norm0 = float(np.sum(np.abs(initial_wavefunction(PACKET, 16, 0.25)) ** 2))

    at0 = disorder_average(run_config(t_bar=0.0), MODES)
    assert at0.estimates.mean[0].real == pytest.approx(norm0, rel=1e-12)
    assert at0.estimates.stderr_re[0] < 1e-12 * norm0

    res = disorder_average(run_config(), MODES)
    est = res.estimates
    assert est.mean[0].real == pytest.approx(norm0, rel=1e-12)
    assert est.stderr_re[0] < 1e-4 * est.mean[0].real
    assert res.bound_ok
    assert res.n_dropped == 0
    assert res.max_bound_excess <= 1e-12


def test_direct_convention_spreads_the_norm():
    # substitution data: the same (q0, v0) meets different masses, so the
    # component norm genuinely fluctuates across realizations
    res = disorder_average(run_config(convention="direct"), MODES)
    est = res.estimates
    assert est.stderr_re[0] > 1e-6 * abs(est.mean[0].real)


def test_estimates_deterministic():
    a = disorder_average(run_config(), MODES)
    b = disorder_average(run_config(), MODES)
    assert a.estimates.mean.tolist() == b.estimates.mean.tolist()
    assert a.estimates.stderr_re.tolist() == b.estimates.stderr_re.tolist()


def bump(x):
    return np.exp(-0.5 * np.sum(x * x, axis=-1))


def test_one_wave_map_per_realization(monkeypatch):
    """A realization maps each state it propagated to psi once: with the
    direct convention one state gives F, the norm and the energy pairing;
    with the rescaled one, the rescaled state gives F and the norm and the
    direct state of the same draw the pairing."""
    calls = []

    def counting(*args):
        calls.append(1)
        return to_wavefunction(*args)

    monkeypatch.setattr(wigner, "to_wavefunction", counting)
    res = disorder_average(run_config(convention="direct", pairing=bump), MODES)
    assert len(calls) == 4
    assert res.pairing_t.shape == (4,)
    calls.clear()
    res = disorder_average(run_config(pairing=bump), MODES)
    assert len(calls) == 8
    assert res.pairing_t.shape == (4,)
    calls.clear()
    disorder_average(run_config(), MODES)
    assert len(calls) == 4


def test_pairing_run_measures_both_states_of_one_draw(monkeypatch):
    """A rescaled run with a pairing draws each disorder field once and takes
    the F row from its rescaled state and the pairing from its direct state:
    R draws, not one set per measurement."""
    draws = []

    def counting(*args, **kwargs):
        draws.append(kwargs["seed"])
        return sample_disorder(*args, **kwargs)

    monkeypatch.setattr(wigner, "sample_disorder", counting)
    config = run_config(pairing=bump)
    res = disorder_average(config, MODES)
    assert draws == [(config.seed, r) for r in range(config.realizations)]
    # F and the norm as a run without a pairing measures them, the pairing
    # as a direct run measures it, to rounding
    rescaled = disorder_average(run_config(), MODES)
    direct = disorder_average(run_config(convention="direct", pairing=bump), MODES)
    assert len(draws) == 3 * config.realizations
    assert np.allclose(res.estimates.mean, rescaled.estimates.mean, rtol=1e-13, atol=0.0)
    assert res.norm_mean == pytest.approx(rescaled.norm_mean, rel=1e-13)
    assert np.allclose(res.pairing_t, direct.pairing_t, rtol=1e-13, atol=0.0)


def test_pairing_matches_energy_density_pairing_and_workers():
    """The pairing each realization measures is energy_density_pairing of
    its propagated state, and a process pool reproduces the serial run
    bitwise."""
    config = run_config(convention="direct", pairing=bump)
    serial = disorder_average(config, MODES)
    pooled = disorder_average(replace(config, workers=2), MODES)
    assert pooled.estimates.mean.tolist() == serial.estimates.mean.tolist()
    assert pooled.norm_mean == serial.norm_mean
    assert pooled.pairing_t.tolist() == serial.pairing_t.tolist()

    psi0 = initial_wavefunction(PACKET, config.L, config.eps)
    state0 = from_wavefunction(psi0, C)
    d = sample_disorder(config.L, config.distribution, seed=(config.seed, 0))
    (state_t,) = propagate(state0.q, [state0.v], d, config.eps, C, config.t_bar / config.eps)
    assert serial.pairing_t[0] == energy_density_pairing(state_t, d, config.eps, C, bump)


def test_unpicklable_pairing_with_workers_is_refused_before_any_pool(monkeypatch):
    """A pairing the process pool cannot pickle is a config error, raised
    when the config is built; no pool is ever started for it."""
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(wigner, "ProcessPoolExecutor", no_pool)
    with pytest.raises(ConfigError, match="pairing"):
        config = run_config(workers=2, pairing=lambda x: np.ones(x.shape[:-1]))
        disorder_average(config, MODES)
    # a module-level function pickles, and serial runs never pickle at all
    assert run_config(workers=2, pairing=bump).pairing is bump
    assert run_config(workers=1, pairing=lambda x: x[..., 0]).workers == 1


def test_energy_density_pairing_constant_test_function():
    # f = 1 pairs to the total energy
    L, eps = 12, 0.2
    psi = random_psi(L, 9)
    d = sample_disorder(L, "uniform", seed=13)
    state = from_wavefunction(psi, C, d, eps)
    from kinwave.lattice import energy

    val = energy_density_pairing(state, d, eps, C, lambda x: np.ones(x.shape[:-1]))
    assert val == pytest.approx(energy(state, d, eps, C), rel=1e-12)

