from dataclasses import fields

import numpy as np
import pytest

from kinwave.dispersion import Couplings, build_dispersion, couplings_nn, couplings_nn_squared
from kinwave.errors import ConfigError
from kinwave.initial import PointSource, WKBPacket
from kinwave.lattice import (
    XI_BAR,
    DisorderField,
    LatticeState,
    energy,
    envelope_mass_outside,
    evolve,
    evolve_free_spectral,
    free_phase,
    from_wavefunction,
    macro_grid,
    point_state,
    propagate,
    sample_disorder,
    signed_axis,
    spectral_bound,
    to_wavefunction,
    wavefunction_norm_squared,
    wkb_state,
)
from kinwave.lattice import _convolve, _stencil

C = couplings_nn(1.0)


def random_psi(L, seed):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(L, L, L)) + 1j * rng.normal(size=(L, L, L))) / L**1.5


def test_signed_axis():
    np.testing.assert_array_equal(signed_axis(4), [0.0, 1.0, -2.0, -1.0])
    np.testing.assert_array_equal(signed_axis(5), [0.0, 1.0, 2.0, -2.0, -1.0])


def test_sample_disorder_statistics():
    d = sample_disorder(16, "rademacher", seed=5)
    assert [f.name for f in fields(DisorderField)] == ["xi", "distribution"]
    assert set(np.unique(d.xi)) == {-1.0, 1.0}
    assert d.xi_bar == XI_BAR["rademacher"] == 1.0
    u = sample_disorder(24, "uniform", seed=5)
    assert u.xi_bar == XI_BAR["uniform"] == np.sqrt(3.0)
    assert np.max(np.abs(u.xi)) < np.sqrt(3.0)
    # unit variance within MC noise on 24^3 sites
    assert abs(u.xi.var() - 1.0) < 0.02
    assert abs(u.xi.mean()) < 0.02
    with pytest.raises(ConfigError):
        sample_disorder(8, "gaussian", seed=0)


def test_wave_map_roundtrip_disordered():
    """from_wavefunction with the disorder given inverts to_wavefunction
    exactly, realization by realization."""
    L, eps = 12, 0.3
    psi = random_psi(L, 7)
    d = sample_disorder(L, "rademacher", seed=11)
    state = from_wavefunction(psi, C, d, eps)
    back = to_wavefunction(state, d, eps, C)
    np.testing.assert_allclose(back, psi, atol=1e-13)


def test_wave_map_substitution_drops_mass_correction():
    # without the disorder the inverse uses unit masses: v = 2 Im psi
    L, eps = 8, 0.25
    psi = random_psi(L, 3)
    state = from_wavefunction(psi, C)
    np.testing.assert_allclose(state.v, 2.0 * psi.imag, atol=1e-15)


def test_clean_wave_map_roundtrip():
    """With disorder None both directions use the clean-lattice map, so they
    invert each other, and the forward map is the disordered one at xi = 0."""
    L = 8
    psi = random_psi(L, 5)
    state = from_wavefunction(psi, C)
    np.testing.assert_allclose(to_wavefunction(state, None, 0.0, C), psi, atol=1e-15)
    zero = DisorderField(xi=np.zeros((L, L, L)), distribution="rademacher")
    np.testing.assert_array_equal(np.abs(to_wavefunction(state, None, 0.25, C)),
                                  np.abs(to_wavefunction(state, zero, 0.25, C)))


def test_energy_equals_norm_squared():
    L, eps = 12, 0.2
    psi = random_psi(L, 19)
    d = sample_disorder(L, "uniform", seed=2)
    state = from_wavefunction(psi, C, d, eps)
    e = energy(state, d, eps, C)
    assert e == pytest.approx(wavefunction_norm_squared(psi), rel=1e-12)


def test_evolve_conserves_energy():
    L, eps = 12, 0.4
    psi = random_psi(L, 23)
    d = sample_disorder(L, "rademacher", seed=29)
    state = from_wavefunction(psi, C, d, eps)
    e0 = energy(state, d, eps, C)
    out = evolve(state, d, eps, C, 5.0)
    e1 = energy(out, d, eps, C)
    assert abs(e1 - e0) / e0 < 1e-4
    # input state untouched
    np.testing.assert_array_equal(state.q, from_wavefunction(psi, C, d, eps).q)


def test_evolve_matches_spectral_on_clean_lattice():
    """Verlet with dt refinement converges to the exact free evolution."""
    L = 8
    psi = random_psi(L, 31)
    clean = DisorderField(xi=np.zeros((L, L, L)), distribution="rademacher")
    state = from_wavefunction(psi, C, clean, 0.25)
    t = 2.0
    exact = evolve_free_spectral(LatticeState(q=state.q.copy(), v=state.v.copy()), C, t)
    coarse = evolve(state, clean, 0.25, C, t, dt=0.02)
    fine = evolve(state, clean, 0.25, C, t, dt=0.01)
    err_c = np.max(np.abs(coarse.q - exact.q))
    err_f = np.max(np.abs(fine.q - exact.q))
    assert err_f < err_c
    assert err_c / err_f == pytest.approx(4.0, rel=0.15)   # second order in dt


def far_couplings() -> Couplings:
    """Symmetric couplings with repeated values and offsets at and beyond
    L/2 and L for the boxes below, so aliased shifts are exercised.  The
    centre exceeds the sum of all other |alpha|, so the symbol is positive
    on every box and the couplings can be evolved."""
    rng = np.random.default_rng(41)
    half = [(1, 0, 0), (0, 2, -1), (2, 2, 0), (4, 0, 0), (5, -2, 1),
            (3, 3, 3), (8, 3, -9), (0, 0, 11)]
    values = [-1.0, 0.5, -1.0, *rng.uniform(-1.0, 1.0, size=len(half) - 3)]
    table = {(0, 0, 0): 1.0 + 2.0 * float(np.sum(np.abs(values)))}
    for off, val in zip(half, values):
        table[off] = table[tuple(-x for x in off)] = float(val)
    return Couplings(entries=tuple(sorted(table.items())))


COUPLING_SETS = {"nn": C, "nn_squared": couplings_nn_squared(1.0), "far": far_couplings()}


def symbol(c: Couplings, L: int) -> np.ndarray:
    """alpha_hat on the box grid k = m/L."""
    axis = np.arange(L) / L
    return c.alpha_hat(np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1))


def spectral_convolution(q: np.ndarray, c: Couplings) -> np.ndarray:
    L = q.shape[0]
    alpha_r = symbol(c, L)[..., : L // 2 + 1]
    return np.fft.irfftn(alpha_r * np.fft.rfftn(q), q.shape, axes=(0, 1, 2))


def stencil_convolution(q: np.ndarray, c: Couplings) -> np.ndarray:
    return _convolve(q, _stencil(c, q.shape[0]), np.empty_like(q), np.empty_like(q))


@pytest.mark.parametrize("name", sorted(COUPLING_SETS))
@pytest.mark.parametrize("L", [2, 3, 4, 5, 8])
def test_stencil_equals_spectral_convolution(name, L):
    c = COUPLING_SETS[name]
    q = np.random.default_rng(L).normal(size=(L, L, L))
    ref = spectral_convolution(q, c)
    got = stencil_convolution(q, c)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("name", sorted(COUPLING_SETS))
@pytest.mark.parametrize("L", [5, 8])
def test_energy_is_the_spectral_quadratic_form(name, L):
    c, eps = COUPLING_SETS[name], 0.3
    rng = np.random.default_rng(100 + L)
    state = LatticeState(q=rng.normal(size=(L, L, L)), v=rng.normal(size=(L, L, L)))
    d = sample_disorder(L, "uniform", seed=L)
    qhat = np.fft.fftn(state.q)
    potential = 0.5 * float(np.sum(symbol(c, L) * np.abs(qhat) ** 2)) / L**3
    kinetic = 0.5 * float(np.sum((1.0 + np.sqrt(eps) * d.xi) ** -2 * state.v**2))
    assert energy(state, d, eps, c) == pytest.approx(kinetic + potential, rel=1e-12)


def fft_verlet(state, disorder, eps, c, t_final, dt):
    """Velocity Verlet with the force applied through an rfft pair."""
    msq = (1.0 + np.sqrt(eps) * disorder.xi) ** 2

    def accel(q):
        return -msq * spectral_convolution(q, c)

    n_steps = int(np.floor(t_final / dt + 1e-9))
    rem = t_final - n_steps * dt
    q, v = state.q.copy(), state.v.copy()
    a = accel(q)
    for h in [dt] * n_steps + [rem]:
        v += (0.5 * h) * a
        q += h * v
        a = accel(q)
        v += (0.5 * h) * a
    return LatticeState(q=q, v=v)


@pytest.mark.parametrize("name", sorted(COUPLING_SETS))
def test_disordered_evolve_equals_fft_verlet(name):
    """Full steps and a fractional one at eps = 0.4 agree with an FFT Verlet
    to rounding, on an odd and an even box: no step at all, a fractional step
    alone, exactly one step, whole steps only, and many steps plus a fraction."""
    c, eps, dt = COUPLING_SETS[name], 0.4, 0.02
    for L in (5, 8):
        psi = random_psi(L, 47)
        d = sample_disorder(L, "rademacher", seed=53)
        state = from_wavefunction(psi, c, d, eps)
        for steps in (0.0, 0.4, 1.0, 3.0, 100.65):
            got = evolve(state, d, eps, c, steps * dt, dt=dt)
            ref = fft_verlet(state, d, eps, c, steps * dt, dt)
            for x, y in ((got.q, ref.q), (got.v, ref.v)):
                assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y)), (L, steps)


def disordered_state(c, L, eps, seed=47):
    d = sample_disorder(L, "rademacher", seed=seed + 6)
    return from_wavefunction(random_psi(L, seed), c, d, eps), d


def _close(x, y, tol):
    return np.max(np.abs(x - y)) <= tol * np.max(np.abs(y))


@pytest.mark.parametrize("name", sorted(COUPLING_SETS))
def test_propagate_is_exact_on_the_clean_lattice(name):
    """At eps = 0 the propagator matches the spectral free evolution to
    rounding, over short and long times, on an odd and an even box."""
    c = COUPLING_SETS[name]
    for L in (5, 8):
        clean = DisorderField(xi=np.zeros((L, L, L)), distribution="rademacher")
        state = from_wavefunction(random_psi(L, 31), c, clean, 0.0)
        for t in (0.05, 1.0, 4.0, 25.0):
            (got,) = propagate(state.q, [state.v], clean, 0.0, c, t)
            exact = evolve_free_spectral(state, c, t)
            assert _close(got.q, exact.q, 1e-12), (L, t)
            assert _close(got.v, exact.v, 1e-12), (L, t)


@pytest.mark.parametrize("name", sorted(COUPLING_SETS))
def test_propagate_matches_richardson_extrapolated_verlet(name):
    """With disorder, the propagator agrees with the Richardson limit
    (4 V(dt/16) - V(dt/8)) / 3 of Verlet at the default step dt, far inside
    the error of Verlet at dt/16 itself."""
    c, eps, t = COUPLING_SETS[name], 0.25, 3.0
    for L in (5, 8):
        state, d = disordered_state(c, L, eps)
        dt = 0.1 / (build_dispersion(c, L).omega_max * (1.0 + np.sqrt(eps) * d.xi_bar))
        (got,) = propagate(state.q, [state.v], d, eps, c, t)
        coarse = evolve(state, d, eps, c, t, dt=dt / 8)
        fine = evolve(state, d, eps, c, t, dt=dt / 16)
        for field in ("q", "v"):
            x, v8, v16 = (getattr(s, field) for s in (got, coarse, fine))
            limit = (4.0 * v16 - v8) / 3.0
            assert _close(x, limit, 1e-7), (L, field)
            assert np.max(np.abs(x - v16)) > 100.0 * np.max(np.abs(x - limit)), (L, field)


def test_propagate_at_time_zero_returns_the_state_and_refuses_bad_input():
    state, d = disordered_state(C, 6, 0.25)
    (out,) = propagate(state.q, [state.v], d, 0.25, C, 0.0)
    assert out.q.tobytes() == state.q.tobytes() and out.v.tobytes() == state.v.tobytes()
    assert out.q is not state.q and out.v is not state.v
    with pytest.raises(ConfigError):
        propagate(state.q, [state.v], d, 0.25, C, -1.0)
    with pytest.raises(ConfigError):
        propagate(state.q, [state.v], d, 1.0, C, 1.0)          # sqrt(eps) xi_bar = 1
    indefinite = Couplings(entries=(((-1, 0, 0), 1.0), ((1, 0, 0), 1.0)))
    with pytest.raises(ConfigError, match="not positive"):
        propagate(state.q, [state.v], d, 0.25, indefinite, 1.0)  # symbol 2 cos(2 pi k1)


@pytest.mark.parametrize("name", sorted(COUPLING_SETS))
def test_propagate_conserves_energy_and_the_norm(name):
    """The energy at t equals the energy at 0, and so does the wave norm
    2 sum |psi(t)|^2, both to rounding, leaving the input untouched."""
    c, eps = COUPLING_SETS[name], 0.4
    state, d = disordered_state(c, 8, eps)
    q0, v0 = state.q.copy(), state.v.copy()
    e0 = energy(state, d, eps, c)
    for t in (0.7, 9.0):
        (out,) = propagate(state.q, [state.v], d, eps, c, t)
        assert energy(out, d, eps, c) == pytest.approx(e0, rel=1e-12)
        psi = to_wavefunction(out, d, eps, c)
        assert wavefunction_norm_squared(psi) == pytest.approx(e0, rel=1e-12)
    assert np.array_equal(state.q, q0) and np.array_equal(state.v, v0)


@pytest.mark.parametrize("name", sorted(COUPLING_SETS))
def test_stacked_chains_match_separate_propagations(name):
    """One stacked recurrence on (q0, v_base, (1 + sqrt(eps) xi) v_base), as a
    realization of both ladders runs it, gives each final state of a
    one-chain propagation to 1e-13, and in the order of the velocities."""
    c, eps, t = COUPLING_SETS[name], 0.25, 6.0
    state, d = disordered_state(c, 8, eps)
    velocities = [state.v, (1.0 + np.sqrt(eps) * d.xi) * state.v]
    stacked = propagate(state.q, velocities, d, eps, c, t)
    assert len(stacked) == 2
    for v0, got in zip(velocities, stacked):
        (alone,) = propagate(state.q, [v0], d, eps, c, t)
        assert _close(got.q, alone.q, 1e-13) and _close(got.v, alone.v, 1e-13)
    at0 = propagate(state.q, velocities, d, eps, c, 0.0)
    assert all(np.array_equal(s.v, v0) for s, v0 in zip(at0, velocities))


@pytest.mark.parametrize("name", ["nn_squared", "far"])
def test_spectral_bound_covers_the_spectrum(name):
    """Power iteration on K = (1 + sqrt(eps) xi)^2 alpha, in the inner product
    sum x y / (1 + sqrt(eps) xi)^2 that makes K symmetric, converges to the
    top of the dense spectrum, which stays under Lambda; the bottom of that
    spectrum is nonnegative, so spec K lies in [0, Lambda]."""
    c, eps, L = COUPLING_SETS[name], 0.25, 6
    d = sample_disorder(L, "rademacher", seed=3)
    msq = (1.0 + np.sqrt(eps) * d.xi) ** 2
    lam = spectral_bound(c, d, eps)

    def k(x):
        return msq * stencil_convolution(x, c)

    x = np.random.default_rng(9).normal(size=(L, L, L))
    for _ in range(500):
        y = k(x)
        x = y / np.sqrt(np.sum(y * y / msq))
    k_max = float(np.sum(x * k(x) / msq))
    dense = np.stack([k(e.reshape(L, L, L)).ravel() for e in np.eye(L**3)], axis=1)
    spectrum = np.linalg.eigvals(dense)
    assert np.max(np.abs(spectrum.imag)) <= 1e-9 * lam
    assert k_max == pytest.approx(np.max(spectrum.real), rel=1e-9)
    assert k_max <= lam
    assert np.min(spectrum.real) >= 0.0


def test_mass_positivity_guard():
    L = 8
    d = sample_disorder(L, "rademacher", seed=1)
    state = LatticeState(q=np.zeros((L, L, L)), v=np.zeros((L, L, L)))
    with pytest.raises(ConfigError):
        energy(state, d, 1.0, C)            # sqrt(eps) xi_bar = 1


def test_wkb_state_mass_and_scaling():
    packet = WKBPacket(k0=(0.125, 0.0, 0.0), sigma=0.5)
    L, eps = 32, 0.25
    psi = wkb_state(L, eps, packet.envelope, packet.phase)
    # Riemann sum eps^3 sum |h|^2 -> (sqrt(pi) sigma)^3
    assert np.sum(np.abs(psi) ** 2) == pytest.approx(packet.mass, rel=1e-6)
    assert packet.mass == pytest.approx((np.sqrt(np.pi) * 0.5) ** 3)


def test_wkb_state_cuts_the_underflowing_tail():
    """At sigma = 1/4 on L = 32, eps = 1/2 the Gaussian tail underflows into
    subnormals.  wkb_state zeroes every entry below 1e-150 of max |psi|: no
    subnormal is left, and propagate returns the same states bitwise as
    from the uncut data."""
    packet = WKBPacket(k0=(0.125, 0.0, 0.0), sigma=0.25)
    L, eps = 32, 0.5
    x = macro_grid(L, eps)
    uncut = eps**1.5 * packet.envelope(x) * np.exp(1j * packet.phase(x) / eps)
    cut = wkb_state(L, eps, packet.envelope, packet.phase)

    def subnormal(psi):
        parts = np.stack([psi.real, psi.imag])
        return int(np.sum((parts != 0.0) & (np.abs(parts) < np.finfo(float).tiny)))

    assert subnormal(uncut) > 0 and subnormal(cut) == 0
    small = np.abs(uncut) < 1e-150 * np.abs(uncut).max()
    assert np.all(cut[small] == 0.0)
    np.testing.assert_array_equal(cut[~small], uncut[~small])
    d = sample_disorder(L, "rademacher", seed=3)
    outs = []
    for psi in (uncut, cut):
        state = from_wavefunction(psi, C)
        outs.append(propagate(state.q, [state.v], d, eps, C, 1.0))
    for a, b in zip(*outs):
        np.testing.assert_array_equal(a.q, b.q)
        np.testing.assert_array_equal(a.v, b.v)


def test_wkb_state_warns_when_packet_leaks():
    packet = WKBPacket(k0=(0.0, 0.0, 0.0), sigma=4.0)
    with pytest.warns(UserWarning, match="outside the box"):
        wkb_state(8, 0.5, packet.envelope, packet.phase)
    assert envelope_mass_outside(8, 0.5, packet.envelope) > 0.01


def doubled_box_mass_outside(L, eps, envelope):
    """The envelope mass fraction outside the box, summed over all (2L)^3
    sites of the doubled box."""
    mass = np.asarray(envelope(macro_grid(2 * L, eps)), dtype=np.float64) ** 2
    near = np.abs(eps * signed_axis(2 * L)) < eps * (L / 2.0)
    return 1.0 - float(np.sum(mass[np.ix_(near, near, near)])) / float(np.sum(mass))


@pytest.mark.parametrize("L, eps", [(8, 0.5), (16, 0.25), (64, 0.125), (64, 0.5)])
@pytest.mark.parametrize("sigma", [0.5, 1.3, 4.0])
def test_envelope_mass_outside_factors_by_axis(L, eps, sigma):
    envelope = WKBPacket(k0=(0.125, 0.0, 0.0), sigma=sigma, amplitude=0.7).envelope
    assert envelope_mass_outside(L, eps, envelope) == pytest.approx(
        doubled_box_mass_outside(L, eps, envelope), abs=1e-12)


def test_point_state_placement():
    amps = {(0, 0, 0): 1.0 + 0j, (1, -2, 3): 0.5j}
    psi = point_state(16, 0.5, amps)
    assert psi[0, 0, 0] == 1.0
    assert psi[1, -2 % 16, 3] == 0.5j
    assert np.count_nonzero(psi) == 2
    with pytest.raises(ConfigError):
        point_state(8, 0.5, {(4, 0, 0): 1.0})        # offset at half the box


def test_point_source_mass_roundtrip():
    amps = {(0, 0, 0): 1.0 + 1.0j, (2, 0, -1): -0.5 + 0j}
    src = PointSource.from_dict(amps)
    assert src.mass == pytest.approx(sum(abs(v) ** 2 for v in amps.values()))
    assert src.as_dict() == amps


def test_wkb_packet_validation():
    with pytest.raises(ConfigError):
        WKBPacket(k0=(0.1, 0.0, 0.0), sigma=0.0)
    p = WKBPacket(k0=(0.1, 0.2, 0.3), sigma=1.5)
    assert p.diameter == pytest.approx(9.0)


def test_box_maps_read_one_cached_grid():
    """to_wavefunction, from_wavefunction, free_phase and evolve at one box
    size read the one grid that build_dispersion caches for it, and none of
    them forms its gradient."""
    L = 6
    build_dispersion.cache_clear()
    state = from_wavefunction(random_psi(L, 3), C)
    to_wavefunction(state, None, 0.0, C)
    free_phase(C, L, 0.5)
    evolve(state, sample_disorder(L, "rademacher", seed=1), 0.25, C, 0.1)
    info = build_dispersion.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    assert "grad" not in vars(build_dispersion(C, L))


@pytest.mark.parametrize("c", [C, couplings_nn_squared(0.7)])
def test_free_phase_is_the_sitewise_exponential(c):
    for L, t in ((8, 0.3), (16, 7.1), (32, 120.0)):
        np.testing.assert_array_equal(
            free_phase(c, L, t), np.exp(-1j * t * build_dispersion(c, L).omega))
