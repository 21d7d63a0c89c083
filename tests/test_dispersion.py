import json

import numpy as np
import pytest

from kinwave.dispersion import (
    Couplings,
    CrossingEstimate,
    build_dispersion,
    couplings_nn,
    couplings_nn_squared,
    crossing_integral_estimate,
    crossing_sweep,
    decay_exponent,
    find_critical_points,
)
from kinwave.errors import ConfigError


def test_nn_band_edges():
    # omega^2 = 1 + 2 sum (1 - cos): min 1 at k = 0, max sqrt(13) at (1/2,1/2,1/2)
    c = couplings_nn(1.0)
    assert c.omega(np.zeros(3)) == pytest.approx(1.0, abs=1e-14)
    assert c.omega(np.full(3, 0.5)) == pytest.approx(np.sqrt(13.0), abs=1e-14)
    g = build_dispersion(c, 16)
    assert g.omega_min == pytest.approx(1.0, abs=1e-12)
    assert g.omega_max == pytest.approx(np.sqrt(13.0), abs=1e-12)


def test_gradient_matches_finite_differences():
    c = couplings_nn(1.3)
    g = build_dispersion(c, 8)
    rng = np.random.default_rng(42)
    k = rng.random((50, 3))
    h = 1e-6
    for axis in range(3):
        kp = k.copy()
        km = k.copy()
        kp[:, axis] += h
        km[:, axis] -= h
        fd = (c.omega(kp) - c.omega(km)) / (2 * h)
        np.testing.assert_allclose(c.grad_omega(k)[:, axis], fd, atol=1e-7)
    assert g.max_group_speed > 0.0


def test_symbol_positivity_guard():
    # a lone symmetric off-site pair has the sign-indefinite symbol 2 cos(2 pi k1)
    from kinwave.io import couplings_from_obj

    c = couplings_from_obj([{"offset": [1, 0, 0], "value": 1.0},
                            {"offset": [-1, 0, 0], "value": 1.0}])
    with pytest.raises(ConfigError):
        build_dispersion(c, 8)


def test_couplings_must_be_symmetric():
    # alpha_hat keeps only the cosine part, which is the whole symbol only
    # when alpha(-y) = alpha(y)
    c = couplings_nn_squared(1.0)
    assert build_dispersion(c, 8).omega_min > 0.0
    with pytest.raises(ConfigError, match="not symmetric"):
        Couplings(entries=(((-1, 0, 0), -0.2), ((0, 0, 0), 7.0), ((1, 0, 0), -1.0)))
    # a zero coupling needs no stored mirror
    Couplings(entries=(((0, 0, 0), 1.0), ((2, 0, 0), 0.0)))


def test_couplings_are_their_table():
    """Permuted entries, integer values, float offsets and the JSON round trip
    of the preset all give the preset: one table, one cache key, one grid."""
    from kinwave.io import couplings_from_obj, couplings_to_obj

    c = couplings_nn(1.0)
    same = [
        Couplings(c.entries[::-1]),
        Couplings(tuple((off, int(val)) for off, val in c.entries)),
        Couplings(tuple((tuple(float(x) for x in off), val) for off, val in c.entries)),
        couplings_from_obj(json.loads(json.dumps(couplings_to_obj(c)))),
    ]
    for other in same:
        assert other == c and hash(other) == hash(c)
        assert all(type(x) is int for off, _ in other.entries for x in off)
        assert all(type(val) is float for _, val in other.entries)
        assert build_dispersion(other, 8) is build_dispersion(c, 8)


@pytest.mark.parametrize("entries, message", [
    ((), "empty"),
    ((((0, 0, 0), 7.0), ((0, 0, 0), 6.0)), "distinct integer 3-vectors"),
    ((((0, 0), 7.0),), "distinct integer 3-vectors"),
    ((((0, 0, 0.5), 7.0),), "distinct integer 3-vectors"),
])
def test_couplings_constructor_refuses_a_bad_table(entries, message):
    with pytest.raises(ConfigError, match=message):
        Couplings(entries)


def test_critical_points_nn():
    # 8 critical values of omega_nn on the torus: one per corner of {0, 1/2}^3
    g = build_dispersion(couplings_nn(1.0), 16)
    pts = find_critical_points(g)
    assert len(pts) == 8
    assert all(p.converged for p in pts)
    assert all(not p.degenerate for p in pts)
    omegas = sorted(p.omega for p in pts)
    assert omegas[0] == pytest.approx(1.0, abs=1e-9)
    assert omegas[-1] == pytest.approx(np.sqrt(13.0), abs=1e-9)


def test_critical_points_need_an_even_grid_of_at_least_8():
    """Only the critical-point search needs the zone corner on the grid: a
    grid of any size M >= 2 builds, and the search refuses odd M and M < 8."""
    c = couplings_nn(1.0)
    for M in (5, 6, 7, 9):
        with pytest.raises(ConfigError, match="even and >= 8"):
            find_critical_points(build_dispersion(c, M))
    with pytest.raises(ConfigError):
        build_dispersion(c, 1)


def test_cached_grid_is_one_read_only_instance():
    """build_dispersion returns the same grid for the same (couplings, M);
    every array it holds or forms is read-only, the gradient is formed only
    when first read and agrees with the closed form."""
    c = couplings_nn_squared(0.7)
    build_dispersion.cache_clear()
    g = build_dispersion(c, 6)
    assert build_dispersion(c, 6) is g
    assert build_dispersion.cache_info().misses == 1
    assert "grad" not in vars(g)
    arrays = (g.omega, g.omega_flat, *g.levels, g.grad, g.grad_flat)
    assert not any(a.flags.writeable for a in arrays)
    np.testing.assert_allclose(g.grad_flat, c.grad_omega(g.k_of(np.arange(g.n_points))),
                               rtol=0.0, atol=1e-12)


def test_decay_exponent_guards():
    g = build_dispersion(couplings_nn(1.0), 8)
    with pytest.raises(ConfigError):
        decay_exponent(g, 1.0, 5.0, 2.0)
    with pytest.raises(ConfigError):
        decay_exponent(g, 1.0, 1.0, 4.0, samples=3)
    with pytest.raises(ConfigError):
        # aliasing guard: t_max far beyond what M = 8 resolves
        decay_exponent(g, 1.0, 1.0, 500.0)


def test_decay_exponent_free_wave():
    # on a well-resolved grid the oscillatory sum decays with a negative power
    g = build_dispersion(couplings_nn(1.0), 32)
    fit = decay_exponent(g, 1.0, 2.0, 16.0)
    assert fit.n_used >= 30
    assert fit.slope < -1.0
    assert fit.stderr < 0.2


def test_crossing_estimate_bounded_at_beta_one():
    c = couplings_nn(1.0)
    est = crossing_integral_estimate(
        c, alpha=(0.3, 0.1, 0.2), beta=1.0, signs=(1, -1, 1),
        u=(0.2, 0.0, 0.1), n_samples=2000, seed=1,
    )
    assert isinstance(est, CrossingEstimate)
    assert 0.0 < est.value <= 1.0
    assert est.stderr > 0.0


def test_crossing_estimate_validation():
    c = couplings_nn(1.0)
    with pytest.raises(ConfigError):
        crossing_integral_estimate(c, (0.1, 0.1, 0.1), 0.0, (1, 1, 1), (0, 0, 0),
                                   n_samples=1000, seed=0)
    with pytest.raises(ConfigError):
        crossing_integral_estimate(c, (0.1, 0.1, 0.1), 0.5, (1, 1, 1), (0, 0, 0),
                                   n_samples=10, seed=0)


def test_crossing_sweep_exponent_above_minus_one():
    """The three-resolvent integral grows slower than 1/beta: the fitted
    log-log exponent sits above -1 by a wide margin."""
    c = couplings_nn(1.0)
    ests, expo, se = crossing_sweep(
        c, alpha=(0.1, 0.2, 0.3), signs=(1, -1, 1), u=(0.25, 0.125, 0.0),
        betas=(0.2, 0.1, 0.05), n_samples=4000, seed=3,
    )
    assert len(ests) == 3
    assert expo > -1.0 + 5 * se
    with pytest.raises(ConfigError):
        crossing_sweep(c, (0.1, 0.2, 0.3), (1, -1, 1), (0, 0, 0), betas=(0.1, 0.05),
                       n_samples=1000, seed=0)


def test_deterministic_estimates():
    c = couplings_nn(1.0)
    a = crossing_integral_estimate(c, (0.3, 0.1, 0.2), 0.5, (1, -1, 1),
                                   (0.2, 0.0, 0.1), n_samples=500, seed=9)
    b = crossing_integral_estimate(c, (0.3, 0.1, 0.2), 0.5, (1, -1, 1),
                                   (0.2, 0.0, 0.1), n_samples=500, seed=9)
    assert a.value == b.value and a.stderr == b.stderr


@pytest.mark.parametrize("c, M", [(couplings_nn(1.0), 16), (couplings_nn_squared(0.7), 12)])
def test_levels_give_back_the_grid_energies_bitwise(c, M):
    g = build_dispersion(c, M)
    levels = g.levels
    np.testing.assert_array_equal(levels.omega[levels.inverse], g.omega_flat)
    assert levels.counts.sum() == M**3
    assert np.all(np.diff(levels.omega) > 0.0)
    np.testing.assert_array_equal(np.bincount(levels.inverse), levels.counts)


def test_decay_exponent_matches_the_direct_grid_sum():
    """phi(t) summed over energy levels equals the per-k sum
    M^-3 sum_k f(k) exp(-i t omega(k)) for an f with no lattice symmetry."""
    g = build_dispersion(couplings_nn(1.0), 16)
    f = np.random.default_rng(5).random((16, 16, 16))
    fit = decay_exponent(g, f, t_min=1.0, t_max=8.0, samples=12)
    fw = f.reshape(-1)
    direct = np.abs([np.sum(fw * np.exp(-1j * t * g.omega_flat)) for t in fit.times])
    np.testing.assert_allclose(fit.amplitudes, direct / g.n_points, rtol=1e-12, atol=0.0)
