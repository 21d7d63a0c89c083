import math
import types

import numpy as np
import pytest
import scipy.fft
import scipy.signal
import scipy.stats

from kinwave import kinetic
from kinwave.chebyshev import cheb_coeffs
from kinwave.dispersion import TWO_PI, build_dispersion, couplings_nn
from kinwave.errors import ConfigError
from kinwave.harness import DEFAULT_OBSERVABLES, DEFAULT_STUDY
from kinwave.initial import PointSource, WKBPacket
from kinwave.kinetic import _MAX_SHELLS, ShellEnvelope, _linear_convolution
from kinwave.kinetic import (
    build_collision_table,
    characteristic_function,
    default_beta,
    dyson_characteristic,
    k_simplex,
    pair_rate,
    sample_initial,
    sample_jump,
    simulate,
    theta_plus,
    truncation_tail,
)
from kinwave.estimates import Estimates
from kinwave.wigner import Observable

C = couplings_nn(1.0)
GRID = build_dispersion(C, 12)
TABLE = build_collision_table(GRID, beta=0.3, xi2=1.0)
PACKET = WKBPacket(k0=(0.125, 0.0, 0.0), sigma=0.5)
ZERO = Observable(p=(0.0, 0.0, 0.0), n=(0, 0, 0))


@pytest.mark.parametrize("na, nb", [(1, 1), (5, 7), (300, 599), (16384, 32767)])
def test_linear_convolution_matches_scipy(na, nb):
    rng = np.random.default_rng(na)
    a, b = rng.uniform(size=na), 1.0 / (rng.normal(size=nb) ** 2 + 0.01)
    ref = scipy.signal.fftconvolve(a, b)
    got = _linear_convolution(a, b)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("deg", [1, 2, 64, 1024])
def test_chebyshev_coefficients_match_scipy_dct(deg):
    rng = np.random.default_rng(deg)
    values = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
    ref = scipy.fft.dct(values, type=1) / deg
    ref[0] /= 2.0
    ref[-1] /= 2.0
    assert np.max(np.abs(cheb_coeffs(values) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_table_validation():
    with pytest.raises(ConfigError):
        build_collision_table(GRID, beta=0.0)
    with pytest.raises(ConfigError):
        build_collision_table(GRID, beta=1.5)
    with pytest.raises(ConfigError):
        build_collision_table(GRID, beta=0.3, xi2=-1.0)
    assert 0.0 < default_beta(GRID) <= 1.0


def test_rates_positive_and_bounded():
    assert TABLE.sigma_min > 0.0
    # sigma(k) = avg_k' 2 xi2 beta omega'^2 / ((w - w')^2 + beta^2)
    #         <= 2 xi2 omega_max^2 / beta
    assert TABLE.sigma_max <= 2.0 * GRID.omega_max**2 * TABLE.xi2 / TABLE.beta


def test_total_rate_is_the_pair_rate_average():
    idx = np.arange(GRID.n_points)
    rng = np.random.default_rng(0)
    for k in rng.integers(0, GRID.n_points, size=5):
        direct = float(np.mean(pair_rate(TABLE, k, idx)))
        assert TABLE.sigma_flat[k] == pytest.approx(direct, rel=5e-4)


def test_detailed_balance_exact():
    # omega(k)^2 R(k, k') is symmetric by inspection of the rate formula
    rng = np.random.default_rng(1)
    ii = rng.integers(0, GRID.n_points, size=300)
    jj = rng.integers(0, GRID.n_points, size=300)
    w = GRID.omega_flat
    fwd = w[ii] ** 2 * pair_rate(TABLE, ii, jj)
    bwd = w[jj] ** 2 * pair_rate(TABLE, jj, ii)
    np.testing.assert_allclose(fwd, bwd, rtol=1e-12)


def test_sample_jump_distribution():
    """Chi-square of rejection-sampled jump targets against the exact
    normalized row of the rate kernel, pooled to >= 5 expected per cell."""
    k_from = GRID.index_of(np.array([0.25, 0.0, 0.0]))
    n = 20000
    rng = np.random.default_rng(11)
    hits = np.bincount(
        sample_jump(TABLE, np.full(n, k_from), rng), minlength=GRID.n_points
    )
    probs = pair_rate(TABLE, k_from, np.arange(GRID.n_points))
    probs = probs / probs.sum()
    expected = probs * n

    order = np.argsort(expected)
    obs_m, exp_m = [], []
    acc_o = acc_e = 0.0
    for i in order:
        acc_o += hits[i]
        acc_e += expected[i]
        if acc_e >= 5.0:
            obs_m.append(acc_o)
            exp_m.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0.0:
        obs_m[-1] += acc_o
        exp_m[-1] += acc_e
    _, p = scipy.stats.chisquare(obs_m, exp_m)
    assert p > 0.01


def _pooled_chisquare_p(hits, expected):
    """Chi-square p-value with cells pooled from the smallest expectation
    upward to >= 5 expected counts; leftovers fold into the last cell."""
    obs_m, exp_m = [], []
    acc_o = acc_e = 0.0
    for i in np.argsort(expected):
        acc_o += hits[i]
        acc_e += expected[i]
        if acc_e >= 5.0:
            obs_m.append(acc_o)
            exp_m.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0.0:
        obs_m[-1] += acc_o
        exp_m[-1] += acc_e
    return scipy.stats.chisquare(obs_m, exp_m)[1]


@pytest.mark.parametrize("M", [8, 12])
def test_shell_envelope_bounds_every_pair(M):
    """cap[shell(k), shell(k')] >= u(k, k') for every grid pair, at a narrow,
    the resolution-tied and the widest admissible beta."""
    grid = build_dispersion(C, M)
    w = grid.omega_flat
    for beta in (0.05, min(1.0, default_beta(grid)), 1.0):
        env = build_collision_table(grid, beta=beta).shell_envelope
        u = w[None, :] ** 2 / ((w[:, None] - w[None, :]) ** 2 + beta**2)
        cap = env.cap[env.shell_of[:, None], env.shell_of[None, :]]
        assert np.all(u <= cap)
        assert np.all(env.count >= 1)
        assert env.count.sum() == grid.n_points


def test_sample_jump_law_from_shell_edge_and_band_top():
    """The jump law is exact from a source on the lower edge of a shell and
    from the omega_max corner, the upper edge of the top shell."""
    env = TABLE.shell_envelope
    mid = env.count.size // 2
    sources = [
        int(env.order[env.start[mid]]),
        int(GRID.index_of(np.array([0.5, 0.5, 0.5]))),
    ]
    assert GRID.omega_flat[sources[1]] == GRID.omega_max
    n = 20000
    for seed, k_from in enumerate(sources):
        hits = np.bincount(
            sample_jump(TABLE, np.full(n, k_from), np.random.default_rng(seed)),
            minlength=GRID.n_points,
        )
        probs = pair_rate(TABLE, k_from, np.arange(GRID.n_points))
        assert _pooled_chisquare_p(hits, probs / probs.sum() * n) > 0.01


class _CountingRng:
    """Forwards to a Generator and counts integers() draws: one per proposal."""

    def __init__(self, rng):
        self._rng = rng
        self.proposals = 0

    def integers(self, *args, **kwargs):
        out = self._rng.integers(*args, **kwargs)
        self.proposals += np.size(out)
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_jump_acceptance_at_the_study_packet():
    grid = build_dispersion(DEFAULT_STUDY.couplings, DEFAULT_STUDY.M)
    table = build_collision_table(grid, beta=DEFAULT_STUDY.beta)
    k_from = grid.index_of(np.asarray(DEFAULT_STUDY.initial.k0))
    n = 20000
    rng = _CountingRng(np.random.default_rng(3))
    sample_jump(table, np.full(n, k_from), rng)
    assert n / rng.proposals >= 0.5


def _uniform_band(n_shells):
    """A stand-in grid whose energies are evenly spread over [1, 3.6], enough
    of them that every one of n_shells equal-width shells is occupied."""
    return types.SimpleNamespace(omega_flat=np.linspace(1.0, 3.6, 8 * n_shells),
                                 omega_min=1.0, omega_max=3.6)


@pytest.mark.parametrize("table", ["study", "max_shells"])
def test_guided_inversion_matches_the_binary_search(table):
    """ShellEnvelope.locate returns np.searchsorted(row_cdf, a + u, "right")
    bitwise: on 1e6 random (a, u), at every bucket edge u = g/G and at both
    float neighbours of each edge, and at the largest u below 1, for the
    study table and for one with _MAX_SHELLS shells."""
    if table == "study":
        grid = build_dispersion(DEFAULT_STUDY.couplings, DEFAULT_STUDY.M)
        env = ShellEnvelope.build(grid, DEFAULT_STUDY.beta)
        assert env.count.size == 174
    else:
        env = ShellEnvelope.build(_uniform_band(_MAX_SHELLS), 1e-3)
        assert env.count.size == _MAX_SHELLS
    n_shells, n_buckets = env.guide.shape
    assert n_buckets >= 2 * n_shells

    rng = np.random.default_rng(n_shells)
    queries = [(rng.integers(0, n_shells, 1_000_000), rng.random(1_000_000))]
    edges = np.arange(n_buckets) / n_buckets
    for u in (edges, np.nextafter(edges[1:], 0.0), np.nextafter(edges, 1.0),
              np.array([np.nextafter(1.0, 0.0)])):
        queries.append((np.repeat(np.arange(n_shells), u.size), np.tile(u, n_shells)))
    for a, u in queries:
        ref = np.searchsorted(env.row_cdf, a + u, side="right")
        np.testing.assert_array_equal(env.locate(a, u), ref)


def test_the_guide_is_built_once_per_envelope(monkeypatch):
    """The first draw builds the envelope and its guide; later draws reuse
    them and run no binary search."""
    builds = []
    build = ShellEnvelope.build

    def counting(grid, beta):
        builds.append(beta)
        return build(grid, beta)

    monkeypatch.setattr(ShellEnvelope, "build", staticmethod(counting))
    table = build_collision_table(GRID, beta=0.3)
    k = np.full(2000, GRID.index_of(np.array([0.25, 0.0, 0.0])))
    rng = np.random.default_rng(12)
    sample_jump(table, k, rng)
    guide = table.shell_envelope.guide

    def refused(*args, **kwargs):
        raise AssertionError("sample_jump ran a binary search")

    monkeypatch.setattr(np, "searchsorted", refused)
    for _ in range(3):
        sample_jump(table, k, rng)
    assert builds == [0.3]
    assert table.shell_envelope.guide is guide


def test_packet_positions_are_gaussian():
    """|h(x)|^2 ~ exp(-|x|^2 / sigma^2): N(0, sigma^2 / 2) on each axis."""
    n = 20000
    ens = sample_initial(PACKET, n, TABLE, np.random.default_rng(4))
    scale = PACKET.sigma / np.sqrt(2.0)
    for axis in range(3):
        assert scipy.stats.kstest(ens.x[:, axis], "norm", args=(0.0, scale)).pvalue > 0.01
    r2 = np.sum(ens.x**2, axis=1)
    se = r2.std(ddof=1) / np.sqrt(n)
    assert abs(r2.mean() - 1.5 * PACKET.sigma**2) <= 4.0 * se


def test_sample_initial_mass_and_support():
    rng = np.random.default_rng(5)
    ens = sample_initial(PACKET, 5000, TABLE, rng)
    assert ens.n == 5000
    assert ens.mass == PACKET.mass
    # packet wavevectors concentrate near k0 (sigma = 0.5: spread ~ 1/(2 pi))
    k = ens.grid.k_of(ens.k_idx)
    spread = np.abs((k - np.array([0.125, 0.0, 0.0]) + 0.5) % 1.0 - 0.5)
    assert np.quantile(spread.max(axis=1), 0.9) < 0.45


def test_point_source_sampling_sits_at_the_origin():
    src = PointSource.from_dict({(0, 0, 0): 1.0 + 0j})
    rng = np.random.default_rng(6)
    ens = sample_initial(src, 2000, TABLE, rng)
    assert np.max(np.abs(ens.x)) == 0.0


def test_simulate_conserves_mass_and_counts_collisions():
    rng = np.random.default_rng(7)
    ens = sample_initial(PACKET, 4000, TABLE, rng)
    out, counts = simulate(ens, TABLE, 0.8, rng)
    assert out.mass == ens.mass
    # mean collisions within 4 sigma of the rate range
    mean_rate = counts.mean() / 0.8
    assert TABLE.sigma_min - 0.1 <= mean_rate <= TABLE.sigma_max + 0.1
    with pytest.raises(ConfigError):
        simulate(ens, TABLE, -1.0, rng)


def test_characteristic_function_mass_channel():
    rng = np.random.default_rng(8)
    ens = sample_initial(PACKET, 3000, TABLE, rng)
    est = characteristic_function(ens, [ZERO])
    assert est.mean[0] == pytest.approx(PACKET.mass, rel=1e-12)
    assert est.stderr_re[0] < 1e-12


def _loo_jackknife(weights, z):
    """Reference: the explicit leave-one-out loop, one reweighted sum
    (sum_{j != i} w_j z_j) * W / (W - w_i) per left-out particle i, over
    the particle weights w of total W."""
    n = z.size
    total_w = weights.sum()
    loo = np.array([np.sum(np.delete(weights * z, i)) * total_w / (total_w - weights[i])
                    for i in range(n)])
    dev = loo - loo.mean()
    fac = (n - 1) / n
    return (np.sum(weights * z), math.sqrt(fac * np.sum(dev.real**2)),
            math.sqrt(fac * np.sum(dev.imag**2)))


@pytest.mark.parametrize("n", [2, 3, 17, 200])
def test_jackknife_closed_form_matches_the_leave_one_out_loop(n):
    rng = np.random.default_rng(n)
    weights = np.full(n, 0.7 / n)
    z = 0.3 + np.exp(1j * rng.uniform(0.0, TWO_PI, n)) * rng.uniform(0.0, 1.0, n)
    est = Estimates.of([z], 0.7)
    ref_mean, ref_re, ref_im = _loo_jackknife(weights, z)
    assert est.mean[0] == pytest.approx(ref_mean, rel=1e-14)
    assert est.stderr_re[0] == pytest.approx(ref_re, rel=1e-12)
    assert est.stderr_im[0] == pytest.approx(ref_im, rel=1e-12)


def test_jackknife_of_a_constant_column_is_zero_and_needs_two_particles():
    rng = np.random.default_rng(8)
    ens = sample_initial(PACKET, 3000, TABLE, rng)
    est = characteristic_function(ens, [ZERO])
    assert est.stderr_re[0] == 0.0 and est.stderr_im[0] == 0.0
    single = sample_initial(PACKET, 1, TABLE, rng)
    with pytest.raises(ConfigError):
        characteristic_function(single, [ZERO])


def test_estimates_read_the_count_off_the_columns():
    """The count is the common length of the columns: columns of unequal
    length, of fewer than two samples, or no column at all are refused.  A
    real column reduces as the complex column with the same real part."""
    z = np.arange(5.0)
    est = Estimates.of([z, z + 1j], 2.0)
    assert est.count == 5
    assert est.stderr_re[0] == est.stderr_re[1] > 0.0
    assert est.stderr_im.tolist() == [0.0, 0.0]
    for columns in ([], iter([]), [z, z[:4]], [z[:1]]):
        with pytest.raises(ConfigError):
            Estimates.of(columns, 1.0)


def test_k_simplex_level_one_and_two():
    w1, w2 = 1.3 - 0.2j, 0.4 - 0.7j
    t = 1.7
    assert k_simplex(t, [w1]) == pytest.approx(np.exp(-1j * t * w1))
    exact2 = (np.exp(-1j * t * w2) - np.exp(-1j * t * w1)) / (1j * (w1 - w2))
    assert k_simplex(t, [w1, w2]) == pytest.approx(exact2, rel=1e-10)
    # equal frequencies: K_2 = t exp(-i t w)
    assert k_simplex(t, [w1, w1]) == pytest.approx(t * np.exp(-1j * t * w1), rel=1e-10)


def test_k_simplex_validation():
    assert k_simplex(0.0, [1.0]) == 1.0
    assert k_simplex(0.0, [1.0, 2.0]) == 0.0
    with pytest.raises(ConfigError):
        k_simplex(1.0, [])
    with pytest.raises(ConfigError):
        k_simplex(1.0, np.ones(7))
    with pytest.raises(ConfigError):
        k_simplex(-1.0, [1.0])


def test_truncation_tail_decreases():
    lam = 2.5
    tails = [truncation_tail(lam, m) for m in range(2, 12, 2)]
    assert all(a > b for a, b in zip(tails, tails[1:]))
    # first omitted term dominates: tail(m) >= lam^(m+1)/(m+1)!
    for m, t in zip(range(2, 12, 2), tails):
        assert t >= lam ** (m + 1) / math.factorial(m + 1)


def test_theta_plus_approaches_half_the_rate():
    """Re g_++(k; omega(k) + i beta) -> sigma_beta(k)/2 as beta -> 0+, at
    each beta against the rate built with that beta."""
    k = np.array([0.25, 0.0, 0.0])        # exactly on the M = 12 grid
    idx = GRID.index_of(k)
    gaps = []
    for b in (0.4, 0.2, 0.1):
        half = build_collision_table(GRID, beta=b).sigma_flat[idx] / 2.0
        gaps.append(abs(theta_plus(GRID, k, b).real - half) / half)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.15
    with pytest.raises(ConfigError):
        theta_plus(GRID, k, 0.0)


def test_dyson_characteristic_small():
    """Truncated collision expansion agrees with the jump simulation within
    the reported tail bound plus MC noise, and the tail is tighter than the
    crude factorial bound."""
    rng = np.random.default_rng(21)
    table = build_collision_table(GRID, beta=0.3, xi2=0.25)
    t_bar = 0.5
    est, tail = dyson_characteristic(
        PACKET, table, t_bar, [ZERO], m_max=6, n_mc=4000,
        rng=np.random.default_rng(22),
    )
    assert tail > 0.0
    assert tail < PACKET.mass * truncation_tail(table.sigma_max * t_bar, 6)
    assert tail <= 5e-3 * PACKET.mass
    # two more orders shrink the reported bound
    _, tail10 = dyson_characteristic(
        PACKET, table, t_bar, [ZERO], m_max=8, n_mc=4000,
        rng=np.random.default_rng(22),
    )
    assert tail10 < tail

    ens = sample_initial(PACKET, 40000, table, rng)
    ens, _ = simulate(ens, table, t_bar, rng)
    ref = characteristic_function(ens, [ZERO])
    gap = abs(est.mean[0] - ref.mean[0])
    budget = (tail + 3.0 * math.hypot(est.stderr_re[0], est.stderr_im[0])
              + 3.0 * ref.stderr_re[0])
    assert gap <= budget


def test_dyson_characteristic_is_pinned():
    """Means and tail bound at a fixed seed are pinned to 1e-12: the order
    loop, whose last pass samples the leading missing term, must keep drawing
    the same random numbers in the same order."""
    table = build_collision_table(GRID, beta=0.3, xi2=0.25)
    obs = [ZERO, Observable(p=(0.5, 0.0, 0.0), n=(1, 0, 0))]
    est, tail = dyson_characteristic(
        PACKET, table, 0.5, obs, m_max=4, n_mc=2000, rng=np.random.default_rng(22),
    )
    # sigma_max t / (m_max + 2) < 1: the bound comes from the sampled lead term
    assert table.sigma_max * 0.5 / 6 < 1.0
    pinned = [0.6792798954052335 + 0.0j, 0.2790887476842712 - 0.00024326841182863374j]
    for mean, ref in zip(est.mean, pinned):
        assert abs(mean - ref) <= 1e-12
    assert tail == pytest.approx(0.021320985717375316, rel=1e-12)
    assert tail > 1e-3 * PACKET.mass


# a duplicate, shared p, shared n, p = 0, n = 0, negative n and p = 0.5
MIXED = [
    ZERO,
    Observable(p=(0.5, 0.0, 0.0), n=(0, 0, 0)),
    Observable(p=(0.5, 0.0, 0.0), n=(1, 0, 0)),
    Observable(p=(0.0, 0.0, 0.0), n=(1, 0, 0)),
    Observable(p=(0.5, 0.0, 0.0), n=(1, 0, 0)),
    Observable(p=(1.0, -0.5, 0.25), n=(-1, 2, 0)),
    Observable(p=(0.0, 1.0, 0.0), n=(-1, 2, 0)),
    Observable(p=(-0.5, 0.0, 2.0), n=(0, -1, -3)),
]


def _direct_characteristic(ens, observables):
    """Reference: one complex exponential of the full phase per observable."""
    k = ens.grid.k_of(ens.k_idx)
    return [ens.mass * np.mean(np.exp(-1j * TWO_PI * (
        ens.x @ np.asarray(o.p) - k @ np.asarray(o.n, dtype=np.float64))))
        for o in observables]


def _direct_dyson(initial, table, t_bar, observables, m_max, n_mc, rng):
    """Reference: the collision expansion of orders 0..m_max with one complex
    exponential of the full phase per observable and order, drawing from rng
    in the same order as dyson_characteristic."""
    ens = sample_initial(initial, n_mc, table, rng)
    chain = [ens.k_idx]
    for _ in range(m_max + 1):
        chain.append(sample_jump(table, chain[-1], rng))
    sig = [table.sigma_flat[idx] for idx in chain]
    gvel = [table.grid.grad_flat[idx] for idx in chain]
    totals = np.zeros((len(observables), n_mc), dtype=np.complex128)
    prefac = np.ones(n_mc)
    for m in range(m_max + 1):
        if m == 0:
            r = np.full((n_mc, 1), t_bar)
        else:
            prefac = prefac * sig[m - 1]
            u = np.sort(rng.random((n_mc, m)), axis=1)
            r = np.diff(np.concatenate(
                [np.zeros((n_mc, 1)), u, np.ones((n_mc, 1))], axis=1), axis=1) * t_bar
        decay = np.exp(-sum(r[:, j] * sig[j] for j in range(m + 1)))
        base = prefac * decay * (t_bar**m / math.factorial(m))
        drift = sum(r[:, j, None] * gvel[j] for j in range(m + 1))
        k = table.grid.k_of(chain[m])
        for i, o in enumerate(observables):
            p, n = np.asarray(o.p), np.asarray(o.n, dtype=np.float64)
            phase = -(drift @ p) - TWO_PI * (ens.x @ p) + TWO_PI * (k @ n)
            totals[i] += base * np.exp(1j * phase)
    return [ens.mass * np.mean(z) for z in totals]


def test_kinetic_estimators_match_the_direct_phase_sum():
    """Both estimators factor the phase by distinct mode; they match the
    per-observable exponential to 1e-13 of the mass, and each estimate is
    bitwise the same whether requested alone or next to other observables."""
    table = build_collision_table(GRID, beta=0.3, xi2=0.25)
    rng = np.random.default_rng(9)
    ens, _ = simulate(sample_initial(PACKET, 3000, table, rng), table, 0.5, rng)
    tol = 1e-13 * PACKET.mass
    est = characteristic_function(ens, MIXED)
    for mean, ref in zip(est.mean, _direct_characteristic(ens, MIXED)):
        assert abs(mean - ref) <= tol
    assert _entry(est, 2) == _entry(est, 4)
    for i, obs in enumerate(MIXED):
        assert _entry(characteristic_function(ens, [obs]), 0) == _entry(est, i)

    args = (PACKET, table, 0.5)
    kw = dict(m_max=4, n_mc=2000)
    est, tail = dyson_characteristic(*args, MIXED, rng=np.random.default_rng(22), **kw)
    ref = _direct_dyson(*args, MIXED, rng=np.random.default_rng(22), **kw)
    for mean, r in zip(est.mean, ref):
        assert abs(mean - r) <= tol
    assert _entry(est, 2) == _entry(est, 4)
    for i, obs in enumerate(MIXED):
        alone, tail_alone = dyson_characteristic(
            *args, [obs], rng=np.random.default_rng(22), **kw)
        assert _entry(alone, 0) == _entry(est, i) and tail_alone == tail


def _entry(est, i):
    """Observable i of an estimate record: mean, both SEs and the count."""
    return est.mean[i], est.stderr_re[i], est.stderr_im[i], est.count


def test_the_three_estimators_return_one_record():
    """The lattice average and both transport solvers return the same record,
    with one array entry per observable, in the caller's order."""
    from kinwave.wigner import RunConfig, disorder_average

    ens = sample_initial(PACKET, 2000, TABLE, np.random.default_rng(5))
    jump = characteristic_function(ens, MIXED)
    dyson, _ = dyson_characteristic(PACKET, TABLE, 0.5, MIXED, m_max=2, n_mc=1000,
                                    rng=np.random.default_rng(6))
    run = RunConfig(couplings=C, L=16, eps=0.5, t_bar=0.1, distribution="rademacher",
                    realizations=2, initial=PACKET, seed=3)
    lattice = disorder_average(run, MIXED).estimates
    for est, count in ((jump, 2000), (dyson, 1000), (lattice, 2)):
        assert type(est) is Estimates
        assert est.count == count
        for values in (est.mean, est.stderr_re, est.stderr_im):
            assert values.shape == (len(MIXED),)
        assert est.mean.dtype == np.complex128


def test_one_phase_pass_per_distinct_mode(monkeypatch):
    """exp(i theta) over the particles is formed once per distinct nonzero p
    (4 in DEFAULT_OBSERVABLES): once in characteristic_function, and once
    per order at the flown state in dyson_characteristic."""
    calls = []
    expi = kinetic._expi

    def counting(theta):
        calls.append(np.shape(theta))
        return expi(theta)

    monkeypatch.setattr(kinetic, "_expi", counting)
    assert len({o.p for o in DEFAULT_OBSERVABLES if any(o.p)}) == 4
    ens = sample_initial(PACKET, 2000, TABLE, np.random.default_rng(3))
    characteristic_function(ens, DEFAULT_OBSERVABLES)
    assert len(calls) == 4
    calls.clear()
    m_max = 8
    dyson_characteristic(PACKET, TABLE, 0.5, DEFAULT_OBSERVABLES, m_max=m_max,
                         n_mc=1000, rng=np.random.default_rng(4))
    assert len(calls) == 4 * (m_max + 1)


def test_dyson_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError):
        dyson_characteristic(PACKET, TABLE, 0.5, [ZERO], -1, 1000, rng)
    with pytest.raises(ConfigError):
        dyson_characteristic(PACKET, TABLE, 0.5, [ZERO], 4, 10, rng)
    with pytest.raises(ConfigError):
        dyson_characteristic(PACKET, TABLE, -0.5, [ZERO], 4, 1000, rng)


def test_theta_plus_matches_the_direct_grid_sum():
    """The gate diagonal summed over distinct energies with their counts
    equals the average over every grid point k'."""
    k = np.array([0.13, 0.4, 0.71])
    wk = float(C.omega(k))
    wp = GRID.omega_flat
    for beta in (0.05, 0.3, 1.0):
        w = wk + 1j * beta
        direct = sum(
            np.sum(1j / (w - sp * wp) * ((wk + sp * wp) / 2.0) ** 2)
            for sp in (-1, 1)
        ) / GRID.n_points
        got = theta_plus(GRID, k, beta)
        assert abs(got - direct) <= 1e-12 * abs(direct)
