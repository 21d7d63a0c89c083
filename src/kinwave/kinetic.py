"""Linear transport on the dispersion grid: collision kernel and two solvers.

The elastic collision kernel on the M^3 wavevector grid is

    R(k, k') = 2 pi xi2 delta_beta(omega(k) - omega(k')) omega(k')^2,

with the Lorentzian regularization delta_beta(r) = (beta/pi) / (r^2 + beta^2);
the total rate sigma(k) is its grid average over k'.  Detailed balance
omega(k)^2 R(k, k') = omega(k')^2 R(k', k) is an algebraic identity of this
kernel.  R depends on k and k' only through omega(k) and omega(k'), so the
jump law is sampled exactly by rejection against a bound that is constant on
pairs of omega shells, with the proposal shell drawn by guide-table lookup
in O(1) expected steps (see ShellEnvelope).  Two solvers consume the same
table: a jump-process simulator (free flight at group velocity
grad omega / 2 pi, exponential waiting times, shell-envelope jumps) and a
truncated collision-expansion evaluator whose m-th term flies the first m
jumps of the same chain over the time simplex.  Both read an observable
(p, n) through one phase, weight * exp(-i 2 pi (p.x - n.k)) (_phase_columns):
the simulator at its evolved ensemble, the evaluator at each order's flown
state.  Initial packet positions are exact Gaussian draws, and an ensemble
carries its total mass, shared equally by its particles, so both solvers'
estimates are scaled sample means (estimates.Estimates.of).  The module also
carries the spectral transport machinery: the gate diagonal whose real part
recovers sigma/2, and the simplex kernels K_N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chebyshev import cheb_coeffs, cheb_nodes
from .dispersion import TWO_PI, DispersionGrid
from .errors import ConfigError, SamplingError
from .estimates import Estimates
from .initial import PointSource, WKBPacket

__all__ = [
    "CollisionTable",
    "ShellEnvelope",
    "ParticleEnsemble",
    "default_beta",
    "build_collision_table",
    "pair_rate",
    "detailed_balance_residual",
    "sample_jump",
    "sample_initial",
    "simulate",
    "characteristic_function",
    "theta_plus",
    "k_simplex",
    "dyson_characteristic",
    "truncation_tail",
]

# the shell-to-shell bound has n_shells^2 entries; past this many shells the
# shells widen beyond beta/4 and acceptance falls, but the law stays exact
_MAX_SHELLS = 512


def default_beta(grid: DispersionGrid) -> float:
    """Resolution-tied regularization width: four band-widths per grid step."""
    return 4.0 * (grid.omega_max - grid.omega_min) / grid.M


@dataclass(frozen=True)
class CollisionTable:
    grid: DispersionGrid
    beta: float
    xi2: float
    sigma: np.ndarray          # (M, M, M) total rate

    @cached_property
    def sigma_flat(self) -> np.ndarray:
        return self.sigma.reshape(-1)

    @property
    def sigma_min(self) -> float:
        return float(self.sigma.min())

    @property
    def sigma_max(self) -> float:
        return float(self.sigma.max())

    @property
    def sigma_bound(self) -> float:
        """The analytic ceiling 2 omega_max^2 xi2 / beta of the total rate."""
        return 2.0 * self.grid.omega_max**2 * self.xi2 / self.beta

    @cached_property
    def shell_envelope(self) -> "ShellEnvelope":
        return ShellEnvelope.build(self.grid, self.beta)


@dataclass(frozen=True)
class ShellEnvelope:
    """Bound on the unnormalized jump weight

        u(k, k') = omega'^2 / ((omega - omega')^2 + beta^2),  omega' = omega(k'),

    that is constant on pairs of omega shells.  The grid omega is cut into
    equal-width shells no wider than beta/4 (at most _MAX_SHELLS of them) and
    empty shells are dropped.  Shell b holds the flat grid indices
    order[start[b] : start[b] + count[b]], and cap[a, b] >= u on shell a x
    shell b.  row_cdf holds, for each source shell a, the cumulative law of
    the proposal shell b (probability proportional to count[b] * cap[a, b]),
    offset by a so that all rows form one sorted array, closed by +inf.

    The inversion of a row is a guide-table lookup (Chen & Asau 1974;
    Devroye 1986, section III.2.4): guide[a, g] is the first position of
    row_cdf above a + g/G, for G buckets per row, G the power of two at or
    above 2B.  locate starts each query at its bucket's entry and steps
    forward, in O(1) expected steps.
    """

    shell_of: np.ndarray   # (n,) shell of each flat grid index
    order: np.ndarray      # (n,) flat grid indices grouped by shell
    start: np.ndarray      # (B,) first position of each shell in order
    count: np.ndarray      # (B,) members per shell, all >= 1
    cap: np.ndarray        # (B, B) bound on u over shell a x shell b
    row_cdf: np.ndarray    # (B * B + 1,) a + cumulative proposal law of row a; +inf
    guide: np.ndarray      # (B, G) int32 first row_cdf position above a + g/G

    @staticmethod
    def build(grid: DispersionGrid, beta: float) -> "ShellEnvelope":
        w = grid.omega_flat
        span = grid.omega_max - grid.omega_min
        n_bins = min(_MAX_SHELLS, max(1, math.ceil(4.0 * span / beta)))
        edges = np.linspace(grid.omega_min, grid.omega_max, n_bins + 1)
        raw = np.clip(np.searchsorted(edges, w, side="right") - 1, 0, n_bins - 1)
        _, shell_of = np.unique(raw, return_inverse=True)
        order = np.argsort(shell_of, kind="stable")
        count = np.bincount(shell_of)
        start = np.concatenate(([0], np.cumsum(count)[:-1]))
        lo = np.minimum.reduceat(w[order], start)
        hi = np.maximum.reduceat(w[order], start)

        # For fixed omega' the largest u over omega in [lo_a, hi_a] takes the
        # omega nearest to omega'.  That maximum rises in omega' up to
        # hi_a + beta^2/hi_a and falls beyond it, so over shell b it sits at
        # this peak clipped to [lo_b, hi_b].  The factor absorbs rounding.
        beta2 = beta**2
        peak = np.clip((hi + beta2 / hi)[:, None], lo[None, :], hi[None, :])
        gap = np.maximum(lo[:, None] - peak, 0.0) + np.maximum(peak - hi[:, None], 0.0)
        cap = peak**2 / (gap**2 + beta2) * (1.0 + 1e-12)

        cdf = np.cumsum(count * cap, axis=1)
        cdf /= cdf[:, -1:]
        cdf[:, -1] = 1.0
        shells = np.arange(count.size)
        row_cdf = np.append((cdf + shells[:, None]).reshape(-1), np.inf)

        # G is a power of two, so floor(u G) / G <= u holds exactly for every
        # float u, and rounding is monotone: a + floor(u G) / G never exceeds
        # a + u, and the bucket's entry never lies past the answer
        n_buckets = 1 << (2 * count.size - 1).bit_length()
        edge = shells[:, None] + np.arange(n_buckets) / n_buckets
        guide = np.searchsorted(row_cdf, edge, side="right").astype(np.int32)
        return ShellEnvelope(shell_of=shell_of, order=order, start=start,
                             count=count, cap=cap, row_cdf=row_cdf, guide=guide)

    def locate(self, a: np.ndarray, u: np.ndarray) -> np.ndarray:
        """np.searchsorted(row_cdf, a + u, side="right") for source shells a
        and uniforms u in [0, 1), by guide-table lookup: start at the entry of
        u's bucket in row a and step forward while row_cdf[pos] <= a + u.
        The +inf that closes row_cdf stops every scan."""
        x = a + u
        n_buckets = self.guide.shape[1]
        bucket = a * n_buckets
        bucket += (u * n_buckets).astype(np.int64)
        pos = self.guide.reshape(-1)[bucket]
        ahead = np.flatnonzero(self.row_cdf[pos] <= x)
        while ahead.size:
            pos[ahead] += 1
            ahead = ahead[self.row_cdf[pos[ahead]] <= x[ahead]]
        return pos


def build_collision_table(
    grid: DispersionGrid, beta: float | None = None, xi2: float = 1.0
) -> CollisionTable:
    """Tabulate sigma(k) on the grid.

    sigma depends on k only through omega(k), so the quadratic grid sum is
    folded to one dimension: deposit omega'^2 mass on a fine omega axis
    (linear weights), convolve with the Lorentzian, and read the result back
    at the exact omega(k) values.  The binning error is O((bin/beta)^2),
    orders below every consumer's tolerance.
    """
    if beta is None:
        beta = min(1.0, default_beta(grid))
    if not (0.0 < beta <= 1.0):
        raise ConfigError("beta must lie in (0, 1]")
    if xi2 <= 0.0:
        raise ConfigError("xi2 must be positive")
    w = grid.omega_flat
    span = grid.omega_max - grid.omega_min
    scale = 2.0 * beta * xi2 / grid.n_points

    if span < 1e-12:                       # flat band: every pair at distance ~0
        val = scale * float(np.sum(w**2)) / beta**2
        sigma = np.full(grid.omega.shape, val)
    else:
        nb = 16384
        step = span / (nb - 1)
        pos = (w - grid.omega_min) / step
        i0 = np.minimum(pos.astype(np.int64), nb - 2)
        frac = pos - i0
        density = np.zeros(nb)
        np.add.at(density, i0, (1.0 - frac) * w**2)
        np.add.at(density, i0 + 1, frac * w**2)
        offsets = np.arange(-(nb - 1), nb, dtype=np.float64) * step
        kernel = 1.0 / (offsets**2 + beta**2)
        nodes = _linear_convolution(density, kernel)[nb - 1 : 2 * nb - 1]
        axis = grid.omega_min + step * np.arange(nb)
        sigma = scale * np.interp(w, axis, nodes).reshape(grid.omega.shape)

    table = CollisionTable(grid=grid, beta=float(beta), xi2=float(xi2), sigma=sigma)
    if table.sigma_min <= 0.0 or table.sigma_max > table.sigma_bound:
        raise RuntimeError(
            f"total rate left its analytic window (0, {table.sigma_bound:.3g}]: "
            f"[{table.sigma_min:.3g}, {table.sigma_max:.3g}]"
        )
    return table


def _linear_convolution(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two real sequences through one rfft pair,
    zero-padded to a power of two."""
    n = a.size + b.size - 1
    size = 1 << (n - 1).bit_length()
    return np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[:n]


def pair_rate(table: CollisionTable, k_idx, kp_idx) -> np.ndarray:
    """R(k, k') for flat grid indices (broadcasting)."""
    w = table.grid.omega_flat
    wk = w[np.asarray(k_idx)]
    wp = w[np.asarray(kp_idx)]
    return 2.0 * table.xi2 * table.beta * wp**2 / ((wk - wp) ** 2 + table.beta**2)


def detailed_balance_residual(table: CollisionTable, ki, kj) -> float:
    """max over the pairs of |w_i^2 R(i,j) - w_j^2 R(j,i)| / max(|w_i^2 R(i,j)|, 1e-300)."""
    w = table.grid.omega_flat
    fwd = w[ki] ** 2 * pair_rate(table, ki, kj)
    bwd = w[kj] ** 2 * pair_rate(table, kj, ki)
    return float(np.max(np.abs(fwd - bwd) / np.maximum(np.abs(fwd), 1e-300)))


def sample_jump(
    table: CollisionTable, k_idx: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Draw post-collision wavevectors: for each flat grid index k of the 1-D
    array k_idx, k' with probability proportional to R(k, k') over the grid.

    Exact rejection sampling against the table's shell envelope: each
    proposal draws a shell b with probability proportional to
    count[b] * cap[a(k), b], by inverting row a(k) of row_cdf at one uniform
    through the envelope's guide table (ShellEnvelope.locate, equal to the
    binary search bitwise), then a member of b uniformly (rng.integers, one
    draw per proposal), and accepts with probability u(k, k') / cap[a(k), b].
    Aborts when the running acceptance rate degenerates below 1e-4.
    """
    k_arr = np.asarray(k_idx, dtype=np.int64)
    out = np.empty_like(k_arr)
    env = table.shell_envelope
    n_shells = env.count.size
    w = table.grid.omega_flat
    wk = w[k_arr]
    src = env.shell_of[k_arr]
    beta2 = table.beta**2
    active = np.arange(k_arr.size)
    n_prop = 0
    n_acc = 0
    while active.size:
        m = active.size
        a = src[active]
        b = env.locate(a, rng.random(m))
        b -= a * n_shells
        np.minimum(b, n_shells - 1, out=b)
        prop = env.order[env.start[b] + rng.integers(0, env.count[b])]
        wp = w[prop]
        u = wp**2 / ((wk[active] - wp) ** 2 + beta2)
        acc = rng.random(m) * env.cap[a, b] < u
        out[active[acc]] = prop[acc]
        active = active[~acc]
        n_prop += m
        n_acc += int(np.sum(acc))
        if n_prop >= max(20_000, 10 * k_arr.size) and n_acc < 1e-4 * n_prop:
            raise SamplingError(
                f"jump acceptance rate {n_acc / n_prop:.2e} below 1e-4"
            )
    return out


@dataclass
class ParticleEnsemble:
    """Particles of the transport equation: macroscopic positions and flat
    wavevector grid indices.  The total mass is shared equally, mass / n per
    particle."""

    x: np.ndarray          # (n, 3) float
    k_idx: np.ndarray      # (n,) int flat grid indices
    mass: float            # total mass of the wave data
    grid: DispersionGrid   # wavevector grid the indices refer to

    @property
    def n(self) -> int:
        return self.x.shape[0]


def sample_initial(
    initial: WKBPacket | PointSource,
    n: int,
    table: CollisionTable,
    rng: np.random.Generator,
) -> ParticleEnsemble:
    """Draw n particles from the limiting phase-space measure of the wave data.

    Semiclassical packets: positions drawn exactly from the normalized
    |h(x)|^2 (WKBPacket.sample_positions), wavevector the nearest grid point
    to grad S / 2 pi at the sampled position.  Point data: all particles at
    the origin, wavevectors drawn from the squared Fourier amplitudes on the
    grid.  The ensemble carries the mass of the wave data.
    """
    if n < 1:
        raise ConfigError("need at least one particle")
    grid = table.grid
    if isinstance(initial, PointSource):
        x = np.zeros((n, 3))
        spectral = initial.fourier_weights(grid.k_of(np.arange(grid.n_points)))
        total = spectral.sum()
        if total <= 0.0:
            raise ConfigError("point data has no spectral weight on the grid")
        k_idx = rng.choice(grid.n_points, size=n, p=spectral / total)
    elif isinstance(initial, WKBPacket):
        x = initial.sample_positions(rng, n)
        k_idx = grid.index_of(initial.grad_phase(x) / TWO_PI)
    else:
        raise ConfigError(f"unknown initial data spec {type(initial).__name__}")

    return ParticleEnsemble(
        x=x,
        k_idx=np.asarray(k_idx, dtype=np.int64),
        mass=initial.mass,
        grid=grid,
    )


def simulate(
    ens: ParticleEnsemble, table: CollisionTable, t: float, rng: np.random.Generator
) -> tuple[ParticleEnsemble, np.ndarray]:
    """Run the jump process for macroscopic time t.

    Each particle flies at grad omega(k)/(2 pi), waits an Exp(sigma(k)) time,
    then jumps through sample_jump; the mass never changes.  Returns the
    evolved ensemble and the per-particle collision counts.
    """
    if t < 0.0:
        raise ConfigError("time must be nonnegative")
    x = ens.x.copy()
    k = ens.k_idx.copy()
    counts = np.zeros(ens.n, dtype=np.int64)
    rem = np.full(ens.n, float(t))
    active = np.arange(ens.n)
    sigma = table.sigma_flat
    grad = table.grid.grad_flat
    while active.size:
        ka = k[active]
        tau = rng.exponential(scale=1.0 / sigma[ka])
        ra = rem[active]
        move = np.minimum(tau, ra)
        x[active] += grad[ka] * (move[:, None] / TWO_PI)
        rem[active] = ra - move
        jumpers = active[tau < ra]
        if jumpers.size:
            k[jumpers] = sample_jump(table, k[jumpers], rng)
            counts[jumpers] += 1
        active = jumpers     # everyone else exhausted their remaining time
    return ParticleEnsemble(x=x, k_idx=k, mass=ens.mass, grid=ens.grid), counts


def _expi(theta: np.ndarray) -> np.ndarray:
    """exp(i theta) from one cos and one sin pass, about half the cost of
    np.exp of a complex argument."""
    out = np.empty(np.shape(theta), dtype=np.complex128)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def _nonzero_modes(modes) -> list:
    """The distinct nonzero vectors among modes, in first-seen order."""
    return [v for v in dict.fromkeys(modes) if any(v)]


def _shift_tables(grid: DispersionGrid, observables) -> dict:
    """exp(i 2 pi n.k) on the flat grid for each distinct nonzero shift n.

    On the grid k = m/M, so the factor is the M-th root of unity of index
    n.m mod M: one root table, gathered by integer residues.  The residues
    are formed on the (M, M, M) grid and flattened like omega_flat.  Each
    table has M^3 entries and lives only as long as its caller.
    """
    M = grid.M
    roots = np.exp(1j * TWO_PI / M * np.arange(M))
    m = np.arange(M)
    tables = {}
    for n in _nonzero_modes(obs.n for obs in observables):
        residue = (n[0] * m[:, None, None] + n[1] * m[None, :, None]
                   + n[2] * m[None, None, :]) % M
        tables[n] = roots[residue.reshape(-1)]
    return tables


def _phase_columns(observables, shifts, x, k_idx, weight):
    """Yield, for each observable (p, n), the column weight_j
    exp(-i 2 pi (p.x_j - n.k_j)) over the particles j at positions x (n, 3),
    flat grid indices k_idx and real weights: one cos/sin pass per distinct
    nonzero p, scaled by the weight in place, and one gather per distinct
    nonzero n from its table in shifts (_shift_tables)."""
    position = {p: _expi(-TWO_PI * (x @ np.asarray(p)))
                for p in _nonzero_modes(obs.p for obs in observables)}
    for col in position.values():
        col.real *= weight
        col.imag *= weight
    gathered = {n: tab[k_idx] for n, tab in shifts.items()}
    for obs in observables:
        xp, kn = position.get(obs.p, weight), gathered.get(obs.n)
        yield xp if kn is None else xp * kn


def characteristic_function(ens: ParticleEnsemble, observables) -> Estimates:
    """mass times the particle mean of exp(-i 2 pi (p.x_j - n.k_j)), with
    its standard error, one observable column (_phase_columns at unit
    weight) at a time."""
    shifts = _shift_tables(ens.grid, observables)
    columns = _phase_columns(observables, shifts, ens.x, ens.k_idx, np.ones(ens.n))
    return Estimates.of(columns, ens.mass)


def theta_plus(grid: DispersionGrid, k, beta: float) -> complex:
    """Gate diagonal at the shifted shell energy w = omega(k) + i beta, by
    grid quadrature at xi2 = 1:

        theta_+(k) = sum_{s'} avg_{k'} i/(w - s' omega(k'))
                     * ((omega(k) + s' omega(k')) / 2)^2.

    The summand depends on k' only through omega(k'), so the average runs
    over the grid's distinct energies, each weighted by its count.  As
    beta -> 0+ the real part converges to sigma(k)/2 (the half total
    collision rate), at the square-root rate in beta.
    """
    if beta <= 0.0:
        raise ConfigError("beta must be positive")
    wk = float(grid.couplings.omega(np.asarray(k, dtype=np.float64)))
    w = wk + 1j * beta
    wp, counts = grid.levels.omega, grid.levels.counts
    total = 0.0 + 0.0j
    for sp in (-1, 1):
        half = (wk + sp * wp) / 2.0
        total += np.sum(counts * (1j / (w - sp * wp) * half * half))
    return complex(total / grid.n_points)


def k_simplex(t: float, w) -> complex:
    """Simplex oscillatory kernel K_N(t, w), N = len(w) <= 6.

    K_1(t, w) = exp(-i t w); each further level applies the recursion
    K_{N+1}(t) = int_0^t dr exp(-i (t-r) w_{N+1}) K_N(r) with adaptive
    spectral quadrature: integrands are interpolated at Chebyshev nodes on
    [0, t], antidifferentiated in coefficient space, and the degree doubles
    until the coefficient tail is negligible.
    """
    ws = [complex(z) for z in np.atleast_1d(np.asarray(w, dtype=np.complex128))]
    n_levels = len(ws)
    if n_levels < 1:
        raise ConfigError("need at least one frequency")
    if n_levels > 6:
        raise ConfigError("kernel order above 6 not supported")
    if t < 0.0:
        raise ConfigError("t must be nonnegative")
    if t == 0.0:
        return 1.0 + 0.0j if n_levels == 1 else 0.0 + 0.0j
    if n_levels == 1:
        return complex(np.exp(-1j * t * ws[0]))

    for deg in (64, 128, 256, 512, 1024):
        x = cheb_nodes(deg)
        r = (x + 1.0) * (t / 2.0)
        vals = np.exp(-1j * r * ws[0])
        tail = 0.0
        for w_next in ws[1:]:
            g = np.exp(1j * r * w_next) * vals
            coeffs = cheb_coeffs(g)
            scale = np.max(np.abs(coeffs)) or 1.0
            tail = max(tail, float(np.max(np.abs(coeffs[-2:])) / scale))
            primitive = np.polynomial.chebyshev.chebint(coeffs, lbnd=-1.0, scl=t / 2.0)
            vals = np.exp(-1j * r * w_next) * np.polynomial.chebyshev.chebval(x, primitive)
        if tail < 1e-12:
            return complex(vals[0])          # node x = 1 is r = t
    raise RuntimeError(
        f"simplex kernel quadrature did not converge (t |w| too large: t={t}, w={ws})"
    )


def truncation_tail(lam: float, m_max: int) -> float:
    """sum_{m > m_max} lam^m / m!  (Poisson-type tail of the expansion bound)."""
    term = lam**m_max / math.factorial(m_max)
    total = 0.0
    for m in range(m_max + 1, m_max + 200):
        term *= lam / m
        total += term
        if term < 1e-18 * max(total, 1.0):
            break
    return total


def dyson_characteristic(
    initial: WKBPacket | PointSource,
    table: CollisionTable,
    t_bar: float,
    observables,
    m_max: int,
    n_mc: int,
    rng: np.random.Generator,
) -> tuple[Estimates, float]:
    """Collision-expansion estimate of the transport characteristic function.

    The m-th term runs the same jump chain as the simulator and flies its
    m + 1 segments for times r_j at a uniform point of the scaled time
    simplex.  It is the shared phase (_phase_columns) at that flown state:
    positions x + sum_j r_j grad omega(k_j) / 2 pi, the m-th grid index, and
    weight prod_{j<m} sigma(k_j) exp(-sum_j r_j sigma(k_j)) t^m / m! (each
    jump carries its total rate; t^m / m! is the simplex volume).

    Truncation at m_max is reported as a bound on the modulus of the missing
    sum, valid for every observable at once because each term's phase factor
    has modulus one: the leading missing term (order m_max + 1) is estimated
    with the same chain, and the orders beyond it are capped by the geometric
    ratio sigma_max t / (m + 1).  When that ratio is not contractive the crude
    (sigma_max t)^m / m! sum is reported instead.

    Returns (estimates, tail_bound).
    """
    if m_max < 0 or m_max > 64:
        raise ConfigError("m_max out of range")
    if n_mc < 1_000:
        raise ConfigError("need at least 1e3 samples")
    if t_bar < 0.0:
        raise ConfigError("t_bar must be nonnegative")
    ens = sample_initial(initial, n_mc, table, rng)

    # one extra jump beyond m_max feeds the leading-missing-term estimate
    chain = [ens.k_idx]
    for _ in range(m_max + 1):
        chain.append(sample_jump(table, chain[-1], rng))
    sig = table.sigma_flat[chain]
    vel = table.grid.grad_flat[chain] / TWO_PI

    # orders 0..m_max enter the estimates; the last pass, q = m_max + 1, is
    # the leading missing term
    q = m_max + 1
    shifts = _shift_tables(table.grid, observables)
    totals = np.zeros((len(observables), n_mc), dtype=np.complex128)
    prefac = np.ones(n_mc)
    for m in range(q + 1):
        # spacings of the sorted uniforms, 0 and 1 included: the flight times
        # of a uniform point of the time simplex (at m = 0, no draw and t_bar)
        u = rng.random((n_mc, m))
        u.sort(axis=1)
        r = np.append(u, np.ones((n_mc, 1)), axis=1)
        r[:, 1:] -= u
        r *= t_bar
        decay = np.exp(-sum(r[:, j] * sig[j] for j in range(m + 1)))
        if m == q:
            lead = ens.mass * float(np.mean(prefac * decay)) * t_bar**q / math.factorial(q)
            break
        weight = prefac * decay * (t_bar**m / math.factorial(m))
        flown = ens.x + sum(r[:, j, None] * vel[j] for j in range(m + 1))
        for row, col in zip(totals, _phase_columns(observables, shifts, flown,
                                                   chain[m], weight)):
            row += col
        prefac = prefac * sig[m]

    ratio = table.sigma_max * t_bar / (q + 1)
    if ratio < 1.0:
        tail = lead / (1.0 - ratio)
    else:                               # not contractive yet: crude factorial sum
        tail = initial.mass * truncation_tail(table.sigma_max * t_bar, m_max)
    return Estimates.of(totals, ens.mass), tail
