"""Disordered harmonic lattice: states, energy, wave dynamics.

Sites live on a periodic box {0..L-1}^3, re-centred to signed coordinates
[-L/2, L/2)^3 where positions matter.  A realization of the disorder rescales
the site masses to (1 + sqrt(eps) xi_y)^-2 with xi i.i.d., mean zero, bounded
by xi_bar; mass positivity requires sqrt(eps) * xi_bar < 1.  The dynamics is

    dq_y/dt = v_y,      (1 + sqrt(eps) xi_y)^-2 dv_y/dt = -(alpha * q)_y,

that is q'' = -K q with K = (1 + sqrt(eps) xi)^2 alpha, linear and constant
in time.  Two integrators solve it.  propagate sums cos(t sqrt K) and
sin(t sqrt K) / sqrt K as Chebyshev series in K, exact to rounding: the
study ladders reach t_bar/eps with it in about t sqrt(Lambda) / 2 + 10 terms
(Lambda bounds the spectrum of K), running one recurrence for several
velocity fields that share the displacement field.  evolve is velocity
Verlet, the integrator under test in the acceptance criteria 1-3 and the
one behind `kinwave simulate`.  Both apply alpha * q in real space, as a
periodic stencil over the finite-range coupling offsets: each offset is one
contiguous shift of the flattened box, corrected exactly on the thin faces
where that shift wraps across a row or a plane.  The stencil runs over the
box one slab of whole planes (about 2^16 sites, so the box up to L = 40) at
a time, and propagate sweeps the box once per Chebyshev term, doing each
slab's stencils, scaling, subtraction and mixing while the slab is in
cache; no site's arithmetic depends on the slabs.  A Verlet step is one
stencil plus three in-place passes; its cost grows with the number of
offsets, and no Fourier transform enters either integrator.
The complex wave variable psi_y = (Omega q + i (1+sqrt(eps) xi)^-1 v)_y / 2
(Omega = Fourier multiplier by omega(k)) satisfies 2 sum |psi|^2 = energy.
omega on the box grid k = m/L, its maximum and its levels are read from
build_dispersion(c, L), the grid that the transport side shares.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chebyshev import cheb_coeffs, cheb_nodes
from .dispersion import Couplings, build_dispersion
from .errors import ConfigError, StabilityError

__all__ = [
    "DisorderField",
    "LatticeState",
    "draw_disorder",
    "sample_disorder",
    "signed_axis",
    "macro_grid",
    "check_mass_positivity",
    "energy",
    "evolve",
    "propagate",
    "spectral_bound",
    "free_phase",
    "evolve_free_spectral",
    "to_wavefunction",
    "from_wavefunction",
    "wavefunction_norm_squared",
    "wkb_state",
    "point_state",
    "envelope_mass_outside",
]

XI_BAR = {"uniform": float(np.sqrt(3.0)), "rademacher": 1.0}


@dataclass(frozen=True)
class DisorderField:
    """One realization of the i.i.d. site disorder (unit variance, mean zero, |xi| <= xi_bar)."""

    xi: np.ndarray
    distribution: str

    @property
    def xi_bar(self) -> float:
        return XI_BAR[self.distribution]


@dataclass
class LatticeState:
    q: np.ndarray   # real displacements, shape (L, L, L)
    v: np.ndarray   # real velocities, shape (L, L, L)

    @property
    def L(self) -> int:
        return self.q.shape[0]


def draw_disorder(rng: np.random.Generator, distribution: str, shape) -> np.ndarray:
    """Float64 draws of a site law with mean zero and unit variance: uniform
    on [-sqrt(3), sqrt(3)], or rademacher +-1."""
    if distribution == "uniform":
        return rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=shape)
    if distribution == "rademacher":
        return 2.0 * rng.integers(0, 2, size=shape) - 1.0
    raise ConfigError(f"unknown disorder distribution {distribution!r}")


def sample_disorder(L: int, distribution: str, seed: int) -> DisorderField:
    xi = draw_disorder(np.random.default_rng(seed), distribution, (L, L, L))
    return DisorderField(xi=xi, distribution=distribution)


def signed_axis(L: int) -> np.ndarray:
    """Site coordinates along one axis, re-centred: 0, 1, .., L/2-1, -L/2, .., -1."""
    return np.fft.fftfreq(L, d=1.0 / L)


def macro_grid(L: int, eps: float) -> np.ndarray:
    """Macroscopic positions eps * y of the re-centred box sites, shape (L, L, L, 3)."""
    s = eps * signed_axis(L)
    x = np.empty((L, L, L, 3))
    x[..., 0] = s[:, None, None]
    x[..., 1] = s[:, None]
    x[..., 2] = s
    return x


def _flat_shift(offset, L: int) -> tuple:
    """One coupling offset x as a shift of the flattened box, plus its faces.

    With s the signed representatives of x mod L, reading the flat index
    i - (s0 L^2 + s1 L + s2) mod L^3 gives q_{(y - x) mod L} at every site
    except where y1 - s1 or y2 - s2 leaves [0, L): there the flat index
    borrows from the neighbouring plane or row.  Those sites, |s1| rows and
    |s2| columns, are the face.  Returns (shift mod L^3, face, source): the
    flat indices of the face and of the sites each must read instead."""
    s = [(x + L // 2) % L - L // 2 for x in offset]
    y = np.arange(L)
    rows, columns = ((y < si) | (y >= L + si) for si in s[1:])
    face = np.flatnonzero(np.broadcast_to(rows[:, None] | columns, (L, L, L)))
    sites = np.unravel_index(face, (L, L, L))
    source = np.ravel_multi_index(tuple((i - si) % L for i, si in zip(sites, s)), (L, L, L))
    return (s[0] * L * L + s[1] * L + s[2]) % L**3, face, source


# sites per slab: a sweep over the box runs one slab of whole planes at a
# time, so that the work of a slab stays in L2 (2**16 sites is 16 planes at
# L = 64; of 8, 16 and 32 planes, 32 ran slower and 8 no faster than 16)
_SLAB = 2**16


def _slabs(L: int) -> list[tuple[int, int]]:
    """The flat ranges [lo, hi) of the slabs of the box: runs of whole planes
    of at most _SLAB sites (one plane if a plane is larger), the last one
    shorter.  A box of at most _SLAB sites is a single slab."""
    n, step = L**3, max(1, _SLAB // (L * L)) * L * L
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _as_slice(index: np.ndarray):
    """A flat index array as the equal slice when it is an arithmetic
    progression (the face of a +-z offset, one site per row), else as is."""
    if index.size > 1:
        step = int(index[1] - index[0])
        if step > 0 and np.all(np.diff(index) == step):
            return slice(int(index[0]), int(index[-1]) + 1, step)
    return index


def _slab_shift(shift: tuple, lo: int, hi: int, n: int) -> tuple:
    """A flat shift of _flat_shift on the destination sites [lo, hi) of a box
    of n sites: (d, pieces, face, source), with pieces the (destination,
    source) slices of tf[i] <- qf[i - d mod n], destinations and face counted
    from lo and sources from 0, and face None where no face site falls in
    the slab.  A face whose sites and sources are both arithmetic
    progressions is given as two slices."""
    d, face, source = shift
    start, size = (lo - d) % n, hi - lo
    head = min(size, n - start)
    pieces = ((slice(0, head), slice(start, start + head)),)
    if head < size:
        pieces += ((slice(head, size), slice(0, size - head)),)
    inside = (face >= lo) & (face < hi)
    if not inside.any():
        return d, pieces, None, None
    face, source = face[inside] - lo, source[inside]
    as_slices = _as_slice(face), _as_slice(source)
    if all(isinstance(x, slice) for x in as_slices):
        face, source = as_slices
    return d, pieces, face, source


@lru_cache(maxsize=16)
def _stencil(c: Couplings, L: int) -> tuple:
    """Shift plan of alpha * q on the box, one entry (lo, hi, groups) per slab
    of _slabs: the offsets grouped by coupling value, so each distinct value
    costs one multiply, with the groups of value +-1 last, where _convolve
    adds them straight into its output; each shift is restricted to the slab
    by _slab_shift."""
    groups: dict[float, list] = {}
    for offset, value in c.entries:
        groups.setdefault(value, []).append(_flat_shift(offset, L))
    ordered = sorted(groups.items(), key=lambda group: abs(group[0]) == 1.0)
    return tuple(
        (lo, hi, tuple((value, tuple(_slab_shift(shift, lo, hi, L**3) for shift in shifts))
                       for value, shifts in ordered))
        for lo, hi in _slabs(L))


def _write_shift(qf: np.ndarray, tf: np.ndarray, shift: tuple, value) -> None:
    """target_y = value * q_{(y - x) mod L} for one offset x of a slab plan,
    on the flattened field and the slab's target."""
    _, pieces, face, source = shift
    for dst, src in pieces:
        np.multiply(qf[src], value, out=tf[dst])
    if face is not None:
        tf[face] = qf[source] * value


def _add_shift(qf: np.ndarray, tf: np.ndarray, shift: tuple, op) -> None:
    """target_y = op(target_y, q_{(y - x) mod L}) for one offset x of a slab
    plan, op np.add or np.subtract.  The face is formed exactly before the
    flat shift runs over it, and written back after."""
    _, pieces, face, source = shift
    fixed = op(tf[face], qf[source]) if face is not None else None
    for dst, src in pieces:
        target = tf[dst]
        op(target, qf[src], out=target)
    if face is not None:
        tf[face] = fixed


def _convolve(q: np.ndarray, plan: tuple, out: np.ndarray, acc: np.ndarray) -> np.ndarray:
    """out = (alpha * q)_y = sum_x alpha(x) q_{(y - x) mod L} on the sites of
    consecutive slabs of a _stencil plan (the whole plan, or one slab of it),
    one slab at a time; out holds those sites in order, and acc is a work
    buffer of at least one slab.  Returns out.

    A group of value +-1 is added or subtracted straight into out; any other
    group is summed, scaled once and added through acc (the first group, or a
    single offset, is written already scaled).  The value of a leading
    single-offset group may also be the slab's part of a flat per-site array
    (_with_diagonal).  Every site sees the same operations in the same order
    whatever the slabs."""
    qf, of, af = q.reshape(-1), out.reshape(-1), acc.reshape(-1)
    base = plan[0][0]
    for lo, hi, groups in plan:
        tf, wf = of[lo - base: hi - base], af[: hi - lo]
        if not groups:
            tf.fill(0.0)
        for g, (value, shifts) in enumerate(groups):
            if g > 0 and abs(value) == 1.0:
                op = np.add if value > 0.0 else np.subtract
                for shift in shifts:
                    _add_shift(qf, tf, shift, op)
                continue
            target = tf if g == 0 else wf
            _write_shift(qf, target, shifts[0], value if len(shifts) == 1 else 1.0)
            for shift in shifts[1:]:
                _add_shift(qf, target, shift, np.add)
            if len(shifts) > 1 and value != 1.0:
                target *= value
            if g > 0:
                tf += wf
    return out


def check_mass_positivity(distribution: str, eps: float) -> None:
    """Refuse an unknown disorder law, or an eps for which a site mass
    (1 + sqrt(eps) xi)^-2 could reach zero: needs 0 <= eps, sqrt(eps) xi_bar < 1."""
    xi_bar = XI_BAR.get(distribution)
    if xi_bar is None:
        raise ConfigError(f"unknown disorder distribution {distribution!r}")
    if eps < 0.0:
        raise ConfigError("eps must be nonnegative")
    if np.sqrt(eps) * xi_bar >= 1.0:
        raise ConfigError(
            f"sqrt(eps)*xi_bar = {np.sqrt(eps) * xi_bar:.3f} >= 1 at eps = {eps}; "
            "masses would not stay positive"
        )


def energy(state: LatticeState, disorder: DisorderField, eps: float, c: Couplings) -> float:
    """Total energy: kinetic with disordered masses plus the potential
    (1/2) sum_y q_y (alpha * q)_y."""
    check_mass_positivity(disorder.distribution, eps)
    q = state.q
    mass = (1.0 + np.sqrt(eps) * disorder.xi) ** -2
    kinetic = 0.5 * float(np.sum(mass * state.v**2))
    plan = _stencil(c, state.L)
    force = _convolve(q, plan, np.empty(q.shape), np.empty(plan[0][1]))
    potential = 0.5 * float(np.sum(q * force))
    return kinetic + potential


def evolve(
    state: LatticeState,
    disorder: DisorderField,
    eps: float,
    c: Couplings,
    t_final: float,
    dt: float | None = None,
) -> LatticeState:
    """Velocity Verlet up to t_final.

    Takes the largest number of full steps with spacing dt not exceeding
    t_final, then one fractional step to land exactly on t_final.  The default
    step is 0.1 / omega_max_eff with omega_max_eff = omega_max (1 + sqrt(eps)
    xi_bar); any dt at or beyond the stability bound 2 / omega_max_eff is
    refused.  Blow-up (non-finite field values) aborts.

    The steps are kick-drift-kick with the closing half-kick of each step and
    the opening half-kick of the next merged into one kick.  The velocity is
    carried as dt v and the factor -dt^2 (1 + sqrt(eps) xi)^2 is formed once,
    so a full step is one stencil plus three in-place passes over the box:
    scale the force, kick, drift.  The returned v is synchronized with q.
    """
    check_mass_positivity(disorder.distribution, eps)
    if t_final < 0.0:
        raise ConfigError("t_final must be nonnegative")
    L = state.L
    omega_max_eff = build_dispersion(c, L).omega_max * (1.0 + np.sqrt(eps) * disorder.xi_bar)
    if dt is None:
        dt = 0.1 / omega_max_eff
    if dt <= 0.0:
        raise ConfigError("dt must be positive")
    if dt >= 2.0 / omega_max_eff:
        raise StabilityError(
            f"dt = {dt:.4g} at or beyond the Verlet stability bound "
            f"{2.0 / omega_max_eff:.4g}"
        )

    kick = (-dt * dt) * (1.0 + np.sqrt(eps) * disorder.xi) ** 2
    plan = _stencil(c, L)
    force = np.empty(kick.shape)
    acc = np.empty(plan[0][1])

    def dt2_accel(q: np.ndarray) -> np.ndarray:
        """dt^2 times the acceleration at q, written into the force buffer."""
        return np.multiply(_convolve(q, plan, force, acc), kick, out=force)

    n_steps = int(np.floor(t_final / dt + 1e-9))
    rem = t_final - n_steps * dt
    if rem < dt * 1e-9:
        rem = 0.0

    q = state.q.copy()
    p = state.v * dt            # dt v: the drift of one full step
    dt2_accel(q)
    if n_steps > 0:
        p += 0.5 * force
        for step in range(n_steps):
            q += p
            p += dt2_accel(q)   # closes this step and opens the next
            if step % 64 == 0 and not np.isfinite(np.sum(p)):
                raise StabilityError(f"field blew up at step {step}")
        p -= 0.5 * force        # take back the opening half-kick of a step not taken
    h = dt
    if rem > 0.0:
        half = 0.5 * (rem / dt) ** 2
        p *= rem / dt
        p += half * force
        q += p
        p += half * dt2_accel(q)
        h = rem
    v = p / h
    if not (np.isfinite(np.sum(v)) and np.isfinite(np.sum(q))):
        raise StabilityError("field blew up during integration")
    return LatticeState(q=q, v=v)


def spectral_bound(c: Couplings, disorder: DisorderField, eps: float) -> float:
    """Gershgorin bound Lambda = (1 + sqrt(eps) xi_bar)^2 sum_x |alpha(x)| on
    the spectrum of K = (1 + sqrt(eps) xi)^2 alpha.  K is similar to a
    symmetric positive semidefinite matrix, so its spectrum lies in [0, Lambda]."""
    return (1.0 + np.sqrt(eps) * disorder.xi_bar) ** 2 * sum(abs(v) for _, v in c.entries)


_SERIES_TOL = 1e-14


def _propagator_series(t: float, lam: float) -> np.ndarray:
    """Chebyshev coefficients, in x = 2 lambda / lam - 1 on [-1, 1], of
    cos(t sqrt(lambda)) and sin(t sqrt(lambda)) / sqrt(lambda), shape (2, n+1).

    Both functions are entire in lambda, so their coefficients fall off faster
    than geometrically past t sqrt(lam) / 2.  The interpolation grid doubles
    until the series are resolved in its lower half; both are then cut after
    the last coefficient of either that reaches 1e-14 of its function's
    largest value (1 and t, at lambda = 0).  Past t sqrt(lam) ~ 45 the cut
    rises to the rounding of the arguments t sqrt(lambda) themselves."""
    tol = max(_SERIES_TOL, np.finfo(np.float64).eps * t * np.sqrt(lam))
    deg = 32
    while True:
        root = np.sqrt(0.5 * lam * (1.0 + cheb_nodes(deg)))
        values = np.stack([np.cos(t * root), t * np.sinc(t * root / np.pi)])
        series = np.stack([cheb_coeffs(row).real for row in values])
        scale = np.abs(values).max(axis=1, keepdims=True)
        kept = np.flatnonzero(np.any(np.abs(series) >= tol * scale, axis=0))
        if kept[-1] < deg // 2:
            return series[:, : kept[-1] + 1]
        deg *= 2


def _with_diagonal(plan: tuple, diagonal: np.ndarray) -> tuple:
    """Plan of (alpha + diag(diagonal)) q from the plan of alpha, slab by slab:
    the offset 0 (the one shift that moves no site) leaves its group, and its
    coupling value joins the diagonal in a leading group whose value is the
    slab's part of one flat per-site array."""
    centre = diagonal.reshape(-1).copy()
    for value, shifts in plan[0][2]:
        centre += value * sum(not shift[0] for shift in shifts)
    slabs = []
    for lo, hi, groups in plan:
        identity = (0, ((slice(0, hi - lo), slice(lo, hi)),), None, None)
        moving = []
        for value, shifts in groups:
            kept = tuple(shift for shift in shifts if shift[0])
            if kept:
                moving.append((value, kept))
        slabs.append((lo, hi, ((centre[lo:hi], (identity,)), *moving)))
    return tuple(slabs)


# Chebyshev terms per accumulation: the terms of one block sit in a ring of
# buffers and enter the sums through matrix products (larger blocks were no
# faster at L = 64 and hold more memory)
_BLOCK = 2

# sites per matrix product: a slab's share of a block enters the sums in
# pieces whose product is added while it is still in cache (2**13 took
# about half the time of one product over a 2**16-site slab)
_MIX_PIECE = 2**13


def propagate(
    q0: np.ndarray,
    velocities: list[np.ndarray],
    disorder: DisorderField,
    eps: float,
    c: Couplings,
    t: float,
) -> list[LatticeState]:
    """Exact evolution to time t of q'' = -K q, K = (1 + sqrt(eps) xi)^2 alpha,
    from the states (q0, v0) for each v0 in velocities, all in one disorder
    field:

        q(t) = cos(t sqrt K) q0 + S v0,   v(t) = cos(t sqrt K) v0 - K S q0,

    with S = sin(t sqrt K) / sqrt K.  Returns one final state per velocity,
    in order; for t > 0 their fields are views of one buffer.  Both matrix
    functions are summed to rounding as Chebyshev series in
    A = (2 / Lambda) K - I, whose spectrum lies in [-1, 1] (Lambda from
    spectral_bound): the three-term recurrence T_{k+1} = 2 A T_k - T_{k-1}
    runs on the stack of chains (q0, v0, v0', ...) side by side, so the terms
    of cos(t sqrt K) q0 and of S q0 are formed once for every velocity, and
    K S q0 takes one stencil more.  A term costs one stencil per chain, with
    the -2 I of 2 A folded into its diagonal, one scaling pass and one
    subtraction; no Fourier transform of the field enters.

    Each term sweeps the box once, one slab of _slabs at a time: on a slab it
    applies the stencil of every chain to T_k into a slab-sized work buffer,
    scales by (4 / Lambda) (1 + sqrt(eps) xi)^2 and subtracts T_{k-1}, and at
    the end of a block adds the slab's share of the block into the sums, all
    while the slab is in cache.  A stencil reads past its slab only into
    T_k, which no slab of T_{k+1} overwrites, so every site sees the same
    operations in the same order as in a sweep of the whole box, and no
    buffer larger than a slab is allocated besides the ring of terms, the sums
    and the per-site scaling and diagonal.  A symbol that is not positive on
    the box grid (K not positive definite) is refused; non-finite field
    values abort.
    """
    check_mass_positivity(disorder.distribution, eps)
    build_dispersion(c, q0.shape[0])
    if t < 0.0:
        raise ConfigError("t must be nonnegative")
    if t == 0.0:
        return [LatticeState(q=q0.copy(), v=v0.copy()) for v0 in velocities]
    lam = spectral_bound(c, disorder, eps)
    cos_c, sinc_c = _propagator_series(t, lam)
    plan = _stencil(c, q0.shape[0])
    w = ((4.0 / lam) * (1.0 + np.sqrt(eps) * disorder.xi) ** 2).reshape(-1)
    shifted = _with_diagonal(plan, -2.0 / w)   # 2 A = w (alpha - 2 / w)
    acc = np.empty(plan[0][1])
    work = np.empty(plan[0][1])

    # the Chebyshev terms T_j on the chains (q0, v0, v0', ...) in a ring of
    # _BLOCK buffers; the sums cos q0 + S v0 for each v0, cos v0 for each v0,
    # and S q0 take each full block, or the last one, with the coefficients
    # of its terms (zero past the last term)
    m = len(velocities)
    chains = 1 + m
    n_terms = cos_c.size
    blocks = -(-n_terms // _BLOCK)
    mix = np.zeros((blocks * _BLOCK, 2 * m + 1, chains))
    mix[:n_terms, :m, 0] = cos_c[:, None]
    mix[:n_terms, 2 * m, 0] = sinc_c
    for i in range(m):
        mix[:n_terms, i, 1 + i] = sinc_c
        mix[:n_terms, m + i, 1 + i] = cos_c
    mix = mix.reshape(blocks, _BLOCK, 2 * m + 1, chains).transpose(0, 2, 1, 3)
    mix = mix.reshape(blocks, 2 * m + 1, -1)
    ring = np.zeros((_BLOCK, chains, w.size))
    ring[0, 0] = q0.reshape(-1)
    for i, v0 in enumerate(velocities):
        ring[0, 1 + i] = v0.reshape(-1)
    flat = ring.reshape(_BLOCK * chains, -1)
    sums = np.zeros((2 * m + 1, w.size))
    for j in range(n_terms):
        mixes = j % _BLOCK == _BLOCK - 1 or j == n_terms - 1
        if j == 0 and not mixes:
            continue
        for slab in shifted:
            lo, hi, _ = slab
            if j > 0:
                # T_j = 2 A T_{j-1} - T_{j-2} and T_1 = A T_0 on this slab, one
                # chain at a time through one work buffer
                scaled = work[: hi - lo]
                for chain in range(chains):
                    _convolve(ring[(j - 1) % _BLOCK, chain], (slab,), scaled, acc)
                    scaled *= w[lo:hi]
                    out = ring[j % _BLOCK, chain, lo:hi]
                    if j == 1:
                        np.multiply(scaled, 0.5, out=out)
                    else:
                        np.subtract(scaled, ring[(j - 2) % _BLOCK, chain, lo:hi], out=out)
            if mixes:
                for a in range(lo, hi, _MIX_PIECE):
                    piece = slice(a, min(a + _MIX_PIECE, hi))
                    sums[:, piece] += mix[j // _BLOCK] @ flat[:, piece]
    # v(t) = cos v0 - K S q0, slab by slab
    xi = disorder.xi.reshape(-1)
    for slab in plan:
        lo, hi, _ = slab
        ks = _convolve(sums[2 * m], (slab,), work[: hi - lo], acc)
        ks *= (1.0 + np.sqrt(eps) * xi[lo:hi]) ** 2
        for i in range(m):
            np.subtract(sums[m + i, lo:hi], ks, out=sums[m + i, lo:hi])
    if not np.isfinite(np.sum(sums[: 2 * m])):
        raise StabilityError("field blew up during propagation")
    shape = q0.shape
    return [LatticeState(q=sums[i].reshape(shape), v=sums[m + i].reshape(shape))
            for i in range(m)]


def to_wavefunction(
    state: LatticeState, disorder: DisorderField | None, eps: float, c: Couplings
) -> np.ndarray:
    """psi_+ = (Omega q + i (1 + sqrt(eps) xi)^-1 v) / 2; with disorder None,
    the clean-lattice map (Omega q + i v) / 2, and eps is not read.  The minus
    component of a physical state is the complex conjugate and is never
    stored."""
    L = state.L
    omega_r = build_dispersion(c, L).omega[..., : L // 2 + 1]
    om_q = np.fft.irfftn(omega_r * np.fft.rfftn(state.q), state.q.shape, axes=(0, 1, 2))
    if disorder is None:
        return 0.5 * (om_q + 1j * state.v)
    check_mass_positivity(disorder.distribution, eps)
    return 0.5 * (om_q + 1j * state.v / (1.0 + np.sqrt(eps) * disorder.xi))


def from_wavefunction(
    psi_plus: np.ndarray,
    c: Couplings,
    disorder: DisorderField | None = None,
    eps: float = 0.0,
) -> LatticeState:
    """Invert psi_+ -> (q, v).

    With disorder given, inverts the full map so to_wavefunction returns
    psi_plus exactly: q = Omega^-1 (2 Re psi), v = (1+sqrt(eps) xi) 2 Im psi.
    Without it, uses the clean-lattice map v = 2 Im psi, which deliberately
    drops the O(sqrt(eps)) mass correction (substituted initial data)."""
    L = psi_plus.shape[0]
    omega_r = build_dispersion(c, L).omega[..., : L // 2 + 1]
    re2 = 2.0 * psi_plus.real
    q = np.fft.irfftn(np.fft.rfftn(re2) / omega_r, psi_plus.shape, axes=(0, 1, 2))
    v = 2.0 * psi_plus.imag
    if disorder is not None:
        v = (1.0 + np.sqrt(eps) * disorder.xi) * v
    return LatticeState(q=q, v=v)


def wavefunction_norm_squared(psi_plus: np.ndarray) -> float:
    """Norm over both components: 2 sum |psi_+|^2.  Equals the total energy."""
    return 2.0 * float(np.sum(np.abs(psi_plus) ** 2))


def free_phase(c: Couplings, L: int, t: float) -> np.ndarray:
    """exp(-i omega(k) t) on the box grid k = m/L, in np.fft order: the factor
    by which the clean lattice advances each Fourier mode of psi_+ over a time
    t.  One exponential per distinct omega, gathered onto the grid, so the
    result equals the exponential taken site by site bitwise."""
    levels = build_dispersion(c, L).levels
    return np.exp(-1j * t * levels.omega)[levels.inverse].reshape(L, L, L)


def evolve_free_spectral(state: LatticeState, c: Couplings, t: float) -> LatticeState:
    """Exact clean-lattice (xi = 0) evolution: psi_hat(k, t) = exp(-i omega t) psi_hat(k, 0)."""
    psi = to_wavefunction(state, None, 0.0, c)
    return from_wavefunction(np.fft.ifftn(free_phase(c, state.L, t) * np.fft.fftn(psi)), c)


def wkb_state(L: int, eps: float, envelope, phase) -> np.ndarray:
    """Semiclassical wave data psi_+(y) = eps^(3/2) h(eps y) exp(i S(eps y)/eps).

    envelope and phase are callables on macroscopic positions, taking an array
    of shape (..., 3).  Entries below 1e-150 of max |psi| are set to zero: a
    Gaussian tail that underflows into subnormals slows every later pass over
    the field, while 150 decades below the peak it is far under the rounding
    of anything the bulk contributes.  Warns when more than 1% of the
    envelope mass falls outside the re-centred box (the packet is then not
    tight in the box).
    """
    if eps <= 0.0:
        raise ConfigError("eps must be positive")
    x = macro_grid(L, eps)
    h = np.asarray(envelope(x), dtype=np.float64)
    s = np.asarray(phase(x), dtype=np.float64)
    psi = eps**1.5 * h * np.exp(1j * s / eps)
    size = np.abs(psi)
    psi[size < 1e-150 * size.max()] = 0.0

    outside = envelope_mass_outside(L, eps, envelope)
    if outside > 0.01:
        warnings.warn(
            f"envelope mass outside the box: {outside:.1%} (packet not tight)",
            stacklevel=2,
        )
    return psi.astype(np.complex128)


def envelope_mass_outside(L: int, eps: float, envelope) -> float:
    """Fraction of sum |h(eps y)|^2 over the doubled box (2L sites a side)
    carried by sites outside the original one: a cheap tightness diagnostic
    for wave data.  The envelope is taken to be of product form,
    |h(x)|^2 = g_1(x_1) g_2(x_2) g_3(x_3), as the Gaussian of WKBPacket is, so
    both sums factor by axis: the fraction is 1 - prod_axis (inside / total)
    of the 1-D sums of |h|^2 along the axis through the origin."""
    s = eps * signed_axis(2 * L)
    near = np.abs(s) < eps * (L / 2.0)
    inside = 1.0
    for axis in range(3):
        x = np.zeros((2 * L, 3))
        x[:, axis] = s
        mass = np.asarray(envelope(x), dtype=np.float64) ** 2
        total = float(np.sum(mass))
        if total == 0.0:
            raise ConfigError("envelope vanishes identically")
        inside *= float(np.sum(mass[near])) / total
    return 1.0 - inside


def point_state(L: int, eps: float, amplitudes: dict[tuple[int, int, int], complex]) -> np.ndarray:
    """Finitely supported wave data placed around the re-centred origin."""
    if eps <= 0.0:
        raise ConfigError("eps must be positive")
    psi = np.zeros((L, L, L), dtype=np.complex128)
    for off, val in amplitudes.items():
        if any(abs(o) >= L // 2 for o in off):
            raise ConfigError(f"site offset {off} outside the box")
        psi[off[0] % L, off[1] % L, off[2] % L] = val
    return psi
