"""Disordered harmonic lattice: states, energy, wave dynamics.

Sites live on a periodic box {0..L-1}^3, re-centred to signed coordinates
[-L/2, L/2)^3 where positions matter.  A realization of the disorder rescales
the site masses to (1 + sqrt(eps) xi_y)^-2 with xi i.i.d., mean zero, bounded
by xi_bar; mass positivity requires sqrt(eps) * xi_bar < 1.  The dynamics is

    dq_y/dt = v_y,      (1 + sqrt(eps) xi_y)^-2 dv_y/dt = -(alpha * q)_y,

integrated by velocity Verlet.  The force alpha * q is applied in real space,
as a periodic stencil over the finite-range coupling offsets: its cost grows
with the number of offsets, and no Fourier transform enters a Verlet step.
The complex wave variable psi_y = (Omega q + i (1+sqrt(eps) xi)^-1 v)_y / 2
(Omega = Fourier multiplier by omega(k)) satisfies 2 sum |psi|^2 = energy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .dispersion import Couplings
from .errors import ConfigError, StabilityError

__all__ = [
    "DisorderField",
    "LatticeState",
    "sample_disorder",
    "signed_axis",
    "macro_grid",
    "check_mass_positivity",
    "energy",
    "evolve",
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
    """One realization of the i.i.d. site disorder (unit variance, mean zero)."""

    xi: np.ndarray
    xi_bar: float
    distribution: str
    seed: int


@dataclass
class LatticeState:
    q: np.ndarray   # real displacements, shape (L, L, L)
    v: np.ndarray   # real velocities, shape (L, L, L)

    @property
    def L(self) -> int:
        return self.q.shape[0]


def sample_disorder(L: int, distribution: str, seed: int) -> DisorderField:
    if distribution not in XI_BAR:
        raise ConfigError(f"unknown disorder distribution {distribution!r}")
    rng = np.random.default_rng(seed)
    if distribution == "uniform":
        xi = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=(L, L, L))
    else:
        xi = (2.0 * rng.integers(0, 2, size=(L, L, L)) - 1.0).astype(np.float64)
    return DisorderField(xi=xi, xi_bar=XI_BAR[distribution], distribution=distribution, seed=seed)


def signed_axis(L: int) -> np.ndarray:
    """Site coordinates along one axis, re-centred: 0, 1, .., L/2-1, -L/2, .., -1."""
    return np.fft.fftfreq(L, d=1.0 / L)


def macro_grid(L: int, eps: float) -> np.ndarray:
    """Macroscopic positions eps * y of the re-centred box sites, shape (L, L, L, 3)."""
    s = eps * signed_axis(L)
    return np.stack(np.meshgrid(s, s, s, indexing="ij"), axis=-1)


@lru_cache(maxsize=16)
def _multipliers(c: Couplings, L: int):
    """Dispersion and its rfft slice on the box grid k = m/L."""
    axis = np.arange(L, dtype=np.float64) / L
    k1, k2, k3 = np.meshgrid(axis, axis, axis, indexing="ij")
    kpts = np.stack([k1, k2, k3], axis=-1)
    alpha = c.alpha_hat(kpts)
    if np.any(alpha <= 0.0):
        raise ConfigError("symbol not positive on the box grid")
    omega = np.sqrt(alpha)
    half = L // 2 + 1
    return {
        "omega": omega,
        "omega_r": np.ascontiguousarray(omega[..., :half]),
        "omega_max": float(omega.max()),
    }


def _shift_blocks(offset, L: int) -> tuple:
    """(destination, source) slice pairs that together write q_{(y - x) mod L}
    at every site y for the offset x: per axis, the unwrapped block plus the
    wrapped one unless the shift is 0 mod L, so at most 8 blocks."""
    per_axis = []
    for x in offset:
        s = x % L
        if s == 0:
            per_axis.append(((slice(None), slice(None)),))
        else:
            per_axis.append(((slice(s, None), slice(None, L - s)),
                             (slice(None, s), slice(L - s, None))))
    return tuple((tuple(d for d, _ in blocks), tuple(src for _, src in blocks))
                 for blocks in product(*per_axis))


@lru_cache(maxsize=16)
def _stencil(c: Couplings, L: int) -> tuple:
    """Slice plan of alpha * q on the box: the offsets grouped by coupling
    value, so each distinct value costs one multiply."""
    groups: dict[float, list] = {}
    for offset, value in c.entries:
        groups.setdefault(value, []).append(_shift_blocks(offset, L))
    return tuple((value, tuple(offsets)) for value, offsets in groups.items())


def _convolve(q: np.ndarray, plan: tuple, out: np.ndarray, acc: np.ndarray) -> np.ndarray:
    """out = (alpha * q)_y = sum_x alpha(x) q_{(y - x) mod L}, from the plan of
    _stencil; acc is scratch of q's shape.  Returns out."""
    if not plan:
        out.fill(0.0)
    for g, (value, offsets) in enumerate(plan):
        target = out if g == 0 else acc
        for i, blocks in enumerate(offsets):
            for dst, src in blocks:
                if i == 0:
                    target[dst] = q[src]
                else:
                    target[dst] += q[src]
        target *= value
        if g > 0:
            out += acc
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
    force = _convolve(q, _stencil(c, state.L), np.empty_like(q), np.empty_like(q))
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
    """
    check_mass_positivity(disorder.distribution, eps)
    if t_final < 0.0:
        raise ConfigError("t_final must be nonnegative")
    L = state.L
    mul = _multipliers(c, L)
    omega_max_eff = mul["omega_max"] * (1.0 + np.sqrt(eps) * disorder.xi_bar)
    if dt is None:
        dt = 0.1 / omega_max_eff
    if dt <= 0.0:
        raise ConfigError("dt must be positive")
    if dt >= 2.0 / omega_max_eff:
        raise StabilityError(
            f"dt = {dt:.4g} at or beyond the Verlet stability bound "
            f"{2.0 / omega_max_eff:.4g}"
        )

    neg_msq = -((1.0 + np.sqrt(eps) * disorder.xi) ** 2)
    plan = _stencil(c, L)
    force = np.empty_like(state.q)
    acc = np.empty_like(state.q)

    def accel(q: np.ndarray) -> np.ndarray:
        """-(1 + sqrt(eps) xi)^2 (alpha * q), written into the force buffer."""
        return np.multiply(_convolve(q, plan, force, acc), neg_msq, out=force)

    n_steps = int(np.floor(t_final / dt + 1e-9))
    rem = t_final - n_steps * dt
    if rem < dt * 1e-9:
        rem = 0.0

    q = state.q.copy()
    v = state.v.copy()
    a = accel(q)
    for step in range(n_steps):
        v += (0.5 * dt) * a
        q += dt * v
        a = accel(q)
        v += (0.5 * dt) * a
        if step % 64 == 0 and not np.isfinite(np.sum(v)):
            raise StabilityError(f"field blew up at step {step}")
    if rem > 0.0:
        v += (0.5 * rem) * a
        q += rem * v
        a = accel(q)
        v += (0.5 * rem) * a
    if not (np.isfinite(np.sum(v)) and np.isfinite(np.sum(q))):
        raise StabilityError("field blew up during integration")
    return LatticeState(q=q, v=v)


def to_wavefunction(
    state: LatticeState, disorder: DisorderField, eps: float, c: Couplings
) -> np.ndarray:
    """psi_+ = (Omega q + i (1 + sqrt(eps) xi)^-1 v) / 2.  The minus component
    of a physical state is the complex conjugate and is never stored."""
    check_mass_positivity(disorder.distribution, eps)
    mul = _multipliers(c, state.L)
    om_q = np.fft.irfftn(mul["omega_r"] * np.fft.rfftn(state.q), state.q.shape, axes=(0, 1, 2))
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
    mul = _multipliers(c, L)
    re2 = 2.0 * psi_plus.real
    q = np.fft.irfftn(np.fft.rfftn(re2) / mul["omega_r"], psi_plus.shape, axes=(0, 1, 2))
    v = 2.0 * psi_plus.imag
    if disorder is not None:
        v = (1.0 + np.sqrt(eps) * disorder.xi) * v
    return LatticeState(q=q, v=v)


def wavefunction_norm_squared(psi_plus: np.ndarray) -> float:
    """Norm over both components: 2 sum |psi_+|^2.  Equals the total energy."""
    return 2.0 * float(np.sum(np.abs(psi_plus) ** 2))


def evolve_free_spectral(state: LatticeState, c: Couplings, t: float) -> LatticeState:
    """Exact clean-lattice (xi = 0) evolution: psi_hat(k, t) = exp(-i omega t) psi_hat(k, 0)."""
    mul = _multipliers(c, state.L)
    om_q = np.fft.irfftn(mul["omega_r"] * np.fft.rfftn(state.q), state.q.shape, axes=(0, 1, 2))
    psi = 0.5 * (om_q + 1j * state.v)
    psi_t = np.fft.ifftn(np.exp(-1j * t * mul["omega"]) * np.fft.fftn(psi))
    re2 = 2.0 * psi_t.real
    q = np.fft.irfftn(np.fft.rfftn(re2) / mul["omega_r"], psi.shape, axes=(0, 1, 2))
    return LatticeState(q=q, v=2.0 * psi_t.imag)


def wkb_state(L: int, eps: float, envelope, phase) -> np.ndarray:
    """Semiclassical wave data psi_+(y) = eps^(3/2) h(eps y) exp(i S(eps y)/eps).

    envelope and phase are callables on macroscopic positions, taking an array
    of shape (..., 3).  Warns when more than 1% of the envelope mass falls
    outside the re-centred box (the packet is then not tight in the box).
    """
    if eps <= 0.0:
        raise ConfigError("eps must be positive")
    x = macro_grid(L, eps)
    h = np.asarray(envelope(x), dtype=np.float64)
    s = np.asarray(phase(x), dtype=np.float64)
    psi = eps**1.5 * h * np.exp(1j * s / eps)

    outside = envelope_mass_outside(L, eps, envelope)
    if outside > 0.01:
        warnings.warn(
            f"envelope mass outside the box: {outside:.1%} (packet not tight)",
            stacklevel=2,
        )
    return psi.astype(np.complex128)


def envelope_mass_outside(L: int, eps: float, envelope) -> float:
    """Fraction of sum |h(eps y)|^2 carried by sites of the doubled box that
    fall outside the original one.  Cheap tightness diagnostic for wave data."""
    h2 = np.asarray(envelope(macro_grid(2 * L, eps)), dtype=np.float64)
    total = float(np.sum(h2**2))
    if total == 0.0:
        raise ConfigError("envelope vanishes identically")
    near = np.abs(eps * signed_axis(2 * L)) < eps * (L / 2.0)
    inside = near[:, None, None] & near[None, :, None] & near[None, None, :]
    return 1.0 - float(np.sum((h2**2)[inside])) / total


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
