"""Dispersion relations of harmonic lattices with finite-range couplings.

A coupling set alpha maps integer offsets y in Z^3 to real spring constants.
Its symbol alpha_hat(k) = sum_y alpha(y) exp(-i 2 pi k.y) lives on the unit
torus; the dispersion relation is omega(k) = sqrt(alpha_hat(k)), which is well
defined when the symbol is strictly positive.  Everything downstream (wave
dynamics, collision kernels, transport coefficients) consumes either the
closed-form evaluators on arbitrary k or the one cached, read-only periodic
grid per (couplings, M) that build_dispersion tabulates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, FitError
from .estimates import Estimates

__all__ = [
    "TWO_PI",
    "Couplings",
    "DispersionGrid",
    "EnergyLevels",
    "CriticalPoint",
    "DecayFit",
    "CrossingEstimate",
    "couplings_nn",
    "couplings_nn_squared",
    "build_dispersion",
    "find_critical_points",
    "decay_exponent",
    "crossing_integral_estimate",
    "crossing_sweep",
]

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Couplings:
    """Finite-range real couplings alpha(y), identified by their table alone:
    integer 3-offsets and float values, sorted, so equal tables are equal.

    The couplings must be symmetric, alpha(-y) = alpha(y): only then is the
    symbol real, and alpha_hat keeps just its cosine part.
    """

    entries: tuple[tuple[tuple[int, int, int], float], ...]

    def __post_init__(self):
        table = {}
        for off, val in self.entries:
            key = tuple(int(c) for c in off)
            if key != tuple(off) or len(key) != 3 or key in table:
                raise ConfigError(f"coupling offsets must be distinct integer 3-vectors, got {off}")
            table[key] = float(val)
        if not table:
            raise ConfigError("coupling list is empty")
        for off, val in table.items():
            mirror = tuple(-c for c in off)
            if table.get(mirror, 0.0) != val:
                raise ConfigError(
                    f"couplings are not symmetric: alpha{off} = {val} but "
                    f"alpha{mirror} = {table.get(mirror, 0.0)}"
                )
        object.__setattr__(self, "entries", tuple(sorted(table.items())))

    @cached_property
    def offsets(self) -> np.ndarray:
        return np.array([off for off, _ in self.entries], dtype=np.int64)

    @cached_property
    def values(self) -> np.ndarray:
        return np.array([val for _, val in self.entries], dtype=np.float64)

    def alpha_hat(self, k: np.ndarray) -> np.ndarray:
        """Symbol at arbitrary k, shape (..., 3) -> (...).  Real by symmetry."""
        k = np.asarray(k, dtype=np.float64)
        phase = TWO_PI * (k @ self.offsets.T.astype(np.float64))
        return np.cos(phase) @ self.values

    def grad_alpha_hat(self, k: np.ndarray) -> np.ndarray:
        k = np.asarray(k, dtype=np.float64)
        offs = self.offsets.astype(np.float64)
        phase = TWO_PI * (k @ offs.T)
        # d/dk_i sum alpha(y) cos(2 pi k.y) = -2 pi sum alpha(y) y_i sin(2 pi k.y)
        return -TWO_PI * np.einsum("...n,n,ni->...i", np.sin(phase), self.values, offs)

    def hessian_alpha_hat(self, k: np.ndarray) -> np.ndarray:
        k = np.asarray(k, dtype=np.float64)
        offs = self.offsets.astype(np.float64)
        phase = TWO_PI * (k @ offs.T)
        return -(TWO_PI**2) * np.einsum(
            "...n,n,ni,nj->...ij", np.cos(phase), self.values, offs, offs
        )

    def omega(self, k: np.ndarray) -> np.ndarray:
        a = self.alpha_hat(k)
        if np.any(a <= 0.0):
            raise ConfigError("symbol is not positive at a requested wavevector")
        return np.sqrt(a)

    def grad_omega(self, k: np.ndarray) -> np.ndarray:
        w = self.omega(k)
        return self.grad_alpha_hat(k) / (2.0 * w[..., None])

    def hessian_omega(self, k: np.ndarray) -> np.ndarray:
        w = self.omega(k)
        g = self.grad_alpha_hat(k)
        h = self.hessian_alpha_hat(k)
        # omega = sqrt(a):  H_omega = H_a/(2w) - (grad a)(grad a)^T/(4 w^3)
        return h / (2.0 * w[..., None, None]) - np.einsum(
            "...i,...j->...ij", g, g
        ) / (4.0 * w[..., None, None] ** 3)


def couplings_nn(omega0: float) -> Couplings:
    """Nearest-neighbour couplings with pinning omega0 > 0.

    Symbol: omega0^2 + sum_nu 2(1 - cos 2 pi k_nu), so the dispersion is
    omega(k) = sqrt(omega0^2 + 2 sum_nu (1 - cos 2 pi k_nu)).
    """
    if omega0 <= 0.0:
        raise ConfigError("omega0 must be positive")
    entries: dict[tuple[int, int, int], float] = {(0, 0, 0): omega0**2 + 6.0}
    for axis in range(3):
        for sign in (-1, 1):
            off = [0, 0, 0]
            off[axis] = sign
            entries[tuple(off)] = -1.0
    return Couplings(tuple(entries.items()))


def couplings_nn_squared(omega0: float) -> Couplings:
    """Couplings whose symbol is the square of the nearest-neighbour one."""
    if omega0 <= 0.0:
        raise ConfigError("omega0 must be positive")
    a0 = omega0**2 + 6.0
    entries: dict[tuple[int, int, int], float] = {(0, 0, 0): a0**2 + 6.0}
    for axis in range(3):
        for sign in (-1, 1):
            off = [0, 0, 0]
            off[axis] = sign
            entries[tuple(off)] = -2.0 * a0
            off[axis] = 2 * sign
            entries[tuple(off)] = 1.0
    for ax1 in range(3):
        for ax2 in range(ax1 + 1, 3):
            for s1 in (-1, 1):
                for s2 in (-1, 1):
                    off = [0, 0, 0]
                    off[ax1] = s1
                    off[ax2] = s2
                    entries[tuple(off)] = 2.0
    return Couplings(tuple(entries.items()))


class EnergyLevels(NamedTuple):
    """The distinct values of omega on a grid, sorted ascending, with how many
    grid points take each one; omega_flat == omega[inverse] bitwise."""

    omega: np.ndarray      # (U,) distinct energies
    counts: np.ndarray     # (U,) grid points per energy, summing to M^3
    inverse: np.ndarray    # (M^3,) level index of each flat grid point


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _offset_phases(c: Couplings, M: int):
    """(y, alpha(y), 2 pi k.y on the grid k = m/M) for each coupling offset y.
    The phase separates along axes, so k.y costs three 1-D outer sums."""
    axis = np.arange(M, dtype=np.float64) / M
    for y, v in zip(c.offsets.astype(np.float64), c.values):
        phase = (
            axis[:, None, None] * y[0] + axis[None, :, None] * y[1] + axis[None, None, :] * y[2]
        ) * TWO_PI
        yield y, v, phase


@dataclass(frozen=True)
class DispersionGrid:
    """omega on the periodic grid k = m/M, m in {0..M-1}^3: one read-only
    instance per (couplings, M), shared by the lattice box (M = L) and the
    transport side.  The gradient is formed at its first use.

    A grid sum of a function of omega alone runs over the distinct energies
    in levels, each weighted by its count: the lattice symmetries make them
    far fewer than the grid points (4177 of 110592 at M = 48 and 10483 of
    262144 at M = 64 for couplings_nn(1.0)).
    """

    couplings: Couplings
    M: int
    omega: np.ndarray = field(repr=False)       # (M, M, M)
    omega_min: float
    omega_max: float

    @cached_property
    def omega_flat(self) -> np.ndarray:
        return self.omega.reshape(-1)

    @cached_property
    def levels(self) -> EnergyLevels:
        """Grouping by exact float equality of omega, with no tolerance, so a
        sum over levels differs from the grid sum only in summation order."""
        omega, inverse, counts = np.unique(
            self.omega_flat, return_inverse=True, return_counts=True)
        return EnergyLevels(*map(_read_only, (omega, counts, inverse)))

    @cached_property
    def grad(self) -> np.ndarray:
        """(M, M, M, 3) grad omega = grad alpha_hat / (2 omega)."""
        grad = np.zeros(self.omega.shape + (3,))
        for y, v, phase in _offset_phases(self.couplings, self.M):
            s = np.sin(phase)
            for i in range(3):
                grad[..., i] += -TWO_PI * v * y[i] * s
        grad /= 2.0 * self.omega[..., None]
        return _read_only(grad)

    @cached_property
    def grad_flat(self) -> np.ndarray:
        return self.grad.reshape(-1, 3)

    @property
    def n_points(self) -> int:
        return self.M**3

    def k_of(self, flat_index: np.ndarray) -> np.ndarray:
        """Wavevectors in [0,1)^3 for flat grid indices, shape (...,) -> (..., 3)."""
        idx = np.asarray(flat_index)
        M = self.M
        return np.stack([(idx // (M * M)) % M, (idx // M) % M, idx % M], axis=-1) / M

    def index_of(self, k: np.ndarray) -> np.ndarray:
        """Flat index of the nearest grid point to k (componentwise rounding)."""
        k = np.asarray(k, dtype=np.float64)
        m = np.rint(k * self.M).astype(np.int64) % self.M
        return (m[..., 0] * self.M + m[..., 1]) * self.M + m[..., 2]

    @property
    def max_group_speed(self) -> float:
        return float(np.max(np.linalg.norm(self.grad_flat, axis=1)))


@lru_cache(maxsize=16)
def build_dispersion(c: Couplings, M: int) -> DispersionGrid:
    """Tabulate omega on the M^3 torus grid, M >= 2, once per (couplings, M).

    A non-positive symbol anywhere on the grid is a configuration error (the
    square root would degenerate).
    """
    if M < 2:
        raise ConfigError("grid resolution M must be at least 2")
    alpha = np.zeros((M, M, M))
    for _, v, phase in _offset_phases(c, M):
        alpha += v * np.cos(phase)
    if np.any(alpha <= 0.0):
        raise ConfigError("symbol is not positive on the grid; dispersion undefined")
    omega = _read_only(np.sqrt(alpha, out=alpha))
    return DispersionGrid(
        couplings=c,
        M=M,
        omega=omega,
        omega_min=float(omega.min()),
        omega_max=float(omega.max()),
    )


@dataclass(frozen=True)
class CriticalPoint:
    k: tuple[float, float, float]
    omega: float
    index: int            # number of negative Hessian eigenvalues
    degenerate: bool
    converged: bool
    grad_norm: float


def _torus_dist_inf(a: np.ndarray, b: np.ndarray) -> float:
    d = np.abs(a - b) % 1.0
    return float(np.max(np.minimum(d, 1.0 - d)))


# Newton stops at |grad omega| below this; a smaller |det Hessian| is degenerate
_REFINE_TOLERANCE = 1e-10


def find_critical_points(g: DispersionGrid) -> list[CriticalPoint]:
    """Locate critical points of omega on the torus.

    Candidate cells are those whose eight corners show a sign change in every
    gradient component; each candidate is refined by a damped Newton iteration
    on grad omega (step capped at one grid spacing).  Refined points closer
    than one grid spacing are merged.  A point is flagged degenerate when the
    Hessian determinant magnitude falls below the refinement tolerance.
    M must be even and at least 8, so the grid holds k = 0 and the zone corner.
    """
    M = g.M
    if M < 8 or M % 2 != 0:
        raise ConfigError("grid resolution M must be even and >= 8")
    h = 1.0 / M
    candidate = np.ones((M, M, M), dtype=bool)
    shifts = [
        (d1, d2, d3) for d1 in (0, 1) for d2 in (0, 1) for d3 in (0, 1)
    ]
    for comp in range(3):
        a = g.grad[..., comp]
        mn = a.copy()
        mx = a.copy()
        for d1, d2, d3 in shifts[1:]:
            r = np.roll(a, shift=(-d1, -d2, -d3), axis=(0, 1, 2))
            np.minimum(mn, r, out=mn)
            np.maximum(mx, r, out=mx)
        candidate &= (mn <= 0.0) & (mx >= 0.0)

    cells = np.argwhere(candidate)
    refined: list[tuple[np.ndarray, bool, float]] = []
    for cell in cells:
        k = (cell + 0.5) * h
        converged = False
        for _ in range(60):
            grad = g.couplings.grad_omega(k)
            gnorm = float(np.linalg.norm(grad))
            if gnorm <= _REFINE_TOLERANCE:
                converged = True
                break
            hess = g.couplings.hessian_omega(k)
            try:
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                step = -grad
            norm = np.linalg.norm(step)
            if norm > h:
                step *= h / norm
            k = (k + step) % 1.0
        refined.append((k % 1.0, converged, float(np.linalg.norm(g.couplings.grad_omega(k)))))

    merged: list[tuple[np.ndarray, bool, float]] = []
    for k, conv, gn in refined:
        for i, (k0, conv0, gn0) in enumerate(merged):
            if _torus_dist_inf(k, k0) <= h:
                if gn < gn0:
                    merged[i] = (k, conv or conv0, gn)
                break
        else:
            merged.append((k, conv, gn))

    out = []
    # canonical representative in [0,1): fold coordinates that wrapped to ~1.0
    for k, conv, gn in sorted(
        ((np.where(1.0 - k < 1e-9, 0.0, k), conv, gn) for k, conv, gn in merged),
        key=lambda item: tuple(item[0]),
    ):
        hess = g.couplings.hessian_omega(k)
        eigs = np.linalg.eigvalsh(hess)
        out.append(
            CriticalPoint(
                k=tuple(float(x) for x in k),
                omega=float(g.couplings.omega(k)),
                index=int(np.sum(eigs < 0.0)),
                degenerate=bool(abs(np.linalg.det(hess)) < _REFINE_TOLERANCE),
                converged=conv,
                grad_norm=gn,
            )
        )
    return out


def _loglog_fit(x, y) -> tuple[float, float]:
    """Least-squares slope of log y against log x (at least three points)
    and its standard error."""
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    var = float(np.sum(resid**2) / (lx.size - 2) / np.sum((lx - lx.mean()) ** 2))
    return float(slope), float(np.sqrt(var))


@dataclass(frozen=True)
class DecayFit:
    slope: float
    stderr: float
    n_used: int
    times: np.ndarray = field(repr=False)
    amplitudes: np.ndarray = field(repr=False)


def decay_exponent(
    g: DispersionGrid,
    f: np.ndarray | float,
    t_min: float,
    t_max: float,
    samples: int = 40,
) -> DecayFit:
    """Fit the power-law decay of phi(t) = M^-3 sum_k f(k) exp(-i t omega(k)).

    phi depends on k only through omega(k), so f is first summed over each
    energy level of the grid and phi(t) is a sum over the distinct energies.
    Least squares of log|phi| against log t over log-spaced sample times.
    Sample times whose amplitude sits below the numerical noise floor are
    excluded; fewer than five usable points is a fit error.  The grid must
    resolve the fastest phase: t_max * max|grad omega| / M below one full
    cycle (2 pi), otherwise the oscillatory sum aliases.
    """
    if not (0.0 < t_min < t_max):
        raise ConfigError("need 0 < t_min < t_max")
    if samples < 5:
        raise ConfigError("need at least 5 sample times")
    phase_per_cell = t_max * g.max_group_speed / g.M
    if phase_per_cell >= TWO_PI:
        raise ConfigError(
            f"aliasing guard failed: t_max*max|grad omega|/M = {phase_per_cell:.3f} rad "
            f">= 2 pi; increase M or reduce t_max"
        )
    weights = np.broadcast_to(np.asarray(f, dtype=np.float64), g.omega.shape)
    fw = weights.reshape(-1)
    levels = g.levels
    f_level = np.bincount(levels.inverse, weights=fw, minlength=levels.omega.size)
    ts = np.logspace(np.log10(t_min), np.log10(t_max), samples)
    phi = np.array([np.sum(f_level * np.exp(-1j * t * levels.omega))
                    for t in ts]) / g.n_points
    amp = np.abs(phi)

    floor = 1e-12 * float(np.mean(np.abs(fw)))
    usable = amp > floor
    n_used = int(np.sum(usable))
    if n_used < 5:
        raise FitError(f"only {n_used} sample times above the noise floor")
    slope, stderr = _loglog_fit(ts[usable], amp[usable])
    return DecayFit(
        slope=slope,
        stderr=stderr,
        n_used=n_used,
        times=ts,
        amplitudes=amp,
    )


@dataclass(frozen=True)
class CrossingEstimate:
    value: float
    stderr: float
    beta: float
    n_samples: int


def crossing_integral_estimate(
    c: Couplings,
    alpha: tuple[float, float, float],
    beta: float,
    signs: tuple[int, int, int],
    u: tuple[float, float, float],
    n_samples: int,
    seed: int,
) -> CrossingEstimate:
    """Monte Carlo estimate of the three-denominator resolvent integral.

    Integrand over (k1, k2) uniform on the torus squared, with k3 = k1 - k2 + u:
    prod_j 1 / |alpha_j - sign_j * omega(k_j) + i beta|.  At beta = 1 every
    factor is at most one, so the estimate cannot exceed one.
    """
    if beta <= 0.0:
        raise ConfigError("beta must be positive")
    if n_samples < 100:
        raise ConfigError("n_samples too small for a meaningful estimate")
    rng = np.random.default_rng(seed)
    k1 = rng.random((n_samples, 3))
    k2 = rng.random((n_samples, 3))
    k3 = k1 - k2 + np.asarray(u, dtype=np.float64)
    vals = np.ones(n_samples)
    for kj, aj, sj in zip((k1, k2, k3), alpha, signs):
        wj = c.omega(kj)
        vals /= np.abs(aj - sj * wj + 1j * beta)
    est = Estimates.of([vals], 1.0)
    return CrossingEstimate(
        value=float(est.mean[0].real),
        stderr=float(est.stderr_re[0]),
        beta=float(beta),
        n_samples=n_samples,
    )


def crossing_sweep(
    c: Couplings,
    alpha: tuple[float, float, float],
    signs: tuple[int, int, int],
    u: tuple[float, float, float],
    betas: tuple[float, ...],
    n_samples: int,
    seed: int,
) -> tuple[list[CrossingEstimate], float, float]:
    """Estimate the integral over a beta ladder and fit the log-log growth exponent.

    Returns (estimates, exponent, exponent_stderr).  An exponent above -1
    means the integral grows strictly slower than 1/beta.
    """
    if len(betas) < 3:
        raise ConfigError("need at least 3 beta values to fit an exponent")
    ests = [
        crossing_integral_estimate(c, alpha, b, signs, u, n_samples, seed + i)
        for i, b in enumerate(betas)
    ]
    slope, stderr = _loglog_fit([e.beta for e in ests], [e.value for e in ests])
    return ests, slope, stderr
