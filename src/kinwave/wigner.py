"""Wigner-type observables of lattice wave fields and their disorder averages.

The two-point observable of the + wave component at macroscopic wavenumber p
and lattice shift n is

    F(p, n) = sum_y conj(psi_{y-n}) psi_y exp(-i 2 pi eps p.(y - n/2)),

with sites y re-centred to signed coordinates.  F(0, 0) is the component norm
sum |psi|^2 and dominates every other value in modulus; F is Hermitian under
(p, n) -> (-p, -n).  Disorder averages of F at the kinetically scaled time
t_bar/eps are what converge to the transport prediction as eps -> 0.

Each realization draws one disorder field and propagates, exactly to
t_bar/eps and in one stacked recurrence (lattice.propagate), the
states it measures.  Both start from the same disorder-free displacement
q0: the rescaled state inverts the disordered wave map exactly, the direct
state keeps the substitution data (q0, v0).  Each state is mapped to psi
once.  The rescaled state gives the row of F values (one shift product per
distinct n) and the norm sum |psi|^2; when the run has a test function f,
the direct state, propagated only then, gives the energy pairing
sum conj(f(eps y)) e_y with the site energy density e_y = 2 |psi_y|^2.
"""

from __future__ import annotations

import math
import numbers
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dispersion import TWO_PI, Couplings
from .errors import ConfigError, StabilityError
from .estimates import Estimates
from .initial import PointSource, WKBPacket
from .lattice import (
    DisorderField,
    LatticeState,
    check_mass_positivity,
    from_wavefunction,
    macro_grid,
    point_state,
    propagate,
    sample_disorder,
    signed_axis,
    to_wavefunction,
    wkb_state,
)

__all__ = [
    "Observable",
    "RunConfig",
    "WignerResult",
    "f_transform",
    "f_row",
    "disorder_average",
    "energy_density_pairing",
    "initial_wavefunction",
]


@dataclass(frozen=True)
class Observable:
    """One (p, n) mode: macroscopic wavenumber p, integer lattice shift n.
    Its JSON form is the pair [p, n].  p must be finite and n integral; an
    integral float such as 1.0 is stored as the int 1, and 1.9 is refused,
    not truncated."""

    p: tuple[float, float, float]
    n: tuple[int, int, int]

    def __post_init__(self):
        if len(self.p) != 3 or len(self.n) != 3:
            raise ConfigError("p and n must be 3-vectors")
        p = tuple(_real(x, "wavenumber") for x in self.p)
        if not all(math.isfinite(x) for x in p):
            raise ConfigError(f"wavenumber {self.p} is not finite")
        n = tuple(_real(x, "shift") for x in self.n)
        if not all(x.is_integer() for x in n):
            raise ConfigError(f"shift {self.n} is not an integer vector")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", tuple(int(x) for x in n))

    def check_shift(self, L: int) -> None:
        """Refuse a shift longer than half the box L, which F cannot resolve."""
        if any(abs(x) > L // 2 for x in self.n):
            raise ConfigError(f"shift {self.n} exceeds half the box size {L // 2}")

    def to_obj(self) -> list:
        return [list(self.p), list(self.n)]

    @staticmethod
    def from_obj(pair) -> "Observable":
        return Observable(p=tuple(pair[0]), n=tuple(pair[1]))


def _real(x, what: str) -> float:
    if not isinstance(x, numbers.Real):
        raise ConfigError(f"{what} component {x!r} is not a real number")
    return float(x)


def _shift_product(psi_plus: np.ndarray, n: tuple[int, int, int]) -> np.ndarray:
    """conj(psi_{y-n}) psi_y on the periodic box."""
    w = np.roll(psi_plus, shift=n, axis=(0, 1, 2))
    np.conjugate(w, out=w)
    w *= psi_plus
    return w


def _contract(w: np.ndarray, eps: float, obs: Observable) -> complex:
    """sum_y w_y exp(-i 2 pi eps p.(y - n/2)) for the shift product w of
    obs.n: the plane wave factors by axis, so the sum is three matrix-vector
    products, last axis first."""
    s = signed_axis(w.shape[0])
    u = [np.exp(-1j * TWO_PI * eps * obs.p[axis] * (s - obs.n[axis] / 2.0))
         for axis in range(3)]
    return complex(w @ u[2] @ u[1] @ u[0])


def f_transform(psi_plus: np.ndarray, eps: float, obs: Observable) -> complex:
    """Evaluate F(p, n) for one wave field on the periodic box."""
    obs.check_shift(psi_plus.shape[0])
    return _contract(_shift_product(psi_plus, obs.n), eps, obs)


def f_row(psi_plus: np.ndarray, eps: float, observables) -> np.ndarray:
    """F at every observable, equal to one f_transform call each: the shift
    product of each distinct n is formed once and contracted for every p
    that shares it."""
    row = np.empty(len(observables), dtype=np.complex128)
    by_shift: dict[tuple, list[int]] = {}
    for i, obs in enumerate(observables):
        obs.check_shift(psi_plus.shape[0])
        by_shift.setdefault(obs.n, []).append(i)
    for n, members in by_shift.items():
        w = _shift_product(psi_plus, n)
        for i in members:
            row[i] = _contract(w, eps, observables[i])
    return row


@dataclass(frozen=True)
class RunConfig:
    """Disorder-averaged run: propagate realizations exactly to time t_bar/eps,
    then measure."""

    couplings: Couplings
    L: int
    eps: float
    t_bar: float
    distribution: str
    realizations: int
    initial: WKBPacket | PointSource
    seed: int
    workers: int = 1
    pairing: object | None = None   # optional test function f(x) for energy pairing
    # the state that F and the norm are measured on, not settable: each
    # realization inverts the disordered wave map exactly, so F(0,0) is
    # pinned to the wave norm.  The energy pairing is measured on the direct
    # state, whose pairing carries the O(sqrt(eps)) conversion error of the
    # substitution data.
    convention: str = field(default="rescaled", init=False)

    def __post_init__(self):
        if self.realizations < 2:
            raise ConfigError("need at least 2 disorder realizations")
        if self.t_bar < 0.0:
            raise ConfigError("t_bar must be nonnegative")
        if self.eps <= 0.0:
            raise ConfigError("eps must be positive")
        check_mass_positivity(self.distribution, self.eps)
        if self.workers > 1 and self.pairing is not None:
            # the pool pickles each task; refuse here rather than inside it
            try:
                pickle.dumps(self.pairing)
            except (pickle.PicklingError, AttributeError, TypeError) as err:
                raise ConfigError(
                    f"pairing cannot be sent to {self.workers} worker processes: {err}"
                ) from None


@dataclass(frozen=True)
class WignerResult:
    estimates: Estimates
    n_dropped: int
    bound_ok: bool                 # |F(p,n)| <= F(0,0) held on every kept realization
    max_bound_excess: float        # worst relative excess observed (<= fp noise when ok)
    norm_mean: float               # mean component norm F(0,0) across realizations
    # <f, energy density> at t_bar/eps per kept realization, for a run with a
    # test function f; None without one
    pairing_t: np.ndarray | None = None


def initial_wavefunction(initial: WKBPacket | PointSource, L: int, eps: float) -> np.ndarray:
    if isinstance(initial, WKBPacket):
        return wkb_state(L, eps, initial.envelope, initial.phase)
    if isinstance(initial, PointSource):
        return point_state(L, eps, initial.as_dict())
    raise ConfigError(f"unknown initial data spec {type(initial).__name__}")


def _pairing_weights(f, L: int, eps: float) -> np.ndarray:
    """2 conj(f(eps y)) on the box: paired with |psi|^2 it gives
    <f, energy density>, since the site energy density is 2 |psi_y|^2."""
    return 2.0 * np.conj(np.asarray(f(macro_grid(L, eps))))


def _paired(weights: np.ndarray, density: np.ndarray):
    """sum weights * density; real for a real test function."""
    out = np.sum(weights * density)
    return float(out.real) if np.isrealobj(weights) else complex(out)


def _one_realization(args) -> tuple:
    config, observables, state0_q, v_base, weights, r = args
    field_r = sample_disorder(config.L, config.distribution, seed=(config.seed, r))
    # the rescaled chain inverts the disordered wave map exactly, so it
    # evolves the given wave data itself and F(0,0) stays pinned to its norm
    # on every realization; with a pairing, the direct chain starts from the
    # substitution data (q0, v_base) in the same stacked propagation
    rescaled = (1.0 + np.sqrt(config.eps) * field_r.xi) * v_base
    velocities = [rescaled] if weights is None else [v_base, rescaled]
    states = propagate(state0_q, velocities, field_r, config.eps,
                       config.couplings, config.t_bar / config.eps)
    psi_t = to_wavefunction(states[-1], field_r, config.eps, config.couplings)
    row = f_row(psi_t, config.eps, observables)
    density = np.abs(psi_t) ** 2
    norm = float(np.sum(density))
    if weights is None:
        return row, norm, None
    # free this field before the direct state is mapped
    del psi_t, density
    density = np.abs(to_wavefunction(states[0], field_r, config.eps, config.couplings)) ** 2
    return row, norm, _paired(weights, density)


def disorder_average(config: RunConfig, observables: list[Observable]) -> WignerResult:
    """Average F over independent disorder realizations.

    The observable list must not be empty.  A realization's F row and norm
    come from the rescaled state, and its pairing from the direct state of
    the same disorder draw.
    Realizations stream through one at a time (serial mode is bitwise
    reproducible); a blown-up realization is dropped with a warning, and more
    than 5% drops fail the whole run with a StabilityError.  With workers > 1
    the realizations are farmed to a process pool and reduced in index order,
    so the estimates do not depend on the worker count.
    """
    if not observables:
        raise ConfigError("need at least one observable")
    psi_eps = initial_wavefunction(config.initial, config.L, config.eps)
    # q and the unscaled v are disorder-free; each realization then rescales
    # v by (1 + sqrt(eps) xi) so its wave variables start at psi_eps exactly
    state0 = from_wavefunction(psi_eps, config.couplings)
    weights = (None if config.pairing is None
               else _pairing_weights(config.pairing, config.L, config.eps))

    tasks = [
        (config, observables, state0.q, state0.v, weights, r)
        for r in range(config.realizations)
    ]
    rows: list[np.ndarray] = []
    norms: list[float] = []
    pair_t: list[float] = []
    n_dropped = 0

    def consume(outcome) -> None:
        nonlocal n_dropped
        if isinstance(outcome, StabilityError):
            n_dropped += 1
            warnings.warn(f"dropped realization: {outcome}", stacklevel=2)
            return
        row, norm, pt = outcome
        rows.append(row)
        norms.append(norm)
        if pt is not None:
            pair_t.append(pt)

    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            for outcome in pool.map(_guarded_realization, tasks):
                consume(outcome)
    else:
        for task in tasks:
            consume(_guarded_realization(task))

    if n_dropped > 0.05 * config.realizations:
        raise StabilityError(
            f"{n_dropped}/{config.realizations} realizations dropped; run failed"
        )
    data = np.array(rows)                      # (R, n_obs)
    norm_arr = np.array(norms)

    # |F(p,n)| <= F(0,0) must hold realization by realization
    excess = (np.abs(data) - norm_arr[:, None]) / norm_arr[:, None]
    max_excess = float(excess.max())
    bound_ok = max_excess <= 1e-12

    return WignerResult(
        estimates=Estimates.of(data.T, 1.0),
        n_dropped=n_dropped,
        bound_ok=bound_ok,
        max_bound_excess=max_excess,
        norm_mean=float(norm_arr.mean()),
        pairing_t=np.array(pair_t) if pair_t else None,
    )


def _guarded_realization(task):
    try:
        return _one_realization(task)
    except StabilityError as err:
        return err


def energy_density_pairing(
    state: LatticeState,
    disorder: DisorderField,
    eps: float,
    c: Couplings,
    f,
) -> float:
    """<f, energy density> = sum_y conj(f(eps y)) e_y with the site density
    e_y = ((1+sqrt(eps) xi)^-2 v^2 + (Omega q)^2) / 2, which is 2 |psi_y|^2
    for the wave variable psi of the state."""
    psi = to_wavefunction(state, disorder, eps, c)
    return _paired(_pairing_weights(f, state.L, eps), np.abs(psi) ** 2)
