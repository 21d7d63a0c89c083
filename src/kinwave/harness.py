"""End-to-end experiments and the acceptance battery.

Three experiments compare the microscopic disordered lattice against its
limiting transport description on a shrinking-epsilon ladder:

  * run_convergence: disorder-averaged wave observables F(p, n) at time
    t_bar/eps versus the characteristic function of the jump process at t_bar,
    summarized by err(eps) = max over observables of |gap| / reference mass.
  * free_flight_check: with disorder off, a semiclassical packet must drift at
    the group velocity grad omega(k0) / 2 pi, independently of eps.
  * energy_transport_check: the spatial energy density paired with a fixed
    Gaussian test function versus the position marginal of the transport
    ensemble, plus an exact evaluation of the initial-data substitution gap.

run_study runs the two ladder experiments of one StudyConfig in order, the
transport ladder on the convergence study's Boltzmann reference; it is the
one way the package runs them, and the one writer of a study directory.
Both ladders share one set of disorder draws: each realization of a rung
propagates, in one stacked recurrence and exactly to t_bar/eps (no time
step), the rescaled state, measured for F(p, n) and the wave norm, and the
state started from the substitution data, measured for the energy pairing.

The convergence experiment tests a limit with no attached rate, so acceptance
is monotone decrease along the ladder plus a final-rung ceiling.  Each stage
persists a JSON artifact keyed by the config hash, and a rerun with the same
config resumes from whatever artifacts already exist.

The module also houses the acceptance battery: criterion_1 .. criterion_11
are self-contained runners with frozen parameters, listed in
CRITERION_RUNNERS; criterion_12 and criterion_13 judge the reports of one
study.  run_acceptance executes all thirteen and writes one machine-readable
summary with a pass/fail verdict per criterion.
"""

from __future__ import annotations

import math
import numbers
import time as _time
import warnings
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import io
from .dispersion import (
    TWO_PI,
    Couplings,
    DispersionGrid,
    build_dispersion,
    couplings_nn,
    decay_exponent,
    find_critical_points,
)
from .errors import ConfigError, StabilityError
from .initial import PointSource, WKBPacket, initial_from_obj, squared_radius
from .kinetic import (
    build_collision_table,
    characteristic_function,
    default_beta,
    detailed_balance_residual,
    dyson_characteristic,
    k_simplex,
    sample_initial,
    sample_jump,
    simulate,
    theta_plus,
)
from .lattice import (
    DisorderField,
    check_mass_positivity,
    energy,
    evolve,
    evolve_free_spectral,
    free_phase,
    from_wavefunction,
    macro_grid,
    sample_disorder,
    signed_axis,
    to_wavefunction,
    wavefunction_norm_squared,
    wkb_state,
)
from .moments import (
    check_cumulant_bound,
    cumulants_of,
    enumerate_partitions,
    verify_moment_mc,
)
from .wigner import (
    Observable,
    RunConfig,
    disorder_average,
    initial_wavefunction,
)

__all__ = [
    "StudyConfig",
    "DEFAULT_STUDY",
    "EpsilonRung",
    "ConvergenceReport",
    "FreeFlightReport",
    "TransportReport",
    "CrosscheckReport",
    "CriterionResult",
    "gaussian_bump",
    "mean_inverse_mass_sq",
    "substitution_gap_exact",
    "free_flight_check",
    "energy_transport_check",
    "run_study",
    "solver_crosscheck",
    "run_acceptance",
    "CRITERION_RUNNERS",
]


def gaussian_bump(x: np.ndarray) -> np.ndarray:
    """The fixed spatial test function of the transport experiments: exp(-|x|^2/2)."""
    return np.exp(-0.5 * squared_radius(x))


# the 12 study observables: |p| <= 2, |n| <= 2, (0,0) included
_P = (
    (0.0, 0.0, 0.0),
    (1.0, 0.0, 0.0),
    (0.0, 1.0, 0.0),
    (2.0, 0.0, 0.0),
    (1.0, 1.0, 0.0),
)
DEFAULT_OBSERVABLES: tuple[Observable, ...] = (
    Observable(_P[0], (0, 0, 0)),
    Observable(_P[1], (0, 0, 0)),
    Observable(_P[2], (0, 0, 0)),
    Observable(_P[3], (0, 0, 0)),
    Observable(_P[4], (0, 0, 0)),
    Observable(_P[0], (1, 0, 0)),
    Observable(_P[0], (0, 1, 0)),
    Observable(_P[0], (1, 1, 0)),
    Observable(_P[1], (1, 0, 0)),
    Observable(_P[1], (0, 1, 0)),
    Observable(_P[2], (1, 0, 0)),
    Observable(_P[0], (2, 0, 0)),
)


@dataclass(frozen=True)
class StudyConfig:
    """Full specification of one convergence study.

    The observable set is an experimental design choice recorded here; the
    kinetic limit holds per observable, so err(eps) carries no sup-norm claim.
    """

    couplings: Couplings
    epsilons: tuple[float, ...] = (0.5, 0.25, 0.125)
    box_sizes: tuple[int, ...] = (64, 64, 64)
    t_bar: float = 0.5
    realizations: int = 100
    distribution: str = "rademacher"
    initial: WKBPacket | PointSource = field(
        default_factory=lambda: WKBPacket(k0=(0.125, 0.0, 0.0), sigma=0.5)
    )
    observables: tuple[Observable, ...] = DEFAULT_OBSERVABLES
    M: int = 48
    beta: float = 0.06
    xi2: float = 1.0
    particles: int = 200_000
    m_max: int = 8
    dyson_samples: int = 100_000
    crosscheck_xi2: float = 0.25
    master_seed: int = 7
    workers: int = 1

    def to_obj(self) -> dict:
        """Canonical JSON document (the config hash is taken over this).
        workers is left out: the estimates do not depend on it."""
        obj = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "workers"}
        obj.update(
            couplings=io.couplings_to_obj(self.couplings),
            couplings_tag=self.couplings.tag,
            epsilons=list(self.epsilons),
            box_sizes=list(self.box_sizes),
            initial=self.initial.to_obj(),
            observables=[o.to_obj() for o in self.observables],
            pairing="exp(-|x|^2/2)",
            propagator="chebyshev",
            transport_draws="study",
        )
        return obj

    @classmethod
    def from_obj(cls, doc: dict) -> "StudyConfig":
        """Study from a JSON document in the to_obj form, such as a compare
        config.  Absent fields keep their defaults (couplings: those of
        DEFAULT_STUDY), keys that name no field are ignored, and numbers are
        coerced to each field's type, so 1 and 1.0 give the same config hash.
        An integer field refuses a non-integral number such as 64.5."""
        kwargs = {"couplings": DEFAULT_STUDY.couplings}
        for f in fields(cls):
            if f.name in doc:
                decode = _FIELD_DECODERS.get(
                    f.name, _integral if type(f.default) is int else type(f.default))
                try:
                    kwargs[f.name] = decode(doc[f.name])
                except ConfigError as exc:
                    raise ConfigError(f"{f.name}: {exc}") from None
        return cls(**kwargs)

    def required_box(self, eps: float, max_group_speed: float) -> float:
        """Wrap-around guard: flight distance plus packet extent, x 1.5."""
        flight = (max_group_speed / TWO_PI) * (self.t_bar / eps)
        return 1.5 * (flight + self.initial.diameter / eps)

    def validate(self, max_group_speed: float) -> None:
        if len(self.box_sizes) != len(self.epsilons):
            raise ConfigError("need one box size per epsilon")
        if not self.epsilons:
            raise ConfigError("epsilon ladder is empty")
        if any(e2 >= e1 for e1, e2 in zip(self.epsilons, self.epsilons[1:])):
            raise ConfigError("epsilon ladder must be strictly decreasing")
        for eps in self.epsilons:
            if eps <= 0.0:
                raise ConfigError(f"eps = {eps} must be positive")
            check_mass_positivity(self.distribution, eps)
        if not any(
            all(c == 0.0 for c in o.p) and all(c == 0 for c in o.n)
            for o in self.observables
        ):
            raise ConfigError("observable set must include (0, 0)")
        if self.realizations < 2:
            raise ConfigError("need at least 2 realizations")
        for eps, L in zip(self.epsilons, self.box_sizes):
            need = self.required_box(eps, max_group_speed)
            if L < need:
                raise ConfigError(
                    f"box L = {L} below the wrap-around guard {need:.1f} at eps = {eps}"
                )
            for o in self.observables:
                o.check_shift(L)


DEFAULT_STUDY = StudyConfig(couplings=couplings_nn(1.0))


def _integral(x) -> int:
    """x as an int: an integral float such as 64.0 is taken, 64.5 is refused."""
    if isinstance(x, numbers.Real) and float(x).is_integer():
        return int(x)
    raise ConfigError(f"{x!r} is not an integer")


# from_obj decoders of the fields whose JSON form is not their default's type
_FIELD_DECODERS = {
    "couplings": io.couplings_from_obj,
    "epsilons": lambda v: tuple(float(x) for x in v),
    "box_sizes": lambda v: tuple(_integral(x) for x in v),
    "initial": initial_from_obj,
    "observables": lambda v: tuple(Observable.from_obj(o) for o in v),
}


def _rng(master_seed: int, lane: int) -> np.random.Generator:
    # distinct fixed lanes per pipeline stage, all derived from the master seed
    return np.random.default_rng((master_seed, lane))


_LANE_JUMP = 101
_LANE_DYSON = 202
_LANE_CROSSCHECK = 303


def _eps_seed(master_seed: int, rung_index: int) -> int:
    # integer per-rung stream key; realizations split it further as (seed, r)
    return 1000 * master_seed + rung_index


@dataclass
class EpsilonRung:
    """One microscopic rung of the ladder with its gaps to the reference."""

    eps: float
    L: int
    means: list[complex]
    se_re: list[float]
    se_im: list[float]
    count: int
    n_dropped: int
    bound_ok: bool
    max_bound_excess: float
    norm_mean: float
    # energy pairing of the substitution-data state, mean and standard error
    pairing_t_mean: float
    pairing_t_se: float
    gaps: list[float]
    err: float
    elapsed: float

    def to_obj(self) -> dict:
        return {**asdict(self), "means": _pairs(self.means)}

    @staticmethod
    def from_obj(obj: dict) -> "EpsilonRung":
        kwargs = {f.name: obj[f.name] for f in fields(EpsilonRung)}
        return EpsilonRung(**{**kwargs, "means": _complexes(obj["means"])})


def _pairs(values) -> list[list[float]]:
    """Complex numbers in their JSON form [re, im]."""
    return [[z.real, z.imag] for z in values]


def _complexes(pairs) -> list[complex]:
    return [complex(re, im) for re, im in pairs]


@dataclass
class ConvergenceReport:
    observables: tuple[Observable, ...]
    # the Boltzmann reference as _boltzmann_reference returns it
    reference: dict
    rungs: list[EpsilonRung]

    @property
    def err(self) -> list[float]:
        return [r.err for r in self.rungs]

    @property
    def monotone(self) -> bool:
        e = self.err
        return all(b < a for a, b in zip(e, e[1:]))

    @property
    def final_err(self) -> float:
        return self.rungs[-1].err

    @property
    def bound_ok(self) -> bool:
        return all(r.bound_ok for r in self.rungs)

    def to_obj(self) -> dict:
        return {
            **asdict(self),
            "observables": [o.to_obj() for o in self.observables],
            "rungs": [r.to_obj() for r in self.rungs],
            "err": self.err,
            "monotone": self.monotone,
            "bound_ok": self.bound_ok,
        }


def _load_stage(path: Path, cfg_hash: str):
    """Stage artifact if present, readable and written for this exact config,
    else None.  An unreadable file (say, one cut off by a killed writer) is
    reported and treated as missing, so it is recomputed and overwritten."""
    if not path.exists():
        return None
    try:
        payload = io.read_json(path)
    except (OSError, ValueError) as exc:
        warnings.warn(f"unreadable stage {path} ({exc}); recomputing", stacklevel=2)
        return None
    if not isinstance(payload, dict) or payload.get("config_hash") != cfg_hash:
        return None
    return payload


def _stage(base: Path | None, name: str, meta: dict, resume: bool, compute) -> dict:
    """One persisted stage of a study: with resume, the payload stored in
    base/<name>_<hash12>.json for this config, else compute(), written there
    with the artifact metadata meta.  Without base nothing is read or written."""
    cfg_hash = meta["config_hash"]
    path = base / f"{name}_{cfg_hash[:12]}.json" if base is not None else None
    payload = _load_stage(path, cfg_hash) if (path is not None and resume) else None
    if payload is not None:
        return {k: v for k, v in payload.items() if k not in meta}
    payload = compute()
    if path is not None:
        io.write_json(path, {**payload, **meta})
    return payload


def _boltzmann_reference(cfg: StudyConfig, table) -> dict:
    rng = _rng(cfg.master_seed, _LANE_JUMP)
    ens0 = sample_initial(cfg.initial, cfg.particles, table, rng)
    ens_t, counts = simulate(ens0, table, cfg.t_bar, rng)
    est = characteristic_function(ens_t, cfg.observables)
    pairing_t = 2.0 * float(np.sum(ens_t.weights * gaussian_bump(ens_t.x)))
    return {
        "means": _pairs(est.mean.tolist()),
        "se_re": est.stderr_re.tolist(),
        "se_im": est.stderr_im.tolist(),
        "mass": float(ens_t.weights.sum()),
        "pairing_t": pairing_t,
        "counts_mean": float(counts.mean()),
    }


def _run_rung(cfg: StudyConfig, rung_index: int, ref_means: list[complex],
              ref_mass: float) -> EpsilonRung:
    """One rung of both ladders: F and the norm of the rescaled states, and
    the energy pairing of the substitution-data states, on the same draws."""
    t0 = _time.perf_counter()
    run = RunConfig(
        couplings=cfg.couplings,
        L=cfg.box_sizes[rung_index],
        eps=cfg.epsilons[rung_index],
        t_bar=cfg.t_bar,
        distribution=cfg.distribution,
        realizations=cfg.realizations,
        initial=cfg.initial,
        seed=_eps_seed(cfg.master_seed, rung_index),
        workers=cfg.workers,
        pairing=gaussian_bump,
    )
    result = disorder_average(run, list(cfg.observables))
    est = result.estimates
    pair_t = result.pairing_t
    means = est.mean.tolist()
    gaps = [abs(m - r) for m, r in zip(means, ref_means)]
    return EpsilonRung(
        eps=run.eps,
        L=run.L,
        means=means,
        se_re=est.stderr_re.tolist(),
        se_im=est.stderr_im.tolist(),
        count=est.count,
        n_dropped=result.n_dropped,
        bound_ok=result.bound_ok,
        max_bound_excess=result.max_bound_excess,
        norm_mean=result.norm_mean,
        pairing_t_mean=float(pair_t.mean()),
        pairing_t_se=float(pair_t.std(ddof=1) / np.sqrt(pair_t.size)),
        gaps=gaps,
        err=max(gaps) / ref_mass,
        elapsed=_time.perf_counter() - t0,
    )


def run_convergence(cfg: StudyConfig, grid: DispersionGrid, meta: dict,
                    base: Path | None = None, resume: bool = True) -> ConvergenceReport:
    """run_study's own ladder stage, named for the benchmark trace; stages persist in base."""
    # the table, and the sampler envelope cached on it, lives only inside this
    # stage, so it is freed before the lattice rungs run
    ref = _stage(base, "reference", meta, resume, lambda: _boltzmann_reference(
        cfg, build_collision_table(grid, beta=cfg.beta, xi2=cfg.xi2)))
    ref_means = _complexes(ref["means"])
    rungs = [
        EpsilonRung.from_obj(_stage(
            base, f"rung_{i}", meta, resume,
            lambda i=i: _run_rung(cfg, i, ref_means, ref["mass"]).to_obj()))
        for i in range(len(cfg.epsilons))
    ]

    return ConvergenceReport(observables=cfg.observables, reference=ref, rungs=rungs)


# ---------------------------------------------------------------------------
# free flight


@dataclass
class FreeFlightReport:
    k0: list[float]
    target_velocity: list[float]
    epsilons: list[float]
    sigmas: list[float]
    velocities: list[list[float]]
    rel_errors: list[float]
    cross_eps_gap: float
    critical_speed: float | None

    def passed(self, tol: float = 0.05) -> bool:
        ok = all(e <= tol for e in self.rel_errors) and self.cross_eps_gap <= tol
        if self.critical_speed is not None:
            ok = ok and self.critical_speed <= tol * float(
                np.linalg.norm(self.target_velocity)
            )
        return ok

    def to_obj(self) -> dict:
        return asdict(self)


def _centroid(psi: np.ndarray, eps: float) -> np.ndarray:
    """Energy-density centroid in macroscopic coordinates: the positions eps y
    weighted by the clean-lattice site energy density 2 |psi_y|^2 (the 2
    cancels), summed axis by axis over the density's marginals."""
    density = np.abs(psi) ** 2
    s = eps * signed_axis(psi.shape[0])
    marginals = (density.sum(axis=(1, 2)), density.sum(axis=(0, 2)),
                 density.sum(axis=(0, 1)))
    return np.array([s @ m for m in marginals]) / np.sum(density)


def _packet_velocity(c: Couplings, packet: WKBPacket, eps: float, L: int,
                     t_macro: float, n_samples: int) -> np.ndarray:
    """Least-squares drift of the centroid over n_samples + 1 equally spaced
    macro times in [0, t_macro], with psi(t) = ifftn(exp(-i omega t) fftn(psi0))."""
    psi0 = wkb_state(L, eps, packet.envelope, packet.phase)
    psi0_hat = np.fft.fftn(psi0)
    half = eps * L / 2.0
    times = np.linspace(0.0, t_macro, n_samples + 1)
    cents = []
    for tm in times:
        psi = np.fft.ifftn(free_phase(c, L, tm / eps) * psi0_hat) if tm > 0.0 else psi0
        cent = _centroid(psi, eps)
        if np.max(np.abs(cent)) + 3.0 * packet.sigma > half:
            raise StabilityError(
                f"packet left the safe box at macro time {tm:.3g} (eps = {eps})"
            )
        cents.append(cent)
    cents = np.array(cents)
    # least-squares slope per component: velocity in macro units
    fit = np.polynomial.polynomial.polyfit(times, cents, 1)
    return fit[1]


def free_flight_check(
    c: Couplings | None = None,
    k0: tuple[float, float, float] = (0.125, 0.0, 0.0),
    sigmas: tuple[float, ...] = (1.25, 0.9),
    epsilons: tuple[float, ...] = (0.25, 0.125),
    L: int = 64,
    t_macro: float = 1.5,
    n_samples: int = 4,
    check_critical: bool = True,
) -> FreeFlightReport:
    """Clean-lattice packet transport versus the group velocity at the carrier.

    The centroid of a dispersing packet moves at the mean group velocity over
    its k-spectrum, which differs from the carrier value by O((eps/sigma)^2).
    Each rung therefore gets its own envelope width, chosen so that the
    spectral-width bias sits well inside the tolerance while the packet plus
    its drift still fits the periodic box.

    The clean evolution is exact in Fourier space: each packet is transformed
    once, each sample time costs one inverse transform, and the centroid is
    taken from |psi(t)|^2 directly.
    """
    if c is None:
        c = couplings_nn(1.0)
    if len(sigmas) != len(epsilons):
        raise ConfigError("need one envelope width per epsilon")
    target = c.grad_omega(np.asarray(k0, dtype=np.float64)) / TWO_PI
    speed = float(np.linalg.norm(target))
    vels = []
    rels = []
    for eps, sigma in zip(epsilons, sigmas):
        packet = WKBPacket(k0=k0, sigma=sigma)
        v = _packet_velocity(c, packet, eps, L, t_macro, n_samples)
        vels.append([float(x) for x in v])
        rels.append(float(np.linalg.norm(v - target)) / speed)
    cross = max(
        float(np.linalg.norm(np.array(a) - np.array(b))) / speed
        for a in vels for b in vels
    )
    critical_speed = None
    if check_critical:
        # at a critical carrier the packet must not drift: omega_nn peaks at (1/2,1/2,1/2)
        kc = (0.5, 0.5, 0.5)
        vc = _packet_velocity(c, WKBPacket(k0=kc, sigma=sigmas[0]), 0.25, 32,
                              t_macro, n_samples)
        critical_speed = float(np.linalg.norm(vc))
    return FreeFlightReport(
        k0=list(k0),
        target_velocity=[float(x) for x in target],
        epsilons=list(epsilons),
        sigmas=list(sigmas),
        velocities=vels,
        rel_errors=rels,
        cross_eps_gap=cross,
        critical_speed=critical_speed,
    )


# ---------------------------------------------------------------------------
# energy transport


def mean_inverse_mass_sq(distribution: str, eps: float) -> float:
    """E[(1 + sqrt(eps) xi)^-2] in closed form."""
    check_mass_positivity(distribution, eps)
    if distribution == "rademacher":
        return (1.0 + eps) / (1.0 - eps) ** 2
    # uniform, the only other law the check admits:
    # (2 sqrt(3 eps))^-1 * [ (1-sqrt(3 eps))^-1 - (1+sqrt(3 eps))^-1 ]
    return 1.0 / (1.0 - 3.0 * eps)


def substitution_gap_exact(
    initial: WKBPacket | PointSource,
    c: Couplings,
    L: int,
    eps: float,
    distribution: str,
    f=gaussian_bump,
) -> tuple[float, float]:
    """Exact disorder mean of the time-zero energy pairing gap.

    The disorder-independent data (q0, v0) = (Omega^-1 2 Re psi, 2 Im psi)
    make the energy density differ from the wave density only through the
    kinetic factor (1 + sqrt(eps) xi)^-2 multiplying v0^2/2, so the expected
    gap is (E[(1+sqrt(eps) xi)^-2] - 1) * 2 sum_y f(eps y) (Im psi_y)^2 with
    no sampling involved.  Returns (gap, reference) with reference the exact
    wave-side pairing 2 sum_y f(eps y) |psi_y|^2.
    """
    psi = initial_wavefunction(initial, L, eps)
    fv = np.asarray(f(macro_grid(L, eps)), dtype=np.float64)
    offset = mean_inverse_mass_sq(distribution, eps) - 1.0
    gap = offset * 2.0 * float(np.sum(fv * psi.imag**2))
    reference = 2.0 * float(np.sum(fv * np.abs(psi) ** 2))
    return gap, reference


@dataclass
class TransportReport:
    epsilons: list[float]
    micro_t: list[float]
    micro_t_se: list[float]
    ref_t: float
    gaps_t: list[float]
    monotone_t: bool
    gap0: list[float]
    gap0_reference: list[float]
    gap0_adjacent_ratios: list[float]
    gap0_overall_ratio: float
    ratio_window: list[float]
    overall_in_window: bool
    monotone_0: bool

    def passed(self) -> bool:
        """Transport gap shrinks along the ladder and the substitution gap
        decays at least at the square-root rate the initial-data bound allows
        (overall ratio >= window low end; faster decay cannot fail the bound)."""
        return (
            self.monotone_t
            and self.monotone_0
            and self.gap0_overall_ratio >= self.ratio_window[0]
        )

    def to_obj(self) -> dict:
        return asdict(self)


def energy_transport_check(cfg: StudyConfig, report: ConvergenceReport) -> TransportReport:
    """Energy-density pairing versus the transport position marginal of the
    study report's Boltzmann reference.

    The microscopic side is the pairing that each rung of the report
    measured on the substitution ("direct") initial data: each realization
    starts from the disorder-free (q0, v0), which is the conversion whose
    initial error the square-root bound controls, in the disorder draw of
    the rung's convergence realization.
    """
    ref_t = report.reference["pairing_t"]
    micro_t = [r.pairing_t_mean for r in report.rungs]
    micro_se = [r.pairing_t_se for r in report.rungs]
    gaps_t = [abs(m - ref_t) for m in micro_t]
    gap0 = []
    ref0 = []
    for eps, L in zip(cfg.epsilons, cfg.box_sizes):
        g, b = substitution_gap_exact(cfg.initial, cfg.couplings, L, eps,
                                      cfg.distribution)
        gap0.append(g)
        ref0.append(b)
    adj = [a / b for a, b in zip(gap0, gap0[1:])]
    window = [1.6, 2.4]
    overall = gap0[0] / gap0[-1]
    return TransportReport(
        epsilons=list(cfg.epsilons),
        micro_t=micro_t,
        micro_t_se=micro_se,
        ref_t=ref_t,
        gaps_t=gaps_t,
        monotone_t=all(b < a for a, b in zip(gaps_t, gaps_t[1:])),
        gap0=gap0,
        gap0_reference=ref0,
        gap0_adjacent_ratios=adj,
        gap0_overall_ratio=overall,
        ratio_window=window,
        overall_in_window=window[0] <= overall <= window[1],
        monotone_0=all(b < a for a, b in zip(gap0, gap0[1:])),
    )


def run_study(cfg: StudyConfig, out_dir: str | Path | None = None,
              resume: bool = True) -> tuple[ConvergenceReport, TransportReport]:
    """The convergence ladder, whose rungs also measure the energy pairings
    of the substitution data, then the transport report on its reference.

    cfg is validated before anything is written.  With out_dir set, run_study
    writes study.json, the stages (read back with resume), report.json, the
    estimate CSVs, transport_<i>_<hash12>.json and summary.json there, each
    JSON file under the one triple computed here."""
    grid = build_dispersion(cfg.couplings, cfg.M)
    cfg.validate(grid.max_group_speed)
    obj = cfg.to_obj()
    meta = io.artifact_metadata(obj, cfg.master_seed)
    base = Path(out_dir) if out_dir is not None else None
    if base is not None:
        io.write_json(base / "study.json", {"config": obj, **meta})
    report = run_convergence(cfg, grid, meta, base, resume)
    transport = energy_transport_check(cfg, report)
    if base is not None:
        io.write_json(base / "report.json", {**report.to_obj(), **meta})
        ref = report.reference
        io.write_estimates_csv(base / "reference.csv", cfg.observables,
                               _complexes(ref["means"]), ref["se_re"], ref["se_im"],
                               cfg.particles)
        for i, r in enumerate(report.rungs):
            io.write_estimates_csv(base / f"estimates_eps_{r.eps}.csv", cfg.observables,
                                   r.means, r.se_re, r.se_im, r.count)
            io.write_json(base / f"transport_{i}_{meta['config_hash'][:12]}.json", {
                "eps": r.eps, "L": r.L, "pairing_t_mean": r.pairing_t_mean,
                "pairing_t_se": r.pairing_t_se, "count": r.count, **meta})
        io.write_json(base / "summary.json", {
            "err": {str(eps): e for eps, e in zip(cfg.epsilons, report.err)},
            "monotone": report.monotone,
            "final_err": report.final_err,
            "bound_ok": report.bound_ok,
            "transport": transport.to_obj(),
            **meta,
        })
    return report, transport


# ---------------------------------------------------------------------------
# solver cross-validation


@dataclass
class CrosscheckReport:
    observables: tuple[Observable, ...]
    jump_means: list[complex]
    dyson_means: list[complex]
    combined_se: list[float]
    z_scores: list[float]
    worst_z: float
    tail_bound: float
    counts_mean: float

    def passed(self, z_max: float = 3.0) -> bool:
        return self.worst_z <= z_max

    def to_obj(self) -> dict:
        return {
            **asdict(self),
            "observables": [o.to_obj() for o in self.observables],
            "jump_means": _pairs(self.jump_means),
            "dyson_means": _pairs(self.dyson_means),
        }


def solver_crosscheck(cfg: StudyConfig = DEFAULT_STUDY) -> CrosscheckReport:
    """Jump-process and collision-expansion solvers on one shared kernel.

    Runs at the reduced second moment cfg.crosscheck_xi2 so the expansion
    converges fast, and scores each observable by the gap left after the
    expansion's truncation allowance: the series stops at m_max by design,
    so the computed bound on the missing orders enters the error budget as a
    systematic alongside the statistical spread.
    """
    grid = build_dispersion(cfg.couplings, cfg.M)
    table = build_collision_table(grid, beta=cfg.beta, xi2=cfg.crosscheck_xi2)
    rng = _rng(cfg.master_seed, _LANE_CROSSCHECK)
    ens0 = sample_initial(cfg.initial, cfg.particles, table, rng)
    ens_t, counts = simulate(ens0, table, cfg.t_bar, rng)
    jump = characteristic_function(ens_t, cfg.observables)
    dyson, tail = dyson_characteristic(
        cfg.initial, table, cfg.t_bar, cfg.observables,
        m_max=cfg.m_max, n_mc=cfg.dyson_samples,
        rng=_rng(cfg.master_seed, _LANE_DYSON),
    )
    # Python numbers per observable, as the report's lists hold them
    jump_means, dyson_means = jump.mean.tolist(), dyson.mean.tolist()
    combined = [
        float(np.sqrt(jr**2 + ji**2 + dr**2 + di**2))
        for jr, ji, dr, di in zip(jump.stderr_re.tolist(), jump.stderr_im.tolist(),
                                  dyson.stderr_re.tolist(), dyson.stderr_im.tolist())
    ]
    z = [
        max(0.0, abs(j - d) - tail) / se
        for j, d, se in zip(jump_means, dyson_means, combined)
    ]
    return CrosscheckReport(
        observables=cfg.observables,
        jump_means=jump_means,
        dyson_means=dyson_means,
        combined_se=combined,
        z_scores=z,
        worst_z=max(z),
        tail_bound=tail,
        counts_mean=float(counts.mean()),
    )


# ---------------------------------------------------------------------------
# acceptance battery


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    detail: dict

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.cid:2d} [{status}] {self.name}"


def criterion_1() -> CriterionResult:
    """Wave norm equals the energy at every snapshot of a disordered run."""
    c = couplings_nn(1.0)
    L, eps = 32, 0.25
    disorder = sample_disorder(L, "uniform", seed=11)
    packet = WKBPacket(k0=(0.125, 0.0, 0.0), sigma=0.5)
    psi0 = wkb_state(L, eps, packet.envelope, packet.phase)
    state = from_wavefunction(psi0, c, disorder, eps)
    worst = 0.0
    for _ in range(10):
        state = evolve(state, disorder, eps, c, t_final=0.5)
        e = energy(state, disorder, eps, c)
        norm = wavefunction_norm_squared(to_wavefunction(state, disorder, eps, c))
        worst = max(worst, abs(norm - e) / e)
    return CriterionResult(1, "norm-energy identity", worst <= 1e-10,
                           {"worst_rel_gap": worst, "tolerance": 1e-10})


def criterion_2() -> CriterionResult:
    """Bounded energy envelope at t = 100 and no secular drift out to t = 1000."""
    c = couplings_nn(1.0)
    L, eps = 16, 0.25
    disorder = sample_disorder(L, "rademacher", seed=5)
    packet = WKBPacket(k0=(0.125, 0.0, 0.0), sigma=0.5)
    state = from_wavefunction(wkb_state(L, eps, packet.envelope, packet.phase),
                              c, disorder, eps)
    omega_max_eff = np.sqrt(13.0) * (1.0 + np.sqrt(eps))
    dt = 0.05 / omega_max_eff
    e0 = energy(state, disorder, eps, c)
    times: list[float] = []
    energies: list[float] = []
    t = 0.0
    envelope_100 = 0.0
    for chunk in [1.0] * 100 + [10.0] * 90:
        state = evolve(state, disorder, eps, c, t_final=chunk, dt=dt)
        t += chunk
        e = energy(state, disorder, eps, c)
        times.append(t)
        energies.append(e)
        if t <= 100.0 + 1e-9:
            envelope_100 = max(envelope_100, abs(e - e0) / e0)
    # secular drift: linear fit over the full horizon, slope * 1000 vs envelope
    coef = np.polynomial.polynomial.polyfit(np.array(times), np.array(energies), 1)
    drift = abs(coef[1]) * 1000.0 / e0
    passed = envelope_100 <= 1e-4 and drift <= 1e-4
    return CriterionResult(2, "energy conservation envelope", passed,
                           {"envelope_t100": envelope_100, "drift_t1000": drift,
                            "tolerance": 1e-4, "dt": dt})


def criterion_3() -> CriterionResult:
    """Integrator error is second order against the spectral oracle."""
    c = couplings_nn(1.0)
    L, eps = 16, 0.25
    packet = WKBPacket(k0=(0.125, 0.0, 0.0), sigma=0.5)
    psi0 = wkb_state(L, eps, packet.envelope, packet.phase)
    state0 = from_wavefunction(psi0, c)
    zero = DisorderField(xi=np.zeros((L, L, L)), xi_bar=1.0,
                         distribution="rademacher", seed=0)
    T = 2.0
    exact = evolve_free_spectral(state0, c, T)
    scale = np.sqrt(float(np.sum(exact.q**2 + exact.v**2)))

    def err(dt: float) -> float:
        num = evolve(state0, zero, 0.0, c, t_final=T, dt=dt)
        return float(np.sqrt(np.sum((num.q - exact.q) ** 2
                                    + (num.v - exact.v) ** 2))) / scale

    dt0 = 0.1 / np.sqrt(13.0)
    e1, e2 = err(dt0), err(dt0 / 2.0)
    ratio = e1 / e2
    passed = abs(ratio - 4.0) <= 0.3
    return CriterionResult(3, "integrator order vs spectral oracle", passed,
                           {"err_dt": e1, "err_dt_half": e2, "ratio": ratio,
                            "window": [3.7, 4.3]})


@lru_cache(maxsize=1)
def _nn_grid_48() -> DispersionGrid:
    """Criteria 4-6's shared couplings_nn(1.0) grid at M = 48: built once, read-only."""
    grid = build_dispersion(couplings_nn(1.0), 48)
    for array in (grid.omega, grid.omega_flat, grid.grad, grid.grad_flat, *grid.levels):
        array.flags.writeable = False
    return grid


def criterion_4() -> CriterionResult:
    """Dispersion diagnostics: band edges, critical points, stationary decay."""
    grid = _nn_grid_48()
    edges_exact = grid.omega_min == 1.0 and grid.omega_max == np.sqrt(13.0)
    crits = find_critical_points(grid)
    nondeg = len(crits) == 8 and all(not p.degenerate for p in crits)
    fit = decay_exponent(build_dispersion(grid.couplings, 64), 1.0, t_min=5.0, t_max=50.0)
    slope_ok = -1.7 <= fit.slope <= -1.3
    passed = edges_exact and nondeg and slope_ok
    return CriterionResult(4, "dispersion diagnostics", passed,
                           {"omega_min": grid.omega_min, "omega_max": grid.omega_max,
                            "n_critical": len(crits),
                            "n_degenerate": sum(p.degenerate for p in crits),
                            "decay_slope": fit.slope, "slope_window": [-1.7, -1.3]})


def criterion_5() -> CriterionResult:
    """Detailed balance of the broadened kernel and the rate ceiling."""
    grid = _nn_grid_48()
    table = build_collision_table(grid, beta=0.06, xi2=1.0)
    rng = np.random.default_rng(17)
    ki = rng.integers(0, grid.n_points, size=1000)
    kj = rng.integers(0, grid.n_points, size=1000)
    balance = detailed_balance_residual(table, ki, kj)
    ceiling = table.sigma_bound
    sigma_ok = bool(table.sigma_max <= ceiling * (1.0 + 1e-12))
    passed = balance <= 1e-12 and sigma_ok
    return CriterionResult(5, "kernel detailed balance", passed,
                           {"worst_balance_rel": balance, "sigma_max": table.sigma_max,
                            "ceiling": ceiling})


def criterion_6() -> CriterionResult:
    """Gate function real part recovers half the collision rate; root-beta decay."""
    grid = _nn_grid_48()
    beta = 0.05
    table = build_collision_table(grid, beta=beta, xi2=1.0)
    rng = np.random.default_rng(23)
    idx = rng.integers(0, grid.n_points, size=20)
    rels = []
    for i in idx:
        k = grid.k_of(np.int64(i))
        th = theta_plus(grid, k, beta)
        sig = table.sigma_flat[i]
        rels.append(abs(th.real - 0.5 * sig) / sig)
    worst = float(max(rels))
    # halving ladder: successive differences must shrink like sqrt(beta)
    k_probe = grid.k_of(np.int64(idx[0]))
    betas = [0.2, 0.1, 0.05, 0.025]
    vals = [theta_plus(grid, k_probe, b).real for b in betas]
    diffs = [abs(a - b) for a, b in zip(vals, vals[1:])]
    shrinking = all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))
    passed = worst <= 0.05 and shrinking
    return CriterionResult(6, "gate function vs half rate", passed,
                           {"worst_rel": worst, "tolerance": 0.05,
                            "halving_diffs": diffs, "shrinking": shrinking})


def _chi_square(observed, expected) -> tuple[float, float]:
    """Pearson's statistic x = sum (O - E)^2 / E > 0 over the cells and its
    p-value, the chi-square survival function on k = cells - 1 degrees of
    freedom: with h = x/2, e^-h sum h^a / Gamma(a + 1) over a = 0, 1, .. < k/2
    (even k), or erfc(sqrt h) plus that sum over a = 1/2, 3/2, .. < k/2 (odd k),
    each term formed from its logarithm so that none underflows."""
    obs = np.asarray(observed, dtype=np.float64)
    exp = np.asarray(expected, dtype=np.float64)
    chi2 = float(np.sum((obs - exp) ** 2 / exp))
    k, h = exp.size - 1, chi2 / 2.0
    terms = [math.exp(a * math.log(h) - h - math.lgamma(a + 1.0))
             for a in (j + k % 2 / 2 for j in range(k // 2))]
    return chi2, math.fsum([math.erfc(math.sqrt(h)) if k % 2 else 0.0, *terms])


def criterion_7() -> CriterionResult:
    """Jump sampler against the exact categorical law on a small grid."""
    c = couplings_nn(1.0)
    grid = build_dispersion(c, 8)
    # the resolution-tied default lands above the admissible range on a grid
    # this small, so the sampler test pins beta directly
    beta = min(1.0, default_beta(grid))
    table = build_collision_table(grid, beta=beta, xi2=1.0)
    k0 = int(np.argmax(table.sigma_flat))
    w = grid.omega_flat
    weights = w**2 * (table.beta / np.pi) / ((w[k0] - w) ** 2 + table.beta**2)
    probs = weights / weights.sum()
    n_draws = 100_000
    expected = probs * n_draws
    # a single fixed stream can land in the 1% tail by luck alone, so the
    # verdict is the median p over three independent streams: a wrong law
    # sends all three to ~0, while the false-alarm rate stays near 3e-4
    p_values = []
    chi2s = []
    shifts = []
    for rep in range(3):
        rng = np.random.default_rng((29, rep))
        draws = sample_jump(table, np.full(n_draws, k0), rng)
        observed = np.bincount(draws, minlength=grid.n_points).astype(np.float64)
        # pool bins from the smallest expectation upward until every cell
        # holds at least 5 expected counts; leftovers fold into the last cell
        order = np.argsort(expected)
        obs_m: list[float] = []
        exp_m: list[float] = []
        acc_o = acc_e = 0.0
        for idx in order:
            acc_o += observed[idx]
            acc_e += expected[idx]
            if acc_e >= 5.0:
                obs_m.append(acc_o)
                exp_m.append(acc_e)
                acc_o = acc_e = 0.0
        if acc_e > 0.0:
            obs_m[-1] += acc_o
            exp_m[-1] += acc_e
        chi2, p_value = _chi_square(obs_m, exp_m)
        p_values.append(p_value)
        chi2s.append(chi2)
        shifts.append(float(np.mean(np.abs(w[draws] - w[k0]))))
    p_med = float(np.median(p_values))
    mean_shift = float(np.mean(shifts))
    spacing = (grid.omega_max - grid.omega_min) / grid.M
    bound = 3.0 * table.beta + spacing
    passed = p_med > 0.01 and mean_shift <= bound
    return CriterionResult(7, "jump sampler law", passed,
                           {"p_median": p_med, "p_values": p_values,
                            "chi2": chi2s,
                            "mean_omega_shift": mean_shift,
                            "shift_bound": bound})


def criterion_8(cfg: StudyConfig = DEFAULT_STUDY) -> CriterionResult:
    """Two transport solvers agree within combined error on the study cfg."""
    rep = solver_crosscheck(cfg)
    return CriterionResult(8, "solver cross-validation", rep.passed(),
                           {**rep.to_obj(), "z_max": 3.0, "xi2": cfg.crosscheck_xi2})


def criterion_9() -> CriterionResult:
    """Simplex kernel identities and bounds."""
    rng = np.random.default_rng(31)
    worst_k1 = 0.0
    for _ in range(20):
        t = rng.uniform(0.0, 5.0)
        wv = complex(rng.normal(), rng.normal())
        worst_k1 = max(worst_k1, abs(k_simplex(t, [wv]) - np.exp(-1j * t * wv)))
    bound_ok = True
    worst_margin = 0.0
    for _ in range(100):
        t = rng.uniform(0.0, 3.0)
        n = int(rng.integers(1, 7))
        wv = rng.normal(size=n)
        val = abs(k_simplex(t, wv))
        cap = t ** (n - 1) / math.factorial(n - 1) if n > 1 else 1.0
        margin = val - cap
        worst_margin = max(worst_margin, margin)
        if margin > 1e-10:
            bound_ok = False
    # N = 2 recursion vs the closed form of int_0^t exp(-i(t-s)w2 - i s w1) ds
    #   = exp(-i t w2) (1 - exp(-i t (w1 - w2))) / (i (w1 - w2))
    t, w1, w2 = 1.7, 0.9, -0.4
    k2 = k_simplex(t, [w1, w2])
    exact = np.exp(-1j * t * w2) * (1.0 - np.exp(-1j * t * (w1 - w2))) / (1j * (w1 - w2))
    n2_gap = float(abs(k2 - exact))
    passed = worst_k1 <= 1e-12 and bound_ok and n2_gap <= 1e-8
    return CriterionResult(9, "simplex kernel properties", passed,
                           {"worst_k1": worst_k1, "bound_margin": worst_margin,
                            "n2_gap": n2_gap})


def _bell_triangle(n_max: int) -> list[int]:
    """Bell numbers B_1..B_n by the triangle recurrence, independent of the
    partition enumeration they are checked against."""
    out = []
    row = [1]
    for _ in range(n_max):
        out.append(row[-1])
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return out


def criterion_10() -> CriterionResult:
    """Partition counts, exact cumulants, the moment formula by MC, bounds."""
    bells = _bell_triangle(10)
    bell_ok = all(len(enumerate_partitions(n)) == bells[n - 1]
                  for n in range(1, 11))
    cu = cumulants_of("uniform", 10)
    cr = cumulants_of("rademacher", 10)
    c4_ok = float(cu[4]) == -1.2 and float(cr[4]) == -2.0
    patterns = [
        ([0, 0, 0, 0], "uniform"),
        ([0, 0, 0, 0], "rademacher"),
        ([0, 0, 1, 1], "uniform"),
        ([0, 0, 0], "rademacher"),
        ([0, 0, 1, 1, 2, 2], "uniform"),
    ]
    zs = []
    for i, (pattern, law) in enumerate(patterns):
        chk = verify_moment_mc(pattern, law, n_samples=1_000_000, seed=41 + i)
        zs.append(abs(chk.z_score))
    mc_ok = all(z <= 3.0 for z in zs)
    bound_ok = (all(ok for _, ok in check_cumulant_bound(cu))
                and all(ok for _, ok in check_cumulant_bound(cr)))
    passed = bell_ok and c4_ok and mc_ok and bound_ok
    return CriterionResult(10, "partitions and cumulants", passed,
                           {"bell_ok": bell_ok, "c4_uniform": float(cu[4]),
                            "c4_rademacher": float(cr[4]),
                            "z_scores": zs, "bound_ok": bound_ok})


def criterion_11(report: FreeFlightReport | None = None) -> CriterionResult:
    """Semiclassical packet drifts at the group velocity."""
    if report is None:
        report = free_flight_check()
    return CriterionResult(11, "free-flight transport", report.passed(0.05),
                           {**report.to_obj(), "tolerance": 0.05})


def criterion_12(report: ConvergenceReport) -> CriterionResult:
    """Ladder convergence of the disorder-averaged observables."""
    passed = report.monotone and report.final_err <= 0.2 and report.bound_ok
    return CriterionResult(12, "kinetic-limit convergence", passed,
                           {"err": report.err, "final_err": report.final_err,
                            "ceiling": 0.2, "monotone": report.monotone,
                            "bound_ok": report.bound_ok,
                            "max_bound_excess": max(
                                r.max_bound_excess for r in report.rungs)})


def criterion_13(transport: TransportReport) -> CriterionResult:
    """Energy transport gap shrinks; substitution gap decays fast enough.

    The time-zero substitution gap must decay at least at the square-root
    rate its bound allows: the overall ladder ratio is checked against the
    window low end only, because the measured decay is one full power of eps
    (the site average self-averages the linear disorder term), which
    overshoots the window's high end while satisfying the bound itself.  The
    raw ratios are reported either way.
    """
    return CriterionResult(13, "energy transport", transport.passed(),
                           transport.to_obj())


# the criteria that run with no input (8 takes an optional study config,
# DEFAULT_STUDY by default); 12 and 13 judge the reports of run_study
CRITERION_RUNNERS = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9, 10: criterion_10, 11: criterion_11,
}


def run_acceptance(out_dir: str | Path | None = None,
                   cfg: StudyConfig = DEFAULT_STUDY) -> dict:
    """Run all thirteen criteria and write summary.json when out_dir is set.
    Criteria 8, 12 and 13 run on cfg; the others have frozen parameters."""
    study_dir = Path(out_dir) / "study" if out_dir is not None else None
    results = [CRITERION_RUNNERS[cid](cfg) if cid == 8 else CRITERION_RUNNERS[cid]()
               for cid in range(1, 12)]
    report, transport = run_study(cfg, out_dir=study_dir)
    results += [criterion_12(report), criterion_13(transport)]

    obj = cfg.to_obj()
    summary = {
        "criteria": [
            {"id": r.cid, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
        **io.artifact_metadata(obj, cfg.master_seed),
    }
    if out_dir is not None:
        io.write_json(Path(out_dir) / "summary.json", summary)
    return summary
