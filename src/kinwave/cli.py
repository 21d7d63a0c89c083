"""Command-line entry point: one JSON config in, a directory of artifacts out.

Every subcommand follows the same protocol: the config document is validated
against a strict schema (unknown keys rejected) before any compute, an
integer key takes 16.0 as 16 (also in the config hash) and refuses 16.5, all
randomness derives from the single master seed in [0, 2^63), and every
artifact embeds the (tool version, config hash, master seed) triple that
dispatch computes once per run; compare's is run_study's, over the study's
canonical form StudyConfig.to_obj().  Exit codes: 0 success, 1 configuration
problem, 2 runtime failure.  The only environment variable consulted is
KINWAVE_OUTPUT_DIR, which overrides the config's output directory without
entering the config hash.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from pathlib import Path

import jsonschema
import numpy as np

from . import io
from .dispersion import build_dispersion, crossing_sweep, decay_exponent, find_critical_points
from .errors import ConfigError, FitError, SamplingError, StabilityError
from .harness import DEFAULT_OBSERVABLES, StudyConfig, run_study
from .initial import initial_from_obj
from .kinetic import (
    build_collision_table,
    characteristic_function,
    detailed_balance_residual,
    sample_initial,
    simulate,
)
from .lattice import energy, evolve, from_wavefunction, sample_disorder, wavefunction_norm_squared, to_wavefunction
from .moments import check_cumulant_bound, cumulants_of, verify_moment_mc
from .wigner import Observable, initial_wavefunction

OUTPUT_DIR_ENV = "KINWAVE_OUTPUT_DIR"


# --------------------------------------------------------------------------
# schemas

_VEC3 = {"type": "array", "items": {"type": "number"}, "minItems": 3, "maxItems": 3}
_IVEC3 = {"type": "array", "items": {"type": "integer"}, "minItems": 3, "maxItems": 3}

_COUPLINGS = {
    "type": "array",
    "minItems": 1,
    "items": {
        "type": "object",
        "properties": {"offset": _IVEC3, "value": {"type": "number"}},
        "required": ["offset", "value"],
        "additionalProperties": False,
    },
}

_INITIAL = {
    "oneOf": [
        {
            "type": "object",
            "properties": {
                "type": {"const": "wkb"},
                "k0": _VEC3,
                "sigma": {"type": "number", "exclusiveMinimum": 0},
                "amplitude": {"type": "number"},
            },
            "required": ["type", "k0", "sigma"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "type": {"const": "point"},
                "amplitudes": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "properties": {
                            "offset": _IVEC3,
                            "re": {"type": "number"},
                            "im": {"type": "number"},
                        },
                        "required": ["offset", "re"],
                        "additionalProperties": False,
                    },
                },
            },
            "required": ["type", "amplitudes"],
            "additionalProperties": False,
        },
    ]
}

# each observable is the pair [p, n] of Observable.to_obj
_OBSERVABLES = {
    "type": "array",
    "minItems": 1,
    "items": {"type": "array", "prefixItems": [_VEC3, _IVEC3],
              "minItems": 2, "maxItems": 2},
}

_COMMON = {
    "master_seed": {"type": "integer", "minimum": 0, "maximum": 2**63 - 1},
    "output_dir": {"type": "string"},
}

_SCHEMAS = {
    "dispersion": {
        "type": "object",
        "properties": {
            "couplings": _COUPLINGS,
            "M": {"type": "integer", "minimum": 2},
            "decay": {
                "type": "object",
                "properties": {
                    "t_min": {"type": "number", "exclusiveMinimum": 0},
                    "t_max": {"type": "number", "exclusiveMinimum": 0},
                    "samples": {"type": "integer", "minimum": 5},
                },
                "required": ["t_min", "t_max"],
                "additionalProperties": False,
            },
            **_COMMON,
        },
        "required": ["couplings", "M", "master_seed"],
        "additionalProperties": False,
    },
    "kernel": {
        "type": "object",
        "properties": {
            "couplings": _COUPLINGS,
            "M": {"type": "integer", "minimum": 2},
            "beta": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
            "xi2": {"type": "number", "exclusiveMinimum": 0},
            "balance_pairs": {"type": "integer", "minimum": 1},
            **_COMMON,
        },
        "required": ["couplings", "M", "master_seed"],
        "additionalProperties": False,
    },
    "simulate": {
        "type": "object",
        "properties": {
            "couplings": _COUPLINGS,
            "L": {"type": "integer", "minimum": 4},
            "eps": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
            "distribution": {"enum": ["uniform", "rademacher"]},
            "initial": _INITIAL,
            "t_final": {"type": "number", "minimum": 0},
            "dt": {"type": "number", "exclusiveMinimum": 0},
            "snapshots": {"type": "integer", "minimum": 1},
            **_COMMON,
        },
        "required": ["couplings", "L", "eps", "distribution", "initial",
                     "t_final", "master_seed"],
        "additionalProperties": False,
    },
    "boltzmann": {
        "type": "object",
        "properties": {
            "couplings": _COUPLINGS,
            "M": {"type": "integer", "minimum": 2},
            "beta": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
            "xi2": {"type": "number", "exclusiveMinimum": 0},
            "initial": _INITIAL,
            "t_bar": {"type": "number", "minimum": 0},
            "particles": {"type": "integer", "minimum": 1000},
            "observables": _OBSERVABLES,
            **_COMMON,
        },
        "required": ["couplings", "M", "initial", "t_bar", "particles", "master_seed"],
        "additionalProperties": False,
    },
    "compare": {
        "type": "object",
        "properties": {
            "couplings": _COUPLINGS,
            "epsilons": {"type": "array", "minItems": 2,
                         "items": {"type": "number", "exclusiveMinimum": 0}},
            "box_sizes": {"type": "array", "minItems": 2,
                          "items": {"type": "integer", "minimum": 4}},
            "t_bar": {"type": "number", "minimum": 0},
            "realizations": {"type": "integer", "minimum": 2},
            "distribution": {"enum": ["uniform", "rademacher"]},
            "initial": _INITIAL,
            "observables": _OBSERVABLES,
            "M": {"type": "integer", "minimum": 2},
            "beta": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
            "xi2": {"type": "number", "exclusiveMinimum": 0},
            "particles": {"type": "integer", "minimum": 1000},
            "resume": {"type": "boolean"},
            "workers": {"type": "integer", "minimum": 1},
            **_COMMON,
        },
        "required": ["master_seed"],
        "additionalProperties": False,
    },
    "cumulants": {
        "type": "object",
        "properties": {
            "distribution": {"enum": ["uniform", "rademacher"]},
            "n_max": {"type": "integer", "minimum": 2, "maximum": 10},
            "patterns": {
                "type": "array",
                "minItems": 1,
                "items": {"type": "array", "minItems": 1,
                          "items": {"type": "integer", "minimum": 0}},
            },
            "n_samples": {"type": "integer", "minimum": 1000},
            **_COMMON,
        },
        "required": ["distribution", "master_seed"],
        "additionalProperties": False,
    },
    "crossing": {
        "type": "object",
        "properties": {
            "couplings": _COUPLINGS,
            "alpha": _VEC3,
            "signs": {"type": "array", "items": {"type": "integer", "enum": [-1, 1]},
                      "minItems": 3, "maxItems": 3},
            "u": _VEC3,
            "betas": {"type": "array", "minItems": 3,
                      "items": {"type": "number", "exclusiveMinimum": 0}},
            "n_samples": {"type": "integer", "minimum": 100},
            **_COMMON,
        },
        "required": ["couplings", "alpha", "signs", "u", "master_seed"],
        "additionalProperties": False,
    },
}


# --------------------------------------------------------------------------
# subcommand pipelines;  dry=True stops after domain validation;  meta: the triple


def _cmd_dispersion(doc: dict, out_dir: Path, dry: bool, meta: dict) -> None:
    c = io.couplings_from_obj(doc["couplings"])
    if dry:
        return
    grid = build_dispersion(c, doc["M"])
    criticals = find_critical_points(grid)
    payload = {
        "omega_min": grid.omega_min,
        "omega_max": grid.omega_max,
        "max_group_speed": grid.max_group_speed,
        "M": doc["M"],
        "n_critical": len(criticals),
        "critical_points": [
            {
                "k": list(cp.k),
                "omega": cp.omega,
                "degenerate": cp.degenerate,
                "converged": cp.converged,
            }
            for cp in criticals
        ],
        **meta,
    }
    if "decay" in doc:
        window = doc["decay"]
        fit = decay_exponent(grid, 1.0, window["t_min"], window["t_max"],
                             samples=window.get("samples", 40))
        payload["decay"] = {"slope": fit.slope, "stderr": fit.stderr,
                            "n_used": fit.n_used}
    io.write_json(out_dir / "dispersion.json", payload)


def _cmd_kernel(doc: dict, out_dir: Path, dry: bool, meta: dict) -> None:
    c = io.couplings_from_obj(doc["couplings"])
    if dry:
        return
    grid = build_dispersion(c, doc["M"])
    table = build_collision_table(grid, beta=doc.get("beta"),
                                  xi2=doc.get("xi2", 1.0))
    short = meta["config_hash"][:12]
    io.save_collision_table(out_dir / f"table_{short}.npz", table, meta)
    # detailed balance on random pairs: omega^2-weighted symmetry of the rate
    n_pairs = doc.get("balance_pairs", 1000)
    rng = np.random.default_rng((doc["master_seed"], 404))
    ii = rng.integers(0, grid.n_points, size=n_pairs)
    jj = rng.integers(0, grid.n_points, size=n_pairs)
    balance = detailed_balance_residual(table, ii, jj)
    io.write_json(out_dir / "kernel.json", {
        "M": doc["M"],
        "beta": table.beta,
        "xi2": table.xi2,
        "sigma_min": table.sigma_min,
        "sigma_max": table.sigma_max,
        "sigma_bound": table.sigma_bound,
        "balance_pairs": n_pairs,
        "balance_max_rel": balance,
        "table": f"table_{short}.npz",
        **meta,
    })


def _cmd_simulate(doc: dict, out_dir: Path, dry: bool, meta: dict) -> None:
    c = io.couplings_from_obj(doc["couplings"])
    initial = initial_from_obj(doc["initial"])
    L, eps = doc["L"], doc["eps"]
    psi = initial_wavefunction(initial, L, eps)
    if dry:
        return
    disorder = sample_disorder(L, doc["distribution"], seed=doc["master_seed"])
    # disordered inversion: the wave variables of the run start at psi exactly
    state = from_wavefunction(psi, c, disorder, eps)
    n_snap = doc.get("snapshots", 1)
    times = np.linspace(0.0, doc["t_final"], n_snap + 1)
    rows = []
    e0 = energy(state, disorder, eps, c)
    for i, (t_prev, t_next) in enumerate(zip(times, times[1:]), start=1):
        state = evolve(state, disorder, eps, c, t_next - t_prev, doc.get("dt"))
        io.save_state(out_dir / f"state_{i:04d}.bin", state, eps, float(t_next), meta)
        e_t = energy(state, disorder, eps, c)
        norm = wavefunction_norm_squared(to_wavefunction(state, disorder, eps, c))
        rows.append((f"energy_t{t_next:g}", e_t, 0.0))
        rows.append((f"norm_sq_t{t_next:g}", norm, 0.0))
    rows.append(("energy_rel_drift", abs(e_t - e0) / e0 if e0 else 0.0, 0.0))
    io.write_diagnostics_csv(out_dir / "simulate_diagnostics.csv", rows,
                             meta["config_hash"])
    io.write_json(out_dir / "simulate.json", {
        "L": L, "eps": eps, "t_final": doc["t_final"], "snapshots": n_snap,
        "energy_initial": e0, "energy_final": e_t,
        **meta,
    })


def _cmd_boltzmann(doc: dict, out_dir: Path, dry: bool, meta: dict) -> None:
    c = io.couplings_from_obj(doc["couplings"])
    initial = initial_from_obj(doc["initial"])
    observables = (tuple(Observable.from_obj(o) for o in doc["observables"])
                   if "observables" in doc else DEFAULT_OBSERVABLES)
    if dry:
        return
    grid = build_dispersion(c, doc["M"])
    table = build_collision_table(grid, beta=doc.get("beta"),
                                  xi2=doc.get("xi2", 1.0))
    rng = np.random.default_rng((doc["master_seed"], 505))
    ens = sample_initial(initial, doc["particles"], table, rng)
    ens, counts = simulate(ens, table, doc["t_bar"], rng)
    est = characteristic_function(ens, observables)
    io.write_estimates_csv(out_dir / "boltzmann_estimates.csv", observables,
                           est.mean, est.stderr_re, est.stderr_im, doc["particles"])
    io.write_json(out_dir / "boltzmann.json", {
        "t_bar": doc["t_bar"],
        "particles": doc["particles"],
        "mass": initial.mass,
        "counts_mean": float(counts.mean()),
        "beta": table.beta,
        "xi2": table.xi2,
        **meta,
    })


def _cmd_compare(doc: dict, out_dir: Path, dry: bool, meta: dict) -> None:
    del meta  # compare's triple is run_study's, over StudyConfig.to_obj(), not the raw doc
    cfg = StudyConfig.from_obj(doc)
    if dry:
        # a full run validates inside run_study, before it writes anything
        cfg.validate(build_dispersion(cfg.couplings, cfg.M).max_group_speed)
        return
    run_study(cfg, out_dir=out_dir, resume=doc.get("resume", True))


def _cmd_cumulants(doc: dict, out_dir: Path, dry: bool, meta: dict) -> None:
    distribution = doc["distribution"]
    n_max = doc.get("n_max", 10)
    patterns = doc.get("patterns", [[0, 0, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1, 2, 2]])
    if dry:
        return
    cum = cumulants_of(distribution, n_max)
    bound = check_cumulant_bound(cum)
    rows = []
    for i, pattern in enumerate(patterns):
        chk = verify_moment_mc(pattern, distribution,
                               n_samples=doc.get("n_samples", 1_000_000),
                               seed=(doc["master_seed"], 606, i))
        label = "moment_z_" + "".join(str(x) for x in pattern)
        rows.append((label, chk.z_score, chk.mc_stderr))
    io.write_diagnostics_csv(out_dir / "moment_checks.csv", rows,
                             meta["config_hash"])
    io.write_json(out_dir / "cumulants.json", {
        "distribution": distribution,
        "cumulants": [
            {"order": n, "exact": str(cum[n]), "value": float(cum[n])}
            for n in range(1, n_max + 1)
        ],
        "bound_ok": [[n, ok] for n, ok in bound],
        **meta,
    })


def _cmd_crossing(doc: dict, out_dir: Path, dry: bool, meta: dict) -> None:
    c = io.couplings_from_obj(doc["couplings"])
    if dry:
        return
    betas = tuple(doc.get("betas", [0.2, 0.1, 0.05, 0.025]))
    ests, exponent, exp_se = crossing_sweep(
        c,
        alpha=tuple(doc["alpha"]),
        signs=tuple(doc["signs"]),
        u=tuple(doc["u"]),
        betas=betas,
        n_samples=doc.get("n_samples", 10_000),
        seed=doc["master_seed"],
    )
    io.write_csv(
        out_dir / "crossing.csv",
        ("beta", "value", "stderr", "n_samples"),
        ({"beta": e.beta, "value": e.value, "stderr": e.stderr,
          "n_samples": e.n_samples} for e in ests),
    )
    io.write_json(out_dir / "crossing.json", {
        "betas": list(betas),
        "exponent": exponent,
        "exponent_stderr": exp_se,
        **meta,
    })


_RUNNERS = {
    "dispersion": _cmd_dispersion,
    "kernel": _cmd_kernel,
    "simulate": _cmd_simulate,
    "boltzmann": _cmd_boltzmann,
    "compare": _cmd_compare,
    "cumulants": _cmd_cumulants,
    "crossing": _cmd_crossing,
}


# --------------------------------------------------------------------------
# dispatch


def _finite(text: str) -> float:
    """A JSON number as a float; NaN, +-Infinity and overflows such as 1e400 are refused."""
    if not np.isfinite(value := float(text)):
        raise ValueError(f"non-finite number {text}")
    return value


def _integers(schema: dict, value):
    """value with each number at an integer-typed place of schema as an int."""
    for branch in schema.get("oneOf", ()):
        if jsonschema.validators.validator_for(branch)(branch).is_valid(value):
            schema = branch
    if schema.get("type") == "integer":
        return int(value)
    if isinstance(value, dict):
        return {k: _integers(schema.get("properties", {}).get(k, {}), v)
                for k, v in value.items()}
    if isinstance(value, list):
        places = schema.get("prefixItems", []) + [schema.get("items", {})] * len(value)
        return [_integers(s, v) for s, v in zip(places, value)]
    return value


@lru_cache(maxsize=None)
def _validator(sub: str):
    """The schema validator of a subcommand, built at its first use.  The
    schemas are checked against their metaschema by the test suite, so no
    call pays that check."""
    schema = _SCHEMAS[sub]
    return jsonschema.validators.validator_for(schema)(schema)


def dispatch(argv) -> int:
    argv = list(argv)
    if not argv or argv[0] in ("-h", "--help"):
        print("usage: kinwave SUBCOMMAND --config FILE [--validate-only]\n"
              "subcommands: " + ", ".join(_RUNNERS))
        return 0
    sub = argv[0]
    if sub not in _RUNNERS:
        print(f"unknown subcommand {sub!r}; expected one of: "
              + ", ".join(_RUNNERS), file=sys.stderr)
        return 1
    parser = argparse.ArgumentParser(prog=f"kinwave {sub}", add_help=True)
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--validate-only", action="store_true",
                        help="check the config and exit without computing")
    try:
        args = parser.parse_args(argv[1:])
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1

    path = Path(args.config)
    if not path.exists():
        print(f"config file not found: {path}", file=sys.stderr)
        return 1
    try:
        doc = json.loads(path.read_text(encoding="utf-8"),
                         parse_float=_finite, parse_constant=_finite)
    except ValueError as exc:
        print(f"malformed config {path}: {exc}", file=sys.stderr)
        return 1
    error = jsonschema.exceptions.best_match(_validator(sub).iter_errors(doc))
    if error is not None:
        print(f"config schema violation at {list(error.absolute_path)}: "
              f"{error.message}", file=sys.stderr)
        return 1
    doc = _integers(_SCHEMAS[sub], doc)

    out_dir = Path(os.environ.get(OUTPUT_DIR_ENV) or doc.get("output_dir", "."))
    try:
        # where artifacts land is not part of the computation's identity
        meta = io.artifact_metadata({k: v for k, v in doc.items() if k != "output_dir"},
                                    doc["master_seed"])
        if not args.validate_only:
            out_dir.mkdir(parents=True, exist_ok=True)
        _RUNNERS[sub](doc, out_dir, args.validate_only, meta)
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 1
    except (StabilityError, SamplingError, FitError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - catch-all for exit-code contract
        print(f"unexpected failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if args.validate_only:
        print(f"{sub} config OK: {path}")
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
