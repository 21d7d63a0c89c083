"""Artifact persistence: config hashing, binary snapshots, CSV/JSON reports.

Each entry point builds its run's reproducibility triple (tool version,
config hash, master seed) once with artifact_metadata and hands it to every
writer.  Hashes are SHA-256 over a canonical JSON encoding (sorted keys, no
whitespace), so two configs hash equal iff their JSON documents are equal up
to key order.  Numeric tables go to CSV with mandatory headers, UTF-8 and
'.' decimals; everything structured goes to JSON.
Every writer fills a temporary file beside its target and renames it into
place, so an interrupted write never leaves a truncated artifact behind.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from . import __version__ as TOOL_VERSION
from .dispersion import Couplings, build_dispersion
from .errors import ConfigError
from .kinetic import CollisionTable
from .lattice import LatticeState

__all__ = [
    "TOOL_VERSION",
    "canonical_json",
    "config_hash",
    "artifact_metadata",
    "couplings_to_obj",
    "couplings_from_obj",
    "save_state",
    "load_state",
    "save_collision_table",
    "load_collision_table",
    "write_json",
    "read_json",
    "write_csv",
    "write_estimates_csv",
    "write_diagnostics_csv",
]

# binary snapshot layout: magic, L, epsilon, time, seed; then q and v payloads
_SNAP_MAGIC = b"KWS1"
_SNAP_HEADER = struct.Struct("<4sIddq")


@contextmanager
def _atomic_open(path: Path, mode: str, **kwargs):
    """File handle on a temporary sibling of path, renamed over path once the
    block completes; on failure the temporary file is removed and path is
    left as it was."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, compact separators, no NaN."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_hash(obj: Any) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def artifact_metadata(config_obj: Any, master_seed: int) -> dict:
    """The triple every artifact of a run embeds, computed once per run."""
    return {
        "tool_version": TOOL_VERSION,
        "config_hash": config_hash(config_obj),
        "master_seed": int(master_seed),
    }


def couplings_to_obj(c: Couplings) -> list[dict]:
    """JSON-ready coupling list: [{offset: [i, j, k], value: float}, ...]."""
    return [{"offset": list(off), "value": val} for off, val in c.entries]


def couplings_from_obj(obj: Sequence[Mapping[str, Any]], tag: str | None = None) -> Couplings:
    if not obj:
        raise ConfigError("coupling list is empty")
    entries = {}
    for row in obj:
        try:
            off = tuple(int(x) for x in row["offset"])
            val = float(row["value"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad coupling entry {row!r}") from exc
        if len(off) != 3:
            raise ConfigError(f"coupling offset must have 3 components, got {off}")
        if off in entries:
            raise ConfigError(f"duplicate coupling offset {off}")
        entries[off] = val
    return Couplings(entries=tuple(sorted(entries.items())), tag=tag)


def save_state(
    path: str | Path,
    state: LatticeState,
    epsilon: float,
    time: float,
    meta: dict,
) -> Path:
    """Flat binary container (header + little-endian f8 q then v) + JSON sidecar, under meta."""
    path = Path(path)
    L = state.q.shape[0]
    seed = meta["master_seed"]
    header = _SNAP_HEADER.pack(_SNAP_MAGIC, L, float(epsilon), float(time), seed)
    with _atomic_open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(state.q, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(state.v, dtype="<f8").tobytes())
    sidecar = {
        "L": L,
        "epsilon": float(epsilon),
        "time": float(time),
        "seed": seed,
        **meta,
    }
    write_json(path.with_name(path.name + ".json"), sidecar)
    return path


def load_state(path: str | Path) -> tuple[LatticeState, dict]:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _SNAP_HEADER.size:
        raise ConfigError(f"{path}: truncated snapshot header")
    magic, L, epsilon, time, seed = _SNAP_HEADER.unpack_from(raw)
    if magic != _SNAP_MAGIC:
        raise ConfigError(f"{path}: not a state snapshot (magic {magic!r})")
    n = L**3
    expect = _SNAP_HEADER.size + 2 * 8 * n
    if len(raw) != expect:
        raise ConfigError(f"{path}: payload size {len(raw)} != expected {expect}")
    flat = np.frombuffer(raw, dtype="<f8", offset=_SNAP_HEADER.size)
    q = flat[:n].reshape(L, L, L).astype(np.float64)
    v = flat[n:].reshape(L, L, L).astype(np.float64)
    header = {"L": int(L), "epsilon": float(epsilon), "time": float(time), "seed": int(seed)}
    return LatticeState(q=q, v=v), header


def save_collision_table(path: str | Path, table: CollisionTable, meta: dict) -> Path:
    """Write a rate table under the run's triple meta; the grid is rebuilt on load."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    meta = {
        "format": "kinwave-table-1",
        "couplings": couplings_to_obj(table.grid.couplings),
        "tag": table.grid.couplings.tag,
        "M": table.grid.M,
        "beta": table.beta,
        "xi2": table.xi2,
        **meta,
    }
    with _atomic_open(path, "wb") as fh:
        np.savez_compressed(
            fh,
            sigma=table.sigma,
            meta=np.frombuffer(canonical_json(meta).encode("utf-8"), dtype=np.uint8),
        )
    return path


def load_collision_table(path: str | Path, cfg_hash: str) -> CollisionTable:
    """Read back a table saved for the config with hash cfg_hash; a table
    saved for any other config is refused with ConfigError.  Members other
    than sigma and meta are ignored."""
    with np.load(path) as pack:
        meta = json.loads(bytes(pack["meta"]).decode("utf-8"))
        if meta.get("format") != "kinwave-table-1":
            raise ConfigError(f"{path}: unknown table format {meta.get('format')!r}")
        if meta.get("config_hash") != cfg_hash:
            raise ConfigError(f"{path}: table was built for another config")
        sigma = np.array(pack["sigma"], dtype=np.float64)
    couplings = couplings_from_obj(meta["couplings"], tag=meta.get("tag"))
    grid = build_dispersion(couplings, int(meta["M"]))
    if sigma.shape != (grid.M,) * 3:
        raise ConfigError(f"{path}: sigma shape {sigma.shape} != grid {(grid.M,) * 3}")
    return CollisionTable(
        grid=grid, beta=float(meta["beta"]), xi2=float(meta["xi2"]), sigma=sigma
    )


def _json_default(obj: Any):
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def write_json(path: str | Path, payload: Any) -> Path:
    path = Path(path)
    with _atomic_open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False,
                  default=_json_default)
        fh.write("\n")
    return path


def read_json(path: str | Path) -> Any:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_csv(path: str | Path, fieldnames: Sequence[str], rows: Iterable[Mapping[str, Any]]) -> Path:
    """CSV with mandatory header, UTF-8, '.' decimals (repr of Python floats)."""
    path = Path(path)
    with _atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(fieldnames), extrasaction="raise")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _csv_cell(v) for k, v in row.items()})
    return path


def _csv_cell(v: Any) -> Any:
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    return v


ESTIMATE_COLUMNS = (
    "px", "py", "pz", "n1", "n2", "n3",
    "re_mean", "im_mean", "re_se", "im_se", "realizations",
)


def write_estimates_csv(
    path: str | Path,
    observables: Sequence[Any],
    means: Sequence[complex],
    se_re: Sequence[float],
    se_im: Sequence[float],
    count: int,
) -> Path:
    """Characteristic-function estimates, one row per (p, n) observable."""
    rows = (
        {"px": obs.p[0], "py": obs.p[1], "pz": obs.p[2],
         "n1": obs.n[0], "n2": obs.n[1], "n3": obs.n[2],
         "re_mean": m.real, "im_mean": m.imag,
         "re_se": sr, "im_se": si, "realizations": count}
        for obs, m, sr, si in zip(observables, means, se_re, se_im)
    )
    return write_csv(path, ESTIMATE_COLUMNS, rows)


DIAGNOSTIC_COLUMNS = ("quantity", "value", "stderr", "config-hash")


def write_diagnostics_csv(
    path: str | Path,
    rows: Iterable[tuple[str, float, float]],
    cfg_hash: str,
) -> Path:
    packed = (
        {"quantity": q, "value": v, "stderr": s, "config-hash": cfg_hash}
        for q, v, s in rows
    )
    return write_csv(path, DIAGNOSTIC_COLUMNS, packed)
