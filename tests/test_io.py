import csv

import numpy as np
import pytest

from kinwave import io
from kinwave.dispersion import build_dispersion, couplings_nn
from kinwave.errors import ConfigError
from kinwave.kinetic import build_collision_table
from kinwave.lattice import LatticeState
from kinwave.wigner import Observable


def test_canonical_json_key_order_invariance():
    a = {"b": 1, "a": [1, 2, {"z": 3, "y": 4}]}
    b = {"a": [1, 2, {"y": 4, "z": 3}], "b": 1}
    assert io.canonical_json(a) == io.canonical_json(b)
    assert io.config_hash(a) == io.config_hash(b)
    assert io.config_hash(a) != io.config_hash({"b": 2, "a": a["a"]})


def test_artifact_metadata_triple():
    meta = io.artifact_metadata({"x": 1}, 42)
    assert set(meta) == {"tool_version", "config_hash", "master_seed"}
    assert meta["master_seed"] == 42
    assert meta["config_hash"] == io.config_hash({"x": 1})


def test_couplings_roundtrip():
    c = couplings_nn(1.25)
    obj = io.couplings_to_obj(c)
    back = io.couplings_from_obj(obj)
    assert back.entries == c.entries
    with pytest.raises(ConfigError):
        io.couplings_from_obj([])
    with pytest.raises(ConfigError):
        io.couplings_from_obj([{"offset": [0, 0], "value": 1.0}])
    with pytest.raises(ConfigError):
        io.couplings_from_obj([{"offset": [0, 0, 0], "value": 1.0},
                               {"offset": [0, 0, 0], "value": 2.0}])


def test_state_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    state = LatticeState(q=rng.normal(size=(6, 6, 6)),
                         v=rng.normal(size=(6, 6, 6)))
    path = tmp_path / "snap.bin"
    io.save_state(path, state, 0.25, 1.5, 99, config_obj={"seed": 99})
    back, meta = io.load_state(path)
    np.testing.assert_array_equal(back.q, state.q)
    np.testing.assert_array_equal(back.v, state.v)
    assert meta["epsilon"] == 0.25
    assert meta["time"] == 1.5
    assert meta["seed"] == 99
    # sidecar carries the artifact triple
    side = io.read_json(path.with_name(path.name + ".json"))
    assert side["master_seed"] == 99
    assert "config_hash" in side and "tool_version" in side


def test_state_rejects_corrupt_header(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 60)
    with pytest.raises(ConfigError):
        io.load_state(path)


def test_collision_table_roundtrip(tmp_path):
    grid = build_dispersion(couplings_nn(1.0), 8)
    table = build_collision_table(grid, beta=0.4, xi2=0.5)
    path = tmp_path / "table.npz"
    io.save_collision_table(path, table, config_obj={"M": 8})
    back = io.load_collision_table(path, io.config_hash({"M": 8}))
    np.testing.assert_array_equal(back.sigma, table.sigma)
    assert back.beta == table.beta
    assert back.xi2 == table.xi2
    assert back.grid.couplings.entries == grid.couplings.entries
    with pytest.raises(ConfigError, match="another config"):
        io.load_collision_table(path, io.config_hash({"M": 12}))


def test_collision_table_with_extra_members_loads(tmp_path):
    """Tables written with an extra member (the former max_neighbor_diff
    report) still load: the reader takes sigma and meta only."""
    grid = build_dispersion(couplings_nn(1.0), 8)
    table = build_collision_table(grid, beta=0.4, xi2=0.5)
    path = io.save_collision_table(tmp_path / "table.npz", table, config_obj={"M": 8})
    with np.load(path) as pack:
        members = {name: pack[name] for name in pack.files}
    np.savez_compressed(path, **members, max_neighbor_diff=np.float64(0.1))
    back = io.load_collision_table(path, io.config_hash({"M": 8}))
    np.testing.assert_array_equal(back.sigma, table.sigma)


def test_estimates_csv_layout(tmp_path):
    path = tmp_path / "est.csv"
    io.write_estimates_csv(path, [Observable(p=(0.5, 0.0, 0.0), n=(1, 0, 0))],
                           [0.25 - 0.5j], [0.01], [0.02], 10)
    rows = list(csv.DictReader(path.open()))
    assert list(rows[0]) == list(io.ESTIMATE_COLUMNS)
    assert rows[0]["re_mean"] == "0.25"
    assert rows[0]["im_mean"] == "-0.5"
    assert rows[0]["px"] == "0.5" and rows[0]["n1"] == "1"
    assert rows[0]["realizations"] == "10"


def test_diagnostics_csv_layout(tmp_path):
    path = tmp_path / "diag.csv"
    io.write_diagnostics_csv(path, [("drift", 1e-6, 0.0)], "abc123")
    rows = list(csv.DictReader(path.open()))
    assert list(rows[0]) == ["quantity", "value", "stderr", "config-hash"]
    assert rows[0]["config-hash"] == "abc123"


def test_write_json_handles_numpy_scalars(tmp_path):
    path = tmp_path / "x.json"
    io.write_json(path, {"a": np.float64(1.5), "b": np.int64(2),
                         "c": np.bool_(True)})
    assert io.read_json(path) == {"a": 1.5, "b": 2, "c": True}
