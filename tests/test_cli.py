import json
import re

import jsonschema
import numpy as np
import pytest

from kinwave import cli, io
from kinwave.errors import SamplingError

NN_COUPLINGS = [
    {"offset": [0, 0, 0], "value": 7.0},
    {"offset": [1, 0, 0], "value": -1.0}, {"offset": [-1, 0, 0], "value": -1.0},
    {"offset": [0, 1, 0], "value": -1.0}, {"offset": [0, -1, 0], "value": -1.0},
    {"offset": [0, 0, 1], "value": -1.0}, {"offset": [0, 0, -1], "value": -1.0},
]


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def dispersion_doc(out):
    return {"couplings": NN_COUPLINGS, "M": 16, "master_seed": 3,
            "output_dir": str(out)}


def test_unknown_subcommand(capsys):
    assert cli.dispatch(["frobnicate", "--config", "x.json"]) == 1
    assert "unknown subcommand" in capsys.readouterr().err


def test_missing_config(capsys):
    assert cli.dispatch(["dispersion", "--config", "/no/such/file.json"]) == 1
    assert "/no/such/file.json" in capsys.readouterr().err


def test_malformed_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{oops")
    assert cli.dispatch(["dispersion", "--config", str(path)]) == 1
    assert "malformed" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    doc = dispersion_doc(tmp_path)
    doc["bogus"] = 1
    path = write_config(tmp_path, "c.json", doc)
    assert cli.dispatch(["dispersion", "--config", str(path)]) == 1
    assert "bogus" in capsys.readouterr().err


def test_missing_required_key(tmp_path, capsys):
    doc = dispersion_doc(tmp_path)
    del doc["master_seed"]
    path = write_config(tmp_path, "c.json", doc)
    assert cli.dispatch(["dispersion", "--config", str(path)]) == 1
    assert "master_seed" in capsys.readouterr().err


@pytest.mark.parametrize("sub", sorted(cli._SCHEMAS))
def test_schema_is_valid_under_its_metaschema(sub):
    """dispatch validates with a validator built once, which skips the
    metaschema check that jsonschema.validate makes on every call: it is
    made here instead."""
    schema = cli._SCHEMAS[sub]
    jsonschema.validators.validator_for(schema).check_schema(schema)


def test_schema_violation_reports_what_validate_raises(tmp_path, capsys):
    """The prebuilt validator picks the same error as jsonschema.validate."""
    for doc in ({**dispersion_doc(tmp_path), "M": 1},
                {**dispersion_doc(tmp_path), "decay": {"t_min": 1.0}, "bogus": 2}):
        with pytest.raises(jsonschema.ValidationError) as raised:
            jsonschema.validate(doc, cli._SCHEMAS["dispersion"])
        path = write_config(tmp_path, "c.json", doc)
        assert cli.dispatch(["dispersion", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"config schema violation at {list(raised.value.absolute_path)}: "
            f"{raised.value.message}\n")


def test_validate_only_runs_nothing(tmp_path, capsys):
    path = write_config(tmp_path, "c.json", dispersion_doc(tmp_path / "out"))
    assert cli.dispatch(["dispersion", "--config", str(path),
                         "--validate-only"]) == 0
    assert "OK" in capsys.readouterr().out
    assert not (tmp_path / "out").exists()


def test_dispersion_artifact(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, "c.json", dispersion_doc(out))
    assert cli.dispatch(["dispersion", "--config", str(path)]) == 0
    doc = io.read_json(out / "dispersion.json")
    assert doc["omega_min"] == pytest.approx(1.0, abs=1e-12)
    assert doc["omega_max"] == pytest.approx(np.sqrt(13.0), abs=1e-12)
    assert doc["n_critical"] == 8
    # every artifact embeds the reproducibility triple
    assert doc["master_seed"] == 3
    assert doc["tool_version"] == io.TOOL_VERSION
    assert len(doc["config_hash"]) == 64


def test_domain_error_is_a_config_error(tmp_path, capsys):
    # schema-valid but sign-indefinite couplings are caught downstream
    doc = {"couplings": [{"offset": [1, 0, 0], "value": 1.0},
                          {"offset": [-1, 0, 0], "value": 1.0}],
           "M": 8, "master_seed": 1, "output_dir": str(tmp_path / "o")}
    path = write_config(tmp_path, "c.json", doc)
    assert cli.dispatch(["dispersion", "--config", str(path)]) == 1
    assert "invalid config" in capsys.readouterr().err


def test_runtime_error_exits_two(tmp_path, capsys, monkeypatch):
    def boom(doc, out_dir, dry, meta):
        raise SamplingError("acceptance rate collapsed")

    monkeypatch.setitem(cli._RUNNERS, "dispersion", boom)
    path = write_config(tmp_path, "c.json", dispersion_doc(tmp_path / "o"))
    assert cli.dispatch(["dispersion", "--config", str(path)]) == 2
    assert "runtime failure" in capsys.readouterr().err


def test_env_overrides_output_dir(tmp_path, monkeypatch):
    doc = {"distribution": "rademacher", "n_max": 6, "n_samples": 2000,
           "master_seed": 5, "output_dir": str(tmp_path / "from_config")}
    path = write_config(tmp_path, "c.json", doc)
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(env_dir))
    assert cli.dispatch(["cumulants", "--config", str(path)]) == 0
    assert (env_dir / "cumulants.json").exists()
    assert not (tmp_path / "from_config").exists()


def test_cumulants_artifacts(tmp_path):
    out = tmp_path / "out"
    doc = {"distribution": "rademacher", "n_max": 6,
           "patterns": [[0, 0, 0, 0]], "n_samples": 2000,
           "master_seed": 5, "output_dir": str(out)}
    path = write_config(tmp_path, "c.json", doc)
    assert cli.dispatch(["cumulants", "--config", str(path)]) == 0
    payload = io.read_json(out / "cumulants.json")
    orders = {c["order"]: c["exact"] for c in payload["cumulants"]}
    assert orders[4] == "-2"
    assert (out / "moment_checks.csv").exists()


def test_serial_runs_are_bitwise_identical(tmp_path):
    doc = {"couplings": NN_COUPLINGS, "alpha": [0.1, 0.2, 0.3],
           "signs": [1, -1, 1], "u": [0.25, 0.0, 0.0],
           "betas": [0.2, 0.1, 0.05], "n_samples": 1000, "master_seed": 23}
    blobs = []
    for run in ("a", "b"):
        out = tmp_path / run
        doc["output_dir"] = str(out)
        path = write_config(tmp_path, f"{run}.json", doc)
        assert cli.dispatch(["crossing", "--config", str(path)]) == 0
        blobs.append((out / "crossing.json").read_bytes()
                     + (out / "crossing.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_simulate_snapshots_roundtrip(tmp_path):
    out = tmp_path / "out"
    doc = {"couplings": NN_COUPLINGS, "L": 8, "eps": 0.25,
           "distribution": "rademacher",
           "initial": {"type": "point",
                        "amplitudes": [{"offset": [0, 0, 0], "re": 1.0}]},
           "t_final": 1.0, "snapshots": 2, "master_seed": 31,
           "output_dir": str(out)}
    path = write_config(tmp_path, "c.json", doc)
    assert cli.dispatch(["simulate", "--config", str(path)]) == 0
    state, meta = io.load_state(out / "state_0002.bin")
    assert state.q.shape == (8, 8, 8)
    assert meta["time"] == 1.0
    assert meta["epsilon"] == 0.25
    diag = (out / "simulate_diagnostics.csv").read_text()
    assert "energy_rel_drift" in diag


def test_boltzmann_estimates(tmp_path):
    out = tmp_path / "out"
    doc = {"couplings": NN_COUPLINGS, "M": 8, "xi2": 1.0,
           "initial": {"type": "wkb", "k0": [0.125, 0.0, 0.0], "sigma": 0.5},
           "t_bar": 0.2, "particles": 2000, "master_seed": 37,
           "output_dir": str(out)}
    path = write_config(tmp_path, "c.json", doc)
    assert cli.dispatch(["boltzmann", "--config", str(path)]) == 0
    import csv

    rows = list(csv.DictReader((out / "boltzmann_estimates.csv").open()))
    assert list(rows[0]) == list(io.ESTIMATE_COLUMNS)
    mass_row = [r for r in rows
                if float(r["px"]) == 0 and float(r["py"]) == 0
                and float(r["pz"]) == 0 and r["n1"] == "0"
                and r["n2"] == "0" and r["n3"] == "0"][0]
    packet_mass = (np.sqrt(np.pi) * 0.5) ** 3
    assert float(mass_row["re_mean"]) == pytest.approx(packet_mass, rel=1e-12)


def test_compare_validate_only_minimal(tmp_path, capsys):
    path = write_config(tmp_path, "c.json", {"master_seed": 7})
    assert cli.dispatch(["compare", "--config", str(path),
                         "--validate-only"]) == 0
    assert "OK" in capsys.readouterr().out


def test_help_exits_zero(capsys):
    assert cli.dispatch([]) == 0
    assert cli.dispatch(["--help"]) == 0
    out = capsys.readouterr().out
    assert "subcommands" in out


def test_compare_resumes_over_a_truncated_stage(tmp_path):
    """A stage file cut off mid-write is recomputed with a warning, and the
    resumed run reproduces the cold run's summary."""
    out = tmp_path / "out"
    doc = {"epsilons": [0.5, 0.25], "box_sizes": [16, 20], "t_bar": 0.1,
           "realizations": 2, "M": 8, "particles": 2000, "master_seed": 7,
           "output_dir": str(out)}
    path = write_config(tmp_path, "c.json", doc)
    assert cli.dispatch(["compare", "--config", str(path)]) == 0
    cold = (out / "summary.json").read_bytes()
    for stage in (*out.glob("rung_1_*.json"), *out.glob("reference_*.json")):
        text = stage.read_bytes()
        stage.write_bytes(text[: len(text) // 2])
    with pytest.warns(UserWarning, match="unreadable stage"):
        assert cli.dispatch(["compare", "--config", str(path)]) == 0
    assert (out / "summary.json").read_bytes() == cold
    for stage in out.glob("*.json"):
        io.read_json(stage)
    assert not list(out.glob(".*.tmp"))


SMALL_COMPARE = {"epsilons": [0.5, 0.25], "box_sizes": [16, 20], "t_bar": 0.1,
                 "realizations": 2, "M": 8, "particles": 2000, "master_seed": 7}


def test_warm_compare_rewrites_the_report_byte_identical(tmp_path):
    """A rerun that reads every stage back (every rung field and the
    reference) writes the cold run's report.json byte for byte; the rung wall
    times it carries show that nothing was recomputed."""
    out = tmp_path / "out"
    path = write_config(tmp_path, "c.json", {**SMALL_COMPARE, "output_dir": str(out)})
    assert cli.dispatch(["compare", "--config", str(path)]) == 0
    cold = (out / "report.json").read_bytes()
    assert cli.dispatch(["compare", "--config", str(path)]) == 0
    assert (out / "report.json").read_bytes() == cold


def test_compare_summary_carries_the_transport_report(tmp_path):
    """summary.json's transport block is the study's TransportReport.to_obj(),
    and criterion 13 reports the same values."""
    from kinwave import harness

    out = tmp_path / "out"
    path = write_config(tmp_path, "c.json", {**SMALL_COMPARE, "output_dir": str(out)})
    assert cli.dispatch(["compare", "--config", str(path)]) == 0
    _, transport = harness.run_study(harness.StudyConfig.from_obj(SMALL_COMPARE),
                                     out_dir=out)
    summary = io.read_json(out / "summary.json")
    assert summary["transport"] == transport.to_obj()
    assert harness.criterion_13(transport).detail == summary["transport"]


def test_compare_writes_one_transport_stage_per_rung(tmp_path):
    """compare writes transport_<i>_<hash12>.json for each rung i, carrying
    the rung's pairing estimate and the count of realizations behind it;
    the benchmark's ladder check globs these files and reads count."""
    out = tmp_path / "out"
    path = write_config(tmp_path, "c.json", {**SMALL_COMPARE, "output_dir": str(out)})
    assert cli.dispatch(["compare", "--config", str(path)]) == 0
    report = io.read_json(out / "report.json")
    summary = io.read_json(out / "summary.json")
    for i, rung in enumerate(report["rungs"]):
        (stage,) = out.glob(f"transport_{i}_*.json")
        assert stage.name == f"transport_{i}_{report['config_hash'][:12]}.json"
        row = io.read_json(stage)
        assert row["count"] == rung["count"] == SMALL_COMPARE["realizations"]
        assert row["pairing_t_mean"] == summary["transport"]["micro_t"][i]
    assert len(list(out.glob("transport_*_*.json"))) == len(SMALL_COMPARE["epsilons"])


def test_compare_refuses_a_shift_longer_than_half_a_box(tmp_path, capsys):
    """An observable shift that one rung's box cannot resolve is a config
    error at validation: --validate-only exits 1, and a full run writes no
    stage before refusing it."""
    out = tmp_path / "out"
    doc = {**SMALL_COMPARE, "output_dir": str(out),
           "observables": [[[0, 0, 0], [0, 0, 0]], [[0, 0, 0], [9, 0, 0]]]}
    path = write_config(tmp_path, "c.json", doc)
    assert cli.dispatch(["compare", "--config", str(path), "--validate-only"]) == 1
    assert "shift (9, 0, 0) exceeds half the box size 8" in capsys.readouterr().err
    assert cli.dispatch(["compare", "--config", str(path)]) == 1
    assert list(out.iterdir()) == []


def test_compare_writes_no_table_and_recomputes_a_missing_reference(tmp_path):
    """The stage files are the study's only cache: compare writes no
    collision table, and a rerun after the reference stage is deleted rebuilds
    the table and rewrites the cold run's report.json byte for byte."""
    out = tmp_path / "out"
    path = write_config(tmp_path, "c.json", {**SMALL_COMPARE, "output_dir": str(out)})
    assert cli.dispatch(["compare", "--config", str(path)]) == 0
    cold = (out / "report.json").read_bytes()
    assert not list(out.glob("table_*.npz"))
    (stage,) = out.glob("reference_*.json")
    stage.unlink()
    assert cli.dispatch(["compare", "--config", str(path)]) == 0
    assert stage.exists()
    assert (out / "report.json").read_bytes() == cold
    assert not list(out.glob("table_*.npz"))


def test_workers_is_a_compare_key_only(tmp_path, capsys):
    """Only compare runs realizations in parallel; every other subcommand
    refuses a workers key as unknown instead of ignoring it."""
    boltzmann = {"couplings": NN_COUPLINGS, "M": 8,
                 "initial": {"type": "wkb", "k0": [0.125, 0.0, 0.0], "sigma": 0.5},
                 "t_bar": 0.2, "particles": 2000, "master_seed": 37,
                 "output_dir": str(tmp_path / "b"), "workers": 2}
    path = write_config(tmp_path, "b.json", boltzmann)
    assert cli.dispatch(["boltzmann", "--config", str(path)]) == 1
    assert "workers" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()
    path = write_config(tmp_path, "c.json", {**SMALL_COMPARE, "workers": 2})
    assert cli.dispatch(["compare", "--config", str(path), "--validate-only"]) == 0
    for sub, schema in cli._SCHEMAS.items():
        assert ("workers" in schema["properties"]) == (sub == "compare")


def test_asymmetric_couplings_exit_one(tmp_path, capsys):
    # alpha(1,0,0) != alpha(-1,0,0): the cosine-only symbol would silently
    # symmetrize these couplings, so they are refused
    couplings = [dict(row) for row in NN_COUPLINGS]
    couplings[2]["value"] = -0.2            # offset (-1, 0, 0)
    doc = {**dispersion_doc(tmp_path / "o"), "couplings": couplings}
    path = write_config(tmp_path, "c.json", doc)
    assert cli.dispatch(["dispersion", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "invalid config" in err and "not symmetric" in err
    assert not (tmp_path / "o" / "dispersion.json").exists()


# StudyConfig fields a compare config cannot set, and why
COMPARE_EXCLUDED = {
    "m_max": "read only by the solver cross-check, which compare never runs",
    "dyson_samples": "read only by the solver cross-check, which compare never runs",
    "crosscheck_xi2": "read only by the solver cross-check, which compare never runs",
}


def test_compare_schema_covers_the_study_fields():
    from dataclasses import fields

    from kinwave.harness import StudyConfig

    accepted = set(cli._SCHEMAS["compare"]["properties"]) - {"output_dir", "resume"}
    assert accepted == {f.name for f in fields(StudyConfig)} - set(COMPARE_EXCLUDED)


def _masked_artifacts(out):
    """Every file of a run directory by name, bytes as written except each
    rung's wall time, the one value that differs between identical runs."""
    return {path.name: re.sub(rb'"elapsed": [-+.0-9eE]+', b'"elapsed": 0', path.read_bytes())
            for path in sorted(out.iterdir())}


def test_every_compare_artifact_carries_the_study_triple(tmp_path):
    """One compare run writes one triple: every JSON artifact, summary.json
    included, carries the hash of the study's canonical form."""
    from kinwave.harness import StudyConfig

    out = tmp_path / "out"
    path = write_config(tmp_path, "c.json", {**SMALL_COMPARE, "output_dir": str(out)})
    assert cli.dispatch(["compare", "--config", str(path)]) == 0
    triple = io.artifact_metadata(StudyConfig.from_obj(SMALL_COMPARE).to_obj(),
                                  SMALL_COMPARE["master_seed"])
    artifacts = sorted(out.glob("*.json"))
    assert "summary.json" in [a.name for a in artifacts]
    for artifact in artifacts:
        payload = io.read_json(artifact)
        assert {k: payload[k] for k in triple} == triple, artifact.name


@pytest.mark.parametrize("extra", [{"resume": True}, {"workers": 1}])
def test_resume_and_workers_change_no_compare_artifact(tmp_path, extra):
    """resume and workers do not enter the study's identity: adding either
    at its default value changes no byte of any artifact but the wall times."""
    runs = {}
    for name, doc in (("plain", SMALL_COMPARE), ("extra", {**SMALL_COMPARE, **extra})):
        out = tmp_path / name
        path = write_config(tmp_path, f"{name}.json", {**doc, "output_dir": str(out)})
        assert cli.dispatch(["compare", "--config", str(path)]) == 0
        runs[name] = _masked_artifacts(out)
    assert runs["plain"] == runs["extra"]


def test_kernel_table_and_snapshots_carry_the_run_triple(tmp_path):
    """The collision table of a kernel run and the snapshot sidecars of a
    simulate run carry the triple of the run's JSON summary, the config's
    master seed included."""
    kernel = {"couplings": NN_COUPLINGS, "M": 8, "beta": 0.5, "balance_pairs": 10,
              "master_seed": 41, "output_dir": str(tmp_path / "k")}
    assert cli.dispatch(["kernel", "--config",
                         str(write_config(tmp_path, "k.json", kernel))]) == 0
    summary = io.read_json(tmp_path / "k" / "kernel.json")
    triple = {k: summary[k] for k in ("tool_version", "config_hash", "master_seed")}
    assert triple["master_seed"] == 41
    with np.load(tmp_path / "k" / summary["table"]) as pack:
        meta = json.loads(bytes(pack["meta"]).decode("utf-8"))
    assert {k: meta[k] for k in triple} == triple

    simulate = {"couplings": NN_COUPLINGS, "L": 8, "eps": 0.25,
                "distribution": "rademacher",
                "initial": {"type": "point",
                            "amplitudes": [{"offset": [0, 0, 0], "re": 1.0}]},
                "t_final": 0.5, "snapshots": 2, "master_seed": 43,
                "output_dir": str(tmp_path / "s")}
    assert cli.dispatch(["simulate", "--config",
                         str(write_config(tmp_path, "s.json", simulate))]) == 0
    summary = io.read_json(tmp_path / "s" / "simulate.json")
    triple = {k: summary[k] for k in ("tool_version", "config_hash", "master_seed")}
    sidecars = sorted((tmp_path / "s").glob("state_*.bin.json"))
    assert len(sidecars) == 2
    for sidecar in sidecars:
        side = io.read_json(sidecar)
        assert {k: side[k] for k in triple} == triple
        assert side["seed"] == 43


def test_acceptance_study_dir_is_what_compare_writes(tmp_path, monkeypatch):
    """run_acceptance's study/ holds the files a compare of the same config
    writes, byte for byte but the wall times."""
    from kinwave import harness

    out = tmp_path / "compare"
    path = write_config(tmp_path, "c.json", {**SMALL_COMPARE, "output_dir": str(out)})
    assert cli.dispatch(["compare", "--config", str(path)]) == 0
    stubs = {cid: (lambda *cfg, cid=cid: harness.CriterionResult(cid, "stub", True, {}))
             for cid in range(1, 12)}
    monkeypatch.setattr(harness, "CRITERION_RUNNERS", stubs)
    harness.run_acceptance(out_dir=tmp_path / "accept",
                           cfg=harness.StudyConfig.from_obj(SMALL_COMPARE))
    assert _masked_artifacts(tmp_path / "accept" / "study") == _masked_artifacts(out)
