"""Source layout rules of the package: each shared constant has one home,
and modules reach each other only through public names."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import kinwave

SRC = Path(kinwave.__file__).parent
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def test_two_pi_has_one_home():
    homes = [
        name for name, tree in _modules().items()
        if any(isinstance(node, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id == "TWO_PI" for t in node.targets)
               for node in ast.walk(tree))
    ]
    assert homes == ["dispersion"]


def test_no_module_imports_another_modules_private_names():
    offenders = []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").startswith("kinwave")
            offenders += [f"{name}: from {node.module} import {alias.name}"
                          for alias in node.names
                          if internal and alias.name.startswith("_")
                          and alias.name != "__version__"]
    assert offenders == []


def test_verlet_and_energy_use_no_fft():
    """The lattice force is a real-space stencil: neither evolve, propagate
    nor energy, nor any lattice function they reach, calls into numpy.fft."""
    tree = _modules()["lattice"]
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    reached, todo = set(), ["evolve", "propagate", "energy"]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        todo += [node.id for node in ast.walk(funcs[name])
                 if isinstance(node, ast.Name) and node.id in funcs]
    offenders = sorted(
        name for name in reached for node in ast.walk(funcs[name])
        if (isinstance(node, ast.Attribute) and node.attr == "fft")
        or (isinstance(node, ast.Name) and "fft" in node.id)
    )
    assert offenders == []
    assert {"evolve", "propagate", "energy", "_convolve"} <= reached


def _modules_loaded_after(statements: str, modules: list[str]) -> str:
    """The modules of the list that a fresh interpreter has loaded after
    running the statements, as printed by that interpreter."""
    code = f"import sys; {statements}; print([m for m in {modules!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return out.stdout.strip()


def test_cli_import_leaves_heavy_scipy_modules_out():
    """Importing the CLI loads none of the scipy submodules that cost between
    0.3 s and a second at import; the criteria that need them import them
    when they run."""
    heavy = ["scipy.signal", "scipy.stats", "scipy.integrate", "scipy.fft",
             "scipy.special"]
    assert _modules_loaded_after("import kinwave.cli", heavy) == "[]"


def test_criteria_7_and_9_run_without_scipy_stats_or_integrate():
    """Criterion 7 takes its p-values from the closed-form chi-square
    survival function and criterion 9 checks against a closed form, so
    neither loads any scipy module: scipy is a test dependency only."""
    statements = ("from kinwave.harness import criterion_7, criterion_9; "
                  "assert criterion_7().passed and criterion_9().passed")
    assert _modules_loaded_after(statements, ["scipy"]) == "[]"


def test_runtime_dependencies_match_imports():
    """The third-party packages that src/kinwave imports, at module level or
    inside a function, are exactly pyproject.toml's [project].dependencies."""
    tomllib = pytest.importorskip("tomllib")
    imported = set()
    for tree in _modules().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"__future__", "kinwave"}
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower()
                for spec in project["project"]["dependencies"]}
    assert third_party == declared


def test_every_traced_function_resolves():
    """The benchmark tracer wraps each (module, function) of its TRACED table
    by name; a name missing from kinwave would crash a traced run."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    (table,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)]
    traced = ast.literal_eval(table)
    assert traced
    missing = [f"{module}.{name}" for module, name, _ in traced
               if not callable(getattr(importlib.import_module(f"kinwave.{module}"),
                                       name, None))]
    assert missing == []


def test_every_subcommand_reads_each_key_it_accepts():
    """A key that a subcommand's schema accepts but its handler never reads
    would be silently ignored: each schema property appears as a string
    constant in that subcommand's _cmd_<name> handler.  Exempt are the keys
    that dispatch alone reads: output_dir, which routes the artifacts, and
    dispersion's master_seed, which draws nothing and enters only the triple.
    compare hands its document to StudyConfig, whose fields
    test_compare_schema_covers_the_study_fields checks."""
    from kinwave import cli

    handlers = {node.name: node for node in _modules()["cli"].body
                if isinstance(node, ast.FunctionDef)}
    exempt = {f"{sub}.output_dir" for sub in cli._SCHEMAS} | {"dispersion.master_seed"}
    ignored = []
    for sub, schema in cli._SCHEMAS.items():
        if sub == "compare":
            continue
        read = {node.value for node in ast.walk(handlers[f"_cmd_{sub}"])
                if isinstance(node, ast.Constant) and isinstance(node.value, str)}
        ignored += [f"{sub}.{key}" for key in schema["properties"]
                    if f"{sub}.{key}" not in exempt and key not in read]
    assert ignored == []


def test_one_estimate_record():
    """The lattice average and both transport solvers share one estimate
    record: exactly one class in the package declares a stderr_* field (a
    standard error split into real and imaginary parts)."""
    declaring = sorted(
        f"{name}.{node.name}" for name, tree in _modules().items()
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        and any(isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                and stmt.target.id.startswith("stderr_") for stmt in node.body)
    )
    assert declaring == ["wigner.Estimates"]


def test_tracer_reads_only_run_config_fields():
    """The benchmark tracer records, for each disorder_average call, the
    attributes it reads from the call's first argument, a RunConfig: every
    cfg.<attr> in its wigner.disorder_average branch is a RunConfig field."""
    from dataclasses import fields

    from kinwave.wigner import RunConfig

    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    (branch,) = [node for node in ast.walk(tree) if isinstance(node, ast.If)
                 and isinstance(node.test, ast.Compare)
                 and any(isinstance(c, ast.Constant) and c.value == "wigner.disorder_average"
                         for c in node.test.comparators)]
    read = {node.attr for stmt in branch.body for node in ast.walk(stmt)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "cfg"}
    assert read >= {"convention", "eps", "L"}
    assert read <= {f.name for f in fields(RunConfig)}
