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
WORKLOADS = TRACER.with_name("workloads.py")


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


def test_the_symbol_is_tabulated_in_one_module():
    """omega on a grid comes from dispersion.build_dispersion alone: no other
    module evaluates the symbol alpha_hat."""
    readers = sorted(
        name for name, tree in _modules().items() if name != "dispersion"
        and any((isinstance(node, ast.Attribute) and node.attr == "alpha_hat")
                or (isinstance(node, ast.Name) and node.id == "alpha_hat")
                for node in ast.walk(tree))
    )
    assert readers == []


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


def test_every_workload_call_into_kinwave_resolves():
    """The benchmark workloads reach kinwave by name: every name they import
    from it and every attribute they read off a kinwave module exists, and
    every keyword they pass to a kinwave callable, or to dataclasses.replace
    on a kinwave object, is one of its parameters or fields.  A name or
    keyword that went missing would surface only as failed operations."""
    import dataclasses
    import inspect

    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("kinwave"):
            for alias in node.names:
                try:
                    bound[alias.asname or alias.name] = importlib.import_module(
                        f"{node.module}.{alias.name}")
                except ModuleNotFoundError:
                    module = importlib.import_module(node.module)
                    assert hasattr(module, alias.name), f"{node.module}.{alias.name} is missing"
                    bound[alias.asname or alias.name] = getattr(module, alias.name)

    def resolve(expr):
        """The kinwave object an expression names, or None."""
        if isinstance(expr, ast.Name):
            return bound.get(expr.id)
        if isinstance(expr, ast.Attribute):
            owner = resolve(expr.value)
            if owner is not None:
                assert hasattr(owner, expr.attr), f"{ast.unparse(expr)} is missing"
                return getattr(owner, expr.attr)
        return None

    checked = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            resolve(node)
        if not isinstance(node, ast.Call) or not node.keywords:
            continue
        if ast.unparse(node.func) == "dataclasses.replace":
            target = resolve(node.args[0])
            names = target and {f.name for f in dataclasses.fields(target)}
        else:
            callee = resolve(node.func)
            names = callee and set(inspect.signature(callee).parameters)
        if names is None:
            continue
        checked.append(ast.unparse(node.func))
        unknown = [kw.arg for kw in node.keywords if kw.arg not in names]
        assert unknown == [], f"{ast.unparse(node)[:60]}: {unknown}"
    assert {"RunConfig", "lattice.evolve", "dataclasses.replace"} <= set(checked)


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


def _calls_by_scope(tree, callee: str):
    """The enclosing class and function names of every call to callee, by
    bare name or as a module attribute."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and callee in (
                    getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                found.append(".".join(scope))
            visit(child, scope)

    visit(tree, [])
    return found


def test_every_estimate_comes_from_one_reduction():
    """Every Estimates record in the package is built by wigner.Estimates.of,
    and a particle ensemble carries its mass, not a per-particle weight: its
    only per-particle arrays are the positions and the wavevector indices."""
    from dataclasses import fields

    from kinwave.kinetic import ParticleEnsemble

    builders = sorted(f"{name}.{scope}" for name, tree in _modules().items()
                      for scope in _calls_by_scope(tree, "Estimates"))
    assert builders == ["wigner.Estimates.of"]
    arrays = {f.name for f in fields(ParticleEnsemble) if f.type == "np.ndarray"}
    assert arrays == {"x", "k_idx"}
    assert {f.name: f.type for f in fields(ParticleEnsemble)}["mass"] == "float"


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
