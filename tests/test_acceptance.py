"""Acceptance gate: the thirteen quantitative criteria, one line each.

Criteria 12 and 13 judge the two reports of one run_study call, shared
through a session fixture; stage artifacts land in KINWAVE_ACCEPT_DIR when
set (hash-guarded, so a stale or foreign stage is recomputed, never
trusted), else in a fresh temporary directory.  Each test appends its
verdict line to the shared list printed in the terminal summary.
"""

import os
from pathlib import Path

import pytest

from kinwave import harness

from conftest import ACCEPTANCE_LINES


def record(result):
    line = result.line()
    ACCEPTANCE_LINES.append(line)
    print(line)
    return result


@pytest.fixture(scope="session")
def accept_dir(tmp_path_factory):
    env = os.environ.get("KINWAVE_ACCEPT_DIR")
    if env:
        path = Path(env)
        path.mkdir(parents=True, exist_ok=True)
        return path
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def study(accept_dir):
    """(ConvergenceReport, TransportReport) of the default study."""
    return harness.run_study(harness.DEFAULT_STUDY, out_dir=accept_dir)


def test_criterion_01_norm_energy_identity():
    r = record(harness.criterion_1())
    assert r.passed, r.detail


def test_criterion_02_microscopic_integrator():
    r = record(harness.criterion_2())
    assert r.passed, r.detail


def test_criterion_03_integrator_order():
    r = record(harness.criterion_3())
    assert r.passed, r.detail


def test_criterion_04_free_decay_rate():
    r = record(harness.criterion_4())
    assert r.passed, r.detail


def test_criterion_05_kernel_detailed_balance():
    r = record(harness.criterion_5())
    assert r.passed, r.detail


def test_criterion_06_gate_vs_half_rate():
    r = record(harness.criterion_6())
    assert r.passed, r.detail


def test_criterion_07_jump_kernel_sampling():
    r = record(harness.criterion_7())
    assert r.passed, r.detail


def test_criterion_08_solver_crosscheck():
    r = record(harness.criterion_8())
    assert r.passed, r.detail


def test_criterion_09_simplex_kernel_properties():
    r = record(harness.criterion_9())
    assert r.passed, r.detail


def test_criterion_10_moment_mc():
    r = record(harness.criterion_10())
    assert r.passed, r.detail


def test_criterion_11_free_flight():
    r = record(harness.criterion_11())
    assert r.passed, r.detail


def test_criterion_12_kinetic_convergence(study):
    r = record(harness.criterion_12(study[0]))
    assert r.passed, r.detail


def test_criterion_13_energy_transport(study):
    r = record(harness.criterion_13(study[1]))
    assert r.passed, r.detail


def test_all_thirteen_reported():
    assert len({line.split("[")[0] for line in ACCEPTANCE_LINES}) == 13
