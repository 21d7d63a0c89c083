from fractions import Fraction

import pytest

from kinwave.errors import ConfigError
from kinwave.moments import (
    check_cumulant_bound,
    cumulants_of,
    enumerate_partitions,
    moment_via_partitions,
    verify_moment_mc,
)


def test_partition_counts_are_bell_numbers():
    # Bell numbers B_0..B_6
    for n, b in enumerate([1, 1, 2, 5, 15, 52, 203]):
        if n > 0:
            assert len(enumerate_partitions(n)) == b


def test_partitions_are_partitions():
    for part in enumerate_partitions(5):
        flat = sorted(i for block in part for i in block)
        assert flat == list(range(5))
        assert all(block == tuple(sorted(block)) for block in part)


def _recursive_partitions(n):
    """Depth-first reference: element e joins each block in turn, then a new one."""
    out = []

    def grow(element, blocks):
        if element == n:
            out.append(tuple(tuple(b) for b in blocks))
            return
        for b in blocks:
            b.append(element)
            grow(element + 1, blocks)
            b.pop()
        blocks.append([element])
        grow(element + 1, blocks)
        blocks.pop()

    grow(0, [])
    return out


def test_partitions_match_the_recursive_reference_in_order():
    for n in range(1, 9):
        assert enumerate_partitions(n) == _recursive_partitions(n)


def test_uniform_cumulants():
    cum = cumulants_of("uniform", 8)
    assert cum[1] == 0
    assert cum[2] == 1
    assert cum[3] == 0
    assert cum[4] == Fraction(-6, 5)
    assert cum[6] == Fraction(48, 7)
    assert cum.xi_bar == pytest.approx(3**0.5)


def test_rademacher_cumulants():
    cum = cumulants_of("rademacher", 8)
    assert cum[2] == 1
    assert cum[4] == -2
    assert cum[6] == 16
    assert cum[8] == -272
    assert cum.xi_bar == 1.0


def test_cumulant_order_guards():
    with pytest.raises(ConfigError):
        cumulants_of("uniform", 0)
    with pytest.raises(ConfigError):
        cumulants_of("uniform", 11)
    with pytest.raises(ConfigError):
        cumulants_of("gaussian", 4)
    cum = cumulants_of("uniform", 4)
    with pytest.raises(ConfigError):
        cum[5]


def test_moment_via_partitions_pair_pattern():
    # E xi_a^2 xi_b^2 = (E xi^2)^2 = 1 for independent sites
    cum = cumulants_of("rademacher", 8)
    assert moment_via_partitions([0, 0, 1, 1], cum) == 1
    # E xi^4 = C4 + 3 C2^2 = -2 + 3 = 1 for rademacher
    assert moment_via_partitions([0, 0, 0, 0], cum) == 1
    un = cumulants_of("uniform", 8)
    assert moment_via_partitions([0, 0, 0, 0], un) == Fraction(9, 5)


def test_factorial_growth_bound():
    for dist in ("uniform", "rademacher"):
        assert all(ok for _, ok in check_cumulant_bound(cumulants_of(dist, 10)))


def test_verify_moment_mc():
    chk = verify_moment_mc([0, 0, 1, 1, 2, 2], "uniform", n_samples=200_000, seed=17)
    assert abs(chk.z_score) < 4.0
    assert chk.exact == 1.0
    chk2 = verify_moment_mc([0, 0, 0, 0], "rademacher", n_samples=50_000, seed=18)
    assert chk2.mc_stderr == 0.0           # xi^4 = 1 pointwise
    assert chk2.mc_mean == 1.0
