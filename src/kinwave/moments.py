"""Mixed moments of the site disorder via set partitions and cumulants.

A mixed moment E[xi_{i_1} .. xi_{i_N}] expands over set partitions: each
block A contributes the cumulant C_|A| when all its indices name the same
site, zero otherwise.  Cumulants are computed exactly (rational arithmetic)
from the moment sequence of the disorder law; both supported laws have unit
variance, so C_1 = 0 and C_2 = 1, and the higher cumulants obey the classical
factorial bound |C_n| <= 3 xi_bar^n n!.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

import numpy as np

from .errors import ConfigError
from .lattice import XI_BAR, draw_disorder

__all__ = [
    "CumulantVector",
    "MomentCheck",
    "enumerate_partitions",
    "cumulants_of",
    "moment_via_partitions",
    "verify_moment_mc",
    "check_cumulant_bound",
]

MAX_ORDER = 10


def enumerate_partitions(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """All set partitions of {0..n-1} in canonical order.

    Built level by level: each partition of {0..e-1} yields the partitions
    of {0..e} that put e into each of its blocks in turn, then into a new
    block.  Blocks are therefore ordered by their minimum element (so each
    block's first entry is its minimum), and the list is ordered
    lexicographically by the block chosen for each element.
    Refuses n > 10 (Bell numbers explode).
    """
    if not (1 <= n <= MAX_ORDER):
        raise ConfigError(f"partition order must lie in 1..{MAX_ORDER}")
    level: list[tuple[tuple[int, ...], ...]] = [((0,),)]
    for e in range(1, n):
        new = (e,)
        grown = []
        for p in level:
            blocks = list(p)
            for i, block in enumerate(p):
                blocks[i] = block + new
                grown.append(tuple(blocks))
                blocks[i] = block
            grown.append(p + (new,))
        level = grown
    return level


@dataclass(frozen=True)
class CumulantVector:
    """Exact cumulants C_1..C_n of a disorder law, plus its support bound."""

    distribution: str
    values: tuple[Fraction, ...]

    @property
    def xi_bar(self) -> float:
        return XI_BAR[self.distribution]

    def __getitem__(self, order: int) -> Fraction:
        if not (1 <= order <= len(self.values)):
            raise ConfigError(f"cumulant order {order} not tabulated")
        return self.values[order - 1]


def _moments(distribution: str, n_max: int) -> list[Fraction]:
    """Raw moments m_1..m_n, exact."""
    if distribution == "uniform":
        # uniform on [-sqrt(3), sqrt(3)]: E x^(2j) = 3^j/(2j+1), odd moments zero
        return [
            Fraction(3 ** (j // 2), j + 1) if j % 2 == 0 else Fraction(0)
            for j in range(1, n_max + 1)
        ]
    if distribution == "rademacher":
        return [Fraction(1) if j % 2 == 0 else Fraction(0) for j in range(1, n_max + 1)]
    raise ConfigError(f"unknown disorder distribution {distribution!r}")


def cumulants_of(distribution: str, n_max: int = MAX_ORDER) -> CumulantVector:
    """Cumulants from the moment recursion
    C_n = m_n - sum_{j<n} C(n-1, j-1) C_j m_{n-j}, exact in rational arithmetic."""
    if not (1 <= n_max <= MAX_ORDER):
        raise ConfigError(f"cumulant order must lie in 1..{MAX_ORDER}")
    m = _moments(distribution, n_max)
    c: list[Fraction] = []
    for n in range(1, n_max + 1):
        total = m[n - 1]
        for j in range(1, n):
            tail = m[n - j - 1] if n - j >= 1 else Fraction(1)
            total -= comb(n - 1, j - 1) * c[j - 1] * tail
        c.append(total)
    return CumulantVector(distribution=distribution, values=tuple(c))


def moment_via_partitions(index_map, cum: CumulantVector) -> Fraction:
    """E[prod_l xi_{sites[l]}] by the partition expansion.

    index_map is a sequence of site labels (any hashables); a block contributes
    its cumulant only when all its labels coincide.
    """
    sites = list(index_map)
    total = Fraction(0)
    for partition in enumerate_partitions(len(sites)):
        term = Fraction(1)
        for block in partition:
            first = sites[block[0]]
            if any(sites[i] != first for i in block[1:]):
                term = Fraction(0)
                break
            term *= cum[len(block)]
        total += term
    return total


@dataclass(frozen=True)
class MomentCheck:
    exact: float
    mc_mean: float
    mc_stderr: float
    z_score: float
    n_samples: int


def verify_moment_mc(
    index_map, distribution: str, n_samples: int = 1_000_000, seed: int = 0
) -> MomentCheck:
    """Monte Carlo check of the partition formula for one index pattern."""
    sites = list(index_map)
    labels = sorted(set(sites), key=repr)
    columns = {lab: i for i, lab in enumerate(labels)}
    draws = draw_disorder(np.random.default_rng(seed), distribution,
                          (n_samples, len(labels)))
    prod = np.ones(n_samples)
    for lab in sites:
        prod *= draws[:, columns[lab]]
    mc_mean = float(prod.mean())
    mc_se = float(prod.std(ddof=1) / np.sqrt(n_samples))
    exact = float(moment_via_partitions(sites, cumulants_of(distribution, len(sites))))
    z = (mc_mean - exact) / mc_se if mc_se > 0 else 0.0
    return MomentCheck(
        exact=exact, mc_mean=mc_mean, mc_stderr=mc_se, z_score=float(z),
        n_samples=n_samples,
    )


def check_cumulant_bound(cum: CumulantVector) -> list[tuple[int, bool]]:
    """|C_n| <= 3 xi_bar^n n! for each tabulated order above 2."""
    return [
        (n, abs(float(cum[n])) <= 3.0 * cum.xi_bar**n * factorial(n))
        for n in range(3, len(cum.values) + 1)
    ]
