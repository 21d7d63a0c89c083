"""The estimate record and the one mean-and-standard-error reduction."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = ["Estimates"]


@dataclass(frozen=True)
class Estimates:
    """Scaled sample means with standard errors, one entry per column: F(p, n)
    per observable, in the caller's order, from the lattice average and both
    transport solvers, and the Monte Carlo checks' single columns."""

    mean: np.ndarray         # (n_obs,) complex
    stderr_re: np.ndarray    # (n_obs,) standard error of the real part
    stderr_im: np.ndarray    # (n_obs,) standard error of the imaginary part
    count: int               # realizations or particles behind each mean

    @staticmethod
    def of(columns, scale: float) -> "Estimates":
        """scale times the sample mean of each column, with the standard
        error of the mean, std(ddof=1) / sqrt(count), of its real and
        imaginary parts.  A sum over particles of equal weight scale / count
        is such a mean, and its jackknife standard error is this one (Efron
        1982), so the lattice average (realization columns, scale 1) and the
        transport solvers (particle columns, scale the ensemble mass) share
        one reduction.  The columns are reduced one at a time, so an iterable
        of them is never stacked.  count is read off the columns: all must
        have the same length, at least two, and there must be at least one."""
        mean, se_re, se_im, count = [], [], [], 0
        for z in columns:
            count = count or len(z)
            if len(z) != count or count < 2:
                raise ConfigError("a standard error needs columns of one length, at "
                                  f"least 2 (got {count} and {len(z)})")
            mean.append(z.mean())
            se_re.append(z.real.std(ddof=1))
            # z.imag of a real column would be a new column of zeros
            se_im.append(z.imag.std(ddof=1) if np.iscomplexobj(z) else 0.0)
        if not count:
            raise ConfigError("no column to reduce")
        root = math.sqrt(count)
        return Estimates(mean=np.array(mean, dtype=np.complex128) * scale,
                         stderr_re=np.array(se_re, dtype=np.float64) / root * scale,
                         stderr_im=np.array(se_im, dtype=np.float64) / root * scale,
                         count=count)
