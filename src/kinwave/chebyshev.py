"""Chebyshev interpolation on the second-kind points x_j = cos(pi j / deg).

The simplex kernels of the kinetic solver and the lattice propagator both
expand smooth functions on [-1, 1] in Chebyshev polynomials; this module is
the one home of the nodes and of the DCT-I that turns node values into
coefficients.
"""

from __future__ import annotations

import numpy as np

__all__ = ["cheb_nodes", "cheb_coeffs"]


def cheb_nodes(deg: int) -> np.ndarray:
    """The deg + 1 second-kind points cos(pi j / deg), from 1 down to -1."""
    return np.cos(np.pi * np.arange(deg + 1) / deg)


def cheb_coeffs(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of the interpolant through values at the
    second-kind points returned by cheb_nodes."""
    deg = values.size - 1
    even = np.concatenate([values, values[-2:0:-1]])
    coeffs = np.fft.fft(even)[: deg + 1] / deg      # DCT-I: FFT of the even extension
    coeffs[0] /= 2.0
    coeffs[-1] /= 2.0
    return coeffs
