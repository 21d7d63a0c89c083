"""Initial wave data shared by the microscopic and kinetic solvers.

Both solvers must start from the same macroscopic data: the lattice gets the
wave field itself (semiclassical packet or finitely supported amplitudes), the
transport solver gets the matching limit measure on position x wavevector.
Each spec has one JSON form: to_obj writes it, initial_from_obj reads it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .dispersion import TWO_PI
from .errors import ConfigError

__all__ = ["squared_radius", "WKBPacket", "PointSource", "initial_from_obj"]


def squared_radius(x: np.ndarray) -> np.ndarray:
    """|x|^2 of positions x of shape (..., 3), summed in axis order."""
    r2 = x[..., 0] ** 2
    r2 += x[..., 1] ** 2
    r2 += x[..., 2] ** 2
    return r2


@dataclass(frozen=True)
class WKBPacket:
    """Gaussian envelope with a plane-wave carrier.

    envelope h(x) = amplitude * exp(-|x|^2 / (2 sigma^2)), phase S(x) = 2 pi
    k0.x, so the limiting phase-space measure is |h(x)|^2 dx x delta at k0.
    """

    k0: tuple[float, float, float]
    sigma: float
    amplitude: float = 1.0

    def __post_init__(self):
        if len(self.k0) != 3:
            raise ConfigError(f"carrier wavevector {self.k0} is not a 3-vector")
        if self.sigma <= 0.0:
            raise ConfigError("packet width must be positive")

    def to_obj(self) -> dict:
        return {"type": "wkb", "k0": list(self.k0), "sigma": self.sigma,
                "amplitude": self.amplitude}

    def envelope(self, x: np.ndarray) -> np.ndarray:
        return self.amplitude * np.exp(-squared_radius(x) / (2.0 * self.sigma**2))

    def phase(self, x: np.ndarray) -> np.ndarray:
        return TWO_PI * (x @ np.asarray(self.k0, dtype=np.float64))

    def grad_phase(self, x: np.ndarray) -> np.ndarray:
        k0 = np.asarray(self.k0, dtype=np.float64)
        return np.broadcast_to(TWO_PI * k0, x.shape).copy()

    @property
    def mass(self) -> float:
        """integral of |h|^2 over R^3 (Gaussian closed form)."""
        return float(self.amplitude**2 * (np.sqrt(np.pi) * self.sigma) ** 3)

    @property
    def diameter(self) -> float:
        """Macroscopic packet extent used by box-size guards (6 sigma)."""
        return 6.0 * self.sigma

    def sample_positions(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n exact draws from the normalized |h(x)|^2 ~ exp(-|x|^2 / sigma^2),
        which is N(0, sigma^2 / 2) on each axis; shape (n, 3)."""
        return rng.normal(scale=self.sigma / np.sqrt(2.0), size=(n, 3))


@dataclass(frozen=True)
class PointSource:
    """Finitely supported amplitudes around the origin site.

    The limiting measure is delta(x) times |psi_hat(k)|^2 dk, psi_hat the
    lattice Fourier transform of the amplitudes.  Each offset must be an
    integer 3-vector: an integral float such as 1.0 is stored as the int 1,
    and 1.9 is refused, not truncated.  The amplitudes are kept sorted by
    offset.
    """

    amplitudes: tuple[tuple[tuple[int, int, int], complex], ...]

    def __post_init__(self):
        items = []
        for off, val in self.amplitudes:
            if len(off) != 3 or not all(isinstance(c, numbers.Real)
                                        and float(c).is_integer() for c in off):
                raise ConfigError(f"offset {list(off)} is not an integer 3-vector")
            items.append((tuple(int(c) for c in off), complex(val)))
        items.sort(key=lambda item: item[0])
        object.__setattr__(self, "amplitudes", tuple(items))

    @staticmethod
    def from_dict(amps: dict[tuple[int, int, int], complex]) -> "PointSource":
        return PointSource(amplitudes=tuple(amps.items()))

    def to_obj(self) -> dict:
        return {"type": "point", "amplitudes": [
            {"offset": list(off), "re": v.real, "im": v.imag}
            for off, v in self.amplitudes
        ]}

    def as_dict(self) -> dict[tuple[int, int, int], complex]:
        return dict(self.amplitudes)

    @property
    def mass(self) -> float:
        """sum |psi_y|^2; by Parseval also the k-integral of |psi_hat|^2."""
        return float(sum(abs(v) ** 2 for _, v in self.amplitudes))

    @property
    def diameter(self) -> float:
        if not self.amplitudes:
            return 0.0
        return 2.0 * max(abs(c) for off, _ in self.amplitudes for c in off) + 1.0

    def fourier_weights(self, k: np.ndarray) -> np.ndarray:
        """|psi_hat(k)|^2 at wavevectors of shape (..., 3)."""
        out = np.zeros(k.shape[:-1], dtype=np.complex128)
        for off, val in self.amplitudes:
            out += val * np.exp(-1j * TWO_PI * (k @ np.asarray(off, dtype=np.float64)))
        return np.abs(out) ** 2


def initial_from_obj(obj: dict) -> WKBPacket | PointSource:
    """Inverse of WKBPacket.to_obj / PointSource.to_obj; amplitude defaults
    to 1 and a point amplitude's imaginary part to 0.  A type other than
    "wkb" and "point" is refused."""
    if obj["type"] == "wkb":
        return WKBPacket(
            k0=tuple(float(x) for x in obj["k0"]),
            sigma=float(obj["sigma"]),
            amplitude=float(obj.get("amplitude", 1.0)),
        )
    if obj["type"] == "point":
        return PointSource.from_dict({
            tuple(row["offset"]): complex(row["re"], row.get("im", 0.0))
            for row in obj["amplitudes"]
        })
    raise ConfigError(f"unknown initial data type {obj['type']!r}")
