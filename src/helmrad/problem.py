"""Wave-speed profiles, problem configuration, and constructive examples.

Indexing convention: a profile with N layers has jump points
x_0 = 0 < x_1 < ... < x_N = 1 and carries speed c_j on the annulus
tau_j = (x_{j-1}, x_j).  The n := N - 1 interior jump points x_1..x_n are
the interfaces of the transmission problem.
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class Violation(NamedTuple):
    index: int
    reason: str


def _real(value, name: str) -> float:
    """``value`` as a float, if it is a real number and not a bool; a float
    skips the ABC checks."""
    if type(value) is not float and (
            isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class WaveSpeedProfile:
    """Piecewise-constant wave speed on the unit ball."""

    jump_points: tuple  # x_0..x_N, x_0 = 0, x_N = 1
    speeds: tuple       # c_1..c_N, speed on (x_{j-1}, x_j)

    def __post_init__(self):
        object.__setattr__(self, "jump_points", tuple(
            _real(x, "jump point") for x in self.jump_points))
        object.__setattr__(self, "speeds", tuple(
            _real(c, "wave speed") for c in self.speeds))
        bad = validate(self)
        if bad:
            raise ValueError("invalid wave-speed profile: " + "; ".join(
                f"[{v.index}] {v.reason}" for v in bad))

    @property
    def num_layers(self) -> int:
        return len(self.speeds)

    @property
    def num_interfaces(self) -> int:
        """Number n of interior jump points."""
        return self.num_layers - 1

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.jump_points)

    @property
    def c_min(self) -> float:
        return min(self.speeds)

    @property
    def c_max(self) -> float:
        return max(self.speeds)

    def layer_of(self, r: float) -> int:
        """1-based layer index containing r; jump points belong to the left layer."""
        x = self.jump_points
        j = int(np.searchsorted(x, r, side="left"))
        return min(max(j, 1), self.num_layers)


def validate(profile) -> list[Violation]:
    """Check the profile invariants, returning violations instead of raising."""
    out: list[Violation] = []
    x = np.asarray(profile.jump_points, dtype=float)
    c = np.asarray(profile.speeds, dtype=float)
    if len(c) < 1:
        out.append(Violation(0, "profile needs at least one layer"))
        return out
    if len(x) != len(c) + 1:
        out.append(Violation(0, f"expected {len(c) + 1} jump points, got {len(x)}"))
        return out
    if x[0] != 0.0:
        out.append(Violation(0, "first jump point must be 0"))
    if x[-1] != 1.0:
        out.append(Violation(len(x) - 1, "last jump point must be 1"))
    for j in range(1, len(x)):
        if not x[j] > x[j - 1]:
            out.append(Violation(j, "jump points must be strictly increasing"))
    for j, cj in enumerate(c, start=1):
        if not (cj > 0.0 and math.isfinite(cj)):
            out.append(Violation(j, "wave speed must be positive and finite"))
    return out


@dataclass(frozen=True)
class ProblemSpec:
    """A single radial transmission problem (one Fourier mode)."""

    profile: WaveSpeedProfile
    dimension: int = 3
    mode: int = 0
    omega: float = 1.0
    boundary_coefficient: complex = 1.0 + 0.0j

    def __post_init__(self):
        for name in ("dimension", "mode"):
            value = getattr(self, name)
            if isinstance(value, bool) \
                    or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer")
            # a plain int, so that to_json can serialise it
            object.__setattr__(self, name, int(value))
        object.__setattr__(self, "omega", _real(self.omega, "frequency"))
        if self.dimension not in (1, 3):
            raise ValueError("dimension must be 1 or 3")
        if self.mode < 0 or (self.dimension == 1 and self.mode != 0):
            raise ValueError("mode must be non-negative, and 0 when d=1")
        if not (self.omega > 0.0 and math.isfinite(self.omega)):
            raise ValueError("frequency must be positive")
        if not cmath.isfinite(complex(self.boundary_coefficient)):
            raise ValueError("boundary coefficient must be finite")

    # -- derived quantities ------------------------------------------------

    @property
    def n(self) -> int:
        return self.profile.num_interfaces

    @property
    def z(self) -> np.ndarray:
        """Scaled jump points z_ell = omega * x_ell, index 0..N."""
        return self.omega * np.asarray(self.profile.jump_points)

    @property
    def delta(self) -> np.ndarray:
        """Per-layer phases delta_j = omega h_j / c_j, index entry j-1."""
        return self.omega * self.profile.widths / np.asarray(self.profile.speeds)

    @property
    def angular_eigenvalue(self) -> float:
        """lambda_m = m (m + d - 2)."""
        return float(self.mode * (self.mode + self.dimension - 2))

    def speed(self, j: int) -> float:
        """c_j, 1-based."""
        return self.profile.speeds[j - 1]

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        g = complex(self.boundary_coefficient)
        return {
            "dimension": self.dimension,
            "mode": self.mode,
            "omega": self.omega,
            "boundary_coefficient": [g.real, g.imag],
            "jump_points": list(self.profile.jump_points),
            "speeds": list(self.profile.speeds),
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, doc: dict) -> "ProblemSpec":
        gre, gim = doc["boundary_coefficient"]
        return cls(
            profile=WaveSpeedProfile(tuple(doc["jump_points"]), tuple(doc["speeds"])),
            dimension=doc["dimension"],
            mode=doc["mode"],
            omega=doc["omega"],
            boundary_coefficient=complex(_real(gre, "boundary coefficient"),
                                         _real(gim, "boundary coefficient")),
        )

    @classmethod
    def from_json(cls, text: str) -> "ProblemSpec":
        return cls.from_dict(json.loads(text))


def relative_jumps(profile: WaveSpeedProfile) -> np.ndarray:
    """q_k = (c_{k+1} - c_k) / (c_{k+1} + c_k) for k = 1..n; all in (-1, 1)."""
    c = np.asarray(profile.speeds)
    return (c[1:] - c[:-1]) / (c[1:] + c[:-1])


def _alternating_speeds(n: int, c1: float, c2: float) -> tuple:
    return tuple(c1 if j % 2 == 1 else c2 for j in range(1, n + 2))


def _build_example(n, c1, c2, quarter_turns, d, m, g):
    """Profile with alternating speeds and layer phases of quarter_turns*pi/2."""
    if n < 1:
        raise ValueError("need at least one interior jump")
    if not 0.0 < c1 < c2:
        raise ValueError("speeds must satisfy 0 < c1 < c2")
    speeds = _alternating_speeds(n, c1, c2)
    phase = quarter_turns * math.pi / 2.0
    omega = phase * sum(speeds)
    if not math.isfinite(omega):
        raise ValueError("omega, the layer phase times the sum of the "
                         "speeds, is not finite")
    widths = [phase * c / omega for c in speeds]
    # below the normal doubles c/omega rounds, and the phases drift
    if min(phase * c1, *widths) < sys.float_info.min:
        raise ValueError("a layer width, phase * c / omega, or its phase * "
                         "c is below the normal double range")
    x = [0.0]
    for h in widths:
        x.append(x[-1] + h)
    x[-1] = 1.0  # cumulative sum is 1 up to rounding
    profile = WaveSpeedProfile(tuple(x), speeds)
    return ProblemSpec(profile, dimension=d, mode=m, omega=omega,
                       boundary_coefficient=g)


def construct_localisation_example(n: int, c1: float, c2: float,
                                   d: int = 3, m: int = 0,
                                   g: complex = 1.0 + 0.0j) -> ProblemSpec:
    """Alternating-speed profile with every phase factor e^{-i delta} = -i.

    omega = (pi/2) sum c_j and h_j = (pi/2) c_j / omega, which puts the
    configuration in localisation interference: the odd Green-column
    entries grow like ((1+q)/(1-q))^(n/2).
    """
    return _build_example(n, c1, c2, 1, d, m, g)


def construct_stable_example(n: int, c1: float, c2: float,
                             d: int = 3, m: int = 0,
                             g: complex = 1.0 + 0.0j) -> ProblemSpec:
    """Alternating-speed profile with every phase factor e^{-i delta} = -1.

    omega = pi sum c_j and h_j = pi c_j / omega; the resulting
    beta_{0,ell} = (-1)^ell and every Green-column entry is bounded by 1.
    """
    return _build_example(n, c1, c2, 2, d, m, g)


def random_spec(rng, n_max: int = 20) -> ProblemSpec:
    """Seeded mixed draw: d in {1, 3}, m 0-5, n 1-n_max, omega 1-50.

    Behind ``helmrad verify --suite oracle`` and the test populations.
    """
    d = int(rng.choice([1, 3]))
    m = int(rng.integers(0, 6)) if d == 3 else 0
    n = int(rng.integers(1, n_max + 1))
    cuts = np.sort(rng.uniform(0.02, 0.98, size=n))
    x = (0.0, *map(float, cuts), 1.0)
    c = tuple(float(v) for v in rng.uniform(0.5, 4.0, size=n + 1))
    omega = float(rng.uniform(1.0, 50.0))
    return ProblemSpec(WaveSpeedProfile(x, c), dimension=d, mode=m,
                       omega=omega, boundary_coefficient=1.0 + 0.0j)


def random_alternating(rng) -> ProblemSpec:
    """Seeded d=3, m=0 draw with speeds alternating at one jump ratio q.

    Behind ``helmrad verify --suite bounds`` and the test populations.
    """
    n = int(rng.integers(1, 41))
    q = float(rng.uniform(-0.8, 0.8))
    c1 = 1.0
    c2 = c1 * (1.0 + q) / (1.0 - q)
    speeds = tuple(c1 if j % 2 == 0 else c2 for j in range(n + 1))
    cuts = np.sort(rng.uniform(0.02, 0.98, size=n))
    x = (0.0, *map(float, cuts), 1.0)
    omega = float(rng.uniform(1.0, 60.0))
    return ProblemSpec(WaveSpeedProfile(x, speeds), dimension=3, mode=0,
                       omega=omega, boundary_coefficient=1.0 + 0.0j)


def is_localisation_interference(spec: ProblemSpec, tol: float = 1e-10) -> bool:
    """Oscillatory jumps with q_1 > 0 and all phase factors within tol of +/-i."""
    q = relative_jumps(spec.profile)
    if len(q) == 0 or np.min(np.abs(q)) <= 0.0:
        return False
    signs = (-1.0) ** np.arange(len(q))  # (-1)^(ell-1) for ell = 1..n
    if not np.all(q * signs > 0.0):
        return False
    for dl in spec.delta:
        ph = cmath.exp(-1j * dl)
        if min(abs(ph - 1j), abs(ph + 1j)) > tol:
            return False
    return True
