"""Angle arithmetic on the unit torus and the phase-space state.

Angles live on T^2 = R^2/Z^2 and are stored through their canonical
representative in [0, 1).  Actions live in a square box of radius R under the
supremum norm.  PhaseState is thin: heavy numerics work on raw numpy arrays
and only cross into it at API boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def wrap(x):
    """Canonical torus representative in [0, 1).  Works on scalars and arrays."""
    w = np.mod(x, 1.0)
    # np.mod rounds up to exactly 1.0 for tiny negative inputs; fold that back
    return np.where(w == 1.0, 0.0, w)


def circle_delta(a, b):
    """Shortest signed representative of a - b on the circle, in [-1/2, 1/2)."""
    return wrap(np.asarray(a, dtype=float) - np.asarray(b, dtype=float) + 0.5) - 0.5


def torus_distance(a, b):
    """Sup-norm distance on the torus between angle tuples/arrays a and b."""
    return float(np.max(np.abs(circle_delta(a, b))))


@dataclass(frozen=True)
class PhaseState:
    """A full phase-space point: angles on T^2, wrapped to [0, 1) at construction, and actions."""

    theta1: float
    theta2: float
    I1: float
    I2: float

    def __post_init__(self):
        object.__setattr__(self, "theta1", float(wrap(self.theta1)))
        object.__setattr__(self, "theta2", float(wrap(self.theta2)))
        object.__setattr__(self, "I1", float(self.I1))
        object.__setattr__(self, "I2", float(self.I2))

    @classmethod
    def make(cls, theta1, theta2, I1, I2) -> "PhaseState":
        return cls(theta1, theta2, I1, I2)

    @classmethod
    def from_array(cls, y) -> "PhaseState":
        y = np.asarray(y, dtype=float)
        return cls(y[0], y[1], y[2], y[3])

    def as_array(self) -> np.ndarray:
        """Flat [theta1, theta2, I1, I2] with wrapped angles."""
        return np.array([self.theta1, self.theta2, self.I1, self.I2])

    def distance(self, other: "PhaseState") -> float:
        """Sup-norm distance, torus-aware in the angle components."""
        d_ang = torus_distance((self.theta1, self.theta2), (other.theta1, other.theta2))
        return max(d_ang, abs(self.I1 - other.I1), abs(self.I2 - other.I2))
