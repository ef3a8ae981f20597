"""Exact `Fraction` phase arithmetic: the oracle for the integer numerators.

The library carries every character and cocycle phase as an integer
numerator mod L = lcm(n_j). These helpers carry the same phases as exact
rationals mod 1, one scalar at a time, so tests can compare the two routes.
`Character.phase` and `wehrl.weyl.cocycle_phase` are the library's own
scalar oracles; everything here is built on them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from wehrl.groups import FiniteAbelianGroup, PhaseSpacePoint
from wehrl.weyl import cocycle_phase


def phase_to_complex(phase: Fraction) -> complex:
    """exp(2*pi*i*phase), reducing the exact phase mod 1 before exponentiating."""
    return cmath.exp(2j * math.pi * float(phase % 1))


def cocycle(z: PhaseSpacePoint, w: PhaseSpacePoint) -> complex:
    return phase_to_complex(cocycle_phase(z, w))


def compose_phase(z: PhaseSpacePoint, w: PhaseSpacePoint) -> Fraction:
    """W(z) W(w) = exp(2*pi*i * compose_phase(z, w)) * W(z + w)."""
    return (-w.chi.phase(z.g)) % 1


@dataclass(frozen=True)
class HeisenbergElement:
    """(z, t) with t = exp(2*pi*i*t_phase) on the central circle.

    Multiplication: (z, t)(w, s) = (z + w, t s omega(z, w)).
    """

    z: PhaseSpacePoint
    t_phase: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "t_phase", Fraction(self.t_phase) % 1)

    @property
    def t(self) -> complex:
        return phase_to_complex(self.t_phase)

    @classmethod
    def identity(cls, group: FiniteAbelianGroup) -> "HeisenbergElement":
        return cls(PhaseSpacePoint(group.zero(), group.trivial_character()))

    def __mul__(self, other: "HeisenbergElement") -> "HeisenbergElement":
        return HeisenbergElement(
            self.z + other.z,
            self.t_phase + other.t_phase + cocycle_phase(self.z, other.z),
        )

    def inverse(self) -> "HeisenbergElement":
        # omega(z, -z) = 1 exactly, so only the central phase flips
        return HeisenbergElement(-self.z, -self.t_phase)


def unit_roots(L: int) -> np.ndarray:
    """exp(2*pi*i * m / L) for m = 0, ..., L - 1, through exact `Fraction`s."""
    return np.array(
        [phase_to_complex(Fraction(m, L)) for m in range(L)], dtype=np.complex128
    )


def coset_partition_walk(K) -> tuple[tuple[PhaseSpacePoint, ...], np.ndarray]:
    """(representatives, ids) of the cosets of K by walking point objects.

    Each point not yet seen starts a coset and marks every z + u, u in K;
    the representatives come out lex-least and in lex order, and ids[z] is
    the ordinal of the coset that holds z.
    """
    group = K.group
    total = group.order ** 2
    ids = np.full(total, -1, dtype=np.int64)
    reps = []
    for idx in range(total):
        if ids[idx] >= 0:
            continue
        z = PhaseSpacePoint.by_index(group, idx)
        ids[[(z + u).index for u in K.points]] = len(reps)
        reps.append(z)
    return tuple(reps), ids

