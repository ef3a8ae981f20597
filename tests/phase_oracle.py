"""Coordinate tuples and exact `Fraction` phases: the oracle for the index routes.

The library represents an element, a character and a phase-space point
each by one integer index, and carries every character and cocycle phase
as an integer numerator mod L = lcm(n_j). These helpers work one scalar at
a time on coordinate tuples, with their own mixed-radix numbering and
exact rationals mod 1, and call no library code, so tests can compare the
two routes. The library's own scalar oracles, `Character.phase` and
`wehrl.weyl.cocycle_phase`, are checked against `pairing_phase` and
`cocycle_phase` here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np


def coords(group, index: int) -> tuple[int, ...]:
    """Coordinates of an element (or character) index: its mixed-radix digits."""
    digits = []
    for n in reversed(group.orders):
        index, digit = divmod(index, n)
        digits.append(digit)
    return tuple(reversed(digits))


def index(group, coords_: tuple[int, ...]) -> int:
    """Index of an element (or character) from its coordinates, reduced mod n_j."""
    out = 0
    for c, n in zip(coords_, group.orders):
        out = out * n + c % n
    return out


def elements(group) -> list[tuple[int, ...]]:
    """Every coordinate tuple, in lex order, which is index order."""
    return list(product(*(range(n) for n in group.orders)))


def add(group, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple((x + y) % n for x, y, n in zip(a, b, group.orders))


def neg(group, a: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-x % n for x, n in zip(a, group.orders))


def point(group, z: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(g, chi) coordinates of the phase-space index z = g * |G| + chi."""
    g, chi = divmod(z, math.prod(group.orders))
    return coords(group, g), coords(group, chi)


def point_index(group, g: tuple[int, ...], chi: tuple[int, ...]) -> int:
    return index(group, g) * math.prod(group.orders) + index(group, chi)


def point_add(group, z: int, w: int) -> int:
    (zg, zc), (wg, wc) = point(group, z), point(group, w)
    return point_index(group, add(group, zg, wg), add(group, zc, wc))


def point_neg(group, z: int) -> int:
    g, chi = point(group, z)
    return point_index(group, neg(group, g), neg(group, chi))


def pairing_phase(group, a: tuple[int, ...], g: tuple[int, ...]) -> Fraction:
    """Phase of chi_a(g) = exp(2*pi*i * sum_j a_j g_j / n_j), exactly, in [0, 1)."""
    return sum((Fraction(x * y, n) for x, y, n in zip(a, g, group.orders)), Fraction(0)) % 1


def cocycle_phase(group, z: int, w: int) -> Fraction:
    """Phase of omega(z, w) = chi_z(g_w) * conj(chi_w(g_z)), exactly, in [0, 1)."""
    (zg, zc), (wg, wc) = point(group, z), point(group, w)
    return (pairing_phase(group, zc, wg) - pairing_phase(group, wc, zg)) % 1


def phase_to_complex(phase: Fraction) -> complex:
    """exp(2*pi*i*phase), reducing the exact phase mod 1 before exponentiating."""
    return cmath.exp(2j * math.pi * float(phase % 1))


def cocycle(group, z: int, w: int) -> complex:
    return phase_to_complex(cocycle_phase(group, z, w))


def compose_phase(group, z: int, w: int) -> Fraction:
    """W(z) W(w) = exp(2*pi*i * compose_phase(z, w)) * W(z + w)."""
    (zg, _), (_, wc) = point(group, z), point(group, w)
    return (-pairing_phase(group, wc, zg)) % 1


@dataclass(frozen=True)
class HeisenbergElement:
    """(z, t) for a point index z, with t = exp(2*pi*i*t_phase) on the central circle.

    Multiplication: (z, t)(w, s) = (z + w, t s omega(z, w)).
    """

    group: object
    z: int
    t_phase: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "t_phase", Fraction(self.t_phase) % 1)

    @property
    def t(self) -> complex:
        return phase_to_complex(self.t_phase)

    @classmethod
    def identity(cls, group) -> "HeisenbergElement":
        return cls(group, 0)

    def __mul__(self, other: "HeisenbergElement") -> "HeisenbergElement":
        return HeisenbergElement(
            self.group,
            point_add(self.group, self.z, other.z),
            self.t_phase + other.t_phase + cocycle_phase(self.group, self.z, other.z),
        )

    def inverse(self) -> "HeisenbergElement":
        # omega(z, -z) = 1 exactly, so only the central phase flips
        return HeisenbergElement(self.group, point_neg(self.group, self.z), -self.t_phase)


def unit_roots(L: int) -> np.ndarray:
    """exp(2*pi*i * m / L) for m = 0, ..., L - 1, through exact `Fraction`s."""
    return np.array(
        [phase_to_complex(Fraction(m, L)) for m in range(L)], dtype=np.complex128
    )


def coset_partition_walk(K) -> tuple[list[int], np.ndarray]:
    """(representatives, ids) of the cosets of K by walking point coordinates.

    Each point not yet seen starts a coset and marks every z + u, u in K;
    the representatives come out lex-least and in lex order, and ids[z] is
    the ordinal of the coset that holds z.
    """
    group = K.group
    total = math.prod(group.orders) ** 2
    ids = np.full(total, -1, dtype=np.int64)
    reps = []
    for z in range(total):
        if ids[z] >= 0:
            continue
        ids[[point_add(group, z, int(u)) for u in K.indices]] = len(reps)
        reps.append(z)
    return reps, ids
