"""Per-point Weyl operators: the oracles for the stacked cores of `wehrl.weyl`.

`roll_weyl_apply` translates with `np.roll` on the coordinate grid and
`pointwise_weyl_matrix` fills a dense matrix one element at a time on
coordinate tuples (`phase_oracle`: the column of h - g and the exact phase
of chi(h)). Points are phase-space indices z = g * |G| + chi.
"""

from __future__ import annotations

import numpy as np

from wehrl.groups import _character_rows

from phase_oracle import add, elements, index, neg, pairing_phase, phase_to_complex, point


def roll_weyl_apply(group, z: int, vec) -> np.ndarray:
    """W(z) vec: np.roll of the coordinate grid, then character values."""
    g, chi = point(group, z)
    axes = tuple(range(len(group.orders)))
    shifted = np.roll(np.asarray(vec).reshape(group.orders), g, axis=axes)
    return _character_rows(group, index(group, chi)) * shifted.reshape(group.order)


def pointwise_weyl_matrix(group, z: int) -> np.ndarray:
    """Dense W(z): row h holds chi(h) in the column of h - g."""
    g, chi = point(group, z)
    mat = np.zeros((group.order, group.order), dtype=np.complex128)
    for h in elements(group):
        mat[index(group, h), index(group, add(group, h, neg(group, g)))] = phase_to_complex(
            pairing_phase(group, chi, h)
        )
    return mat
