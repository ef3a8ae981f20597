"""Per-point Weyl operators: the oracles for the stacked cores of `wehrl.weyl`.

`roll_weyl_apply` translates with `np.roll` on the coordinate grid and
`pointwise_weyl_matrix` fills a dense matrix one element at a time through
the object routes (`GroupElement` subtraction, `Character.__call__`).
"""

from __future__ import annotations

import numpy as np

from wehrl.groups import PhaseSpacePoint, character_row


def roll_weyl_apply(z: PhaseSpacePoint, vec) -> np.ndarray:
    """W(z) vec: np.roll of the coordinate grid, then character values."""
    group = z.group
    axes = tuple(range(len(group.orders)))
    shifted = np.roll(np.asarray(vec).reshape(group.orders), z.g.coords, axis=axes)
    return character_row(group, z.chi.coords) * shifted.reshape(group.order)


def pointwise_weyl_matrix(z: PhaseSpacePoint) -> np.ndarray:
    """Dense W(z): row h holds chi(h) in the column of h - g."""
    group = z.group
    mat = np.zeros((group.order, group.order), dtype=np.complex128)
    for h in group.elements():
        mat[h.index, (h - z.g).index] = z.chi(h)
    return mat
