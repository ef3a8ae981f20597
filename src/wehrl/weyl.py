"""Weyl operators on C^|G| and the twisted group law of phase space.

The natural action is (W(g, chi) f)(h) = chi(h) f(h - g): a cyclic
translation followed by a diagonal of character values, O(|G|) per apply.
Dense matrices exist only as oracles behind a size cap. Cocycle phases are
exact integer numerators mod L = lcm(n_j) (`cocycle_numerators`);
`cocycle_phase` keeps an exact `Fraction` route as a test oracle.

A point is its phase-space index z = g_index * |G| + chi_index: `weyl_apply`,
`weyl_matrix` and `cocycle_phase` take the group and indices, and refuse
an index outside range(|G|^2) with ValueError. Two stacked cores take
arrays of such indices, and both read their character values from
`groups._character_rows`, on the one phase formula
`groups._pairing_numerators`. `_apply_points` is the one
gather of rows W(z) f: it reads f(h - g) through `_translation_index`
(per-factor modular arithmetic on the coordinate grid). `_matrix_points`
scatters dense monomial matrices from `difference_index_table`.
`weyl_apply`, `CoherentFrame.state_matrix`, `resolution_residual` and the
coset bases are gathers; `weyl_matrix` is the one-row scatter. The check
battery uses them as follows:
- weyl-dense-vs-apply: scattered matrices times f against the gather, so
  the two translation routes stay independent;
- weyl-unitarity and the invariance defect behind vacuum uniqueness: the
  scattered matrices;
- vacuum-invariance, offcoset-vanishing, and the coset bases of
  `coset_basis` and `wehrl_entropy_coset`: the gather;
- ccr-commutation (`verify_ccr`): blocks gathered through
  `_translation_index`, against the closed-form cocycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import limits
from .groups import (
    Character,
    FiniteAbelianGroup,
    GroupElement,
    _character_rows,
    _coords_grid,
    _index,
    _pairing_numerators,
    _phase_weights,
    _unit_roots,
    difference_index_table,
)

__all__ = [
    "cocycle_phase",
    "cocycle_numerators",
    "weyl_apply",
    "weyl_matrix",
    "CcrReport",
    "verify_ccr",
]


def cocycle_phase(group: FiniteAbelianGroup, z: int, w: int) -> Fraction:
    """Exact phase of omega(z, w) = chi_z(g_w) * conj(chi_w(g_z)) at point indices: a test oracle.

    No library path calls this; the library uses `cocycle_numerators`.
    """
    d = group.order
    grid = _coords_grid(group.orders)
    (z_g, z_chi), (w_g, w_chi) = (divmod(_index(x, d * d), d) for x in (z, w))
    chi_z, chi_w = (Character(group, tuple(grid[a].tolist())) for a in (z_chi, w_chi))
    g_z, g_w = (GroupElement(group, tuple(grid[g].tolist())) for g in (z_g, w_g))
    return (chi_z.phase(g_w) - chi_w.phase(g_z)) % 1


def cocycle_numerators(
    group: FiniteAbelianGroup,
    z_g: np.ndarray,
    z_chi: np.ndarray,
    w_g: np.ndarray,
    w_chi: np.ndarray,
) -> np.ndarray:
    """Integer phases m of omega(z, w) = exp(2*pi*i * m / L), L = lcm(n_j).

    z = (z_g, z_chi) and w = (w_g, w_chi) are integer coordinate arrays whose
    last axis runs over the cyclic factors; the leading axes broadcast, so
    paired points and all-against-all tables use the same exact formula
    m = sum_j (chi_z,j g_w,j - chi_w,j g_z,j) L / n_j mod L.
    """
    L, weights = _phase_weights(group)
    m = np.einsum("...k,...k->...", z_chi * weights, w_g)
    m -= np.einsum("...k,...k->...", z_g, w_chi * weights)
    return m % L


def _translation_index(group: FiniteAbelianGroup, g: np.ndarray) -> np.ndarray:
    """(n, |G|) indices of h - g_i over all h, for coordinate rows g (n, k).

    The one translation gather: reduced one cyclic factor at a time on the
    coordinate grid, so the rows of g need not be reduced.
    """
    grid = _coords_grid(group.orders)
    source = np.zeros((len(g), group.order), dtype=np.int64)
    for j, (n, stride) in enumerate(zip(group.orders, group._strides)):
        source += ((grid[:, j] - g[:, j : j + 1]) % n) * stride
    return source


def _apply_points(group: FiniteAbelianGroup, z: np.ndarray, vecs) -> np.ndarray:
    """(n, |G|) rows W(z_i) vecs_i for phase-space indices z_i = g_i * |G| + chi_i.

    vecs is one (|G|,) vector applied at every point, or an (n, |G|) stack.
    The translation f(h - g) is gathered through `_translation_index`; each
    entry is one product of a character value and a gathered entry. With
    more points than |G|, some g and chi repeat: the translation and
    character rows of all of G are built once and gathered per point, which
    gives the same integers and so the same values.
    """
    d = group.order
    g, chi = np.divmod(np.asarray(z, dtype=np.int64).reshape(-1), d)
    grid = _coords_grid(group.orders)
    if len(g) > d:
        values = _character_rows(group, slice(None))[chi]
        source, at = _translation_index(group, grid), g
    else:
        values = _character_rows(group, chi)
        source, at = _translation_index(group, grid[g]), slice(None)
    vecs = np.asarray(vecs, dtype=np.complex128)
    if vecs.ndim == 1:
        values *= vecs[source][at]
    else:
        values *= np.take_along_axis(vecs, source[at], axis=1)
    return values


def _matrix_points(group: FiniteAbelianGroup, z: np.ndarray) -> np.ndarray:
    """(n, |G|, |G|) dense monomial matrices W(z_i) for phase-space indices z_i.

    Row h of W(z) holds chi(h) in the column of h - g, scattered from
    `difference_index_table`. The dense limit is checked once per stack.
    """
    d = group.order
    limits.require_dense("|G|", d)
    z = np.asarray(z, dtype=np.int64).reshape(-1)
    mats = np.zeros((len(z), d, d), dtype=np.complex128)
    cols = difference_index_table(group)[z // d]
    mats[np.arange(len(z))[:, None], np.arange(d), cols] = _character_rows(group, z % d)
    return mats


def weyl_apply(group: FiniteAbelianGroup, z: int, vec) -> np.ndarray:
    """Apply W(z) at point index z in O(|G|): translate by g, then multiply character values."""
    d = group.order
    z = _index(z, d * d)
    vec = np.asarray(vec, dtype=np.complex128)
    if vec.shape != (d,):
        raise ValueError(f"state has shape {vec.shape}, expected ({d},)")
    return _apply_points(group, z, vec)[0]


def weyl_matrix(group: FiniteAbelianGroup, z: int) -> np.ndarray:
    """Dense monomial matrix of W(z) at point index z; oracle path, capped at the dense limit."""
    return _matrix_points(group, _index(z, group.order ** 2))[0]


# random pairs of `verify_ccr` above `limits.EXHAUSTIVE_POINTS`
CCR_SAMPLES = 10_000


@dataclass(frozen=True)
class CcrReport:
    group: str
    mode: str  # "exhaustive" or "randomized"
    pairs_checked: int
    max_residual: float
    tolerance: float
    passed: bool


def verify_ccr(group: FiniteAbelianGroup, *, seed: int = 0) -> CcrReport:
    """Check W(z) W(w) = omega(z, w) W(w) W(z) on random probe vectors, within 1e-12.

    All |F|^2 pairs when |F| is at most `limits.EXHAUSTIVE_POINTS`,
    otherwise CCR_SAMPLES random pairs. Pairs are checked in blocks of numpy
    arrays (`limits.blocks`), sized so that each (pairs, |G|, probes)
    temporary stays near the block budget; no |G|^2 table is built. Phases
    are integers mod L = lcm(n_j): the left side applies W(w) and then W(z)
    to the probes (translations as gathered indices, character values as
    `_unit_roots(L)[m]`); the right side applies them in the other order
    and multiplies by the closed-form cocycle of `cocycle_numerators`. Each product is formed in the same
    order as in one `weyl_apply` per pair, so the residual is the same to
    the bit.
    """
    rng = np.random.default_rng(seed)
    d = group.order
    probes = rng.standard_normal((d, 3)) + 1j * rng.standard_normal((d, 3))
    probes /= np.linalg.norm(probes, axis=0)
    total = d * d
    tolerance = 1e-12
    if total <= limits.EXHAUSTIVE_POINTS:
        drawn = None
        n_pairs = total * total
        mode = "exhaustive"
    else:
        drawn = rng.integers(0, total, size=(CCR_SAMPLES, 2))
        n_pairs = CCR_SAMPLES
        mode = "randomized"
    worst = 0.0
    blocks = list(limits.blocks(n_pairs, probes.nbytes))
    # one set of (pairs, |G|, probes) buffers per call, filled in place: fresh
    # block-sized temporaries may come from mmap, page-faulted each time
    rows = blocks[0].stop - blocks[0].start
    buffers = [np.empty((rows,) + probes.shape, dtype=np.complex128) for _ in range(3)]
    for part in blocks:
        if drawn is None:
            z, w = np.divmod(np.arange(part.start, part.stop), total)
        else:
            z, w = drawn[part, 0], drawn[part, 1]
        block = [buf[: len(z)] for buf in buffers]
        worst = max(worst, _ccr_block_residual(group, probes, z, w, block))
    return CcrReport(str(group), mode, n_pairs, worst, tolerance, worst <= tolerance)


def _ccr_block_residual(
    group: FiniteAbelianGroup,
    probes: np.ndarray,
    z: np.ndarray,
    w: np.ndarray,
    buffers: list[np.ndarray],
) -> float:
    """max |W(z)W(w)f - omega(z,w) W(w)W(z)f| over a block of point indices.

    `buffers` are three (len(z), |G|, probes) complex arrays the block
    overwrites.
    """
    d = group.order
    L, _ = _phase_weights(group)
    grid = _coords_grid(group.orders)
    roots = _unit_roots(L)
    (z_gi, z_ci), (w_gi, w_ci) = np.divmod(z, d), np.divmod(w, d)
    z_g, z_chi, w_g, w_chi = grid[z_gi], grid[z_ci], grid[w_gi], grid[w_ci]
    # chi(h) numerators over all h, and chi(h - g) = chi(h) - chi(g) mod L,
    # with chi_z(g_w) read off z's row at column g_w
    z_row = _pairing_numerators(group, z_ci, slice(None))
    w_row = _pairing_numerators(group, w_ci, slice(None))
    pairs = np.arange(len(z))
    z_at_wg = z_row[pairs, w_gi][:, None]
    w_at_zg = w_row[pairs, z_gi][:, None]
    shifted, left, right = buffers
    # f(h - g_z - g_w): the translation as a gathered index
    np.take(probes, _translation_index(group, z_g + w_g), axis=0, out=shifted)
    np.multiply(roots[(w_row - w_at_zg) % L][..., None], shifted, out=left)
    np.multiply(roots[z_row][..., None], left, out=left)
    omega = roots[cocycle_numerators(group, z_g, z_chi, w_g, w_chi)]
    np.multiply(roots[(z_row - z_at_wg) % L][..., None], shifted, out=right)
    np.multiply(roots[w_row][..., None], right, out=right)
    np.multiply(omega[:, None, None], right, out=right)
    np.subtract(left, right, out=left)
    return float(np.abs(left).max())
