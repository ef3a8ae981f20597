"""Coherent-state frames: fiducials and their stabilisers, frame geometry, invariant vectors.

A frame is the orbit |z> = W(z) phi of a unit fiducial phi over all of
phase space F = G x G^, weighted by 1/|G| per point. A frame point is its
phase-space index z = g * |G| + chi: `state(z)` takes it, row z of
`state_matrix` and entry z of the analysis belong to it, and `cosets` and
`CosetBasis` list each coset of the stabiliser by the index of its
lex-least point. Its transform pair
lives here: the analysis `pure_amplitudes`, psi -> <z|psi> for every z,
and its adjoint `_synthesis`, c -> sum_z c_z |z>, each one `group_dft`
per state; the ambiguity table is the analysis of phi itself, read at
negated points.

The stabiliser of a frame is
S = {z : |<phi|W(z) phi>| = 1}, the subgroup of points whose Weyl
operators fix phi up to phase; each S-coset of F is one ray. The vacuum
fiducial of a subgroup H is the normalised indicator of H; it is the
unique unit vector (up to phase) fixed by every W(u) with u in
K = H x A(H), and K is its stabiliser. Only `CoherentFrame.vacuum`
attaches H to a frame; every other frame reads its stabiliser off its
ambiguity function.

S^W reaches 0 on a frame exactly when its stabiliser is Lagrangian
(|S| = |G|):
- the frame is tight, so sum_{z in F} |<phi|W(z) phi>|^2 = |G| (Moyal),
  and Q_psi(z) = |<z|psi>|^2 <= 1 for a unit psi. So
  S^W(psi) = -sum_z w Q log Q is 0 if and only if Q_psi takes only the
  values 0 and 1;
- then sum_z w Q_psi = 1 puts Q_psi = 1 on |G| points, so psi is a frame
  point up to phase, and |<phi|W(z) phi>| is {0, 1}-valued with |G| ones:
  S has order |G| and acts on phi by phases, so S is Lagrangian;
- conversely, if |S| = |G|, Moyal's sum leaves no weight off S, so
  Q_phi is {0, 1}-valued and S^W(phi) = 0.
Hence min S^W_phi = 0 if and only if a Lagrangian subgroup stabilises phi
up to phase. `CoherentFrame.lagrangian` is that test; on such frames the
|G| coset states form an orthonormal basis (`coset_basis`), the entropy
is a Shannon entropy over it, and the minimiser takes escort steps on
its weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import limits
from .groups import (
    FiniteAbelianGroup,
    PhaseSpaceSubgroup,
    Subgroup,
    coset_representatives,
    difference_index_table,
    group_dft,
    maximal_compact,
)
from .states import check_state_vector
from .weyl import _apply_points, _matrix_points, weyl_apply

__all__ = [
    "STABILISER_TOL",
    "vacuum_vector",
    "CoherentFrame",
    "pure_amplitudes",
    "coset_ids",
    "overlap_matrix",
    "CosetBasis",
    "coset_basis",
    "invariant_subspace_dim",
    "resolution_residual",
]

# z stabilises the fiducial when |<phi|W(z) phi>| >= (1 - STABILISER_TOL) <phi|phi>.
# 1 - |<phi|W(z) phi>| is quadratic in phi's distance from a stabilised
# vector, so this admits vectors within about 1e-6 of one; on exactly
# stabilised fiducials the rounding is below 1e-15
STABILISER_TOL = 1e-12


def vacuum_vector(subgroup: Subgroup) -> np.ndarray:
    """Normalised indicator of H."""
    vec = np.zeros(subgroup.group.order, dtype=np.complex128)
    vec[subgroup.indices] = 1.0
    return vec / np.sqrt(subgroup.order)


class CoherentFrame:
    """The family |z> = W(z) fiducial over z in F, Haar weight 1/|G|.

    `subgroup` is H on a frame built by `vacuum(H)`, whose stabiliser is
    then K = H x A(H) in closed form, and None on any other frame.
    """

    def __init__(self, group: FiniteAbelianGroup, fiducial) -> None:
        self.group = group
        fid = check_state_vector(fiducial, group.order).copy()
        if fid.ndim != 1:
            raise ValueError(f"fiducial must be one vector, got shape {fid.shape}")
        fid.flags.writeable = False
        self.fiducial = fid
        self.subgroup: Subgroup | None = None
        self._matrix: np.ndarray | None = None
        self._basis: CosetBasis | None = None

    @classmethod
    def vacuum(cls, subgroup: Subgroup) -> "CoherentFrame":
        """The frame of H's vacuum fiducial, the one frame that carries its subgroup."""
        frame = cls(subgroup.group, vacuum_vector(subgroup))
        frame.subgroup = subgroup
        return frame

    @property
    def haar_weight(self) -> float:
        return 1.0 / self.group.order

    @property
    def point_count(self) -> int:
        return self.group.order ** 2

    def state(self, z: int) -> np.ndarray:
        """The state |z> = W(z) phi at point index z."""
        return weyl_apply(self.group, z, self.fiducial)

    def state_matrix(self) -> np.ndarray:
        """(|F|, |G|) array; row z is the state |z>. Cached.

        DenseLimitError when |F| exceeds `limits.STATE_MATRIX_CAP`.
        """
        if self._matrix is None:
            limits.require_within(
                "|F|", self.point_count, limits.STATE_MATRIX_CAP, "state-matrix cap"
            )
            mat = _apply_points(self.group, np.arange(self.point_count), self.fiducial)
            mat.flags.writeable = False
            self._matrix = mat
        return self._matrix

    @cached_property
    def ambiguity_table(self) -> np.ndarray:
        """(|G|, |G|) table T[D, b] = sum_h chi_b(h) conj(phi(h + D)) phi(h), computed once.

        T[D, b] = <W(-D, -b) phi|phi>: the fiducial's ambiguity function
        `pure_amplitudes(frame, phi)` at the negated point. It is the
        multiplier of `husimi`, and |T|^2 that of `measurement_channel`.
        T[0, 0] = <phi|phi>.
        """
        d = self.group.order
        negation = difference_index_table(self.group)[:, 0]  # index of 0 - g
        table = pure_amplitudes(self, self.fiducial).reshape(d, d)[np.ix_(negation, negation)]
        table.flags.writeable = False
        return table

    @cached_property
    def stabiliser(self) -> PhaseSpaceSubgroup:
        """S = {z : W(z) phi = phase * phi}, computed once.

        K = H x A(H) in closed form on a frame built by `vacuum(H)`;
        on any other frame, even one whose fiducial is a vacuum, the
        points where the ambiguity function |<phi|W(z) phi>| is <phi|phi>
        within STABILISER_TOL. The identity alone when nothing else fixes
        phi, and when those points are no subgroup: phi is then stabilised
        only approximately, by points on both sides of the tolerance. The
        points are read off the ambiguity table, which holds the function
        at -z: negation fixes every subgroup and maps any other set to one
        that is no subgroup either, so the result is the same.
        """
        if self.subgroup is not None:
            return maximal_compact(self.subgroup)
        ambiguity = np.abs(self.ambiguity_table).reshape(-1)  # index 0 is <phi|phi>
        near = np.flatnonzero(ambiguity >= (1.0 - STABILISER_TOL) * ambiguity[0])
        try:
            return PhaseSpaceSubgroup(self.group, near)
        except ValueError:
            return PhaseSpaceSubgroup.trivial(self.group)

    @property
    def lagrangian(self) -> bool:
        """|S| = |G|: the frame points are the minimisers of S^W, at 0."""
        return self.stabiliser.order == self.group.order

    def cosets(self) -> tuple[PhaseSpaceSubgroup, np.ndarray]:
        """(S, the point index of the lex-least member of each coset of S in F)."""
        return self.stabiliser, coset_representatives(self.stabiliser)


def pure_amplitudes(frame: CoherentFrame, psi) -> np.ndarray:
    """<z|psi> for all z in lex order, for one state (d,) or a stack (..., d).

    For fixed g the map chi -> <W(g,chi) phi | psi> is the group Fourier
    transform of h -> conj(phi(h-g)) psi(h), so one `group_dft` of the
    (|G|, |G|) array of these products per state fills the whole table,
    without materialising any |F|-by-|G| matrix.
    """
    psi = np.asarray(psi)
    group = frame.group
    idx = difference_index_table(group)  # [g, h] -> index of h - g
    u = frame.fiducial.conj()[idx] * psi[..., None, :]
    return group_dft(group, u).reshape(psi.shape[:-1] + (group.order**2,))


def _synthesis(frame: CoherentFrame, coeffs: np.ndarray) -> np.ndarray:
    """sum_z coeffs_z |z> along the last axis; the adjoint of pure_amplitudes."""
    group = frame.group
    d = group.order
    spectra = group_dft(group, coeffs.reshape(coeffs.shape[:-1] + (d, d)), inverse=True)
    idx = difference_index_table(group)
    spectra *= frame.fiducial[idx]
    return spectra.sum(axis=-2)


def coset_ids(frame: CoherentFrame) -> np.ndarray:
    """(|F|,) array labelling each phase-space point by its S-coset ordinal."""
    return frame.stabiliser._partition[1]


def overlap_matrix(frame: CoherentFrame) -> np.ndarray:
    """|<z|z'>| for all pairs of frame points; requires |F| <= dense limit."""
    limits.require_dense("|F|", frame.point_count)
    S = frame.state_matrix()
    return np.abs(S.conj() @ S.T)


@dataclass(frozen=True, eq=False)
class CosetBasis:
    representatives: np.ndarray  # point index of each coset's lex-least member
    vectors: np.ndarray  # (|F|/|K|, |G|), rows are basis states


def coset_basis(frame: CoherentFrame) -> CosetBasis:
    """One coherent state per coset of S: an orthonormal basis of a Lagrangian frame.

    Computed once per frame; its vectors are read-only. ValueError on any
    other frame, whose coset states overlap.
    """
    if frame._basis is None:
        if not frame.lagrangian:
            raise ValueError(
                f"not a Lagrangian (stabiliser) frame: |S| = {frame.stabiliser.order}, "
                f"|G| = {frame.group.order}"
            )
        _, reps = frame.cosets()
        vectors = _apply_points(frame.group, reps, frame.fiducial)
        vectors.flags.writeable = False
        frame._basis = CosetBasis(reps, vectors)
    return frame._basis


def _invariance_defect(K: PhaseSpaceSubgroup) -> np.ndarray:
    """sum_u (I - W(u)) over u in K; its null space is the K-invariant subspace."""
    d = K.group.order
    acc = np.zeros((d, d), dtype=np.complex128)
    eye = np.eye(d)
    u = K.indices
    for part in limits.blocks(len(u), 16 * d * d):
        for W in _matrix_points(K.group, u[part]):
            acc += eye - W
    return acc


def invariant_subspace_dim(K: PhaseSpaceSubgroup) -> int:
    """dim of { v : W(u) v = v for all u in K }.

    Null-space dimension of sum_u (I - W(u)); singular values below
    1e-9 * |G| count as zero.
    """
    singular = np.linalg.svd(_invariance_defect(K), compute_uv=False)
    return int(np.count_nonzero(singular < 1e-9 * K.group.order))


def resolution_residual(frame: CoherentFrame) -> float:
    """Max-norm distance of sum_z w |z><z| from the identity.

    The frame states are gathered in blocks of rows sized by the block
    budget (`limits.blocks`).
    """
    d = frame.group.order
    acc = np.zeros((d, d), dtype=np.complex128)
    for part in limits.blocks(frame.point_count, 16 * d):
        block = _apply_points(frame.group, np.arange(part.start, part.stop), frame.fiducial)
        acc += block.T @ block.conj()
    return float(np.abs(acc * frame.haar_weight - np.eye(d)).max())
