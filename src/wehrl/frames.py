"""Coherent-state frames: vacuum fiducials, frame geometry, invariant vectors.

A frame is the orbit |z> = W(z) phi of a unit fiducial phi over all of
phase space, weighted by 1/|G| per point. The vacuum fiducial of a
subgroup H is the normalised indicator of H; it is the unique unit vector
(up to phase) fixed by every W(u) with u in K = H x A(H).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import (
    FiniteAbelianGroup,
    PhaseSpacePoint,
    PhaseSpaceSubgroup,
    Subgroup,
    character_table,
    coset_representatives,
    difference_index_table,
    maximal_compact,
    phase_space,
)
from .states import DenseLimitError, _blocks, check_state_vector, dense_limit
from .weyl import _apply_points, _matrix_points, weyl_apply

__all__ = [
    "NotVacuumError",
    "STATE_MATRIX_CAP",
    "vacuum_vector",
    "CoherentFrame",
    "coset_ids",
    "overlap_matrix",
    "CosetBasis",
    "coset_basis",
    "invariant_subspace_dim",
    "resolution_residual",
    "detect_vacuum_subgroup",
]

# |F| above this is never materialised as a (|F|, |G|) state matrix
STATE_MATRIX_CAP = 4096


class NotVacuumError(ValueError):
    """Operation requires a vacuum (subgroup-indicator) fiducial."""


def vacuum_vector(subgroup: Subgroup) -> np.ndarray:
    """Normalised indicator of H."""
    vec = np.zeros(subgroup.group.order, dtype=np.complex128)
    vec[subgroup.indices] = 1.0
    return vec / np.sqrt(subgroup.order)


def detect_vacuum_subgroup(
    group: FiniteAbelianGroup, fiducial: np.ndarray
) -> Subgroup | None:
    """Recover H if the fiducial is e^{i theta} * indicator(H) / sqrt(|H|)."""
    amp = np.abs(fiducial)
    support = np.nonzero(amp > 1e-8)[0]
    if len(support) == 0:
        return None
    rest = np.delete(amp, support)
    if rest.size and rest.max() > 1e-12:
        return None
    values = fiducial[support]
    if np.abs(values - values[0]).max() > 1e-12:
        return None
    try:
        return Subgroup(group, support)
    except ValueError:
        return None


class CoherentFrame:
    """The family |z> = W(z) fiducial over z in F, Haar weight 1/|G|."""

    def __init__(
        self,
        group: FiniteAbelianGroup,
        fiducial,
        subgroup: Subgroup | None = None,
    ) -> None:
        self.group = group
        fid = check_state_vector(fiducial, group.order).copy()
        if fid.ndim != 1:
            raise ValueError(f"fiducial must be one vector, got shape {fid.shape}")
        fid.flags.writeable = False
        self.fiducial = fid
        self.subgroup = subgroup
        self._matrix: np.ndarray | None = None
        self._cosets: tuple | None = None

    @classmethod
    def vacuum(cls, subgroup: Subgroup) -> "CoherentFrame":
        return cls(subgroup.group, vacuum_vector(subgroup), subgroup=subgroup)

    @property
    def haar_weight(self) -> float:
        return 1.0 / self.group.order

    @property
    def point_count(self) -> int:
        return self.group.order ** 2

    def points(self):
        return phase_space(self.group)

    def state(self, z: PhaseSpacePoint) -> np.ndarray:
        return weyl_apply(z, self.fiducial)

    def state_matrix(self) -> np.ndarray:
        """(|F|, |G|) array; row z.index is the state |z>. Cached."""
        if self._matrix is None:
            if self.point_count > STATE_MATRIX_CAP:
                raise DenseLimitError(
                    f"|F| = {self.point_count} exceeds the state-matrix cap "
                    f"{STATE_MATRIX_CAP}"
                )
            # row g * |G| + chi is chi(h) * fiducial[h - g] over h
            d = self.group.order
            shifted = self.fiducial[difference_index_table(self.group)]
            mat = (character_table(self.group)[None] * shifted[:, None]).reshape(d * d, d)
            mat.flags.writeable = False
            self._matrix = mat
        return self._matrix

    def vacuum_subgroup(self) -> Subgroup:
        """H whose indicator the fiducial is; NotVacuumError otherwise."""
        if self.subgroup is None:
            detected = detect_vacuum_subgroup(self.group, self.fiducial)
            if detected is None:
                raise NotVacuumError(
                    "fiducial is not a vacuum (subgroup indicator) vector"
                )
            self.subgroup = detected
        return self.subgroup

    def cosets(self) -> tuple[PhaseSpaceSubgroup, tuple[PhaseSpacePoint, ...]]:
        """(K, coset representatives of K in F) for the vacuum subgroup."""
        if self._cosets is None:
            K = maximal_compact(self.vacuum_subgroup())
            self._cosets = (K, coset_representatives(K))
        return self._cosets


def coset_ids(frame: CoherentFrame) -> np.ndarray:
    """(|F|,) array labelling each phase-space point by its K-coset ordinal."""
    K, _ = frame.cosets()
    return K._partition[1]


def _require_dense_points(point_count: int) -> None:
    """DenseLimitError unless an (|F|, |F|) matrix fits the dense-matrix limit."""
    cap = dense_limit()
    if point_count > cap:
        raise DenseLimitError(f"|F| = {point_count} exceeds the dense-matrix limit {cap}")


def overlap_matrix(frame: CoherentFrame) -> np.ndarray:
    """|<z|z'>| for all pairs of frame points; requires |F| <= dense limit."""
    _require_dense_points(frame.point_count)
    S = frame.state_matrix()
    return np.abs(S.conj() @ S.T)


@dataclass(frozen=True, eq=False)
class CosetBasis:
    representatives: tuple[PhaseSpacePoint, ...]
    vectors: np.ndarray  # (|F|/|K|, |G|), rows are basis states


def coset_basis(frame: CoherentFrame) -> CosetBasis:
    """One coherent state per coset of K: an orthonormal basis (vacuum frames)."""
    try:
        K, reps = frame.cosets()
    except NotVacuumError:
        raise NotVacuumError("not a vacuum frame") from None
    return CosetBasis(reps, _apply_points(frame.group, K._partition[0], frame.fiducial))


def _invariance_defect(K: PhaseSpaceSubgroup) -> np.ndarray:
    """sum_u (I - W(u)) over u in K; its null space is the K-invariant subspace."""
    d = K.group.order
    acc = np.zeros((d, d), dtype=np.complex128)
    eye = np.eye(d)
    u = K.indices
    for part in _blocks(len(u), 16 * d * d):
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
    """Max-norm distance of sum_z w |z><z| from the identity."""
    d = frame.group.order
    if frame.point_count <= STATE_MATRIX_CAP:
        S = frame.state_matrix()
        acc = S.T @ S.conj()
    else:
        acc = np.zeros((d, d), dtype=np.complex128)
        for g in range(d):  # the states |(g, chi)> of one translate, row chi
            block = _apply_points(frame.group, g * d + np.arange(d), frame.fiducial)
            acc += block.T @ block.conj()
    return float(np.abs(acc * frame.haar_weight - np.eye(d)).max())
