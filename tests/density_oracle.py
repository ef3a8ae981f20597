"""Dense oracles for density-matrix routes.

- `check_density_matrix_by_eigvalsh`, for `check_density_matrix`: every
  member of a stack is diagonalised with `eigvalsh` and its smallest
  eigenvalue compared with -eig_tol. The library may accept a stack by a
  cheaper route, but must reach the same verdict with the same message.
- `husimi_by_state_matrix` and `channel_by_state_matrix`, for `husimi`
  and `measurement_channel`: <z|rho|z> and sum_z w Q(z) |z><z| as products
  with the (|F|, |G|) matrix of frame states, built here row by row from
  `weyl_apply`, where the library convolves through the group transform.
"""

from __future__ import annotations

import numpy as np

from wehrl import weyl_apply


def check_density_matrix_by_eigvalsh(
    rho, *, herm_tol: float = 1e-12, eig_tol: float = 1e-10, trace_tol: float = 1e-10
) -> np.ndarray:
    arr = np.asarray(rho, dtype=np.complex128)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"density matrix must be square, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("density matrix has non-finite entries")
    if np.abs(arr - np.swapaxes(arr.conj(), -1, -2)).max() > herm_tol:
        raise ValueError("density matrix is not Hermitian")
    traces = np.trace(arr, axis1=-2, axis2=-1).reshape(-1)
    trace = complex(traces[np.argmax(np.abs(traces - 1.0))])
    if abs(trace - 1.0) > trace_tol:
        raise ValueError(f"density matrix trace {trace!r} is not 1")
    smallest = float(np.linalg.eigvalsh(arr)[..., 0].min())
    if smallest < -eig_tol:
        raise ValueError(
            f"density matrix is not positive semidefinite (min eigenvalue {smallest})"
        )
    return arr


def state_matrix(frame) -> np.ndarray:
    """(|F|, |G|) array whose row z is W(z) phi."""
    return np.stack([weyl_apply(frame.group, z, frame.fiducial) for z in range(frame.point_count)])


def husimi_by_state_matrix(frame, rho, states=None) -> np.ndarray:
    """(..., |F|) values <z|rho|z> for one density (d, d) or a stack."""
    S = state_matrix(frame) if states is None else states
    return np.einsum("...zk,zk->...z", S.conj() @ rho, S).real


def channel_by_state_matrix(frame, rho, states=None) -> np.ndarray:
    """sum_z w Q(z) |z><z|, made exactly Hermitian, for one density or a stack."""
    S = state_matrix(frame) if states is None else states
    weights = frame.haar_weight * husimi_by_state_matrix(frame, rho, S)
    out = (S.T * weights[..., None, :]) @ S.conj()
    return 0.5 * (out + np.swapaxes(out.conj(), -1, -2))
