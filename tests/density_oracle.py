"""Eigenvalue-only density-matrix validation: the oracle for `check_density_matrix`.

Every member of a stack is diagonalised with `eigvalsh` and its smallest
eigenvalue compared with -eig_tol. The library may accept a stack by a
cheaper route, but must reach the same verdict with the same message.
"""

from __future__ import annotations

import numpy as np


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
