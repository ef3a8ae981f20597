"""State-vector and density-matrix helpers shared across modules."""

from __future__ import annotations

import numpy as np

__all__ = [
    "check_state_vector",
    "check_density_matrix",
    "random_state_vector",
    "random_density_matrix",
    "maximally_mixed",
    "pure_density",
]

# tolerances of check_density_matrix (Hermitian, eigenvalue, trace); none is
# settable, and the checks read them when called
_HERM_TOL, _EIG_TOL, _TRACE_TOL = 1e-12, 1e-10, 1e-10
# tolerance of check_state_vector on each norm
_NORM_TOL = 1e-12


def check_state_vector(vec, dim: int | None = None) -> np.ndarray:
    """Validate unit vectors and return them as complex128.

    Takes one vector (d,) or a stack (..., d); every member of a stack must
    have finite entries and unit norm, and a norm message gives the worst
    member's norm.
    """
    arr = np.asarray(vec, dtype=np.complex128)
    if arr.ndim < 1:
        raise ValueError(f"state vector must be at least one-dimensional, got shape {arr.shape}")
    if dim is not None and arr.shape[-1] != dim:
        raise ValueError(f"state vector has dimension {arr.shape[-1]}, expected {dim}")
    if not np.isfinite(arr).all():
        raise ValueError("state vector has non-finite entries")
    norms = np.linalg.norm(arr, axis=-1).reshape(-1)
    norm = float(norms[np.argmax(np.abs(norms - 1.0))])
    if abs(norm - 1.0) > _NORM_TOL:
        raise ValueError(f"state vector norm {norm!r} is not 1 within {_NORM_TOL}")
    return arr


def check_density_matrix(rho, dim: int | None = None) -> np.ndarray:
    """Validate a density matrix: Hermitian, PSD and trace one, within tolerance.

    Takes one matrix (d, d) or a stack (..., d, d); every member of a stack
    must pass, and a trace or eigenvalue message gives the worst member's value.
    A stack that one Cholesky factorisation proves PSD is accepted without an
    eigendecomposition; any other goes to `eigvalsh`, which decides.
    """
    arr = _checked_hermitian_trace(rho, dim)
    if not _cholesky_proves_psd(arr):
        _checked_min_eigenvalue(arr)
    return arr


def _checked_eigvalsh(rho, dim: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """`check_density_matrix`, also returning the ascending eigenvalues it tested."""
    arr = _checked_hermitian_trace(rho, dim)
    return arr, _checked_min_eigenvalue(arr)


def _checked_hermitian_trace(rho, dim) -> np.ndarray:
    """The shape, finite, Hermitian and trace checks of `check_density_matrix`."""
    arr = np.asarray(rho, dtype=np.complex128)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"density matrix must be square, got shape {arr.shape}")
    if dim is not None and arr.shape[-1] != dim:
        raise ValueError(
            f"density matrix has dimension {arr.shape[-1]}, expected {dim}"
        )
    if not np.isfinite(arr).all():
        raise ValueError("density matrix has non-finite entries")
    if np.abs(arr - np.swapaxes(arr.conj(), -1, -2)).max() > _HERM_TOL:
        raise ValueError("density matrix is not Hermitian")
    traces = np.trace(arr, axis1=-2, axis2=-1).reshape(-1)
    trace = complex(traces[np.argmax(np.abs(traces - 1.0))])
    if abs(trace - 1.0) > _TRACE_TOL:
        raise ValueError(f"density matrix trace {trace!r} is not 1")
    return arr


def _checked_min_eigenvalue(arr: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of every member; raises if the smallest is below -_EIG_TOL."""
    eig = np.linalg.eigvalsh(arr)
    smallest = float(eig[..., 0].min())
    if smallest < -_EIG_TOL:
        raise ValueError(
            f"density matrix is not positive semidefinite (min eigenvalue {smallest})"
        )
    return eig


def _cholesky_proves_psd(arr: np.ndarray) -> bool:
    """True if one Cholesky factorisation shows every smallest eigenvalue > -_EIG_TOL.

    Cholesky completing on A = rho + (_EIG_TOL / 2) I makes A + E PSD for a
    rounding error ||E|| <= d (d + 1) u ||A||, u = eps / 2 (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 10), so lambda_min(rho) >= -_EIG_TOL / 2
    - d (d + 1) u ||A||. A member that passed the trace check with lambda_min
    near -_EIG_TOL has ||A|| <= 1 + _TRACE_TOL + d _EIG_TOL. The gate runs only
    where four times that bound fits in _EIG_TOL / 2, the rest being left for
    eigvalsh's own rounding, so it accepts only what eigvalsh accepts; at these
    tolerances that is d <= 335. Both read only the lower triangle.
    """
    d = arr.shape[-1]
    shift = _EIG_TOL / 2
    norm = 1.0 + _TRACE_TOL + d * _EIG_TOL
    if 2 * d * (d + 1) * np.finfo(np.float64).eps * norm >= shift:
        return False
    try:
        np.linalg.cholesky(arr + shift * np.eye(d))
    except np.linalg.LinAlgError:
        return False
    return True


def random_state_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def _random_state_stack(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, d) stack of `random_state_vector(d, rng)` draws in one draw, the same bits.

    Each row is normalised as np.linalg.norm normalises one vector, by
    re.dot(re) + im.dot(im) on its real and imaginary views: a stacked
    (1, d) @ (d, 1) product runs that same dot on each row.
    """
    draws = rng.standard_normal((n, 2, d))
    states = draws[:, 0] + 1j * draws[:, 1]
    re, im = states.real[:, None, :], states.imag[:, None, :]
    norms = np.sqrt(re @ np.swapaxes(re, 1, 2) + im @ np.swapaxes(im, 1, 2))[:, 0]
    return states / norms


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Ginibre construction A A^dagger / tr: the one-matrix `_random_density_stack`."""
    return _random_density_stack(dim, 1, rng)[0]


def _random_density_stack(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, d, d) Ginibre densities; each takes its real, then its imaginary part's draws."""
    draws = rng.standard_normal((n, 2, d, d))
    a = draws[:, 0] + 1j * draws[:, 1]
    rho = a @ np.conj(np.swapaxes(a, 1, 2))
    return rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]


def maximally_mixed(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=np.complex128) / dim


def pure_density(vec) -> np.ndarray:
    arr = np.asarray(vec, dtype=np.complex128)
    return np.outer(arr, arr.conj())
