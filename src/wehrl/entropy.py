"""Husimi functions, Wehrl and von Neumann entropies, the measuring channel.

The Husimi function of rho is Q(z) = <z|rho|z> over phase space F, and the
Wehrl entropy is -sum_z w Q log Q with Haar weight w = 1/|G|. With this
normalisation the compact subgroup K has volume 1, the frame resolves the
identity with constant 1, and the entropy lower bound for vacuum frames is
exactly 0, attained precisely on coherent states.

The density-matrix functions take one state (d, d) or a stack (..., d, d)
and work along the last axes: one state gives a Python float or a (d, d)
array, a stack gives an array of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frames import CoherentFrame, NotVacuumError, coset_ids
from .groups import difference_index_table, product_subgroup
from .groups import direct_product as _direct_product
from .states import check_density_matrix, check_state_vector

__all__ = [
    "ZERO_LOG_THRESHOLD",
    "HusimiTable",
    "husimi",
    "husimi_fast",
    "pure_amplitudes",
    "wehrl_entropy",
    "pure_state_entropy",
    "wehrl_entropy_coset",
    "husimi_coset_spread",
    "von_neumann_entropy",
    "EntropyReport",
    "entropy_report",
    "measurement_channel",
    "product_frame",
    "partial_trace",
    "husimi_marginal",
    "subadditivity_gap",
]

# below this, Q log Q is taken as 0
ZERO_LOG_THRESHOLD = 1e-15


def _scalar(x):
    """A Python float for one state, the array itself for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def _log_divisor(log_base: str) -> float:
    if log_base == "e":
        return 1.0
    if log_base == "2":
        return math.log(2.0)
    raise ValueError(f"log_base must be 'e' or '2', got {log_base!r}")


@dataclass(eq=False)
class HusimiTable:
    """Q(z) over all of F in lex point order, with the 1/|G| Haar weight.

    `values` is (|F|,) for one state and (..., |F|) for a stack.
    """

    frame: CoherentFrame
    values: np.ndarray

    @property
    def haar_weight(self) -> float:
        return self.frame.haar_weight

    def mass(self):
        """sum_z w Q(z); equals tr rho = 1 for any unit fiducial."""
        return _scalar(self.values.sum(axis=-1) * self.haar_weight)


def husimi(frame: CoherentFrame, rho) -> HusimiTable:
    """Q(z) = <z|rho|z> for every z; dense reference path."""
    d = frame.group.order
    rho = check_density_matrix(rho, d)
    S = frame.state_matrix()
    tmp = S.conj() @ rho
    values = np.einsum("...zk,zk->...z", tmp, S).real
    return HusimiTable(frame, values)


def pure_amplitudes(frame: CoherentFrame, psi: np.ndarray) -> np.ndarray:
    """<z|psi> for all z in lex order, via group Fourier transforms.

    For fixed g the map chi -> <W(g,chi) phi | psi> is the Fourier
    transform of h -> conj(phi(h-g)) psi(h); the multidimensional FFT
    convention exp(-2*pi*i * sum_j a_j h_j / n_j) matches conj(chi_a)
    exactly, so one FFT per translate fills the whole table in
    O(|G|^2 log |G|) without materialising any |F|-by-|G| matrix.
    """
    group = frame.group
    d = group.order
    idx = difference_index_table(group)  # [g, h] -> index of h - g
    u = frame.fiducial.conj()[idx] * psi[None, :]
    axes = tuple(range(1, len(group.orders) + 1))
    spectra = np.fft.fftn(u.reshape((d,) + group.orders), axes=axes)
    return spectra.reshape(d * d)


def husimi_fast(frame: CoherentFrame, psi) -> HusimiTable:
    """Husimi table of the pure state |psi><psi| (FFT path, pure states only)."""
    psi = check_state_vector(psi, frame.group.order)
    amps = pure_amplitudes(frame, psi)
    return HusimiTable(frame, np.abs(amps) ** 2)


def _entropy_sum(values: np.ndarray, weight: float):
    """-sum w v log v along the last axis, with v log v := 0 below the threshold."""
    safe = np.where(values > ZERO_LOG_THRESHOLD, values, 1.0)
    return _scalar(-(weight * values * np.log(safe)).sum(axis=-1))


def wehrl_entropy(table: HusimiTable, log_base: str = "e"):
    """-sum_z w Q log Q, with Q log Q := 0 below the zero threshold."""
    return _entropy_sum(table.values, table.haar_weight) / _log_divisor(log_base)


def pure_state_entropy(frame: CoherentFrame, psi: np.ndarray) -> float:
    """Wehrl entropy of |psi><psi| without building the dense table."""
    amps = pure_amplitudes(frame, psi)
    return _entropy_sum(np.abs(amps) ** 2, frame.haar_weight)


def wehrl_entropy_coset(frame: CoherentFrame, rho, log_base: str = "e"):
    """Wehrl entropy from one Husimi value per coset of K.

    Valid for vacuum frames only, where Q is constant on K-cosets:
    S = -vol(K) * sum_{cosets} Q(rep) log Q(rep), and vol(K) = |K|/|G| = 1
    with this normalisation. |G| evaluations instead of |G|^2.
    """
    try:
        K, reps = frame.cosets()
    except NotVacuumError:
        raise NotVacuumError("coset formula requires vacuum frame") from None
    d = frame.group.order
    rho = check_density_matrix(rho, d)
    R = np.stack([frame.state(z) for z in reps])
    tmp = R.conj() @ rho
    values = np.einsum("...ak,ak->...a", tmp, R).real
    vol = K.order / d
    return vol * _entropy_sum(values, 1.0) / _log_divisor(log_base)


def husimi_coset_spread(table: HusimiTable):
    """Largest within-coset variation of Q; ~0 for vacuum frames."""
    by_coset = np.argsort(coset_ids(table.frame), kind="stable")
    d = table.frame.group.order  # |F| / |K| cosets of |K| = |G| points each
    vals = table.values[..., by_coset].reshape(table.values.shape[:-1] + (d, d))
    return _scalar((vals.max(axis=-1) - vals.min(axis=-1)).max(axis=-1))


def von_neumann_entropy(rho, log_base: str = "e"):
    """-tr rho log rho; eigenvalues below 1e-12 are clamped to zero."""
    rho = check_density_matrix(rho)
    eig = np.linalg.eigvalsh(rho)
    safe = np.where(eig > 1e-12, eig, 1.0)
    return _scalar(-(eig * np.log(safe)).sum(axis=-1)) / _log_divisor(log_base)


@dataclass(frozen=True)
class EntropyReport:
    wehrl: float
    von_neumann: float
    gap: float
    log_base: str


def entropy_report(frame: CoherentFrame, rho, log_base: str = "e") -> EntropyReport:
    """Wehrl and von Neumann entropies of rho; gap = wehrl - von_neumann >= 0."""
    w = wehrl_entropy(husimi(frame, rho), log_base=log_base)
    s = von_neumann_entropy(rho, log_base=log_base)
    return EntropyReport(w, s, w - s, log_base)


def measurement_channel(frame: CoherentFrame, rho) -> np.ndarray:
    """Phi[rho] = sum_z w Q(z) |z><z|; trace preserving, entropy non-decreasing."""
    table = husimi(frame, rho)
    S = frame.state_matrix()
    weights = frame.haar_weight * table.values
    out = (S.T * weights[..., None, :]) @ S.conj()
    return 0.5 * (out + np.swapaxes(out.conj(), -1, -2))


def product_frame(a: CoherentFrame, b: CoherentFrame) -> CoherentFrame:
    """Frame on G1 x G2 with fiducial phi1 (x) phi2; coherent states factorise."""
    group = _direct_product(a.group, b.group)
    sub = None
    if a.subgroup is not None and b.subgroup is not None:
        sub = product_subgroup(a.subgroup, b.subgroup)
    return CoherentFrame(group, np.kron(a.fiducial, b.fiducial), subgroup=sub)


def partial_trace(rho, dims: tuple[int, int], trace_out: int = 2) -> np.ndarray:
    d1, d2 = dims
    r = np.asarray(rho, dtype=np.complex128)
    r = r.reshape(r.shape[:-2] + (d1, d2, d1, d2))
    if trace_out == 2:
        return np.einsum("...ijkj->...ik", r)
    if trace_out == 1:
        return np.einsum("...ijil->...jl", r)
    raise ValueError(f"trace_out must be 1 or 2, got {trace_out}")


def husimi_marginal(
    table: HusimiTable, dims: tuple[int, int], keep: int = 1
) -> np.ndarray:
    """Integrate a product-group Husimi table over one factor's phase space.

    Returns values over the kept factor's phase space (lex order); equals
    the Husimi table of the corresponding reduced density matrix.
    """
    d1, d2 = dims
    lead = table.values.shape[:-1]
    v = table.values.reshape(lead + (d1, d2, d1, d2))  # last axes (g1, g2, a1, a2)
    if keep == 1:
        return v.sum(axis=(-3, -1)).reshape(lead + (d1 * d1,)) / d2
    if keep == 2:
        return v.sum(axis=(-4, -2)).reshape(lead + (d2 * d2,)) / d1
    raise ValueError(f"keep must be 1 or 2, got {keep}")


def subadditivity_gap(frame_a: CoherentFrame, frame_b: CoherentFrame, rho12) -> float:
    """Exploratory: lhs - rhs of the strengthened subadditivity

        S^W(rho12) >= S^W(rho1) + S^W(rho2) + S(rho12) - S(rho1) - S(rho2).

    Evaluated and reported only, never asserted.
    """
    fr12 = product_frame(frame_a, frame_b)
    dims = (frame_a.group.order, frame_b.group.order)
    rho12 = check_density_matrix(rho12, dims[0] * dims[1])
    rho1 = partial_trace(rho12, dims, trace_out=2)
    rho2 = partial_trace(rho12, dims, trace_out=1)
    lhs = wehrl_entropy(husimi(fr12, rho12))
    rhs = (
        wehrl_entropy(husimi(frame_a, rho1))
        + wehrl_entropy(husimi(frame_b, rho2))
        + von_neumann_entropy(rho12)
        - von_neumann_entropy(rho1)
        - von_neumann_entropy(rho2)
    )
    return lhs - rhs
