"""Husimi functions, Wehrl and von Neumann entropies, the measuring channel.

The Husimi function of rho is Q(z) = <z|rho|z> over phase space F, and the
Wehrl entropy is -sum_z w Q log Q with Haar weight w = 1/|G|. With this
normalisation the compact subgroup K has volume 1, the frame resolves the
identity with constant 1, and the entropy lower bound for Lagrangian
(stabiliser) frames is exactly 0, attained precisely on coherent states.

Pure states go through the frame's analysis `frames.pure_amplitudes`.
Densities go through one kernel, `_weyl_multiplier`: `groups.group_dft` of
their shifted diagonals times the ambiguity table T (Husimi) or |T|^2 (channel).

The density-matrix functions take one state (d, d) or a stack (..., d, d)
and work along the last axes: one state gives a Python float or a (d, d)
array, a stack gives an array of them. Entropies are in nats;
`entropy_report` alone also gives them in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .frames import CoherentFrame, coset_basis, coset_ids, pure_amplitudes
from .groups import FiniteAbelianGroup, _index_sum, group_dft
from .groups import direct_product as _direct_product
from .states import _checked_eigvalsh, check_density_matrix, check_state_vector

__all__ = [
    "ZERO_LOG_THRESHOLD",
    "HusimiTable",
    "husimi",
    "husimi_fast",
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
    """Q(z) = <z|rho|z> for every z, for one density (d, d) or a stack (..., d, d).

    With z = (g, a) in lex order, R[D, h] = rho[h + D, h] (the shifted
    diagonals of rho) and T the frame's ambiguity table
    (`CoherentFrame.ambiguity_table`), Q is the symplectic Fourier
    convolution of the ambiguity functions of rho and of the fiducial:

        Q[g, a] = Re F_D( F^-1_b( F_h(R)[D, b] T[D, b] )[D, g] ) / |G|,

    where F is `group_dft` and F^-1 its adjoint (inverse=True): the kernel
    `_weyl_multiplier` with m = T, then one more transform of a (|G|, |G|)
    array per state; no (|F|, |G|) state matrix.
    """
    rho = check_density_matrix(rho, frame.group.order)
    return HusimiTable(frame, _husimi_values(frame, rho))


# 16 groups, as `groups.difference_index_table`: the 53-pair check suite spans 10
@lru_cache(maxsize=16)
def _diagonal_index(group: FiniteAbelianGroup) -> np.ndarray:
    """(|G|, |G|) flat indices of rho[h + D, h] at [D, h], through `_index_sum`."""
    every = np.arange(group.order)
    flat = _index_sum(group, every[:, None], every[None, :]) * group.order + every
    flat.flags.writeable = False
    return flat


def _weyl_multiplier(group: FiniteAbelianGroup, rho: np.ndarray, m: np.ndarray) -> np.ndarray:
    """F^-1_b( F_h(R)[D, b] m[D, b] )[..., D, g] of validated rho, R[D, h] = rho[h + D, h].

    The one kernel of the density routes: m = T for `husimi`, |T|^2 for the channel.
    """
    d = group.order
    diagonals = np.take(rho.reshape(rho.shape[:-2] + (d * d,)), _diagonal_index(group), axis=-1)
    spectrum = group_dft(group, diagonals)
    spectrum *= m
    return group_dft(group, spectrum, inverse=True)


def _husimi_values(frame: CoherentFrame, rho: np.ndarray) -> np.ndarray:
    """(..., |F|) Husimi values of validated densities; see `husimi`."""
    group = frame.group
    d = group.order
    by_shift = _weyl_multiplier(group, rho, frame.ambiguity_table)  # [..., D, g]
    q = group_dft(group, np.swapaxes(by_shift, -1, -2))  # [..., g, a]
    return (q.real / d).reshape(rho.shape[:-2] + (d * d,))


def husimi_fast(frame: CoherentFrame, psi) -> HusimiTable:
    """Husimi table of |psi><psi| for one state or a stack (transform path)."""
    psi = check_state_vector(psi, frame.group.order)
    amps = pure_amplitudes(frame, psi)
    return HusimiTable(frame, np.abs(amps) ** 2)


def _entropy_sum(values: np.ndarray, weight: float):
    """-sum w v log v along the last axis, with v log v := 0 below the threshold."""
    # in place where the bits allow: on stacks each temporary is |F| floats
    # per state, and fresh heap pages cost more than the arithmetic
    logs = np.where(values > ZERO_LOG_THRESHOLD, values, 1.0)
    np.log(logs, out=logs)
    terms = weight * values
    terms *= logs
    return _scalar(-terms.sum(axis=-1))


def wehrl_entropy(table: HusimiTable):
    """-sum_z w Q log Q in nats, with Q log Q := 0 below the zero threshold."""
    return _entropy_sum(table.values, table.haar_weight)


def pure_state_entropy(frame: CoherentFrame, psi):
    """Wehrl entropy of |psi><psi| without building the dense table.

    One state (d,) gives a float, a stack (..., d) an array.
    """
    q = np.abs(pure_amplitudes(frame, psi))
    q *= q
    return _entropy_sum(q, frame.haar_weight)


def wehrl_entropy_coset(frame: CoherentFrame, rho):
    """Wehrl entropy in nats from one Husimi value per coset of the stabiliser S.

    Valid for Lagrangian (stabiliser) frames only, where Q is constant on
    S-cosets: S^W = -vol(S) * sum_{cosets} Q(rep) log Q(rep), and
    vol(S) = |S|/|G| = 1. |G| evaluations instead of |G|^2. ValueError
    (from `coset_basis`) on any other frame.
    """
    basis = coset_basis(frame).vectors
    rho = check_density_matrix(rho, frame.group.order)
    return _coset_entropy(basis, rho)


def _coset_entropy(basis: np.ndarray, rho: np.ndarray):
    """-sum_a q_a log q_a over the coset states of `basis`, for validated densities."""
    tmp = basis.conj() @ rho
    values = np.einsum("...ak,ak->...a", tmp, basis).real
    return _entropy_sum(values, 1.0)


def husimi_coset_spread(table: HusimiTable):
    """Largest within-coset variation of Q over the stabiliser's cosets; ~0 on any frame."""
    by_coset = np.argsort(coset_ids(table.frame), kind="stable")
    size = table.frame.stabiliser.order  # |F| / |S| cosets of |S| points each
    vals = table.values[..., by_coset].reshape(table.values.shape[:-1] + (-1, size))
    return _scalar((vals.max(axis=-1) - vals.min(axis=-1)).max(axis=-1))


def von_neumann_entropy(rho):
    """-tr rho log rho in nats; eigenvalues below 1e-12 are clamped to zero."""
    _, eig = _checked_eigvalsh(rho)
    return _spectrum_entropy(eig)


def _spectrum_entropy(eig: np.ndarray):
    """-sum e log e along the last axis, with e log e := 0 for e <= 1e-12."""
    safe = np.where(eig > 1e-12, eig, 1.0)
    return _scalar(-(eig * np.log(safe)).sum(axis=-1))


@dataclass(frozen=True)
class EntropyReport:
    wehrl: float
    von_neumann: float
    gap: float
    log_base: str


def entropy_report(frame: CoherentFrame, rho, log_base: str = "e") -> EntropyReport:
    """Wehrl and von Neumann entropies of rho; gap = wehrl - von_neumann >= 0.

    In nats for log_base "e" and in bits for "2" (the CLI's --log-base).
    One density (d, d) gives floats, a stack (..., d, d) arrays. rho is
    validated once, by the eigendecomposition the von Neumann entropy uses.
    """
    rho, eig = _checked_eigvalsh(rho, frame.group.order)
    divisor = _log_divisor(log_base)
    w = _entropy_sum(_husimi_values(frame, rho), frame.haar_weight) / divisor
    s = _spectrum_entropy(eig) / divisor
    return EntropyReport(w, s, w - s, log_base)


def measurement_channel(frame: CoherentFrame, rho) -> np.ndarray:
    """Phi[rho] = sum_z w Q(z) |z><z|; trace preserving, entropy non-decreasing.

    The channel is Weyl covariant, so it multiplies the ambiguity function
    of rho by |<phi|W(z) phi>|^2 = |T|^2 (Werner 1984). With R[D, h] =
    rho[h + D, h] as in `husimi`:

        Phi[rho][h + D, h] = w F^-1_b( F_h(R)[D, b] |T[D, b]|^2 )[D, h],

    then made exactly Hermitian: two transforms per state, no Husimi table
    and no (|F|, |G|) state matrix.
    """
    rho = check_density_matrix(rho, frame.group.order)
    return _channel(frame, rho)


def _channel(frame: CoherentFrame, rho: np.ndarray) -> np.ndarray:
    """Phi[rho] of validated densities (`measurement_channel`); the channel checks call it too."""
    group = frame.group
    d = group.order
    power = np.abs(frame.ambiguity_table)
    power *= power
    diagonals = _weyl_multiplier(group, rho, power)  # [..., D, h]
    diagonals *= frame.haar_weight
    out = np.empty(rho.shape, dtype=np.complex128)
    out.reshape(rho.shape[:-2] + (d * d,))[..., _diagonal_index(group)] = diagonals
    return 0.5 * (out + np.swapaxes(out.conj(), -1, -2))


def product_frame(a: CoherentFrame, b: CoherentFrame) -> CoherentFrame:
    """Frame on G1 x G2 with fiducial phi1 (x) phi2; coherent states factorise."""
    return CoherentFrame(_direct_product(a.group, b.group), np.kron(a.fiducial, b.fiducial))


def partial_trace(rho, dims: tuple[int, int], trace_out: int = 2) -> np.ndarray:
    d1, d2 = dims
    r = np.asarray(rho, dtype=np.complex128)
    r = r.reshape(r.shape[:-2] + (d1, d2, d1, d2))
    if trace_out == 2:
        return np.einsum("...ijkj->...ik", r)
    if trace_out == 1:
        return np.einsum("...ijil->...jl", r)
    raise ValueError(f"trace_out must be 1 or 2, got {trace_out}")


def husimi_marginal(table: HusimiTable, dims: tuple[int, int]) -> np.ndarray:
    """Integrate a product-group Husimi table over the second factor's phase space.

    Returns values over the first factor's phase space (lex order); equals
    the Husimi table of the first factor's reduced density matrix.
    """
    d1, d2 = dims
    lead = table.values.shape[:-1]
    v = table.values.reshape(lead + (d1, d2, d1, d2))  # last axes (g1, g2, a1, a2)
    return v.sum(axis=(-3, -1)).reshape(lead + (d1 * d1,)) / d2

