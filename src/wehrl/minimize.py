"""Wehrl-entropy minimisation over pure states by projected gradient descent.

Minimising over pure states suffices: the entropy is concave in rho, so its
minimum over the (compact, convex) state space is attained at an extreme
point. The iteration walks the unit sphere: Euclidean gradient, tangent
projection, renormalisation retraction, monotone line search with step
halving.

The walk (`_descend_rows`) takes an energy/gradient pair over rows, chosen
from the frame alone once per `minimize` or `descend` call:
- the coset pair, for vacuum frames: all |K| = |G| points of a K-coset are
  one ray up to phase, so S^W(psi) = -vol * sum_a q_a log q_a with
  q_a = |<r_a|psi>|^2 over the |G| coset states r_a of `coset_basis` and
  vol = |K|/|G|. One (|G|, |G|) product per row and step;
- the transform pair (`pure_state_entropy`, `entropy_gradient`), for any
  fiducial: all |G|^2 amplitudes through `group_dft`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .entropy import _entropy_sum, group_dft, pure_amplitudes, pure_state_entropy
from .frames import CoherentFrame, NotVacuumError, coset_basis
from .groups import PhaseSpacePoint, Subgroup, difference_index_table
from .states import _BLOCK_BYTES, random_state_vector

__all__ = [
    "MinimizerConfig",
    "MinimizerResult",
    "entropy_gradient",
    "descend",
    "minimize",
    "nearest_coherent",
    "scan_fiducials",
]

# Husimi values below this contribute no gradient (the Q -> 0 limit of
# Q log Q is 0, but log Q blows up; such points are skipped)
GRAD_SKIP = 1e-12
# consecutive accepted steps with decrease < tol_entropy that count as converged
PLATEAU_STEPS = 20
MIN_STEP = 1e-14


@dataclass(frozen=True)
class MinimizerConfig:
    max_iters: int = 5000
    step_size: float = 0.1  # halved on non-decrease
    tol_grad: float = 1e-8
    tol_entropy: float = 1e-9
    restarts: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iters < 0 or self.restarts < 1:
            raise ValueError("max_iters must be >= 0 and restarts >= 1")
        if self.step_size <= 0 or self.tol_grad <= 0 or self.tol_entropy <= 0:
            raise ValueError("step_size and tolerances must be positive")


@dataclass(eq=False)
class MinimizerResult:
    best_state: np.ndarray
    best_entropy: float
    nearest_point: PhaseSpacePoint
    nearest_overlap: float
    iterations: int
    converged: bool
    restart_index: int
    # one entry per restart, in restart order
    restart_entropies: np.ndarray
    restart_iterations: np.ndarray
    restart_converged: np.ndarray


def _synthesis(frame: CoherentFrame, coeffs: np.ndarray) -> np.ndarray:
    """sum_z coeffs_z |z> along the last axis; the adjoint of pure_amplitudes."""
    group = frame.group
    d = group.order
    spectra = group_dft(group, coeffs.reshape(coeffs.shape[:-1] + (d, d)), inverse=True)
    idx = difference_index_table(group)
    spectra *= frame.fiducial[idx]
    return spectra.sum(axis=-2)


def entropy_gradient(frame: CoherentFrame, psi: np.ndarray) -> np.ndarray:
    """Tangent gradient of the pure-state Wehrl entropy at a unit psi.

    Euclidean gradient -sum_z w (log Q + 1) <z|psi> |z> (conjugate-gradient
    convention), projected onto the sphere tangent at psi. Points with
    Q < 1e-12 are skipped. Takes one state (d,) or a stack (..., d).
    """
    psi = np.asarray(psi)
    c = pure_amplitudes(frame, psi)
    _weigh_amplitudes(c, frame.haar_weight)
    return _tangent(psi, -_synthesis(frame, c))


def _weigh_amplitudes(c: np.ndarray, weight: float) -> None:
    """c -> weight * (log Q + 1) * c in place, Q = |c|^2; 0 where Q < GRAD_SKIP.

    Built in the caller's fresh amplitude array (see entropy._entropy_sum).
    """
    m = np.abs(c)
    m *= m
    keep = m >= GRAD_SKIP
    np.log(m, out=m, where=keep)
    m += 1.0
    m[~keep] = 0.0
    m *= weight
    c *= m


def _tangent(psi: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """grad projected onto the sphere tangent at the unit psi."""
    radial = (psi.conj() * grad).sum(axis=-1).real
    return grad - radial[..., None] * psi


# a map over an (R, d) stack of unit rows, one row independent of the others
_RowMap = Callable[[np.ndarray], np.ndarray]


def _objective(frame: CoherentFrame) -> tuple[_RowMap, _RowMap, int]:
    """(energy, tangent gradient, bytes per row of the largest complex temporary).

    The coset pair for a vacuum frame, the transform pair for any other;
    both give the same entropy and gradient up to rounding. Each row of the
    coset pair is its own (1, d) @ (d, d) product, so a row rounds the same
    in a stack of any height.
    """
    d = frame.group.order
    try:
        vectors = coset_basis(frame).vectors
    except NotVacuumError:
        return (
            lambda psi: pure_state_entropy(frame, psi),
            lambda psi: entropy_gradient(frame, psi),
            16 * d * d,
        )
    K, _ = frame.cosets()
    vol = K.order / d
    # psi @ adjoint holds the coset amplitudes <r_a|psi>
    adjoint = np.ascontiguousarray(vectors.conj().T)

    def amplitudes(psi: np.ndarray) -> np.ndarray:
        return (psi[:, None, :] @ adjoint)[:, 0, :]

    def energy(psi: np.ndarray) -> np.ndarray:
        q = np.abs(amplitudes(psi))
        q *= q
        return vol * _entropy_sum(q, 1.0)

    def gradient(psi: np.ndarray) -> np.ndarray:
        c = amplitudes(psi)
        _weigh_amplitudes(c, vol)
        return _tangent(psi, -(c[:, None, :] @ vectors)[:, 0, :])

    return energy, gradient, 16 * d


def _descend_rows(
    energy_of: _RowMap,
    gradient_of: _RowMap,
    starts: np.ndarray,
    config: MinimizerConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """`descend` on each row of an (R, d) stack of starts, all rows at once.

    energy_of and gradient_of map an (R, d) stack of unit rows to its (R,)
    entropies and (R, d) tangent gradients (see `_objective`). Every row follows descend's rules on its
    own: its own step size and halvings, plateau count, max_iters budget
    and convergence flag. Each tick takes one gradient for the rows
    starting an iteration and one trial energy for the rows searching
    along their gradient, so a row ends where it would end alone. Returns
    (states, entropies, iterations, converged).
    """
    psi = np.asarray(starts, dtype=np.complex128)
    psi = psi / np.linalg.norm(psi, axis=-1, keepdims=True)
    rows = psi.shape[0]
    energy = energy_of(psi)
    step = np.full(rows, config.step_size)
    plateau = np.zeros(rows, dtype=np.int64)
    iterations = np.zeros(rows, dtype=np.int64)
    converged = np.zeros(rows, dtype=bool)
    grad = np.zeros_like(psi)
    starting = np.ones(rows, dtype=bool)  # at the top of an iteration
    searching = np.zeros(rows, dtype=bool)  # in the step-halving line search
    while starting.any() or searching.any():
        top = np.flatnonzero(starting & (iterations < config.max_iters))
        starting[:] = False
        if top.size:
            grad[top] = gradient_of(psi[top])
            flat = np.linalg.norm(grad[top], axis=-1) <= config.tol_grad
            # no step left above MIN_STEP: no descent at machine resolution
            stationary = flat | (step[top] <= MIN_STEP)
            converged[top[stationary]] = True
            searching[top[~stationary]] = True
        ask = np.flatnonzero(searching)
        if not ask.size:
            continue
        trial = psi[ask] - step[ask, None] * grad[ask]
        trial = trial / np.linalg.norm(trial, axis=-1, keepdims=True)
        trial_energy = energy_of(trial)
        better = trial_energy < energy[ask]
        worse = ask[~better]
        step[worse] *= 0.5
        stalled = worse[step[worse] <= MIN_STEP]
        converged[stalled] = True
        searching[stalled] = False
        moved = ask[better]
        drop = energy[moved] - trial_energy[better]
        psi[moved] = trial[better]
        energy[moved] = trial_energy[better]
        iterations[moved] += 1
        searching[moved] = False
        plateau[moved] = np.where(drop < config.tol_entropy, plateau[moved] + 1, 0)
        done = plateau[moved] >= PLATEAU_STEPS
        converged[moved[done]] = True
        starting[moved[~done]] = True
    return psi, energy, iterations, converged


def descend(
    frame: CoherentFrame, start: np.ndarray, config: MinimizerConfig
) -> tuple[np.ndarray, float, int, bool]:
    """One gradient-descent run from `start`; (state, entropy, iters, converged).

    Walks the sphere from the normalised start: each iteration takes the
    tangent gradient, stops (converged) if its norm is at most tol_grad,
    and otherwise halves the step from its last value until the retracted
    trial point lowers the entropy. No such step above MIN_STEP means a
    stationary point (converged); PLATEAU_STEPS accepted steps in a row
    that each drop the entropy by less than tol_entropy also count as
    converged. After max_iters accepted steps the run stops unconverged.
    """
    energy_of, gradient_of, _ = _objective(frame)
    states, energies, iterations, converged = _descend_rows(
        energy_of, gradient_of, np.asarray(start)[None, :], config
    )
    return states[0], float(energies[0]), int(iterations[0]), bool(converged[0])


def minimize(frame: CoherentFrame, config: MinimizerConfig | None = None) -> MinimizerResult:
    """Best entropy over `restarts` random unit starts, deterministic in the seed.

    The result is the minimum over restart indices (ties broken by the
    lowest index). Non-convergence returns the best iterate found, it does
    not raise. The restarts run as stacks of rows through descend's rules,
    in blocks sized so that each complex temporary of the frame's
    energy/gradient pair stays near the shared block budget: (rows, |G|)
    for the coset pair, (rows, |G|, |G|) for the transform pair.
    """
    config = config or MinimizerConfig()
    rng = np.random.default_rng(config.seed)
    d = frame.group.order
    starts = np.stack([random_state_vector(d, rng) for _ in range(config.restarts)])
    energy_of, gradient_of, row_bytes = _objective(frame)
    block = max(1, _BLOCK_BYTES // row_bytes)
    runs = [
        _descend_rows(energy_of, gradient_of, starts[i : i + block], config)
        for i in range(0, config.restarts, block)
    ]
    states, energies, iterations, converged = (np.concatenate(part) for part in zip(*runs))
    index = int(np.argmin(energies))
    point, overlap = nearest_coherent(frame, states[index])
    return MinimizerResult(
        best_state=states[index],
        best_entropy=float(energies[index]),
        nearest_point=point,
        nearest_overlap=overlap,
        iterations=int(iterations.sum()),
        converged=bool(converged[index]),
        restart_index=index,
        restart_entropies=energies,
        restart_iterations=iterations,
        restart_converged=converged,
    )


def nearest_coherent(
    frame: CoherentFrame, psi: np.ndarray
) -> tuple[PhaseSpacePoint, float]:
    """Frame point with the largest |<z|psi>|, and that overlap.

    On a vacuum frame all members of a K-coset share one overlap up to
    rounding; the point is then the coset's lex-least member.
    """
    c = np.abs(pure_amplitudes(frame, psi))
    idx = int(np.argmax(c))
    overlap = float(c[idx])
    try:
        K, _ = frame.cosets()
    except NotVacuumError:
        return PhaseSpacePoint.by_index(frame.group, idx), overlap
    representatives, ids = K._partition
    return PhaseSpacePoint.by_index(frame.group, int(representatives[ids[idx]])), overlap


def scan_fiducials(
    group,
    subgroup: Subgroup | None = None,
    trials: int = 8,
    config: MinimizerConfig | None = None,
) -> dict:
    """Minimise over states for random fiducials, with a vacuum control row.

    Gathers evidence about non-vacuum frames; the report carries the
    observed minima and is never turned into an assertion.
    """
    config = config or MinimizerConfig()
    H = subgroup if subgroup is not None else Subgroup.whole(group)
    rows = []

    def row(kind: str, frame: CoherentFrame) -> dict:
        result = minimize(frame, config)
        return {
            "fiducial_kind": kind,
            "best_entropy": result.best_entropy,
            "overlap": result.nearest_overlap,
            "iterations": result.iterations,
            "converged": result.converged,
        }

    rows.append(row("vacuum", CoherentFrame.vacuum(H)))
    fid_rng = np.random.default_rng([config.seed, 0xF1D])
    for t in range(trials):
        fiducial = random_state_vector(group.order, fid_rng)
        rows.append(row(f"random:{t}", CoherentFrame(group, fiducial)))
    return {
        "group": str(group),
        "subgroup": str(H),
        "trials": trials,
        "seed": config.seed,
        "rows": rows,
    }
