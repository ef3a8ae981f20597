"""Wehrl-entropy minimisation over pure states by descent on the unit sphere.

Minimising over pure states suffices: the entropy is concave in rho, so its
minimum over the (compact, convex) state space is attained at an extreme
point. The iteration walks the unit sphere: a descent direction in the
tangent space, renormalisation retraction, and a monotone line search that
tries the full step first and halves it on each trial that does not lower
the entropy (Armijo backtracking on a manifold). Every walk has one
stopping rule: a row converges only on a certificate, and a budget ends it
unconverged.

The walk (`_descend_rows`) takes one evaluation over rows, chosen from
the frame alone once per `minimize` or `descend` call:
- the coset pair, for Lagrangian (stabiliser) frames: all |S| = |G|
  points of a coset of the stabiliser S are one ray up to phase, so
  S^W(psi) = -sum_a q_a log q_a with q_a = |x_a|^2, x = V^H psi the
  coordinates of psi in the orthonormal coset basis V of `coset_basis`,
  built once per frame (the coset volume |S|/|G| is 1). The step only
  rescales coordinates, so the walk runs on the real magnitudes m = |x|:
  the starts are mapped in once, their phases fixed there, and the
  results mapped back once with those phases, and no step does a basis
  product. V is unitary, so the sphere, the retraction and every rule of
  `descend` read the same in m as in psi. The walk steps along the
  escort direction d_a = m_a (1 - m_a / max_b m_b) of entropic mirror
  descent (exponentiated gradient; Beck and Teboulle, Oper. Res. Lett. 31
  (2003) 167): its full step, after the retraction, is the escort map
  q -> q^2 / sum q^2, which squares every minor/major ratio and lowers
  S^W at every point not uniform on its support (the escort family
  q^b / sum q^b has entropy derivative -b Var_b(log q) <= 0 in b). It
  never reorders the coordinates, so a walk ends on the coset of its
  start's largest one. The certificate reads the tangent gradient
  g_a = -(log q_a + S^W) m_a and the Newton decrement of the diagonal
  Hessian of the Lagrangian, h_a = -(log q_a + 2 + S^W) halved;
- the transform pair (`pure_state_entropy`, `entropy_gradient`), for any
  other fiducial: all |G|^2 amplitudes, in psi, with a gradient step. The
  amplitudes come from the frame's analysis `frames.pure_amplitudes` and
  the gradient goes back through its adjoint, `frames._synthesis`.
Each trial point is evaluated once, for its entropy, step, gradient norm
and decrement together, and an accepted row keeps all four. The restarts
walk as one stack of rows. At these sizes a step costs its numpy calls
more than its arithmetic, so the coset walk takes no tick for its full
steps: k of them from weights q give the escort iterate
q^(2^k) / sum q^(2^k) in closed form, and each chunk reads
TRAJECTORY_POINTS points of every row's trajectory off one stack, built in
logs and evaluated at once, and finds where each row stops by descend's
rules. A row whose next full step is not lower needs a halving; it leaves
the stack, with its iterations and plateau count, for the tick loop,
which every row of the transform pair walks. No tick gathers rows by a
mask, and a tick where every row accepts its trial copies nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import limits
from .entropy import ZERO_LOG_THRESHOLD, _entropy_sum
from .frames import CoherentFrame, _synthesis, coset_basis, pure_amplitudes
from .groups import Subgroup
from .states import _random_state_stack, random_state_vector

__all__ = [
    "MinimizerConfig",
    "MinimizerResult",
    "entropy_gradient",
    "descend",
    "minimize",
    "nearest_coherent",
    "scan_fiducials",
]

# Husimi values below this contribute no gradient to `entropy_gradient` and
# the gradient walk (the Q -> 0 limit of Q log Q is 0, but log Q blows up;
# such points are skipped)
GRAD_SKIP = 1e-12
# consecutive accepted steps with decrease < tol_entropy: a budget that ends
# a walk unconverged
PLATEAU_STEPS = 20
# points of the escort trajectory a coset walk reads per chunk: the point a
# row stands on and its next TRAJECTORY_POINTS - 1 full escort steps
TRAJECTORY_POINTS = 8
# every walk's first trial step, the full step; a trial that does not lower
# the entropy halves the step, and no step above MIN_STEP ends the walk
FIRST_STEP = 1.0
MIN_STEP = 1e-14
# the certificate's least curvature: a coset walk's Newton decrement counts
# only where every minor coordinate (q_a < 1/2) has a halved curvature
# above it, i.e. in the basin of one coherent state; there the decrement
# sums |g_a|^2 / h_a, elsewhere it is inf
CURVATURE_FLOOR = 3.0
# random fiducials per `scan_fiducials` report
SCAN_TRIALS = 8
# the least normal float: q == 0 takes its log, so that the step reads a
# finite log of every coordinate and no 0 * inf arises
_LEAST_Q = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class MinimizerConfig:
    max_iters: int = 5000
    tol_grad: float = 1e-8
    tol_entropy: float = 1e-9
    restarts: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        # integers as `groups._index` takes them, bools refused
        for name in ("max_iters", "restarts", "seed"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.max_iters < 0 or self.restarts < 1:
            raise ValueError("max_iters must be >= 0 and restarts >= 1")
        # an infinite tolerance certifies every start, a nan none
        if not (0 < self.tol_grad < np.inf and 0 < self.tol_entropy < np.inf):
            raise ValueError("tolerances must be positive and finite")


@dataclass(eq=False)
class MinimizerResult:
    """The best restart of a `minimize` call, and every restart's end.

    The walk ends at rounding level, and best_entropy and nearest_overlap
    are read off the best state by the group transform, so they may sit a
    few ulps outside [0, log |G|] and [0, 1]: over the 57 vacuum frames of
    the benchmark at seeds 0-7, best_entropy reads as low as -1.3e-15 and
    nearest_overlap as high as 1 + 7e-16. Neither is clamped.
    """

    best_state: np.ndarray
    best_entropy: float
    nearest_point: int  # phase-space index of the nearest frame point
    nearest_overlap: float
    iterations: int
    converged: bool
    restart_index: int
    # one entry per restart, in restart order
    restart_entropies: np.ndarray
    restart_iterations: np.ndarray
    restart_converged: np.ndarray
    restart_halvings: np.ndarray  # rejected trials, each of which halved the step
    restart_grad_norms: np.ndarray  # tangent-gradient norm at each restart's end
    restart_overlaps: np.ndarray  # largest |<z|psi>| at each restart's end


def entropy_gradient(frame: CoherentFrame, psi: np.ndarray) -> np.ndarray:
    """Tangent gradient of the pure-state Wehrl entropy at a unit psi.

    Euclidean gradient -sum_z w (log Q + 1) <z|psi> |z> (conjugate-gradient
    convention), projected onto the sphere tangent at psi. Points with
    Q < 1e-12 are skipped. Takes one state (d,) or a stack (..., d).
    """
    psi = np.asarray(psi)
    return _amplitude_gradient(frame, psi, pure_amplitudes(frame, psi))


def _amplitude_gradient(frame: CoherentFrame, psi: np.ndarray, c: np.ndarray) -> np.ndarray:
    """entropy_gradient from c = pure_amplitudes(frame, psi), which it overwrites."""
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
    radial = np.add.reduce(psi.conj() * grad, axis=-1).real
    return grad - radial[..., None] * psi


def _row_norms(z: np.ndarray) -> np.ndarray:
    """np.linalg.norm(z, axis=-1), the same arithmetic without its dispatch.

    On a real z, conj() and .real return z itself.
    """
    return np.sqrt(np.add.reduce((z.conj() * z).real, axis=-1))


class _Objective(NamedTuple):
    """One evaluation over (R, d) stacks of unit rows.

    evaluate(x) gives the (R,) entropies, the (R, d) directions the walk
    steps against, the (R,) tangent-gradient norms and the (R,) Newton
    decrements, inf on a row not shown to be in the basin of a local
    minimum (every row, for a gradient step); its outputs are fresh arrays.
    overlaps(x) gives each row's largest |<z|psi>|. Each row is independent
    of the others, so a row rounds the same in a stack of any height. The
    rows are psi itself where basis is None, and otherwise the real
    magnitudes m = |x| of the coordinates x of psi = x @ basis, whose
    phases the walk fixes at its start. row_bytes counts the largest
    complex temporary and the weights with their logs, for the coset pair
    at each of the TRAJECTORY_POINTS points of a row's trajectory stack.
    """

    evaluate: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
    overlaps: Callable[[np.ndarray], np.ndarray]
    basis: np.ndarray | None
    row_bytes: int


def _transform_objective(frame: CoherentFrame) -> _Objective:
    """pure_state_entropy and entropy_gradient in psi, from one analysis of each row."""
    d = frame.group.order

    def evaluate(psi: np.ndarray):
        c = pure_amplitudes(frame, psi)
        q = np.abs(c)
        q *= q
        grad = _amplitude_gradient(frame, psi, c)
        return _entropy_sum(q, frame.haar_weight), grad, _row_norms(grad), np.full(len(psi), np.inf)

    def overlaps(psi: np.ndarray) -> np.ndarray:
        return np.maximum.reduce(np.abs(pure_amplitudes(frame, psi)), axis=-1)

    return _Objective(evaluate, overlaps, None, 32 * d * d)


def _coset_objective(frame: CoherentFrame) -> _Objective:
    """The entropy and its escort step in the magnitudes m = |x| of the coset coordinates.

    It reads q = m^2 and log q (of the least normal float where q is 0).
    The step is d_a = m_a - q_a / max_b m_b = m_a (1 - m_a / max_b m_b),
    whose full step is q_a / max_b m_b; a step s <= FIRST_STEP = 1 leads to
    (1 - s) m + s q / max m, so m stays nonnegative. With
    r_a = -(log q_a + S^W), the tangent gradient is g_a = r_a m_a and the
    halved curvature h_a = r_a - 2; the decrement sum_a |g_a|^2 / h_a,
    with h_a floored at CURVATURE_FLOOR, counts only where every
    coordinate with q_a < 1/2 has h_a above the floor: then the row is in
    the basin of one coherent state.
    """
    vectors = coset_basis(frame).vectors
    d = frame.group.order

    def evaluate(m: np.ndarray):
        q = m * m
        logs = np.maximum(q, _LEAST_Q)
        np.log(logs, out=logs)
        # q log q := 0 at and below the threshold, as in entropy._entropy_sum
        terms = np.where(q > ZERO_LOG_THRESHOLD, q * logs, 0.0)
        entropies = -np.add.reduce(terms, axis=-1)
        rate = np.negative(logs, out=logs)
        rate -= entropies[:, None]
        curvature = rate - 2.0
        basin = np.logical_and.reduce((curvature > CURVATURE_FLOOR) | (q >= 0.5), axis=-1)
        np.maximum(curvature, CURVATURE_FLOOR, out=curvature)
        rate *= rate
        rate *= q  # |g_a|^2
        decrements = np.where(basin, np.add.reduce(rate / curvature, axis=-1), np.inf)
        direction = q / np.maximum.reduce(m, axis=-1)[:, None]
        np.subtract(m, direction, out=direction)
        return entropies, direction, np.sqrt(np.add.reduce(rate, axis=-1)), decrements

    def overlaps(m: np.ndarray) -> np.ndarray:
        return np.maximum.reduce(m, axis=-1)

    return _Objective(evaluate, overlaps, vectors, 32 * d * TRAJECTORY_POINTS)


def _objective(frame: CoherentFrame) -> _Objective:
    """The coset pair for a Lagrangian (stabiliser) frame, the transform pair otherwise.

    Both give the same entropy and tangent gradient up to rounding.
    """
    return _coset_objective(frame) if frame.lagrangian else _transform_objective(frame)


def _descend_rows(
    objective: _Objective, starts: np.ndarray, config: MinimizerConfig
) -> tuple[np.ndarray, ...]:
    """`descend` on each row of an (R, d) stack of starts, all rows at once.

    Every row follows descend's rules on its own: its own step size and
    halvings, plateau count, max_iters budget and convergence flag, so a
    row ends where it would end alone. On the coset pair with the full
    first step, the rows walk the escort trajectory chunk by chunk
    (`_walk_trajectories`), and only a row whose next full step is not
    lower, which needs a halving, goes on tick by tick (`_walk_ticks`) from
    the point it stands on; the transform pair walks tick by tick.

    Returns (states, entropies, iterations, converged, halvings and gradient
    norms at the end, and the walk's final rows: the coset magnitudes, or
    the states themselves on the transform pair); a row that never moved
    returns its normalised start bit for bit.
    """
    psi = np.asarray(starts, dtype=np.complex128)
    psi = psi / _row_norms(psi)[:, None]
    basis = objective.basis
    if basis is None:
        x = psi
    else:  # the magnitudes of the coordinates, with their phases set aside
        coordinates = (psi[:, None, :] @ np.ascontiguousarray(basis.conj().T))[:, 0, :]
        x = np.abs(coordinates)
        phases = np.divide(coordinates, x, out=np.ones_like(coordinates), where=x > 0)
    index = np.arange(len(x))  # each row's place in the results
    # per group of rows that stop together: their places, rows, entropies,
    # iterations, certificates, halvings and gradient norms
    stopped = []
    if basis is not None and FIRST_STEP == 1.0:  # the full escort step is the escort map
        _walk_trajectories(objective, index, x, config, stopped)
    else:
        counts = np.zeros(len(x), dtype=np.int64)
        _walk_ticks(objective, index, x, counts, counts.copy(), config, stopped)
    places, *parts = zip(*stopped)
    order = np.argsort(np.concatenate(places))
    x, energies, iterations, converged, halvings, grad_norms = (
        np.concatenate(part)[order] for part in parts
    )
    if basis is None:
        return x, energies, iterations, converged, halvings, grad_norms, x
    states = np.where((iterations == 0)[:, None], psi, ((x * phases)[:, None, :] @ basis)[:, 0, :])
    return states, energies, iterations, converged, halvings, grad_norms, x


def _walk_trajectories(
    objective: _Objective, index: np.ndarray, m: np.ndarray, config: MinimizerConfig,
    stopped: list,
) -> None:
    """The coset walk's full steps, read chunk by chunk off closed-form escort trajectories.

    While no trial needs a halving, k full steps from weights q = m^2 lead
    to the escort iterate q^(2^k) / sum_a q_a^(2^k). A chunk stacks, for
    every walking row, the point it stands on and its next
    TRAJECTORY_POINTS - 1 iterates, built in logs as
    log q_k = 2^k log q - logsumexp_a(2^k log q) (an exact zero, log q =
    -inf, stays one) with m_k = exp(log q_k / 2), and evaluates the
    (TRAJECTORY_POINTS * R, d) stack once, so the certificate has one
    implementation. Each row's first event is then read off the stack in
    descend's order: a plateau of PLATEAU_STEPS ends the row on the point
    that completes it; at each point the max_iters budget is tested, then
    the certificate; then the next point must be strictly lower. A row with
    no event before the chunk's last point starts the next chunk there,
    with its log q carried over.

    Stopped rows are appended to `stopped`. A row whose next point is not
    lower needs a halving: it leaves the stack with its place, point,
    iterations and plateau count, and once the stack is empty all such rows
    go to `_walk_ticks` together, which starts them at the full step.
    """
    K = TRAJECTORY_POINTS
    ticks = np.arange(K)
    powers = np.ldexp(1.0, ticks)[:, None, None]
    logs = np.log(m, out=np.full_like(m, -np.inf), where=m > 0)
    logs *= 2.0  # log q, -inf at an exact zero
    iterations = np.zeros(len(m), dtype=np.int64)
    plateau = np.zeros(len(m), dtype=np.int64)
    max_iters, tol_grad, tol_entropy = config.max_iters, config.tol_grad, config.tol_entropy
    handed = []
    while len(m):
        rows, d = m.shape
        # 2^k (log q - max log q): the largest entry of every point is 0, so
        # no exp overflows and the largest weight never underflows
        trajectory = powers * (logs - np.maximum.reduce(logs, axis=-1)[:, None])
        trajectory -= np.log(np.add.reduce(np.exp(trajectory), axis=-1, keepdims=True))
        points = np.exp(0.5 * trajectory)
        points[0] = m  # the point each row stands on, bit for bit
        flat = points.reshape(K * rows, d)
        energy, _, norms, decrements = objective.evaluate(flat)
        energies = energy.reshape(K, rows)
        counts = iterations + ticks[:, None]  # accepted steps at each point
        spent = counts >= max_iters
        certified = ((norms <= tol_grad) | (decrements < tol_entropy)).reshape(K, rows)
        # the plateau count at each point the row reaches: a drop below
        # tol_entropy counts on, a larger one resets it to 0
        drops = energies[:-1] - energies[1:]
        resets = np.where(drops < tol_entropy, -PLATEAU_STEPS, ticks[1:, None])
        plateaus = ticks[:, None] - np.maximum.accumulate(
            np.concatenate([-plateau[None], resets]), axis=0)
        ends = plateaus >= PLATEAU_STEPS
        ends |= spent  # the budget is tested before the certificate
        converged = certified & ~ends
        ends |= certified
        events = ends.copy()
        events[:-1] |= ~(energies[1:] < energies[:-1])
        events[-1] = True
        at = events.argmax(axis=0)
        place = at * rows + np.arange(rows)
        counts, plateaus, converged = counts.ravel(), plateaus.ravel(), converged.ravel()
        stop = ends.ravel()[place]
        if stop.any():
            gone = place[stop]
            stopped.append([index[stop], flat[gone], energy[gone], counts[gone],
                            converged[gone], np.zeros(len(gone), dtype=np.int64), norms[gone]])
        halve = ~stop & (at < K - 1)
        if halve.any():
            held = place[halve]
            handed.append((index[halve], flat[held], counts[held], plateaus[held]))
        kept = (~stop & ~halve).nonzero()[0]
        m, logs = points[-1, kept], trajectory[-1, kept]
        iterations, plateau = counts[place[kept]], plateaus[place[kept]]
        index = index[kept]
    if handed:
        _walk_ticks(objective, *(np.concatenate(part) for part in zip(*handed)), config, stopped)


def _walk_ticks(
    objective: _Objective, index: np.ndarray, x: np.ndarray, iterations: np.ndarray,
    plateau: np.ndarray, config: MinimizerConfig, stopped: list,
) -> None:
    """descend's rules on the rows x, one trial per row and tick.

    Each row comes with its place in the results, its iterations and its
    plateau count, and starts at FIRST_STEP with no halving. The walk
    evaluates the rows it is given once, then each tick makes one trial for
    every row and evaluates it once: its entropy, step, gradient norm and
    decrement. A row that accepts its trial keeps all four, so each row
    carries the step of the point it stands on.

    The tests of the top of an iteration then run on every row, with no
    mask: a row in a line search passed them at the point it still stands
    on, with a step that its halvings left above MIN_STEP, and testing it
    again gives the same answer. Where every row accepts its trial, the
    trial arrays become the walk's. A budget's test is skipped while it
    cannot fire, by bounds read when the walk starts: before tick t a row
    has at most t accepted steps (max_iters), counting the ticks from the
    most iterations any row brings, and after it a plateau count of at most
    t + 1 (PLATEAU_STEPS); a step is at most MIN_STEP at the top of an
    iteration only if FIRST_STEP is. The rows still walking are kept
    compact: on a tick where rows stop, their results are appended to
    `stopped` and the arrays compressed.
    """
    energy, direction, norms, decrements = objective.evaluate(x)
    rows = len(x)
    step = np.full(rows, FIRST_STEP)
    halvings = np.zeros(rows, dtype=np.int64)
    max_iters, tol_grad, tol_entropy = config.max_iters, config.tol_grad, config.tol_entropy
    exhausted_at_first = FIRST_STEP <= MIN_STEP
    # from here on no row has more iterations than tick, nor a plateau
    # count above its iterations
    tick = int(iterations.max(initial=0))
    while rows:
        # flat, or in a basin with a Newton decrement below tol_entropy
        certified = (norms <= tol_grad) | (decrements < tol_entropy)
        spent = None
        if tick >= max_iters:
            spent = iterations >= max_iters
            certified &= ~spent  # the budget is tested before the certificate
        # or no step left above MIN_STEP: no descent at machine resolution
        stationary = certified | (step <= MIN_STEP) if exhausted_at_first else certified
        # a row that stops here has its trial evaluated and dropped (one
        # spare evaluation per row), so that rows leave at one place per tick
        trial = x - step[:, None] * direction
        trial /= _row_norms(trial)[:, None]
        trial_energy, trial_direction, trial_norms, trial_decrements = objective.evaluate(trial)
        searching = ~stationary if spent is None else ~(spent | stationary)
        better = trial_energy < energy
        better &= searching
        drop = energy - trial_energy
        tick += 1
        if np.logical_and.reduce(better):
            x, energy, direction = trial, trial_energy, trial_direction
            norms, decrements = trial_norms, trial_decrements
            iterations += 1
            plateau += 1
            plateau *= drop < tol_entropy
            if tick < PLATEAU_STEPS:
                continue
            # only a plateau can end a row that accepted its trial
            stop = plateau >= PLATEAU_STEPS
        else:
            worse = searching & ~better
            halved = np.logical_or.reduce(worse)
            if halved:
                halvings += worse
                np.multiply(step, 0.5, out=step, where=worse)
            np.copyto(x, trial, where=better[:, None])
            np.copyto(direction, trial_direction, where=better[:, None])
            np.copyto(energy, trial_energy, where=better)
            np.copyto(norms, trial_norms, where=better)
            np.copyto(decrements, trial_decrements, where=better)
            iterations += better
            plateau = np.where(better, np.where(drop < tol_entropy, plateau + 1, 0), plateau)
            # a certificate or a budget ends the row; only a certificate converges
            stop = stationary if spent is None else stationary | spent
            if halved:
                stop = stop | (worse & (step <= MIN_STEP))
            if tick >= PLATEAU_STEPS:
                stop = stop | (plateau >= PLATEAU_STEPS)
        if np.logical_or.reduce(stop):
            gone = stop.nonzero()[0]
            stopped.append([a.take(gone, axis=0) for a in
                            (index, x, energy, iterations, certified, halvings, norms)])
            kept = (~stop).nonzero()[0]
            walking = (x, energy, direction, norms, decrements,
                       step, plateau, iterations, halvings, index)
            x, energy, direction, norms, decrements, step, plateau, iterations, halvings, index = (
                a.take(kept, axis=0) for a in walking
            )
            rows = len(x)


def descend(
    frame: CoherentFrame, start: np.ndarray, config: MinimizerConfig
) -> tuple[np.ndarray, float, int, bool]:
    """One descent run from `start`; (state, entropy, iters, converged).

    Walks the sphere from the normalised start. Each iteration takes a
    direction at the current point (the escort step of the coset
    magnitudes on a Lagrangian frame, the tangent gradient on any other)
    and stops (converged) if the point is certified: its tangent gradient
    norm is at most tol_grad, or it is in the basin of a coherent state
    with a Newton decrement below tol_entropy (only a Lagrangian frame's
    diagonal Hessian shows a basin). Otherwise it tries the step,
    FIRST_STEP at the start, and halves it from its last value until the
    retracted trial point lowers the entropy. Three budgets end a run
    unconverged: max_iters accepted steps, no step above MIN_STEP that
    lowers the entropy, and PLATEAU_STEPS accepted steps in a row that each
    drop the entropy by less than tol_entropy.

    Raises ValueError unless start is a finite (|G|,) vector whose norm is
    positive and finite.
    """
    start = np.asarray(start, dtype=np.complex128)
    d = frame.group.order
    with np.errstate(over="ignore"):  # a norm that overflows is refused
        state = start.shape == (d,) and np.isfinite(start).all() and 0 < _row_norms(start) < np.inf
    if not state:
        raise ValueError(f"start must be a finite ({d},) vector with a positive, finite norm")
    states, energies, iterations, converged, *_ = _descend_rows(
        _objective(frame), start[None, :], config
    )
    return states[0], float(energies[0]), int(iterations[0]), bool(converged[0])


def minimize(frame: CoherentFrame, config: MinimizerConfig | None = None) -> MinimizerResult:
    """Best entropy over `restarts` random unit starts, deterministic in the seed.

    The result is the minimum over restart indices (ties broken by the
    lowest index); its best_entropy is `pure_state_entropy` of its state,
    while restart_entropies keep each walk's own energies (on a Lagrangian
    frame, the coset energy, which is S^W only as far as the coset basis is
    orthonormal). Non-convergence returns the best iterate found, it does
    not raise. The restarts run as stacks of rows through descend's rules,
    in blocks sized so that each complex temporary of the frame's
    evaluation, with the coset weights and their logs, stays near the
    shared block budget: (TRAJECTORY_POINTS, rows, |G|) for the coset
    pair's trajectory stack, (rows, |G|, |G|) for the transform pair. Each
    restart's overlap is read here, off the walk's final rows.
    """
    config = config or MinimizerConfig()
    rng = np.random.default_rng(config.seed)
    starts = _random_state_stack(frame.group.order, config.restarts, rng)
    objective = _objective(frame)
    runs = []
    for part in limits.blocks(config.restarts, objective.row_bytes):
        *run, rows = _descend_rows(objective, starts[part], config)
        runs.append((*run, objective.overlaps(rows)))
    states, energies, iterations, converged, halvings, grad_norms, overlaps = (
        np.concatenate(part) for part in zip(*runs)
    )
    index = int(np.argmin(energies))
    # one analysis of the best state gives its nearest point and, squared in
    # place as pure_state_entropy squares it, its S^W
    magnitudes = np.abs(pure_amplitudes(frame, states[index]))
    point, overlap = _nearest_point(frame, magnitudes)
    magnitudes *= magnitudes
    return MinimizerResult(
        best_state=states[index],
        best_entropy=float(_entropy_sum(magnitudes, frame.haar_weight)),
        nearest_point=point,
        nearest_overlap=overlap,
        iterations=int(iterations.sum()),
        converged=bool(converged[index]),
        restart_index=index,
        restart_entropies=energies,
        restart_iterations=iterations,
        restart_converged=converged,
        restart_halvings=halvings,
        restart_grad_norms=grad_norms,
        restart_overlaps=overlaps,
    )


def nearest_coherent(frame: CoherentFrame, psi: np.ndarray) -> tuple[int, float]:
    """Index of the frame point with the largest |<z|psi>|, and that overlap.

    All members of a coset of the stabiliser S share one overlap up to
    rounding; the point is the coset's lex-least member (the argmax itself
    when S is trivial).
    """
    return _nearest_point(frame, np.abs(pure_amplitudes(frame, psi)))


def _nearest_point(frame: CoherentFrame, magnitudes: np.ndarray) -> tuple[int, float]:
    """nearest_coherent from the |<z|psi>| of every frame point."""
    idx = int(np.argmax(magnitudes))
    representatives, ids = frame.stabiliser._partition
    return int(representatives[ids[idx]]), float(magnitudes[idx])


def scan_fiducials(subgroup: Subgroup, config: MinimizerConfig) -> dict:
    """Minimise over states for SCAN_TRIALS random fiducials, with a vacuum control row.

    Every row runs on the group of H: the vacuum frame of H, then random
    fiducials. Gathers evidence about non-vacuum frames; the report carries
    the observed minima and is never turned into an assertion.
    """
    group = subgroup.group
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

    rows.append(row("vacuum", CoherentFrame.vacuum(subgroup)))
    fid_rng = np.random.default_rng([config.seed, 0xF1D])
    for t in range(SCAN_TRIALS):
        fiducial = random_state_vector(group.order, fid_rng)
        rows.append(row(f"random:{t}", CoherentFrame(group, fiducial)))
    return {
        "group": str(group),
        "subgroup": str(subgroup),
        "trials": SCAN_TRIALS,
        "seed": config.seed,
        "rows": rows,
    }
