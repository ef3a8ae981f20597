"""The escort walk of Lagrangian (stabiliser) frames in psi, and the gradient
walk of any other frame: the oracles for `minimize._descend_rows`.

The library walks on the magnitudes of the coordinates x = V^H psi of the
orthonormal coset basis V. Here no coset basis is built: every quantity is
read off the |G|^2 amplitudes c_z = <z|psi> of `pure_amplitudes` and mapped
back with `_synthesis`, their adjoint. Q is constant on each coset a of the
stabiliser S, whose points are one ray v_a up to phase, so
sum_{z in a} w |z><z| = vol |v_a><v_a| with vol = w |S|. Synthesising
(w / vol) f(Q_z) c_z therefore gives sum_a f(q_a) x_a v_a: per-point
weights reproduce the diagonal step, and the walk keeps every phase of x.
Both walks take one row at a time, with plain control flow, and read
FIRST_STEP when called.
"""

from __future__ import annotations

import sys

import numpy as np

from wehrl import entropy_gradient, pure_amplitudes, pure_state_entropy
from wehrl.frames import _synthesis
from wehrl.minimize import CURVATURE_FLOOR, MIN_STEP, PLATEAU_STEPS


def escort_step(frame, psi, entropy):
    """(direction, tangent gradient, Newton decrement) at a unit psi, in psi.

    The direction synthesises (w / vol) (1 - sqrt(Q / Q_max)) c: its full
    step maps each coordinate x_a to x_a |x_a| / max_b |x_b|. With
    r = -(vol log Q + S): gradient r c and curvature h = r - 2 vol; the
    decrement sum_a |g_a|^2 / max(h_a, floor) is inf unless every point
    with Q < 1/2 has h above the floor. Points with Q == 0 add nothing and
    lie in the basin.
    """
    w = frame.haar_weight
    vol = w * frame.stabiliser.order
    c = pure_amplitudes(frame, psi)
    q = np.abs(c) ** 2
    positive = q > 0
    rate = np.where(positive, -(vol * np.log(np.where(positive, q, 1.0)) + entropy), 0.0)
    curvature = np.where(positive, rate - 2.0 * vol, np.inf)
    floor = CURVATURE_FLOOR * vol
    in_basin = bool(np.all((curvature > floor) | (q >= 0.5)))
    h = np.maximum(curvature, floor)
    gradient = _synthesis(frame, (w / vol) * rate * c)
    direction = _synthesis(frame, (w / vol) * (1.0 - np.sqrt(q / q.max())) * c)
    decrement = float(np.sum((w / vol) * rate**2 * q / h)) if in_basin else np.inf
    return direction, gradient, decrement


def escort_walk(frame, start, config):
    """(state, entropy, iterations, converged, halvings) of descend on a Lagrangian frame."""
    return _walk(frame, start, config, lambda psi, entropy: escort_step(frame, psi, entropy))


def gradient_walk(frame, start, config):
    """(state, entropy, iterations, converged, halvings) of descend on any other frame.

    The direction is the tangent gradient, and no decrement certifies a basin.
    """
    def gradient_step(psi, entropy):
        gradient = entropy_gradient(frame, psi)
        return gradient, gradient, np.inf

    return _walk(frame, start, config, gradient_step)


def _walk(frame, start, config, step_at):
    """descend's rules on one start; step_at(psi, entropy) gives (direction, gradient, decrement)."""
    psi = start / _norm(start)
    entropy = pure_state_entropy(frame, psi)
    step = sys.modules["wehrl.minimize"].FIRST_STEP  # read when called, as descend reads it
    plateau, iterations, halvings = 0, 0, 0
    while iterations < config.max_iters:
        direction, gradient, decrement = step_at(psi, entropy)
        if _norm(gradient) <= config.tol_grad or decrement < config.tol_entropy:
            return psi, entropy, iterations, True, halvings
        if step <= MIN_STEP:
            break
        while True:
            trial = psi - step * direction
            trial /= _norm(trial)
            trial_entropy = pure_state_entropy(frame, trial)
            if trial_entropy < entropy:
                break
            halvings += 1
            step *= 0.5
            if step <= MIN_STEP:
                return psi, entropy, iterations, False, halvings
        plateau = plateau + 1 if entropy - trial_entropy < config.tol_entropy else 0
        psi, entropy = trial, trial_entropy
        iterations += 1
        if plateau >= PLATEAU_STEPS:
            break
    return psi, entropy, iterations, False, halvings


def _norm(v):
    """The norm of v, summed as the library sums it, so that near ties decide alike."""
    return np.sqrt(np.sum((v.conj() * v).real))
