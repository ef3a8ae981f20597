import sys

import numpy as np
import pytest

from wehrl import (
    CoherentFrame,
    MinimizerConfig,
    Subgroup,
    all_subgroups,
    coset_basis,
    descend,
    entropy_gradient,
    minimize,
    nearest_coherent,
    parse_group,
    pure_amplitudes,
    pure_state_entropy,
    random_state_vector,
    scan_fiducials,
    subgroup_closure,
    vacuum_vector,
)
from wehrl import limits
from wehrl.states import _random_state_stack
from wehrl.verify import fd_tangent_gradient, suite_pairs
from phase_oracle import index, point_add, point_neg
from stabiliser_frames import chirp_frames
from walk_oracle import escort_step, escort_walk, gradient_walk

# points per chunk of the coset walk's escort trajectory
K = sys.modules["wehrl.minimize"].TRAJECTORY_POINTS
PLATEAU_STEPS = sys.modules["wehrl.minimize"].PLATEAU_STEPS


def vacuum_frame(spec, *gen_coords):
    g = parse_group(spec)
    H = subgroup_closure(g, tuple(index(g, c) for c in gen_coords))
    return CoherentFrame.vacuum(H)


def smooth_state(frame, rng, floor=1e-6):
    # keep log Q well defined across the finite-difference stencil
    d = frame.group.order
    while True:
        psi = random_state_vector(d, rng)
        if (np.abs(pure_amplitudes(frame, psi)) ** 2).min() >= floor:
            return psi


# an infinite tolerance would certify every start where it stands, and a
# count that is not an integer fails later inside numpy, if at all
def test_config_validation():
    for kwargs in ({"restarts": 0}, {"tol_grad": -1.0}, {"tol_grad": np.inf},
                   {"tol_entropy": np.inf}, {"tol_grad": np.nan}, {"tol_entropy": np.nan},
                   {"max_iters": 2.5}, {"restarts": True}, {"restarts": 4.0},
                   {"seed": 1.0}, {"seed": False}, {"seed": "0"}):
        with pytest.raises(ValueError):
            MinimizerConfig(**kwargs)
    # numpy integers pass, as they do for every index of `groups`
    MinimizerConfig(max_iters=np.int64(7), restarts=np.int32(2), seed=np.uint8(3))


# ---------------------------------------------------------------------------
# gradient


def test_gradient_matches_finite_differences(rng):
    for frame in (vacuum_frame("Z4", (2,)), vacuum_frame("Z2xZ2", (1, 1))):
        for _ in range(5):
            psi = smooth_state(frame, rng)
            analytic = entropy_gradient(frame, psi)
            numeric = fd_tangent_gradient(frame, psi)
            rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
            assert rel < 1e-4


@pytest.mark.parametrize("spec", ["Z1", "Z6", "Z3xZ3", "Z64", "Z8xZ8", "Z2xZ2xZ2xZ2xZ2xZ2"])
def test_gradient_stack_matches_loop_of_single_states(spec, rng):
    frame = vacuum_frame(spec)
    d = frame.group.order
    psis = np.stack([random_state_vector(d, rng) for _ in range(5)])
    psis[0] = frame.fiducial  # a coherent state: Q has exact zeros
    stacked = entropy_gradient(frame, psis)
    assert np.array_equal(stacked, np.stack([entropy_gradient(frame, psi) for psi in psis]))


def test_gradient_is_tangent(rng):
    frame = vacuum_frame("Z6", (3,))
    for _ in range(10):
        psi = random_state_vector(6, rng)
        grad = entropy_gradient(frame, psi)
        assert abs(np.real(np.vdot(psi, grad))) < 1e-12


def test_gradient_phase_equivariance(rng):
    frame = vacuum_frame("Z4", (2,))
    psi = smooth_state(frame, rng)
    grad = entropy_gradient(frame, psi)
    rotated = entropy_gradient(frame, np.exp(0.9j) * psi)
    assert np.abs(rotated - np.exp(0.9j) * grad).max() < 1e-12


def test_gradient_vanishes_at_coherent_states():
    frame = vacuum_frame("Z4", (2,))
    for z in range(frame.point_count):
        grad = entropy_gradient(frame, frame.state(z))
        assert np.linalg.norm(grad) < 1e-12


# ---------------------------------------------------------------------------
# descent


def test_descend_from_coherent_start_stops_immediately():
    frame = vacuum_frame("Z4", (2,))
    state, energy, iterations, converged = descend(
        frame, frame.state(5), MinimizerConfig()
    )
    assert converged
    assert iterations == 0
    assert energy <= 1e-12


def test_descend_monotone(rng):
    frame = vacuum_frame("Z4", (2,))
    start = random_state_vector(4, rng)
    before = pure_state_entropy(frame, start)
    _, energy, _, _ = descend(frame, start, MinimizerConfig(max_iters=50))
    assert energy <= before + 1e-15


def test_descend_zero_iteration_budget(rng):
    frame = vacuum_frame("Z4", (2,))
    start = random_state_vector(4, rng)
    state, energy, iterations, converged = descend(
        frame, start, MinimizerConfig(max_iters=0)
    )
    assert iterations == 0 and not converged
    assert energy == pytest.approx(pure_state_entropy(frame, start))


# ---------------------------------------------------------------------------
# the pure-state landscape of a vacuum frame


def test_pure_entropy_is_shannon_over_coset_basis(rng):
    # with the coset basis {alpha_r}, S^W(psi) reduces to the Shannon
    # entropy of |<alpha_r|psi>|^2, since Q is coset-constant and |K| = |G|
    frame = vacuum_frame("Z6", (2,))
    basis = coset_basis(frame)
    for _ in range(10):
        psi = random_state_vector(6, rng)
        p = np.abs(basis.vectors.conj() @ psi) ** 2
        assert abs(p.sum() - 1.0) < 1e-12
        shannon = -(p[p > 1e-15] * np.log(p[p > 1e-15])).sum()
        assert abs(pure_state_entropy(frame, psi) - shannon) < 1e-12


# ---------------------------------------------------------------------------
# minimize


def test_minimize_certifies_zero_minimum():
    for frame in (vacuum_frame("Z4", (2,)), vacuum_frame("Z2xZ2", (0, 1))):
        result = minimize(frame)
        assert result.converged
        assert result.best_entropy <= 1e-6
        assert result.nearest_overlap >= 1 - 1e-4
        assert abs(np.linalg.norm(result.best_state) - 1.0) < 1e-12


def test_minimize_deterministic():
    frame = vacuum_frame("Z4", (2,))
    a = minimize(frame, MinimizerConfig(seed=7))
    b = minimize(frame, MinimizerConfig(seed=7))
    assert np.array_equal(a.best_state, b.best_state)
    assert a.best_entropy == b.best_entropy
    assert a.iterations == b.iterations
    assert a.restart_index == b.restart_index
    assert a.nearest_point == b.nearest_point


# best_entropy is S^W of the best state, also where the walk's energy is
# not: a Z8 vacuum of <4> moved by 5e-7 keeps |S| = 8, so the walk runs on a
# coset basis that is orthonormal only to about that distance
def test_minimize_result_is_reproducible_entropy():
    g = parse_group("Z8")
    phi = vacuum_vector(subgroup_closure(g, (4,))) + 5e-7 * np.eye(8)[1]
    near = CoherentFrame(g, phi / np.linalg.norm(phi))
    assert near.stabiliser.order == 8
    for frame in (vacuum_frame("Z6", (3,)), near):
        result = minimize(frame, MinimizerConfig(seed=1))
        assert result.best_entropy == pure_state_entropy(frame, result.best_state)


# the restarts run as stacks of rows; each must end exactly where descend
# ends on its start alone, whatever the block height
@pytest.mark.parametrize(
    "spec, gens, max_iters",
    [("Z4", ((2,),), 5000), ("Z3xZ3", (), 5000), ("Z2xZ2xZ2", ((1, 1, 0),), 5000),
     ("Z6", ((3,),), 7), ("Z8xZ8", (), 8)],
)
@pytest.mark.parametrize("block_bytes", [None, 1, 10**9])
def test_minimize_restarts_equal_descend(spec, gens, max_iters, block_bytes, monkeypatch):
    if block_bytes is not None:  # one row per block, or all rows in one
        monkeypatch.setattr(limits, "BLOCK_BYTES", block_bytes)
    frame = vacuum_frame(spec, *gens)
    config = MinimizerConfig(seed=3, restarts=6, max_iters=max_iters)
    result = minimize(frame, config)
    rng = np.random.default_rng(config.seed)
    runs = [descend(frame, random_state_vector(frame.group.order, rng), config)
            for _ in range(config.restarts)]
    assert np.array_equal(result.restart_entropies, [r[1] for r in runs])
    assert np.array_equal(result.restart_iterations, [r[2] for r in runs])
    assert np.array_equal(result.restart_converged, [r[3] for r in runs])
    energies = [r[1] for r in runs]
    best = energies.index(min(energies))
    assert result.restart_index == best
    assert np.array_equal(result.best_state, runs[best][0])
    # the walks' energies pick the best restart; its S^W is recomputed
    assert result.best_entropy == pure_state_entropy(frame, runs[best][0])
    assert result.converged == runs[best][3]
    assert result.iterations == sum(r[2] for r in runs)
    if max_iters < 100:  # the budget binds: some rows stop unconverged
        assert not result.restart_converged.all()


# ---------------------------------------------------------------------------
# the energy/gradient pairs of the walk


ORDER_64 = ("Z64", "Z8xZ8", "Z4xZ4xZ4", "Z2xZ2xZ2xZ2xZ2xZ2")


def workload_frames():
    """The 53 suite vacuum frames and the four H = G frames of order 64."""
    subgroups = [H for _, H in suite_pairs()]
    subgroups += [Subgroup.whole(parse_group(s)) for s in ORDER_64]
    return [CoherentFrame.vacuum(H) for H in subgroups]


def test_coset_pair_matches_transform_pair_on_workload_frames(rng):
    minimize_module = sys.modules["wehrl.minimize"]
    frames = workload_frames()
    assert len(frames) == 57
    for frame in frames:
        d = frame.group.order
        # the ambiguity function of the bare vacuum vector gives K = H x A(H)
        bare = CoherentFrame(frame.group, frame.fiducial)
        assert np.array_equal(bare.stabiliser.indices, frame.stabiliser.indices)
        objective = minimize_module._objective(frame)
        # the coset pair, walking on the magnitudes of the coordinates
        # x = V^H psi of the coset basis, with their phases set aside; a
        # row's block share counts its whole trajectory stack
        V = objective.basis
        assert V is not None
        assert objective.row_bytes == 32 * d * K
        assert np.array_equal(V, coset_basis(frame).vectors)
        # a coherent state, one near it (in the basin) and random states
        near = frame.fiducial + 1e-3 * random_state_vector(d, rng)
        psis = np.stack([frame.fiducial, near / np.linalg.norm(near)]
                        + [random_state_vector(d, rng) for _ in range(4)])
        x = psis @ V.conj().T
        m = np.abs(x)
        phases = np.divide(x, m, out=np.ones_like(x), where=m > 0)
        energy, direction, norms, decrements = objective.evaluate(m)
        assert np.abs(energy - pure_state_entropy(frame, psis)).max() <= 1e-14
        assert np.array_equal(objective.overlaps(m), m.max(axis=-1))
        for row, psi in enumerate(psis):
            want_direction, gradient, decrement = escort_step(frame, psi, energy[row])
            assert np.abs((direction[row] * phases[row]) @ V - want_direction).max() <= 1e-13
            assert abs(norms[row] - np.linalg.norm(gradient)) <= 1e-13
            if row >= 2:  # Q > GRAD_SKIP everywhere: the public gradient agrees
                assert np.abs(gradient - entropy_gradient(frame, psi)).max() <= 1e-13
            if row == 1:  # in the basin, with a decrement well above rounding
                assert decrements[row] == pytest.approx(decrement, rel=1e-9)
            else:  # about 0 on the coherent row, inf outside the basin
                assert np.isinf(decrements[row]) == np.isinf(decrement)
        assert energy[0] <= 1e-14 and norms[0] <= 1e-13
        assert np.isfinite(decrements[:2]).all() and np.isinf(decrements[2:]).all()


def route_frames():
    """Every suite group's H = G and H = {0} frames, with Z9 <3> and Z3xZ3 <(1,0)>."""
    groups = dict.fromkeys(g for g, _ in suite_pairs())
    subgroups = [make(g) for g in groups for make in (Subgroup.whole, Subgroup.trivial)]
    frames = [CoherentFrame.vacuum(H) for H in subgroups]
    return frames + [vacuum_frame("Z9", (3,)), vacuum_frame("Z3xZ3", (1, 0))]


# an independent route for the coset walk: from the same starts, the escort
# walk in psi on every |G|^2 amplitude (tests/walk_oracle.py) takes the same steps
@pytest.mark.parametrize("seed", [0, 1])
def test_coset_walk_matches_transform_walk(seed):
    minimize_module = sys.modules["wehrl.minimize"]
    config = MinimizerConfig(seed=seed)
    frames = route_frames()
    assert len(frames) == 22
    for frame in frames:
        d = frame.group.order
        rng = np.random.default_rng(seed)
        starts = np.stack([random_state_vector(d, rng) for _ in range(config.restarts)])
        coset = minimize_module._objective(frame)
        assert coset.basis is not None
        states, entropies, iterations, converged, halvings, *_ = minimize_module._descend_rows(
            coset, starts, config)
        walks = [escort_walk(frame, start, config) for start in starts]
        assert np.array_equal(iterations, [w[2] for w in walks])
        assert np.array_equal(converged, [w[3] for w in walks])
        assert np.array_equal(halvings, [w[4] for w in walks])
        assert np.abs(entropies - [w[1] for w in walks]).max() <= 1e-12
        # the walk on magnitudes keeps each coordinate's phase from the start
        assert np.abs(states - [w[0] for w in walks]).max() <= 1e-12


# an independent route for the gradient walk: on random fiducials, where
# steps halve, each restart ends where the one-row walk of
# tests/walk_oracle.py ends, after the same halvings; also where max_iters
# binds, where tol_grad certifies, and with the first step patched below
# MIN_STEP and above the full step, so that every test the stacked walk
# skips while it cannot fire is checked
@pytest.mark.parametrize("first_step", [None, 1e-15, 2.0])
@pytest.mark.parametrize("max_iters, tol_grad", [(300, 1e-8), (4, 1e-8), (300, 1e-3)])
def test_gradient_walk_matches_one_row_walk(first_step, max_iters, tol_grad, monkeypatch):
    minimize_module = sys.modules["wehrl.minimize"]
    if first_step is not None:
        monkeypatch.setattr(minimize_module, "FIRST_STEP", first_step)
    config = MinimizerConfig(max_iters=max_iters, tol_grad=tol_grad)
    runs = []
    for spec in ("Z2xZ2", "Z3", "Z6", "Z8"):
        group = parse_group(spec)
        rng = np.random.default_rng(6)
        frame = CoherentFrame(group, random_state_vector(group.order, rng))
        objective = minimize_module._objective(frame)
        assert objective.basis is None
        starts = np.stack([random_state_vector(group.order, rng) for _ in range(6)])
        _, entropies, iterations, converged, halvings, *_ = minimize_module._descend_rows(
            objective, starts, config)
        walks = [gradient_walk(frame, start, config) for start in starts]
        assert np.array_equal(iterations, [w[2] for w in walks])
        assert np.array_equal(converged, [w[3] for w in walks])
        assert np.array_equal(halvings, [w[4] for w in walks])
        assert np.abs(entropies - [w[1] for w in walks]).max() <= 1e-12
        runs.append((iterations, converged, halvings))
    iterations, converged, halvings = (np.concatenate(run) for run in zip(*runs))
    if first_step == 1e-15:  # every row stops at its start
        assert not iterations.any() and not converged.any() and not halvings.any()
        return
    assert halvings.any()
    if max_iters == 4:
        assert (iterations == 4).all() and not converged.any()
    elif tol_grad == 1e-3:
        assert converged.all()
    elif first_step is None:  # some rows certified, others ended on their plateau
        assert converged.any() and not converged.all()


# random fiducials are not vacuum vectors, so minimize and descend walk on
# the transform pair; each restart must still end where descend ends alone
@pytest.mark.parametrize("spec", ["Z4", "Z6", "Z3xZ3"])
@pytest.mark.parametrize("block_bytes", [None, 1, 10**9])
def test_minimize_restarts_equal_descend_on_random_fiducials(spec, block_bytes, monkeypatch):
    minimize_module = sys.modules["wehrl.minimize"]
    if block_bytes is not None:  # one row per block, or all rows in one
        monkeypatch.setattr(limits, "BLOCK_BYTES", block_bytes)
    group = parse_group(spec)
    d = group.order
    frame = CoherentFrame(group, random_state_vector(d, np.random.default_rng(11)))
    objective = minimize_module._objective(frame)
    assert objective.basis is None and objective.row_bytes == 32 * d * d
    config = MinimizerConfig(seed=3, restarts=6, max_iters=200)
    result = minimize(frame, config)
    rng = np.random.default_rng(config.seed)
    runs = [descend(frame, random_state_vector(d, rng), config)
            for _ in range(config.restarts)]
    assert np.array_equal(result.restart_entropies, [r[1] for r in runs])
    assert np.array_equal(result.restart_iterations, [r[2] for r in runs])
    assert np.array_equal(result.restart_converged, [r[3] for r in runs])
    assert np.array_equal(result.best_state, runs[result.restart_index][0])


# the pair comes from the frame alone: a vacuum fiducial in a frame not
# built by `vacuum` is detected and walks on the same coset pair
@pytest.mark.parametrize("spec, gens", [("Z6", ((3,),)), ("Z4xZ2", ((0, 1),)), ("Z8", ())])
def test_detected_vacuum_frame_minimizes_like_vacuum(spec, gens):
    H = vacuum_frame(spec, *gens).subgroup
    a = minimize(CoherentFrame.vacuum(H))
    b = minimize(CoherentFrame(H.group, vacuum_vector(H)))
    for field in ("best_state", "restart_entropies", "restart_iterations", "restart_converged"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    for field in ("best_entropy", "nearest_point", "nearest_overlap", "iterations",
                  "converged", "restart_index"):
        assert getattr(a, field) == getattr(b, field)


# a first step below MIN_STEP is a budget spent before any trial: the walk
# stops at its start, unconverged
def test_descend_stops_on_exhausted_step(rng, monkeypatch):
    monkeypatch.setattr(sys.modules["wehrl.minimize"], "FIRST_STEP", 1e-15)
    frame = CoherentFrame(parse_group("Z4"), random_state_vector(4, rng))
    start = random_state_vector(4, rng)
    state, energy, iterations, converged = descend(frame, start, MinimizerConfig())
    assert not converged and iterations == 0
    assert np.array_equal(state, start / np.linalg.norm(start))


# a start must be a state up to its norm: descend refuses, before any walk,
# what would otherwise return a NaN state or fail inside numpy
@pytest.mark.parametrize("fiducial", ["vacuum", "random"])
def test_descend_refuses_a_start_that_is_not_a_state(fiducial):
    if fiducial == "vacuum":
        frame = vacuum_frame("Z8")
    else:
        frame = CoherentFrame(parse_group("Z4"), random_state_vector(4, np.random.default_rng(1)))
    d = frame.group.order
    start = random_state_vector(d, np.random.default_rng(2))
    nan, inf = start.copy(), start.copy()
    nan[1], inf[0] = np.nan, np.inf
    for bad in (np.zeros(d), nan, inf, np.full(d, 1e300), start[:-1], np.ones(d + 1),
                np.stack([start, start]), start[None, :]):
        with pytest.raises(ValueError, match="start"):
            descend(frame, bad, MinimizerConfig())
    # a start that is a state up to its norm is normalised
    state, energy, *_ = descend(frame, 3.0 * start, MinimizerConfig())
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12) and np.isfinite(energy)


def test_no_halvings_from_coherent_starts():
    minimize_module = sys.modules["wehrl.minimize"]
    frame = vacuum_frame("Z4", (2,))
    starts = np.stack([frame.state(z) for z in range(frame.point_count)])
    states, _, iterations, converged, halvings, *_ = minimize_module._descend_rows(
        minimize_module._objective(frame), starts, MinimizerConfig())
    assert converged.all() and not iterations.any() and not halvings.any()
    assert np.array_equal(states, starts / np.linalg.norm(starts, axis=-1, keepdims=True))
    # on Z1 every unit vector is coherent
    result = minimize(vacuum_frame("Z1"))
    assert np.array_equal(result.restart_halvings, np.zeros(16, dtype=np.int64))


# one count per restart, in restart order, whatever the block height; on the
# gradient walk of non-vacuum fiducials
@pytest.mark.parametrize("fiducial", ["near-vacuum", "random"])
@pytest.mark.parametrize("spec", ["Z6", "Z3xZ3", "Z8xZ8"])
def test_restart_halvings_independent_of_blocks(spec, fiducial, monkeypatch):
    minimize_module = sys.modules["wehrl.minimize"]
    group = parse_group(spec)
    d = group.order
    rng = np.random.default_rng(5)
    if fiducial == "near-vacuum":
        vacuum = vacuum_vector(Subgroup.whole(group))
        fiducial_vector = vacuum + 0.1 * random_state_vector(d, rng)
        frame = CoherentFrame(group, fiducial_vector / np.linalg.norm(fiducial_vector))
    else:
        frame = CoherentFrame(group, random_state_vector(d, rng))
    assert minimize_module._objective(frame).basis is None
    # a first step of 2 overshoots from a random start, so every restart halves
    monkeypatch.setattr(minimize_module, "FIRST_STEP", 2.0)
    config = MinimizerConfig(seed=2, restarts=5, max_iters=300 if d < 64 else 30)
    halvings = []
    for block_bytes in (1, 10**9):
        monkeypatch.setattr(limits, "BLOCK_BYTES", block_bytes)
        halvings.append(minimize(frame, config).restart_halvings)
    assert halvings[0].shape == (5,) and halvings[0].dtype == np.int64
    assert np.array_equal(halvings[0], halvings[1])
    assert halvings[0].min() > 0


# criterion 10's gates on the H = G frames of order 64: one cyclic group, a
# square, a cube and an elementary 2-group, on both sides of the group_dft
# kernel rule
@pytest.mark.parametrize("spec", ["Z64", "Z8xZ8", "Z4xZ4xZ4", "Z2xZ2xZ2xZ2xZ2xZ2"])
def test_minimize_gates_on_order_64_frames(spec):
    frame = CoherentFrame.vacuum(Subgroup.whole(parse_group(spec)))
    result = minimize(frame)
    assert result.best_entropy <= 1e-6
    assert result.nearest_overlap >= 1 - 1e-4
    assert result.restart_entropies.shape == (16,)
    assert result.restart_entropies[result.restart_index] == result.restart_entropies.min()
    assert result.best_entropy == pure_state_entropy(frame, result.best_state)


# the walk used to stop on its plateau rule at 1.34e-6 here, above the gate
def test_minimize_passes_the_gate_where_the_plateau_rule_stalled():
    g = parse_group("Z4xZ8")
    H = subgroup_closure(g, (index(g, (0, 2)), index(g, (2, 0))))
    result = minimize(CoherentFrame.vacuum(H), MinimizerConfig(seed=1))
    assert result.best_entropy <= 1e-8
    assert result.converged


# criterion 10's gate is 1e-6: the worst suite minimum keeps a 100x margin
@pytest.mark.parametrize("seed", [0, 1])
def test_worst_suite_minimum_within_a_hundredth_of_the_gate(seed):
    config = MinimizerConfig(seed=seed)
    worst = max(minimize(CoherentFrame.vacuum(H), config).best_entropy for _, H in suite_pairs())
    assert worst <= 1e-8


# every restart that lands on a coherent state is certified there, not
# stopped on a budget above the gate; on the chirp frames too, where the
# gradient walk stopped on its plateau rule above 1e-6 (Z64, Z32)
@pytest.mark.parametrize("seed", [0, 1])
def test_restarts_near_a_coherent_state_pass_the_gate(seed):
    config = MinimizerConfig(seed=seed)
    near = 0
    frames = workload_frames() + chirp_frames()
    for frame in frames:
        result = minimize(frame, config)
        for overlap, entropy, flag in zip(result.restart_overlaps, result.restart_entropies,
                                          result.restart_converged):
            if overlap >= 1 - 1e-4:
                near += 1
                assert entropy < 1e-6 and flag
    assert near == len(frames) * config.restarts


# the full escort step is the escort map q -> q^2 / sum q^2 of the coset
# weights, near a coherent state and far from one: it squares every
# minor/major ratio, keeps each phase and lowers S^W
@pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-10, None])
def test_escort_step_squares_coset_weights(eps):
    minimize_module = sys.modules["wehrl.minimize"]
    frame = vacuum_frame("Z4xZ2")
    objective = minimize_module._objective(frame)
    d = frame.group.order
    rng = np.random.default_rng(0)
    if eps is None:
        q = rng.uniform(size=d)
        q /= q.sum()
    else:
        q = np.full(d, eps)
        q[3] = 1.0 - (d - 1) * eps
    m = np.sqrt(q)[None, :]
    energy, direction, _, decrement = objective.evaluate(m)
    trial = m - direction
    trial /= np.linalg.norm(trial)
    assert np.abs(trial[0] ** 2 - q**2 / np.sum(q**2)).max() <= 1e-15
    assert (trial >= 0).all()
    assert objective.evaluate(trial)[0][0] < energy[0]
    if eps is not None:  # in the basin
        assert np.isfinite(decrement).all()


# every accepted tick lowers S^W, and the walk needs no halving: the full
# escort step is always accepted; the escort map never reorders the coset
# weights, so each restart ends on the coset of its start's largest
# coordinate
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_escort_walk_ends_on_the_coset_of_the_largest_start_coordinate(seed):
    minimize_module = sys.modules["wehrl.minimize"]
    config = MinimizerConfig(seed=seed)
    frames = workload_frames()
    assert len(frames) == 57
    for frame in frames:
        objective = minimize_module._objective(frame)
        starts = _random_state_stack(frame.group.order, config.restarts,
                                     np.random.default_rng(seed))
        states, entropies, iterations, converged, halvings, _, rows = (
            minimize_module._descend_rows(objective, starts, config))
        overlaps = objective.overlaps(rows)
        assert converged.all() and not halvings.any()
        # the decrement certifies every restart well inside the gate, and
        # the best one at rounding level
        assert entropies.max() <= 1e-8 and entropies.min() <= 1e-12
        representatives = coset_basis(frame).representatives
        largest = np.abs(starts @ objective.basis.conj().T).argmax(axis=-1)
        for state, overlap, rep in zip(states, overlaps, representatives[largest]):
            point, nearest = nearest_coherent(frame, state)
            assert point == rep
            assert abs(overlap - nearest) <= 1e-12


# every accepted tick lowers S^W, read by the group transform off the
# points of the escort trajectory the walk reads, until it is at rounding
# level
def test_escort_walk_lowers_the_entropy_on_every_accepted_tick():
    minimize_module = sys.modules["wehrl.minimize"]
    stacks = []
    rng = np.random.default_rng(5)
    for frame in workload_frames()[::4]:
        objective = minimize_module._objective(frame)

        def recording(x, _evaluate=objective.evaluate):
            stacks.append(x.copy())
            return _evaluate(x)

        objective = objective._replace(evaluate=recording)
        start = random_state_vector(frame.group.order, rng)
        stacks.clear()
        _, _, iterations, converged, halvings, *_ = minimize_module._descend_rows(
            objective, start[None, :], MinimizerConfig())
        assert converged[0] and halvings[0] == 0
        # one row's chunks: K points each, every chunk starting on the
        # point where the one before it ends, and the row stops in the last
        assert all(len(stack) == K for stack in stacks)
        for before, after in zip(stacks, stacks[1:]):
            assert np.array_equal(after[0], before[-1])
        trajectory = np.concatenate([stacks[0]] + [stack[1:] for stack in stacks[1:]])
        assert len(trajectory) - K <= iterations[0] < len(trajectory)
        # the start and one point per accepted tick; S^W reads only the
        # magnitudes of the coset coordinates
        entropies = pure_state_entropy(frame, trajectory[:iterations[0] + 1] @ objective.basis)
        above = entropies[:-1] > 1e-12
        assert (entropies[1:][above] < entropies[:-1][above]).all()
        assert above.sum() >= min(iterations[0], 3)


# with tolerances no point can meet, the escort walk runs to rounding level
# and stops on its MIN_STEP budget (47 halvings from 1), unconverged
def test_coset_walk_budgets_end_unconverged():
    frame = vacuum_frame("Z8")
    config = MinimizerConfig(tol_grad=1e-300, tol_entropy=1e-300, restarts=4, seed=1)
    result = minimize(frame, config)
    assert not result.restart_converged.any()
    assert (result.restart_iterations > 0).all()
    assert (result.restart_halvings == 47).all()
    assert np.abs(result.restart_entropies).max() <= 1e-15


# the coset walk reads K points per chunk and starts each chunk on the
# last point of the one before: budgets that end a row on a chunk's last
# point, on the first point of the next chunk, one point later and at
# PLATEAU_STEPS end it where the one-row escort walk in psi ends, whatever
# the block height
@pytest.mark.parametrize("max_iters", [K - 1, K, K + 1, PLATEAU_STEPS])
@pytest.mark.parametrize("block_bytes", [1, 10**9])
def test_trajectory_chunks_end_rows_where_the_escort_walk_ends(max_iters, block_bytes,
                                                               monkeypatch):
    monkeypatch.setattr(limits, "BLOCK_BYTES", block_bytes)
    config = MinimizerConfig(seed=3, restarts=6, max_iters=max_iters)
    bound = 0
    for frame in (vacuum_frame("Z8xZ8"), vacuum_frame("Z64"), vacuum_frame("Z4xZ8", (0, 2), (2, 0))):
        d = frame.group.order
        result = minimize(frame, config)
        rng = np.random.default_rng(config.seed)
        walks = [escort_walk(frame, random_state_vector(d, rng), config)
                 for _ in range(config.restarts)]
        assert np.array_equal(result.restart_iterations, [w[2] for w in walks])
        assert np.array_equal(result.restart_converged, [w[3] for w in walks])
        assert np.array_equal(result.restart_halvings, [w[4] for w in walks])
        assert np.abs(result.restart_entropies - [w[1] for w in walks]).max() <= 1e-12
        assert np.abs(result.best_state - walks[result.restart_index][0]).max() <= 1e-12
        bound += int((result.restart_iterations == max_iters).sum())
    if max_iters <= K + 1:  # the budget ends some rows unconverged
        assert bound > 0


# a row whose next full step is not lower needs a halving: it leaves the
# trajectory stack, here on a point inside a chunk, for the tick loop, which
# takes it from the point it stands on with its iterations at the full step
# (so it spends the whole MIN_STEP budget, 47 halvings), while a row of the
# same stack that the budget ends stays in the stack; each row of the one
# stack still ends where descend ends it alone
def test_rows_needing_a_halving_leave_the_stack_inside_a_chunk(monkeypatch):
    minimize_module = sys.modules["wehrl.minimize"]
    handed = []
    walk_ticks = minimize_module._walk_ticks

    def recording(objective, index, x, iterations, plateau, config, stopped):
        handed.append((index.copy(), iterations.copy()))
        return walk_ticks(objective, index, x, iterations, plateau, config, stopped)

    monkeypatch.setattr(minimize_module, "_walk_ticks", recording)
    frame = vacuum_frame("Z4xZ2", (1, 0), (0, 1))
    config = MinimizerConfig(tol_grad=1e-300, tol_entropy=1e-300, restarts=6, seed=1,
                             max_iters=10)
    result = minimize(frame, config)
    assert len(handed) == 1  # one block, one hand-off
    places, brought = (np.concatenate(part) for part in zip(*handed))
    assert (brought % (K - 1) != 0).any()  # a point inside a chunk
    iterations, halvings = result.restart_iterations, result.restart_halvings
    assert (iterations[places] >= brought).all()
    budgeted = iterations == config.max_iters
    assert np.array_equal(np.sort(places), (~budgeted).nonzero()[0]) and budgeted.any()
    assert not result.restart_converged.any()
    assert (halvings[~budgeted] == 47).all() and not halvings[budgeted].any()
    rng = np.random.default_rng(config.seed)
    starts = [random_state_vector(8, rng) for _ in range(config.restarts)]
    runs = [descend(frame, start, config) for start in starts]
    assert np.array_equal(result.restart_entropies, [r[1] for r in runs])
    assert np.array_equal(iterations, [r[2] for r in runs])
    assert np.array_equal(result.best_state, runs[result.restart_index][0])
    # at rounding level, where the psi walk of the oracle rounds otherwise,
    # both end on one coherent state
    walks = [escort_walk(frame, start, config) for start in starts]
    assert np.abs(result.restart_entropies - [w[1] for w in walks]).max() <= 1e-12
    assert np.abs(result.best_state - walks[result.restart_index][0]).max() <= 1e-12


# the plateau count runs on across chunks and restarts after a drop of at
# least tol_entropy: from weights spread over all of Z64 with two nearly
# tied leaders, the first two full steps drop S^W by more than 1, and the
# next PLATEAU_STEPS, near the saddle between the leaders, by less; the
# walk ends there, on a point inside a chunk, as the one-row walk does (the
# saddle amplifies rounding, hence the looser bound)
def test_a_plateau_after_large_drops_ends_rows_across_chunks():
    minimize_module = sys.modules["wehrl.minimize"]
    frame = vacuum_frame("Z64", (1,))
    objective = minimize_module._objective(frame)
    q = np.full(64, 0.8 / 62)
    q[:2] = 0.1 * (1 + 1e-6), 0.1 * (1 - 1e-6)
    rng = np.random.default_rng(0)
    starts = np.stack([(np.sqrt(q) * np.exp(1j * rng.uniform(0, 6, 64))) @ objective.basis
                       for _ in range(2)])
    config = MinimizerConfig(tol_grad=1e-300, tol_entropy=1.0)
    states, entropies, iterations, converged, halvings, *_ = minimize_module._descend_rows(
        objective, starts, config)
    assert (iterations == PLATEAU_STEPS + 2).all() and (iterations % (K - 1) != 0).all()
    assert not converged.any() and not halvings.any()
    walks = [escort_walk(frame, start, config) for start in starts]
    assert np.array_equal(iterations, [w[2] for w in walks])
    assert np.array_equal(converged, [w[3] for w in walks])
    assert np.abs(entropies - [w[1] for w in walks]).max() <= 1e-10
    assert np.abs(states - [w[0] for w in walks]).max() <= 1e-10


# the coset walk ends at rounding level, so the reported minimum and its
# overlap may sit just outside [0, log |G|] and [0, 1]: by a few ulps,
# never by more than 1e-14
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_reported_minima_stay_within_rounding_of_their_range(seed):
    config = MinimizerConfig(seed=seed)
    for frame in workload_frames():
        result = minimize(frame, config)
        assert result.best_entropy >= -1e-14
        assert result.nearest_overlap <= 1 + 1e-14
        assert (result.restart_overlaps <= 1 + 1e-14).all()


def test_step_reads_no_nan_where_q_is_zero():
    minimize_module = sys.modules["wehrl.minimize"]
    frame = vacuum_frame("Z3xZ3", (1, 0))
    objective = minimize_module._objective(frame)
    x = np.zeros((2, 9))
    x[0, 4] = 1.0  # a coherent state: eight exact zeros
    x[1, :2] = [0.6, 0.8]
    energy, direction, norms, decrements = objective.evaluate(x)
    assert np.isfinite(direction).all() and np.isfinite(norms).all()
    assert energy[0] == 0.0 and norms[0] == 0.0 and decrements[0] == 0.0
    assert not np.isnan(decrements[1])


# the tick loop evaluates the rows handed to it outside the trajectory stack
# they were read off, so the walk needs each row of the coset evaluation to
# round bit for bit the same in a stack of any height, with exact zeros too
def test_coset_evaluate_rounds_a_row_the_same_alone_and_in_a_stack():
    minimize_module = sys.modules["wehrl.minimize"]
    rng = np.random.default_rng(7)
    frames = workload_frames()
    assert len(frames) == 57
    for frame in frames:
        objective = minimize_module._objective(frame)
        d = frame.group.order
        psis = _random_state_stack(d, 128, rng)
        m = np.abs(psis @ objective.basis.conj().T)
        m[0] = 0.0
        m[0, d // 2] = 1.0  # a coherent row: d - 1 exact zeros
        m[1, ::2] = 0.0  # zeros on half the support
        m[1] /= np.linalg.norm(m[1])
        stacked = objective.evaluate(m)
        for i in range(len(m)):
            alone = objective.evaluate(m[i:i + 1])
            for a, b in zip(stacked, alone):
                assert a[i].tobytes() == b[0].tobytes()


@pytest.mark.parametrize("fiducial", ["vacuum", "random"])
def test_restart_grad_norms_are_the_final_gradient_norms(fiducial):
    group = parse_group("Z3xZ3")
    if fiducial == "vacuum":
        frame = vacuum_frame("Z3xZ3", (1, 0))
    else:
        frame = CoherentFrame(group, random_state_vector(9, np.random.default_rng(4)))
    result = minimize(frame, MinimizerConfig(seed=2, max_iters=300))
    norms = result.restart_grad_norms
    assert norms.shape == (16,) and norms.dtype == np.float64
    best = result.best_state
    if fiducial == "vacuum":
        _, gradient, _ = escort_step(frame, best, result.best_entropy)
        assert norms[result.restart_index] == pytest.approx(np.linalg.norm(gradient), rel=1e-6)
        assert (norms[result.restart_converged] < 1e-3).all()
    else:
        want = np.linalg.norm(entropy_gradient(frame, best))
        assert norms[result.restart_index] == pytest.approx(want, rel=1e-12)


# each restart's largest overlap with a frame point at its end: on a
# Lagrangian frame the largest coset magnitude of the walk, with no
# transform; on any other frame one stacked transform of the final states
@pytest.mark.parametrize("fiducial", ["vacuum", "random"])
def test_restart_overlaps_are_the_final_overlaps(fiducial):
    group = parse_group("Z3xZ3")
    if fiducial == "vacuum":
        frame = vacuum_frame("Z3xZ3", (1, 0))
    else:
        frame = CoherentFrame(group, random_state_vector(9, np.random.default_rng(4)))
    config = MinimizerConfig(seed=2, restarts=6, max_iters=300)
    result = minimize(frame, config)
    overlaps = result.restart_overlaps
    assert overlaps.shape == (6,) and overlaps.dtype == np.float64
    assert overlaps[result.restart_index] == pytest.approx(result.nearest_overlap, abs=1e-12)
    rng = np.random.default_rng(config.seed)
    for overlap in overlaps:
        state, *_ = descend(frame, random_state_vector(9, rng), config)
        assert overlap == pytest.approx(nearest_coherent(frame, state)[1], abs=1e-12)
    if fiducial == "vacuum":
        assert (overlaps >= 1 - 1e-4).all()


# one stopping rule on every frame: a restart reads converged only on a
# certificate, never on a plateau or an exhausted step of the gradient walk
@pytest.mark.parametrize("seed", [0, 1])
def test_converged_restarts_are_certified_on_random_fiducials(seed):
    config = MinimizerConfig(seed=seed)
    for group in dict.fromkeys(g for g, _ in suite_pairs()):
        fiducial = random_state_vector(group.order, np.random.default_rng(seed))
        result = minimize(CoherentFrame(group, fiducial), config)
        converged = result.restart_converged
        assert (result.restart_grad_norms[converged] <= config.tol_grad).all()


# a vacuum moved by 3e-6 has a trivial stabiliser, so the gradient walk runs;
# from a full first step it ends below the fiducial's own entropy
def test_minimize_reaches_below_a_perturbed_vacuum_fiducial():
    g = parse_group("Z8")
    subgroups = all_subgroups(g)
    assert len(subgroups) == 4
    for H in subgroups:
        phi = vacuum_vector(H) + 3e-6 * random_state_vector(8, np.random.default_rng(0))
        frame = CoherentFrame(g, phi / np.linalg.norm(phi))
        assert frame.stabiliser.order == 1
        result = minimize(frame, MinimizerConfig(seed=0))
        assert result.best_entropy <= pure_state_entropy(frame, frame.fiducial)


# minimize draws its starts in one draw of states._random_state_stack: the
# same bits as one random_state_vector per restart
@pytest.mark.parametrize("d", [1, 2, 3, 4, 6, 8, 9, 64, 128])
def test_stacked_starts_equal_random_state_vectors(d):
    for seed in range(5):
        rng = np.random.default_rng(seed)
        want = np.stack([random_state_vector(d, rng) for _ in range(16)])
        got = _random_state_stack(d, 16, np.random.default_rng(seed))
        assert got.tobytes() == want.tobytes()


# on a vacuum frame the walk runs in coset coordinates: one minimize call
# analyses only its best state, once, for both its nearest point and its
# S^W, and draws all its starts in one draw
def test_minimize_analyses_the_best_state_once(monkeypatch):
    frame = vacuum_frame("Z4", (2,))
    calls = {"pure_amplitudes": 0, "random_state_vector": 0}
    for name in calls:
        exact = getattr(sys.modules["wehrl"], name)

        def spy(*args, _exact=exact, _name=name, **kwargs):
            calls[_name] += 1
            return _exact(*args, **kwargs)

        for key, module in list(sys.modules.items()):
            if key.split(".")[0] == "wehrl" and getattr(module, name, None) is exact:
                monkeypatch.setattr(module, name, spy)
    result = minimize(frame)
    assert calls == {"pure_amplitudes": 1, "random_state_vector": 0}
    assert result.best_entropy <= 1e-6


# descend reads no overlap: on a random fiducial its only analyses are the
# energies of the points it evaluates
def test_descend_analyses_only_the_points_it_evaluates(monkeypatch):
    minimize_module = sys.modules["wehrl.minimize"]
    frame = CoherentFrame(parse_group("Z3xZ3"), random_state_vector(9, np.random.default_rng(2)))
    calls = {"pure_amplitudes": 0, "evaluate": 0}
    exact = minimize_module.pure_amplitudes

    def spy(*args, **kwargs):
        calls["pure_amplitudes"] += 1
        return exact(*args, **kwargs)

    objective = minimize_module._objective(frame)
    assert objective.basis is None

    def evaluate(psi):
        calls["evaluate"] += 1
        return objective.evaluate(psi)

    monkeypatch.setattr(minimize_module, "pure_amplitudes", spy)
    monkeypatch.setattr(minimize_module, "_objective",
                        lambda frame: objective._replace(evaluate=evaluate))
    _, _, iterations, _ = descend(frame, random_state_vector(9, np.random.default_rng(3)),
                                  MinimizerConfig(max_iters=5))
    assert iterations == 5
    assert calls["pure_amplitudes"] == calls["evaluate"] >= iterations + 2


def test_nearest_coherent_exact_point():
    frame = vacuum_frame("Z4", (2,))
    K, _ = frame.cosets()
    z = 7
    point, overlap = nearest_coherent(frame, frame.state(z))
    assert type(point) is int
    assert overlap == pytest.approx(1.0, abs=1e-12)
    g = frame.group
    assert point_add(g, point, point_neg(g, z)) in K  # any member of the coset is a valid answer


def test_nearest_coherent_returns_the_coset_representative():
    """The lex-least member of the coset, whichever member rounding favours.

    All members of a K-coset give the same overlap up to rounding, so the
    argmax alone picks one by the last bits of the state: a global phase or
    a random state is enough to move it off the least member.
    """
    g = parse_group("Z4xZ2")
    rng = np.random.default_rng(11)
    for H in all_subgroups(g):
        frame = CoherentFrame.vacuum(H)
        K, _ = frame.cosets()

        def representative(z):
            return min(point_add(g, z, u) for u in K.indices.tolist())

        for z in range(frame.point_count):
            psi = frame.state(z)
            noise = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            for state in (psi, psi + 1e-16 * noise, phase * psi):
                point, overlap = nearest_coherent(frame, state)
                assert point == representative(z)
                assert overlap == pytest.approx(1.0, abs=1e-12)
        for _ in range(20):
            psi = random_state_vector(g.order, rng)
            point, overlap = nearest_coherent(frame, psi)
            assert point == representative(point)
            assert overlap == np.abs(pure_amplitudes(frame, psi)).max()


def test_nearest_coherent_on_a_random_fiducial_is_the_argmax(rng):
    frame = CoherentFrame(parse_group("Z4xZ2"), random_state_vector(8, rng))
    psi = random_state_vector(8, rng)
    point, overlap = nearest_coherent(frame, psi)
    overlaps = np.abs(pure_amplitudes(frame, psi))
    assert point == int(np.argmax(overlaps)) and overlap == overlaps.max()


# ---------------------------------------------------------------------------
# fiducial scan


def test_scan_fiducials_report_shape():
    g = parse_group("Z2")
    H = subgroup_closure(g, (1,))
    report = scan_fiducials(H, MinimizerConfig(seed=0))
    assert report["group"] == "Z2"
    assert report["trials"] == 8
    assert len(report["rows"]) == 9
    assert report["rows"][0]["fiducial_kind"] == "vacuum"
    assert report["rows"][0]["best_entropy"] <= 1e-6
    assert [r["fiducial_kind"] for r in report["rows"][1:]] == [f"random:{t}" for t in range(8)]
    for row in report["rows"]:
        assert set(row) == {
            "fiducial_kind", "best_entropy", "overlap", "iterations", "converged",
        }
    again = scan_fiducials(H, MinimizerConfig(seed=0))
    assert again == report
