import math
from fractions import Fraction

import numpy as np
import pytest

from wehrl import (
    CoherentFrame,
    PhaseSpacePoint,
    cocycle_phase,
    parse_group,
    phase_space,
    random_state_vector,
    subgroup_closure,
)
from wehrl import verify
from wehrl.states import DenseLimitError
from wehrl.frames import coset_ids
from wehrl.verify import (
    check_cocycle_bilinearity,
    check_overlap_dichotomy,
    cocycle_phase_matrix,
    run_checks,
    standard_suite,
    suite_pairs,
)


def test_run_checks_all_pass_on_z4():
    g = parse_group("Z4")
    H = subgroup_closure(g, (g.element((2,)),))
    results = run_checks(g, H, seed=0)
    failed = [r for r in results if not r.passed]
    assert not failed, failed
    names = [r.name for r in results]
    assert len(names) == len(set(names))  # stable unique check names
    assert "ccr-commutation" in names
    assert "wehrl-lower-bound" in names


def test_run_checks_refuses_oversized_group_before_any_check(monkeypatch):
    def not_called(*args, **kwargs):
        raise AssertionError("a check ran before the dense-limit guard")

    monkeypatch.setattr(verify, "check_group_laws", not_called)
    g = parse_group("Z16xZ16")
    message = r"^\|F\| = 65536 exceeds the dense-matrix limit 256$"
    with pytest.raises(DenseLimitError, match=message):
        run_checks(g, subgroup_closure(g, ()))
    monkeypatch.setenv("WEHRL_DENSE_LIMIT", "15")
    g = parse_group("Z4")
    with pytest.raises(DenseLimitError, match=r"^\|F\| = 16 exceeds the dense-matrix limit 15$"):
        run_checks(g, subgroup_closure(g, ()))


@pytest.mark.parametrize("spec", ["Z1", "Z1xZ1"])
def test_run_checks_all_pass_on_trivial_groups(spec):
    # the tangent gradient on a one-dimensional sphere is exactly 0 and the
    # FD oracle returns only roundoff; the metric's floor keeps that a pass
    g = parse_group(spec)
    H = subgroup_closure(g, ())
    for seed in range(10):
        failed = [r for r in run_checks(g, H, seed=seed, rho_samples=50) if not r.passed]
        assert not failed, (seed, failed)


def test_gradient_check_floor_still_catches_a_wrong_gradient(monkeypatch):
    g = parse_group("Z1")
    frame = CoherentFrame.vacuum(subgroup_closure(g, ()))
    exact = verify.entropy_gradient
    monkeypatch.setattr(verify, "entropy_gradient", lambda fr, psi: exact(fr, psi) + 1e-8j * psi)
    result = verify.check_gradient_oracle(frame, np.random.default_rng(0))
    assert not result.passed and result.residual > 1e-3


def test_run_checks_deterministic():
    g = parse_group("Z3")
    H = subgroup_closure(g, (g.element((1,)),))
    assert run_checks(g, H, seed=4) == run_checks(g, H, seed=4)


def test_run_checks_product_group_includes_marginals():
    g = parse_group("Z2xZ2")
    H = subgroup_closure(g, (g.element((1, 0)),))
    names = [r.name for r in run_checks(g, H, seed=0, rho_samples=50, state_samples=20)]
    assert "husimi-marginalisation" in names
    assert "wehrl-monotonicity" in names


def test_standard_suite_contents():
    names = [str(g) for g in standard_suite()]
    assert names == [
        "Z2", "Z3", "Z4", "Z6", "Z8", "Z2xZ2", "Z4xZ2", "Z3xZ3", "Z9", "Z2xZ2xZ2",
    ]
    assert max(g.order for g in standard_suite()) <= 9


def test_suite_pairs_count():
    pairs = suite_pairs()
    assert len(pairs) == 53
    for g, H in pairs:
        assert g.order % H.order == 0


def test_dichotomy_check_rejects_generic_fiducial(rng):
    # the checks must be able to fail: a generic fiducial breaks the 0/1 law
    g = parse_group("Z4")
    frame = CoherentFrame(g, random_state_vector(4, rng))
    result = check_overlap_dichotomy(frame)
    assert not result.passed
    assert result.residual > 1e-3


def test_cocycle_phase_matrix_matches_exact_fractions():
    g = parse_group("Z2xZ3")
    pts = list(phase_space(g))[:12]
    M = cocycle_phase_matrix(g, pts, pts)
    L = math.lcm(*g.orders)
    for i, z in enumerate(pts):
        for j, w in enumerate(pts):
            assert Fraction(int(M[i, j]), L) % 1 == cocycle_phase(z, w)


def test_coset_ids_partition():
    g = parse_group("Z6")
    H = subgroup_closure(g, (g.element((3,)),))
    frame = CoherentFrame.vacuum(H)
    ids = coset_ids(frame)
    K, reps = frame.cosets()
    assert ids.min() == 0
    assert ids.max() == len(reps) - 1
    counts = np.bincount(ids)
    assert (counts == K.order).all()


def _bilinearity_oracle(group, rng, samples=1000):
    """Scalar route of check_cocycle_bilinearity: exact Fractions per triple."""
    total = group.order ** 2
    bad = 0
    for i, j, k in rng.integers(0, total, size=(samples, 3)):
        z, w, v = (PhaseSpacePoint.by_index(group, int(x)) for x in (i, j, k))
        if cocycle_phase(z + w, v) != (cocycle_phase(z, v) + cocycle_phase(w, v)) % 1:
            bad += 1
        if cocycle_phase(v, z + w) != (cocycle_phase(v, z) + cocycle_phase(v, w)) % 1:
            bad += 1
    return bad


@pytest.mark.parametrize("spec", ["Z1", "Z2", "Z6", "Z3xZ3", "Z2xZ2xZ2", "Z4xZ8", "Z1xZ3"])
def test_cocycle_bilinearity_matches_fraction_oracle(spec):
    g = parse_group(spec)
    batched_rng, scalar_rng = np.random.default_rng(11), np.random.default_rng(11)
    result = check_cocycle_bilinearity(g, batched_rng)
    assert result.residual == _bilinearity_oracle(g, scalar_rng)
    assert result.passed
    # the random stream is consumed the same way, so later checks see the same draws
    assert batched_rng.random() == scalar_rng.random()


def test_cocycle_bilinearity_catches_a_nonbilinear_cocycle(monkeypatch):
    g = parse_group("Z4xZ2")
    exact = verify.cocycle_numerators

    def squared(group, *args):
        return exact(group, *args) ** 2 % math.lcm(*group.orders)

    monkeypatch.setattr(verify, "cocycle_numerators", squared)
    result = check_cocycle_bilinearity(g, np.random.default_rng(0))
    assert not result.passed
    assert result.residual > 0
