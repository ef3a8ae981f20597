import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wehrl import (
    CcrReport,
    DenseLimitError,
    FiniteAbelianGroup,
    parse_group,
    parse_point,
    random_state_vector,
    verify_ccr,
    weyl_apply,
    weyl_matrix,
)
from wehrl import weyl
from wehrl.groups import _character_rows, difference_index_table
from wehrl.weyl import cocycle_phase

import phase_oracle
from phase_oracle import (
    HeisenbergElement,
    cocycle,
    compose_phase,
    phase_to_complex,
    point,
    point_add,
    point_neg,
)
from state_helpers import basis_state
from weyl_oracle import pointwise_weyl_matrix, roll_weyl_apply

group_descriptors = st.lists(st.integers(2, 6), min_size=1, max_size=3).filter(
    lambda orders: math.prod(orders) <= 36
)


def draw_point(group, data):
    return data.draw(st.integers(0, group.order ** 2 - 1))


# ---------------------------------------------------------------------------
# cocycle


def test_cocycle_frozen():
    g = parse_group("Z2")
    z = parse_point(g, "1;1")
    w = parse_point(g, "0;1")
    assert cocycle_phase(g, z, w) == Fraction(1, 2)
    assert cocycle(g, z, w) == pytest.approx(-1.0)
    # shift vs flip on Z2: the classic anticommuting pair
    assert cocycle_phase(g, parse_point(g, "1;0"), parse_point(g, "0;1")) == Fraction(1, 2)


def test_cocycle_on_diagonal_and_inverse():
    g = parse_group("Z4xZ2")
    for z in range(g.order ** 2):
        assert cocycle_phase(g, z, z) == 0
        assert cocycle_phase(g, z, point_neg(g, z)) == 0  # makes the Heisenberg inverse central-free


@settings(max_examples=40, deadline=None)
@given(group_descriptors, st.data())
def test_cocycle_antisymmetry_and_bilinearity(orders, data):
    g = FiniteAbelianGroup(tuple(orders))
    z, w, v = (draw_point(g, data) for _ in range(3))
    assert cocycle_phase(g, z, w) == phase_oracle.cocycle_phase(g, z, w)
    assert cocycle_phase(g, z, w) == (-cocycle_phase(g, w, z)) % 1
    zw = point_add(g, z, w)
    assert cocycle_phase(g, zw, v) == (cocycle_phase(g, z, v) + cocycle_phase(g, w, v)) % 1
    assert cocycle_phase(g, v, zw) == (cocycle_phase(g, v, z) + cocycle_phase(g, v, w)) % 1


# ---------------------------------------------------------------------------
# Heisenberg group


def test_heisenberg_identity_and_inverse():
    g = parse_group("Z4")
    e = HeisenbergElement.identity(g)
    x = HeisenbergElement(g, parse_point(g, "1;3"), Fraction(1, 4))
    assert (x * e) == x
    assert (e * x) == x
    assert (x * x.inverse()) == e
    assert (x.inverse() * x) == e


def test_heisenberg_central_phase_reduction():
    g = parse_group("Z2")
    x = HeisenbergElement(g, parse_point(g, "0;0"), Fraction(3, 2))
    assert x.t_phase == Fraction(1, 2)
    assert x.t == pytest.approx(-1.0)


def test_heisenberg_central_element_commutes():
    g = parse_group("Z4")
    center = HeisenbergElement(g, parse_point(g, "0;0"), Fraction(1, 2))
    x = HeisenbergElement(g, parse_point(g, "3;1"), Fraction(1, 8))
    assert center * x == x * center


def test_heisenberg_commutator_is_cocycle():
    # x y x^-1 y^-1 = (0, omega(z, w)^2): omega = -i on this Z4 pair
    g = parse_group("Z4")
    x = HeisenbergElement(g, parse_point(g, "1;0"))
    y = HeisenbergElement(g, parse_point(g, "0;1"))
    comm = x * y * x.inverse() * y.inverse()
    assert comm.z == 0
    assert comm.t_phase == (2 * cocycle_phase(g, x.z, y.z)) % 1 == Fraction(1, 2)


@settings(max_examples=40, deadline=None)
@given(group_descriptors, st.data())
def test_heisenberg_associative_exact(orders, data):
    g = FiniteAbelianGroup(tuple(orders))
    xs = [
        HeisenbergElement(g, draw_point(g, data), Fraction(data.draw(st.integers(0, 7)), 8))
        for _ in range(3)
    ]
    a, b, c = xs
    assert (a * b) * c == a * (b * c)


# ---------------------------------------------------------------------------
# Weyl operators


def test_weyl_matrix_frozen():
    g = parse_group("Z2")
    W = weyl_matrix(g, parse_point(g, "1;1"))
    assert np.allclose(W, np.array([[0, 1], [-1, 0]]), atol=1e-15)
    z4 = parse_group("Z4")
    shift = weyl_matrix(z4, parse_point(z4, "1;0"))
    assert np.array_equal(shift @ basis_state(4, 0), basis_state(4, 1))


def test_weyl_apply_frozen():
    g = parse_group("Z2")
    vec = np.array([1.0, 1.0]) / np.sqrt(2)
    out = weyl_apply(g, parse_point(g, "0;1"), vec)
    assert np.allclose(out, np.array([1.0, -1.0]) / np.sqrt(2), atol=1e-15)


def test_weyl_apply_matches_matrix(rng):
    for spec in ("Z4", "Z2xZ3", "Z4xZ2"):
        g = parse_group(spec)
        for z in range(g.order ** 2):
            f = random_state_vector(g.order, rng)
            assert np.abs(weyl_matrix(g, z) @ f - weyl_apply(g, z, f)).max() < 1e-13


def test_weyl_preserves_norm(rng):
    g = parse_group("Z3xZ3")
    for _ in range(20):
        z = int(rng.integers(0, g.order ** 2))
        f = random_state_vector(g.order, rng)
        assert abs(np.linalg.norm(weyl_apply(g, z, f)) - 1.0) < 1e-13


def test_weyl_unitary():
    g = parse_group("Z2xZ3")
    eye = np.eye(g.order)
    for z in range(g.order ** 2):
        W = weyl_matrix(g, z)
        assert np.abs(W.conj().T @ W - eye).max() < 1e-12


def test_weyl_composition_exact_phase():
    # W(z) W(w) must equal exp(2*pi*i*compose_phase(z, w)) W(z + w)
    for spec in ("Z2", "Z3"):
        g = parse_group(spec)
        for z in range(g.order ** 2):
            for w in range(g.order ** 2):
                lhs = weyl_matrix(g, z) @ weyl_matrix(g, w)
                rhs = phase_to_complex(compose_phase(g, z, w)) * weyl_matrix(g, point_add(g, z, w))
                assert np.abs(lhs - rhs).max() < 1e-13


def test_weyl_commutation_against_cocycle(rng):
    g = parse_group("Z4xZ2")
    for _ in range(50):
        z, w = (int(i) for i in rng.integers(0, g.order ** 2, size=2))
        lhs = weyl_matrix(g, z) @ weyl_matrix(g, w)
        rhs = cocycle(g, z, w) * (weyl_matrix(g, w) @ weyl_matrix(g, z))
        assert np.abs(lhs - rhs).max() < 1e-12


def test_verify_ccr_exhaustive():
    g = parse_group("Z4")
    report = verify_ccr(g)
    assert isinstance(report, CcrReport)
    assert report.mode == "exhaustive"
    assert report.pairs_checked == (g.order ** 2) ** 2
    assert report.max_residual <= 1e-12
    assert report.passed


def test_verify_ccr_randomized():
    g = parse_group("Z32")  # |F| = 1024 > 256 forces sampling
    report = verify_ccr(g)
    assert report.mode == "randomized"
    assert report.pairs_checked == weyl.CCR_SAMPLES == 10_000
    assert report.max_residual <= 1e-12


def test_verify_ccr_deterministic():
    g = parse_group("Z3xZ3")
    a = verify_ccr(g, seed=5)
    b = verify_ccr(g, seed=5)
    assert a == b


def _roll_apply(group, z, mat):
    """W(z) on the columns of a (|G|, m) array: np.roll, then character values."""
    g, chi = point(group, z)
    axes = tuple(range(len(group.orders)))
    shifted = np.roll(mat.reshape(group.orders + (-1,)), g, axis=axes)
    return _character_rows(group, phase_oracle.index(group, chi))[:, None] * shifted.reshape(
        group.order, -1
    )


def _ccr_oracle(group, *, seed=0, tolerance=1e-12, exhaustive_limit=256, samples=10_000):
    """Scalar route of verify_ccr: one pair at a time, Fraction cocycle."""
    rng = np.random.default_rng(seed)
    d = group.order
    probes = rng.standard_normal((d, 3)) + 1j * rng.standard_normal((d, 3))
    probes /= np.linalg.norm(probes, axis=0)
    total = d * d
    if total <= exhaustive_limit:
        pairs = [(a, b) for a in range(total) for b in range(total)]
        mode = "exhaustive"
    else:
        pairs = rng.integers(0, total, size=(samples, 2)).tolist()
        mode = "randomized"
    worst = 0.0
    for a, b in pairs:
        left = _roll_apply(group, a, _roll_apply(group, b, probes))
        right = cocycle(group, a, b) * _roll_apply(group, b, _roll_apply(group, a, probes))
        worst = max(worst, float(np.abs(left - right).max()))
    return CcrReport(str(group), mode, len(pairs), worst, tolerance, worst <= tolerance)


@pytest.mark.parametrize("spec", ["Z1", "Z4", "Z3xZ3", "Z2xZ2xZ2", "Z1xZ3"])
def test_verify_ccr_matches_scalar_oracle_exhaustive(spec):
    g = parse_group(spec)
    report = verify_ccr(g, seed=3)
    assert report.mode == "exhaustive"
    assert report == _ccr_oracle(g, seed=3)  # max_residual equal to the bit


@pytest.mark.parametrize("spec", ["Z32", "Z4xZ8"])
def test_verify_ccr_matches_scalar_oracle_randomized(spec, monkeypatch):
    # the scalar oracle takes about 1.5 s at CCR_SAMPLES pairs
    monkeypatch.setattr(weyl, "CCR_SAMPLES", 500)
    g = parse_group(spec)
    report = verify_ccr(g, seed=2)
    assert report.mode == "randomized"
    assert report == _ccr_oracle(g, seed=2, samples=500)


def test_verify_ccr_catches_a_sign_flipped_cocycle(monkeypatch):
    g = parse_group("Z3")
    exact = weyl.cocycle_numerators

    def flipped(group, *args):
        return (-exact(group, *args)) % math.lcm(*group.orders)

    monkeypatch.setattr(weyl, "cocycle_numerators", flipped)
    report = verify_ccr(g)
    assert not report.passed
    assert report.max_residual > 0.1


# ---------------------------------------------------------------------------
# stacked cores against the per-point routes


ORACLE_GROUPS = ["Z1", "Z4", "Z1xZ3", "Z2xZ2xZ2", "Z4xZ8"]


@pytest.mark.parametrize("spec", ORACLE_GROUPS + ["Z64"])
def test_apply_points_equals_roll_oracle_bitwise(spec, rng):
    g = parse_group(spec)
    d = g.order
    z = np.arange(d * d)
    vecs = rng.standard_normal((d * d, d)) + 1j * rng.standard_normal((d * d, d))
    stacked = weyl._apply_points(g, z, vecs)
    shared = weyl._apply_points(g, z, vecs[0])
    for i in z.tolist():
        assert np.array_equal(stacked[i], roll_weyl_apply(g, i, vecs[i]))
        assert np.array_equal(shared[i], roll_weyl_apply(g, i, vecs[0]))
        if i % 97 == 0:
            assert np.array_equal(weyl_apply(g, i, vecs[i]), stacked[i])


# the one-row weyl_apply reads the cached character row; it must still equal
# the roll oracle (and so _apply_points) at every point
@pytest.mark.parametrize("spec", ORACLE_GROUPS + ["Z64"])
def test_weyl_apply_equals_roll_oracle_bitwise_at_every_point(spec, rng):
    g = parse_group(spec)
    vec = random_state_vector(g.order, rng)
    for i in range(g.order ** 2):
        assert np.array_equal(weyl_apply(g, i, vec), roll_weyl_apply(g, i, vec))


# the gather shared by _apply_points and verify_ccr against the scatter table
# of _matrix_points, on reduced rows and on unreduced sums of two rows
@pytest.mark.parametrize("spec", ORACLE_GROUPS + ["Z64", "Z6xZ6"])
def test_translation_index_equals_difference_table(spec):
    g = parse_group(spec)
    grid = np.indices(g.orders).reshape(len(g.orders), -1).T
    table = difference_index_table(g)
    assert np.array_equal(weyl._translation_index(g, grid), table)
    shift = np.roll(np.arange(g.order), 1)
    summed = table[(grid + grid[shift]) % np.array(g.orders) @ np.array(g._strides)]
    assert np.array_equal(weyl._translation_index(g, grid + grid[shift]), summed)


@pytest.mark.parametrize("spec", ORACLE_GROUPS)
def test_matrix_points_equals_pointwise_oracle_bitwise(spec):
    g = parse_group(spec)
    z = np.arange(g.order ** 2)
    stacked = weyl._matrix_points(g, z)
    assert stacked.shape == (len(z), g.order, g.order)
    for i in z.tolist():
        assert np.array_equal(stacked[i], pointwise_weyl_matrix(g, i))
        if i % 97 == 0:
            assert np.array_equal(weyl_matrix(g, i), stacked[i])


def test_matrix_points_checks_the_dense_limit_once_per_stack(monkeypatch):
    g = parse_group("Z8")
    monkeypatch.setenv("WEHRL_DENSE_LIMIT", "4")
    with pytest.raises(DenseLimitError, match=r"^\|G\| = 8 exceeds the dense-matrix limit 4$"):
        weyl._matrix_points(g, np.arange(3))
    with pytest.raises(DenseLimitError):
        weyl._matrix_points(g, np.arange(0))


def test_weyl_apply_keeps_its_shape_error():
    g = parse_group("Z4")
    with pytest.raises(ValueError, match=r"^state has shape \(3,\), expected \(4,\)$"):
        weyl_apply(g, parse_point(g, "1;1"), np.ones(3))


# ---------------------------------------------------------------------------
# dense limit


def test_weyl_matrix_dense_limit(monkeypatch):
    g = parse_group("Z8")
    z = parse_point(g, "1;1")
    monkeypatch.setenv("WEHRL_DENSE_LIMIT", "4")
    with pytest.raises(DenseLimitError):
        weyl_matrix(g, z)
    monkeypatch.setenv("WEHRL_DENSE_LIMIT", "8")
    assert weyl_matrix(g, z).shape == (8, 8)


def test_dense_limit_env_override(monkeypatch):
    g = parse_group("Z8")
    z = parse_point(g, "1;1")
    monkeypatch.setenv("WEHRL_DENSE_LIMIT", "4")
    with pytest.raises(DenseLimitError):
        weyl_matrix(g, z)
    monkeypatch.setenv("WEHRL_DENSE_LIMIT", "not-a-number")
    with pytest.raises(ValueError):
        weyl_matrix(g, z)
