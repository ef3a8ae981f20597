import numpy as np
import pytest

from wehrl import (
    CoherentFrame,
    NotVacuumError,
    PhaseSpacePoint,
    Subgroup,
    all_subgroups,
    coset_basis,
    detect_vacuum_subgroup,
    invariant_subspace_dim,
    maximal_compact,
    overlap_matrix,
    parse_group,
    parse_point,
    phase_space,
    random_state_vector,
    resolution_residual,
    subgroup_closure,
    vacuum_vector,
    weyl_apply,
    weyl_matrix,
)
from wehrl.groups import character_table


def sub(group, *gen_coords):
    return subgroup_closure(group, tuple(group.element(c) for c in gen_coords))


# ---------------------------------------------------------------------------
# vacuum vectors


def test_vacuum_vector_frozen():
    g = parse_group("Z2")
    H = sub(g, (1,))
    assert np.allclose(vacuum_vector(H), np.array([1.0, 1.0]) / np.sqrt(2))
    g4 = parse_group("Z4")
    v = vacuum_vector(sub(g4, (2,)))
    assert np.allclose(v, np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2))
    assert np.allclose(vacuum_vector(Subgroup.trivial(g4)), [1, 0, 0, 0])


def test_vacuum_invariance():
    for spec in ("Z4", "Z6", "Z2xZ2", "Z3xZ3"):
        g = parse_group(spec)
        for H in all_subgroups(g):
            v = vacuum_vector(H)
            K = maximal_compact(H)
            for u in K.points:
                assert np.abs(weyl_apply(u, v) - v).max() < 1e-13


def test_invariant_subspace_dim_is_one():
    for spec in ("Z4", "Z6", "Z2xZ2"):
        g = parse_group(spec)
        for H in all_subgroups(g):
            assert invariant_subspace_dim(maximal_compact(H)) == 1


def test_invariant_dim_counter_case():
    # a non-maximal phase-space subgroup leaves more invariant directions:
    # the trivial subgroup fixes everything
    from wehrl import PhaseSpaceSubgroup

    g = parse_group("Z4")
    K_triv = PhaseSpaceSubgroup.trivial(g)
    assert invariant_subspace_dim(K_triv) == g.order


def test_invariant_projector_trace_oracle():
    # independent route: P = |K|^-1 sum W(u) is a projector with
    # Tr P = |G| / |K| = 1, so the fixed space is one-dimensional
    g = parse_group("Z6")
    for H in all_subgroups(g):
        K = maximal_compact(H)
        P = sum(weyl_matrix(u) for u in K.points) / K.order
        assert np.abs(P @ P - P).max() < 1e-12
        assert abs(np.trace(P).real - 1.0) < 1e-12


def test_vacuum_closed_form_matches_nullspace():
    g = parse_group("Z4")
    H = sub(g, (2,))
    K = maximal_compact(H)
    acc = sum(np.eye(g.order, dtype=complex) - weyl_matrix(u) for u in K.points)
    _, s, vh = np.linalg.svd(acc)
    assert s[-1] < 1e-12  # one-dimensional null space
    numeric = vh[-1]
    closed = vacuum_vector(H)
    assert 1.0 - abs(np.vdot(closed, numeric)) < 1e-10


def test_detect_vacuum_subgroup():
    g = parse_group("Z4")
    H = sub(g, (2,))
    v = vacuum_vector(H)
    found = detect_vacuum_subgroup(g, v)
    assert found is not None
    assert found.elements == H.elements
    # a global phase does not matter
    found2 = detect_vacuum_subgroup(g, np.exp(0.7j) * v)
    assert found2 is not None and found2.elements == H.elements
    rng = np.random.default_rng(3)
    assert detect_vacuum_subgroup(g, random_state_vector(4, rng)) is None


# ---------------------------------------------------------------------------
# frames and coherent states


def test_frame_requires_unit_fiducial():
    g = parse_group("Z4")
    with pytest.raises(ValueError):
        CoherentFrame(g, np.array([1.0, 1.0, 0.0, 0.0]))


def test_coherent_state_frozen():
    g = parse_group("Z2")
    frame = CoherentFrame.vacuum(sub(g, (1,)))
    z = parse_point(g, "0;1")
    expected = np.array([1.0, -1.0]) / np.sqrt(2)
    assert np.allclose(frame.state(z), expected, atol=1e-15)


def test_state_matrix_rows_match_states():
    g = parse_group("Z2xZ3")
    frame = CoherentFrame.vacuum(sub(g, (1, 0)))
    S = frame.state_matrix()
    assert S.shape == (g.order ** 2, g.order)
    for z in phase_space(g):
        assert np.abs(S[z.index] - frame.state(z)).max() < 1e-14


def _rolled_state_matrix(frame):
    """One (|G|, |G|) block per translate g, from `np.roll` of the fiducial grid."""
    g = frame.group
    table = character_table(g)
    grid = frame.fiducial.reshape(g.orders)
    axes = tuple(range(len(g.orders)))
    blocks = [
        table * np.roll(grid, x.coords, axis=axes).reshape(g.order)[None, :]
        for x in g.elements()
    ]
    return np.vstack(blocks)


@pytest.mark.parametrize(
    "spec,gens,vacuum",
    [
        ("Z1", (), True),
        ("Z4", ((2,),), True),
        ("Z2xZ2", ((1, 0),), True),
        ("Z4xZ8", ((0, 2), (2, 0)), True),
        ("Z64", ((8,),), True),
        ("Z3xZ1xZ6", (), False),
    ],
)
def test_state_matrix_matches_rolled_blocks_bitwise(spec, gens, vacuum, rng):
    g = parse_group(spec)
    if vacuum:
        frame = CoherentFrame.vacuum(sub(g, *gens))
    else:
        frame = CoherentFrame(g, random_state_vector(g.order, rng))
    got = frame.state_matrix()
    want = _rolled_state_matrix(frame)
    assert got.shape == want.shape == (g.order ** 2, g.order)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_overlap_dichotomy_and_coset_relation():
    for spec in ("Z4", "Z2xZ2", "Z6"):
        g = parse_group(spec)
        for H in all_subgroups(g):
            frame = CoherentFrame.vacuum(H)
            O = overlap_matrix(frame)
            assert np.minimum(np.abs(O), np.abs(O - 1.0)).max() < 1e-12
            K, reps = frame.cosets()
            ids = np.full(frame.point_count, -1)
            for ordinal, rep in enumerate(reps):
                for u in K.points:
                    ids[(rep + u).index] = ordinal
            assert (ids >= 0).all()
            relation = ids[:, None] == ids[None, :]
            assert np.array_equal(O > 0.5, relation)


def test_offcoset_overlap_vanishes_via_cocycle_witness():
    # the mechanism behind the dichotomy: for z outside K some u in K has
    # omega(z, u) != 1, which forces <0|W(z)|0> = 0
    from wehrl import cocycle_phase

    g = parse_group("Z4")
    H = sub(g, (2,))
    frame = CoherentFrame.vacuum(H)
    K, _ = frame.cosets()
    for z in phase_space(g):
        if z in K:
            continue
        witness = [u for u in K.points if cocycle_phase(z, u) != 0]
        assert witness
        assert abs(np.vdot(frame.fiducial, frame.state(z))) < 1e-13


def test_resolution_of_identity_vacuum():
    for spec in ("Z4", "Z6", "Z2xZ2", "Z9"):
        g = parse_group(spec)
        for H in all_subgroups(g):
            assert resolution_residual(CoherentFrame.vacuum(H)) < 1e-11


def test_resolution_of_identity_any_fiducial(rng):
    # irreducibility makes the frame tight for every unit fiducial
    for spec in ("Z4", "Z3xZ3"):
        g = parse_group(spec)
        for _ in range(5):
            frame = CoherentFrame(g, random_state_vector(g.order, rng))
            assert resolution_residual(frame) < 1e-11


# ---------------------------------------------------------------------------
# coset bases


def test_coset_basis_frozen():
    g = parse_group("Z2")
    frame = CoherentFrame.vacuum(Subgroup.trivial(g))
    basis = coset_basis(frame)
    # H = {0}: the coherent family is the full monomial family; one coset
    # per basis direction
    assert len(basis.representatives) == 2
    mods = np.abs(basis.vectors)
    assert np.allclose(mods, np.eye(2), atol=1e-15)


def test_coset_basis_gram_identity():
    for spec in ("Z4", "Z6", "Z2xZ2"):
        g = parse_group(spec)
        for H in all_subgroups(g):
            basis = coset_basis(CoherentFrame.vacuum(H))
            n = len(basis.representatives)
            assert n == g.order  # |F|/|K| cosets, one per dimension
            gram = basis.vectors.conj() @ basis.vectors.T
            assert np.abs(gram - np.eye(n)).max() < 1e-12


@pytest.mark.parametrize(
    "spec, gens", [("Z64", None), ("Z4xZ8", ((0, 2), (2, 0))), ("Z6xZ6", None), ("Z1", None)]
)
def test_coset_basis_equals_one_state_per_representative_bitwise(spec, gens):
    g = parse_group(spec)
    H = Subgroup.whole(g) if gens is None else sub(g, *gens)
    frame = CoherentFrame.vacuum(H)
    basis = coset_basis(frame)
    _, reps = frame.cosets()
    assert basis.representatives == reps
    assert np.array_equal(basis.vectors, np.stack([frame.state(z) for z in reps]))


def test_invariance_defect_equals_the_pointwise_sum_bitwise():
    from wehrl.frames import _invariance_defect

    for spec in ("Z4", "Z2xZ2xZ2", "Z6"):
        g = parse_group(spec)
        for H in all_subgroups(g):
            K = maximal_compact(H)
            want = np.zeros((g.order, g.order), dtype=np.complex128)
            for u in K.points:
                want += np.eye(g.order) - weyl_matrix(u)
            assert np.array_equal(_invariance_defect(K), want)


def test_coset_basis_requires_vacuum(rng):
    g = parse_group("Z4")
    frame = CoherentFrame(g, random_state_vector(4, rng))
    with pytest.raises(NotVacuumError, match="not a vacuum frame"):
        coset_basis(frame)


def test_vacuum_subgroup_accessor(rng):
    g = parse_group("Z4")
    H = sub(g, (2,))
    assert CoherentFrame.vacuum(H).vacuum_subgroup().elements == H.elements
    # detection also works when the frame was built from a raw vector
    frame = CoherentFrame(g, vacuum_vector(H))
    assert frame.vacuum_subgroup().elements == H.elements
    with pytest.raises(NotVacuumError):
        CoherentFrame(g, random_state_vector(4, rng)).vacuum_subgroup()
