import numpy as np
import pytest

from wehrl import (
    CoherentFrame,
    PhaseSpaceSubgroup,
    Subgroup,
    all_subgroups,
    coset_basis,
    invariant_subspace_dim,
    maximal_compact,
    overlap_matrix,
    parse_group,
    parse_point,
    random_state_vector,
    resolution_residual,
    subgroup_closure,
    vacuum_vector,
    weyl_apply,
    weyl_matrix,
)
from wehrl.frames import STABILISER_TOL
from wehrl.groups import character_table
from wehrl.weyl import cocycle_phase

from phase_oracle import elements, index, point_add
from stabiliser_frames import chirp_frames


def sub(group, *gen_coords):
    return subgroup_closure(group, tuple(index(group, c) for c in gen_coords))


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
            for u in K.indices.tolist():
                assert np.abs(weyl_apply(g, u, v) - v).max() < 1e-13


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
        P = sum(weyl_matrix(g, u) for u in K.indices.tolist()) / K.order
        assert np.abs(P @ P - P).max() < 1e-12
        assert abs(np.trace(P).real - 1.0) < 1e-12


def test_vacuum_closed_form_matches_nullspace():
    g = parse_group("Z4")
    H = sub(g, (2,))
    K = maximal_compact(H)
    acc = sum(np.eye(g.order, dtype=complex) - weyl_matrix(g, u) for u in K.indices.tolist())
    _, s, vh = np.linalg.svd(acc)
    assert s[-1] < 1e-12  # one-dimensional null space
    numeric = vh[-1]
    closed = vacuum_vector(H)
    assert 1.0 - abs(np.vdot(closed, numeric)) < 1e-10


def test_detect_vacuum_subgroup():
    # a bare vacuum vector, at any global phase and at the edge of the unit
    # norm check, is stabilised by K = H x A(H)
    g = parse_group("Z4")
    H = sub(g, (2,))
    v = vacuum_vector(H)
    for fiducial in (v, np.exp(0.7j) * v, (1 - 9e-13) * v):
        frame = CoherentFrame(g, fiducial)
        assert frame.subgroup is None
        assert frame.stabiliser == maximal_compact(H) and frame.lagrangian
    rng = np.random.default_rng(3)
    # 1e-5 from the vacuum, |<phi|W(u) phi>| misses 1 by about 1e-10 on K:
    # not stabilised, so the minimiser does not treat it as a vacuum
    for fiducial in (random_state_vector(4, rng), v + 1e-5 * random_state_vector(4, rng)):
        frame = CoherentFrame(g, fiducial / np.linalg.norm(fiducial))
        assert frame.stabiliser == PhaseSpaceSubgroup.trivial(g) and not frame.lagrangian


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
    for z in range(frame.point_count):
        assert np.abs(S[z] - frame.state(z)).max() < 1e-14


def _rolled_state_matrix(frame):
    """One (|G|, |G|) block per translate g, from `np.roll` of the fiducial grid."""
    g = frame.group
    table = character_table(g)
    grid = frame.fiducial.reshape(g.orders)
    axes = tuple(range(len(g.orders)))
    blocks = [
        table * np.roll(grid, x, axis=axes).reshape(g.order)[None, :]
        for x in elements(g)
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
            for ordinal, rep in enumerate(reps.tolist()):
                for u in K.indices.tolist():
                    ids[point_add(g, rep, u)] = ordinal
            assert (ids >= 0).all()
            relation = ids[:, None] == ids[None, :]
            assert np.array_equal(O > 0.5, relation)


def test_offcoset_overlap_vanishes_via_cocycle_witness():
    # the mechanism behind the dichotomy: for z outside K some u in K has
    # omega(z, u) != 1, which forces <0|W(z)|0> = 0
    g = parse_group("Z4")
    H = sub(g, (2,))
    frame = CoherentFrame.vacuum(H)
    K, _ = frame.cosets()
    for z in range(frame.point_count):
        if z in K:
            continue
        witness = [u for u in K.indices.tolist() if cocycle_phase(g, z, u) != 0]
        assert witness
        assert abs(np.vdot(frame.fiducial, frame.state(z))) < 1e-13


def test_resolution_of_identity_vacuum():
    for spec in ("Z4", "Z6", "Z2xZ2", "Z9"):
        g = parse_group(spec)
        for H in all_subgroups(g):
            assert resolution_residual(CoherentFrame.vacuum(H)) < 1e-11
    # |F| = 4096 at |G| = 64: the frame states are summed over 16 blocks of rows
    for H in all_subgroups(parse_group("Z2xZ2xZ2xZ2xZ2xZ2"))[::100]:
        assert resolution_residual(CoherentFrame.vacuum(H)) < 1e-11


def test_resolution_of_identity_any_fiducial(rng):
    # irreducibility makes the frame tight for every unit fiducial; Z12xZ10
    # (|F| = 14400) lies above the state-matrix cap
    for spec in ("Z4", "Z3xZ3", "Z12xZ10"):
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
    frames = [CoherentFrame.vacuum(H) for spec in ("Z4", "Z6", "Z2xZ2")
              for H in all_subgroups(parse_group(spec))]
    for frame in frames + chirp_frames():
        basis = coset_basis(frame)
        n = len(basis.representatives)
        assert n == frame.group.order  # |F|/|S| cosets, one per dimension
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
    assert basis.representatives is reps and not reps.flags.writeable
    assert np.array_equal(basis.vectors, np.stack([frame.state(z) for z in reps]))


def test_invariance_defect_equals_the_pointwise_sum_bitwise():
    from wehrl.frames import _invariance_defect

    for spec in ("Z4", "Z2xZ2xZ2", "Z6"):
        g = parse_group(spec)
        for H in all_subgroups(g):
            K = maximal_compact(H)
            want = np.zeros((g.order, g.order), dtype=np.complex128)
            for u in K.indices.tolist():
                want += np.eye(g.order) - weyl_matrix(g, u)
            assert np.array_equal(_invariance_defect(K), want)


def half_period_fiducial(rng):
    """(a, b, a, b) on Z4 with |a| != |b|: stabilised by {0, (2, 0)} alone, not Lagrangian."""
    a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v = np.array([a, 2 * b, a, 2 * b])
    return v / np.linalg.norm(v)


def test_coset_basis_requires_a_lagrangian_frame(rng):
    g = parse_group("Z4")
    for fiducial in (random_state_vector(4, rng), half_period_fiducial(rng)):
        with pytest.raises(ValueError, match=r"not a Lagrangian \(stabiliser\) frame: \|S\| = [12],"):
            coset_basis(CoherentFrame(g, fiducial))


def test_stabiliser_accessor(rng, monkeypatch):
    import wehrl.frames

    built = []
    exact = wehrl.frames.maximal_compact
    monkeypatch.setattr(wehrl.frames, "maximal_compact", lambda H: built.append(H) or exact(H))
    g = parse_group("Z4")
    H = sub(g, (2,))
    frame = CoherentFrame.vacuum(H)
    assert frame.subgroup is H and built == []  # the closed form waits for first use
    K = frame.stabiliser
    assert built == [H] and K.subgroup is H and K.dual_part is not None
    assert frame.stabiliser is K and frame.cosets()[0] is K and built == [H]
    # a stabiliser read off the ambiguity function: a proper, non-Lagrangian one
    frame = CoherentFrame(g, half_period_fiducial(rng))
    assert frame.stabiliser.indices.tolist() == [0, 2 * g.order] and not frame.lagrangian
    S, reps = frame.cosets()
    assert S is frame.stabiliser and len(reps) == g.order ** 2 // 2
    # Fourier weight p on one mode: 1 - |<phi|W(g, 0) phi>| is about p at
    # g = 1, 3 and 2p at g = 2, so the points within the tolerance, 0, (1, 0)
    # and (3, 0), are no subgroup, and phi counts as stabilised by 0 alone
    p = 0.7 * STABILISER_TOL
    modes = np.exp(0.5j * np.pi * np.outer([0, 1], np.arange(4))) / 2
    frame = CoherentFrame(g, np.sqrt([1 - p, p]) @ modes)
    assert frame.stabiliser == PhaseSpaceSubgroup.trivial(g)
