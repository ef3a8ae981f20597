import math

import numpy as np
import pytest

from wehrl import (
    CoherentFrame,
    all_subgroups,
    entropy_report,
    group_dft,
    husimi,
    husimi_coset_spread,
    husimi_fast,
    husimi_marginal,
    maximally_mixed,
    measurement_channel,
    parse_group,
    parse_point,
    partial_trace,
    product_frame,
    pure_amplitudes,
    pure_density,
    pure_state_entropy,
    random_density_matrix,
    random_state_vector,
    subgroup_closure,
    von_neumann_entropy,
    wehrl_entropy,
    wehrl_entropy_coset,
    weyl_matrix,
)
from wehrl import entropy, groups, limits
from wehrl.verify import suite_pairs
from density_oracle import channel_by_state_matrix, husimi_by_state_matrix, state_matrix
from phase_oracle import index, point_add, point_neg
from stabiliser_frames import chirp_frames
from state_helpers import basis_state


def sub(group, *gen_coords):
    return subgroup_closure(group, tuple(index(group, c) for c in gen_coords))


def vacuum_frame(spec, *gen_coords):
    g = parse_group(spec)
    return CoherentFrame.vacuum(sub(g, *gen_coords))


# ---------------------------------------------------------------------------
# Husimi tables


def test_pure_amplitudes_are_coherent_overlaps(rng):
    frame = vacuum_frame("Z2xZ3", (1, 0))
    psi = random_state_vector(6, rng)
    amps = pure_amplitudes(frame, psi)
    for z in range(frame.point_count):
        assert abs(amps[z] - np.vdot(frame.state(z), psi)) < 1e-12


def test_husimi_flat_state():
    frame = vacuum_frame("Z4", (2,))
    d = 4
    table = husimi(frame, np.eye(d) / d)
    assert np.abs(table.values - 1.0 / d).max() < 1e-13
    assert abs(table.mass() - 1.0) < 1e-12
    assert table.haar_weight == pytest.approx(1.0 / d)


def test_husimi_coherent_projector_is_indicator():
    frame = vacuum_frame("Z4", (2,))
    z0 = parse_point(frame.group, "1;1")
    rho = pure_density(frame.state(z0))
    table = husimi(frame, rho)
    K, _ = frame.cosets()
    g = frame.group
    expected = np.array(
        [1.0 if point_add(g, z, point_neg(g, z0)) in K else 0.0 for z in range(frame.point_count)]
    )
    assert np.abs(table.values - expected).max() < 1e-12
    assert abs(table.mass() - 1.0) < 1e-12


def test_husimi_basis_state_frozen():
    # H = Z2 on Z2: |<z|delta_0>|^2 = 1/2 everywhere
    frame = vacuum_frame("Z2", (1,))
    table = husimi(frame, pure_density(basis_state(2, 0)))
    assert np.abs(table.values - 0.5).max() < 1e-13


def test_husimi_fast_matches_dense(rng):
    for spec, gens in (("Z4", ((2,),)), ("Z2xZ3", ((1, 1),)), ("Z9", ())):
        g = parse_group(spec)
        frame = CoherentFrame.vacuum(sub(g, *gens))
        for _ in range(10):
            psi = random_state_vector(g.order, rng)
            dense = husimi_by_state_matrix(frame, pure_density(psi))
            fast = husimi_fast(frame, psi).values
            assert np.abs(dense - fast).max() < 1e-11
            assert np.abs(husimi(frame, pure_density(psi)).values - fast).max() < 1e-13


def test_husimi_nonnegative_and_bounded(rng):
    frame = vacuum_frame("Z6", (3,))
    for _ in range(25):
        rho = random_density_matrix(6, rng)
        q = husimi(frame, rho).values
        assert q.min() > -1e-12
        assert q.max() < 1.0 + 1e-12


# ---------------------------------------------------------------------------
# Wehrl entropy


def test_wehrl_flat_equals_log_dim():
    for spec in ("Z4", "Z2xZ2", "Z6"):
        frame = vacuum_frame(spec)
        d = frame.group.order
        table = husimi(frame, np.eye(d) / d)
        assert abs(wehrl_entropy(table) - math.log(d)) < 1e-10
        report = entropy_report(frame, np.eye(d) / d, log_base="2")
        assert abs(report.wehrl - math.log2(d)) < 1e-10


def test_wehrl_zero_on_coherent_states():
    frame = vacuum_frame("Z4", (2,))
    for z in range(frame.point_count):
        rho = pure_density(frame.state(z))
        assert wehrl_entropy(husimi(frame, rho)) <= 1e-12
        assert pure_state_entropy(frame, frame.state(z)) <= 1e-12
    # the theorem's other frames: a Lagrangian stabiliser, and S^W(phi) = 0
    for frame in chirp_frames():
        assert frame.stabiliser.order == frame.group.order
        assert pure_state_entropy(frame, frame.fiducial) <= 1e-15


def test_wehrl_basis_state_frozen():
    frame = vacuum_frame("Z2", (1,))
    s = pure_state_entropy(frame, basis_state(2, 0))
    assert abs(s - math.log(2)) < 1e-12  # Q = 1/2 flat over |F| = 4


def test_wehrl_log_base_validation():
    frame = vacuum_frame("Z2", (1,))
    with pytest.raises(ValueError, match="log_base must be 'e' or '2'"):
        entropy_report(frame, np.eye(2) / 2, log_base="10")


def test_coset_formula_matches_full_sum(rng):
    frames = [CoherentFrame.vacuum(H) for spec in ("Z4", "Z6", "Z2xZ2")
              for H in all_subgroups(parse_group(spec))]
    for frame in frames + chirp_frames():
        for _ in range(5):
            rho = random_density_matrix(frame.group.order, rng)
            full = wehrl_entropy(husimi(frame, rho))
            fast = wehrl_entropy_coset(frame, rho)
            assert abs(full - fast) < 1e-10


def test_coset_formula_log_base(rng):
    frame = vacuum_frame("Z4", (2,))
    rho = random_density_matrix(4, rng)
    bits = entropy_report(frame, rho, log_base="2").wehrl
    assert abs(wehrl_entropy_coset(frame, rho) / math.log(2) - bits) < 1e-10


def test_coset_formula_requires_a_lagrangian_frame(rng):
    g = parse_group("Z4")
    frame = CoherentFrame(g, random_state_vector(4, rng))
    with pytest.raises(ValueError, match=r"not a Lagrangian \(stabiliser\) frame: \|S\| = 1,"):
        wehrl_entropy_coset(frame, random_density_matrix(4, rng))


def test_husimi_coset_spread(rng):
    frame = vacuum_frame("Z6", (2,))
    rho = random_density_matrix(6, rng)
    assert husimi_coset_spread(husimi(frame, rho)) < 1e-12
    # Q is constant on the cosets of any frame's stabiliser: on a generic
    # fiducial the stabiliser is trivial and every coset one point
    generic = CoherentFrame(frame.group, random_state_vector(6, rng))
    assert generic.stabiliser.order == 1
    assert husimi_coset_spread(husimi(generic, rho)) == 0.0
    # and on a proper stabiliser that is not Lagrangian, |S| = 3 points each
    v = np.tile(random_state_vector(2, rng), 3) / np.sqrt(3)
    periodic = CoherentFrame(frame.group, v)
    assert periodic.stabiliser.order == 3 and not periodic.lagrangian
    assert husimi_coset_spread(husimi(periodic, rho)) < 1e-12


# ---------------------------------------------------------------------------
# the transform route against the state-matrix oracle


def _oracle_frames():
    """(id, frame): the 53 suite vacua, the chirp set, Z64's vacuum of <8>, and
    random fiducials on both sides of group_dft's kernel rule."""
    cases = [(f"{g}|{H}", CoherentFrame.vacuum(H)) for g, H in suite_pairs()]
    cases += [(f"chirp:{frame.group}", frame) for frame in chirp_frames()]
    cases.append(("Z64|<8>", vacuum_frame("Z64", (8,))))
    for i, spec in enumerate(("Z1", "Z5", "Z3xZ5", "Z6xZ6", "Z64", "Z2xZ2xZ2xZ2xZ2xZ2")):
        g = parse_group(spec)
        fiducial = random_state_vector(g.order, np.random.default_rng([17, i]))
        cases.append((f"{spec}|random", CoherentFrame(g, fiducial)))
    return cases


ORACLE_FRAMES = _oracle_frames()


@pytest.mark.parametrize("name, frame", ORACLE_FRAMES, ids=[name for name, _ in ORACLE_FRAMES])
def test_husimi_and_channel_match_the_state_matrix_oracle(name, frame, rng):
    d = frame.group.order
    if name.endswith("|random") and d > 1:
        assert not frame.lagrangian
    states = state_matrix(frame)
    rhos = np.stack([
        random_density_matrix(d, rng),
        pure_density(random_state_vector(d, rng)),
        pure_density(frame.fiducial),
        maximally_mixed(d),
    ])
    for rho in (rhos[0], rhos[1], rhos):  # one state and a stack
        q = husimi(frame, rho).values
        assert q.shape == rho.shape[:-2] + (d * d,)
        assert np.abs(q - husimi_by_state_matrix(frame, rho, states)).max() <= 1e-13
        out = measurement_channel(frame, rho)
        assert out.shape == rho.shape
        assert np.abs(out - channel_by_state_matrix(frame, rho, states)).max() <= 1e-13


def test_husimi_and_channel_build_no_state_matrix(monkeypatch, rng):
    def refuse(self):
        raise AssertionError("the (|F|, |G|) state matrix was built")

    monkeypatch.setattr(CoherentFrame, "state_matrix", refuse)
    g = parse_group("Z6xZ6")
    for frame in (vacuum_frame("Z6xZ6", (2, 3)), CoherentFrame(g, random_state_vector(36, rng))):
        rho = random_density_matrix(36, rng)
        assert husimi(frame, rho).values.shape == (36 * 36,)
        assert measurement_channel(frame, rho).shape == (36, 36)
        entropy_report(frame, rho)
        husimi(frame, np.stack([rho, maximally_mixed(36)]))


def test_ambiguity_table_is_the_ambiguity_function_at_the_negated_point(rng):
    for frame in chirp_frames()[:4] + [CoherentFrame(parse_group("Z3xZ5"), random_state_vector(15, rng))]:
        group = frame.group
        d = group.order
        amplitudes = pure_amplitudes(frame, frame.fiducial)
        table = frame.ambiguity_table
        assert table.shape == (d, d) and not table.flags.writeable
        for z in range(d * d):
            assert table.reshape(-1)[z] == amplitudes[point_neg(group, z)]


# ---------------------------------------------------------------------------
# one state or a stack


@pytest.mark.parametrize(
    "spec, gens",
    [("Z1", ()), ("Z4", ((2,),)), ("Z6", ()), ("Z3xZ3", ((1, 1),)), ("Z2xZ2xZ2", ((1, 0, 0),))],
)
def test_stack_matches_loop_of_single_states(spec, gens, rng):
    frame = vacuum_frame(spec, *gens)
    d = frame.group.order
    rhos = np.stack([random_density_matrix(d, rng) for _ in range(6)])
    rhos[0] = pure_density(frame.fiducial)  # a coherent state: Q has exact zeros
    table = husimi(frame, rhos)
    singles = [husimi(frame, rho) for rho in rhos]
    assert np.array_equal(table.values, np.stack([t.values for t in singles]))
    pairs = [
        (table.mass(), [t.mass() for t in singles]),
        (wehrl_entropy(table), [wehrl_entropy(t) for t in singles]),
        (husimi_coset_spread(table), [husimi_coset_spread(t) for t in singles]),
        (wehrl_entropy_coset(frame, rhos), [wehrl_entropy_coset(frame, r) for r in rhos]),
        (von_neumann_entropy(rhos), [von_neumann_entropy(r) for r in rhos]),
        (measurement_channel(frame, rhos), [measurement_channel(frame, r) for r in rhos]),
    ]
    for stacked, loop in pairs:
        assert np.array_equal(stacked, np.stack(loop))
    # one state keeps returning Python floats
    for _, loop in pairs[:-1]:
        assert all(type(x) is float for x in loop)
    # any number of leading axes
    grid = husimi(frame, rhos.reshape(2, 3, d, d))
    assert np.array_equal(grid.values, table.values.reshape(2, 3, d * d))
    assert np.array_equal(wehrl_entropy(grid), wehrl_entropy(table).reshape(2, 3))


@pytest.mark.parametrize("dims", [(2, 2), (4, 2), (2, 3)])
def test_product_stack_matches_loop_of_single_states(dims, rng):
    d1, d2 = dims
    f12 = product_frame(vacuum_frame(f"Z{d1}"), vacuum_frame(f"Z{d2}", (1,)))
    rhos = np.stack([random_density_matrix(d1 * d2, rng) for _ in range(5)])
    table = husimi(f12, rhos)
    for trace_out in (1, 2):
        assert np.array_equal(
            partial_trace(rhos, dims, trace_out=trace_out),
            np.stack([partial_trace(r, dims, trace_out=trace_out) for r in rhos]),
        )
    assert np.array_equal(
        husimi_marginal(table, dims),
        np.stack([husimi_marginal(husimi(f12, r), dims) for r in rhos]),
    )


# the pure-state paths on one state or a stack (both group_dft kernels:
# Z9, Z4xZ8 and Z2^6 multiply by the character table, Z64 and Z16xZ16 use fftn)


@pytest.mark.parametrize(
    "spec, gens",
    [("Z1", ()), ("Z9", ((3,),)), ("Z4xZ8", ((2, 0),)), ("Z64", ()), ("Z2xZ2xZ2xZ2xZ2xZ2", ()),
     ("Z16xZ16", ())],
)
def test_pure_state_stack_matches_loop_of_single_states(spec, gens, rng):
    frame = vacuum_frame(spec, *gens)
    d = frame.group.order
    psis = np.stack([random_state_vector(d, rng) for _ in range(5)])
    psis[0] = frame.fiducial  # a coherent state: Q has exact zeros
    for fn in (pure_amplitudes, pure_state_entropy):
        assert np.array_equal(fn(frame, psis), np.stack([fn(frame, psi) for psi in psis]))
    assert type(pure_state_entropy(frame, psis[1])) is float
    assert np.array_equal(
        husimi_fast(frame, psis).values, np.stack([husimi_fast(frame, p).values for p in psis])
    )
    grid = pure_amplitudes(frame, psis[1:].reshape(2, 2, d))
    assert np.array_equal(grid, pure_amplitudes(frame, psis[1:]).reshape(2, 2, d * d))


# ---------------------------------------------------------------------------
# the group transform


def _character_sum(orders, x, inverse):
    """sum_h conj(chi_a(h)) x[h] (or sum_a chi_a(h) x[a]) with float phases."""
    coords = np.indices(orders).reshape(len(orders), -1).T
    phase = sum(np.outer(coords[:, j], coords[:, j]) / n for j, n in enumerate(orders))
    table = np.exp(2j * np.pi * phase)  # symmetric: [a, h] = chi_a(h)
    return x @ (table if inverse else table.conj())


@pytest.mark.parametrize(
    "spec", ["Z1", "Z2", "Z9", "Z4xZ8", "Z64", "Z8xZ8", "Z2xZ2xZ2xZ2xZ2xZ2", "Z16xZ16"]
)
@pytest.mark.parametrize("kernel", ["gemm", "fftn"])
def test_group_dft_matches_character_sum(spec, kernel, monkeypatch, rng):
    # the rule picks GEMM when |G| <= GEMM_ORDER_PER_FACTOR * k; move the
    # threshold to force each kernel on every group
    monkeypatch.setattr(limits, "GEMM_ORDER_PER_FACTOR", 10**6 if kernel == "gemm" else 0)
    g = parse_group(spec)
    x = rng.standard_normal((3, g.order)) + 1j * rng.standard_normal((3, g.order))
    for inverse in (False, True):
        expected = _character_sum(g.orders, x, inverse)
        got = group_dft(g, x, inverse=inverse)
        assert got.shape == x.shape
        assert np.abs(got - expected).max() < 1e-10


# ---------------------------------------------------------------------------
# von Neumann entropy and the report


def test_von_neumann_frozen():
    assert von_neumann_entropy(np.diag([0.5, 0.5, 0.0, 0.0])) == pytest.approx(
        math.log(2), abs=1e-12
    )
    assert von_neumann_entropy(maximally_mixed(4)) == pytest.approx(
        math.log(4), abs=1e-12
    )
    assert von_neumann_entropy(pure_density(basis_state(3, 1))) == pytest.approx(
        0.0, abs=1e-12
    )


def test_von_neumann_diagonalises_once(rng, monkeypatch):
    rhos = np.stack([random_density_matrix(5, rng) for _ in range(3)])
    eig = np.linalg.eigvalsh(rhos)
    want = -(eig * np.log(np.where(eig > 1e-12, eig, 1.0))).sum(axis=-1)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    got = von_neumann_entropy(rhos)
    assert calls == [(3, 5, 5)]
    assert np.array_equal(got, want)
    assert von_neumann_entropy(rhos[1]) == want[1]
    bad = np.diag([1.5, -0.5 + 1e-11, 0.0]).astype(complex)
    with pytest.raises(ValueError, match=r"positive semidefinite \(min eigenvalue -0\.49"):
        von_neumann_entropy(bad)
    von_neumann_entropy(np.diag([1.0 + 5e-11, -5e-11, 0.0]))  # within the eigenvalue tolerance 1e-10
    with pytest.raises(ValueError, match="not Hermitian"):
        von_neumann_entropy(np.array([[0.5, 1e-11], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        von_neumann_entropy(np.diag([0.5, 0.5 + 1e-9]))


def test_wehrl_dominates_von_neumann(rng):
    frame = vacuum_frame("Z6", (3,))
    for _ in range(50):
        rho = random_density_matrix(6, rng)
        report = entropy_report(frame, rho)
        assert report.gap >= -1e-9
        assert report.gap == pytest.approx(report.wehrl - report.von_neumann)
        assert report.log_base == "e"


def test_entropy_report_validates_once_and_matches_both_routes(rng, monkeypatch):
    frame = vacuum_frame("Z6", (3,))
    rhos = np.stack([random_density_matrix(6, rng) for _ in range(3)])
    bad = [
        np.diag([1.5, -0.5 + 1e-11, 0, 0, 0, 0]),  # not PSD
        np.diag([0.5, 0.5 + 1e-9, 0, 0, 0, 0]),  # trace
        np.eye(4) / 4,  # dimension
        np.full((6, 6), np.nan),
    ]
    messages = []
    for rho in bad:
        with pytest.raises(ValueError) as exc:
            husimi(frame, rho)
        messages.append(str(exc.value))
    bits = math.log(2)
    want = [
        (wehrl_entropy(husimi(frame, r)) / bits, von_neumann_entropy(r) / bits)
        for r in (rhos, rhos[1])
    ]
    seen = {"eigvalsh": [], "cholesky": []}
    for name, shapes in seen.items():
        real = getattr(np.linalg, name)

        def counting(a, *args, _real=real, _shapes=shapes, **kwargs):
            _shapes.append(np.shape(a))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    reports = [entropy_report(frame, r, log_base="2") for r in (rhos, rhos[1])]
    assert seen == {"eigvalsh": [(3, 6, 6), (6, 6)], "cholesky": []}
    for report, (w, s) in zip(reports, want):
        assert np.array_equal(report.wehrl, w) and np.array_equal(report.von_neumann, s)
        assert np.array_equal(report.gap, w - s)
    assert isinstance(reports[1].wehrl, float)
    for rho, message in zip(bad, messages):
        with pytest.raises(ValueError) as exc:
            entropy_report(frame, rho)
        assert str(exc.value) == message


def test_entropy_report_flat():
    frame = vacuum_frame("Z4", (2,))
    report = entropy_report(frame, maximally_mixed(4), log_base="2")
    assert report.wehrl == pytest.approx(2.0, abs=1e-10)
    assert report.von_neumann == pytest.approx(2.0, abs=1e-10)
    assert abs(report.gap) < 1e-10


# ---------------------------------------------------------------------------
# measurement channel


def test_channel_preserves_trace_and_positivity(rng):
    frame = vacuum_frame("Z4", (2,))
    for _ in range(20):
        rho = random_density_matrix(4, rng)
        out = measurement_channel(frame, rho)
        assert abs(np.trace(out).real - 1.0) < 1e-10
        assert np.abs(out - out.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(out).min() > -1e-10


def test_channel_fixed_points():
    frame = vacuum_frame("Z4", (2,))
    flat = maximally_mixed(4)
    assert np.abs(measurement_channel(frame, flat) - flat).max() < 1e-12
    z = parse_point(frame.group, "1;3")
    proj = pure_density(frame.state(z))
    assert np.abs(measurement_channel(frame, proj) - proj).max() < 1e-11


def test_channel_never_decreases_von_neumann(rng):
    # the channel is unital and trace preserving, hence doubly stochastic
    frame = vacuum_frame("Z6", (2,))
    for _ in range(20):
        rho = random_density_matrix(6, rng)
        assert von_neumann_entropy(measurement_channel(frame, rho)) >= (
            von_neumann_entropy(rho) - 1e-10
        )


def _kernel_frames():
    """(id, frame): every vacuum frame of nine small groups, and three random
    fiducials per group."""
    cases = []
    for i, spec in enumerate(("Z2", "Z3", "Z4", "Z6", "Z2xZ2", "Z3xZ3", "Z4xZ2", "Z2xZ2xZ2", "Z9")):
        g = parse_group(spec)
        cases += [(f"{g}|{H}", CoherentFrame.vacuum(H)) for H in all_subgroups(g)]
        for j in range(3):
            fiducial = random_state_vector(g.order, np.random.default_rng([23, i, j]))
            cases.append((f"{spec}|random{j}", CoherentFrame(g, fiducial)))
    return cases


KERNEL_FRAMES = _kernel_frames()


# the channel is Weyl covariant: it multiplies the characteristic function
# tr(W(z)^dagger rho) by |<phi|W(z) phi>|^2, here with dense W(z) as the
# independent route
@pytest.mark.parametrize("name, frame", KERNEL_FRAMES, ids=[name for name, _ in KERNEL_FRAMES])
def test_channel_multiplies_the_characteristic_function(name, frame, rng):
    g = frame.group
    d = g.order
    weyls = np.stack([weyl_matrix(g, z) for z in range(d * d)])
    ambiguity = np.einsum("h,zhk,k->z", frame.fiducial.conj(), weyls, frame.fiducial)
    rhos = np.stack([random_density_matrix(d, rng), pure_density(random_state_vector(d, rng))])
    out = measurement_channel(frame, rhos)
    before = np.einsum("zkh,nkh->nz", weyls.conj(), rhos)  # tr(W(z)^dagger rho)
    after = np.einsum("zkh,nkh->nz", weyls.conj(), out)
    assert np.abs(after - np.abs(ambiguity) ** 2 * before).max() <= 1e-13


# on a Lagrangian frame |<phi|W(z) phi>|^2 is the indicator of the stabiliser,
# so the channel is a projection; on a random fiducial it is not
@pytest.mark.parametrize("name, frame", KERNEL_FRAMES, ids=[name for name, _ in KERNEL_FRAMES])
def test_channel_is_idempotent_exactly_on_lagrangian_frames(name, frame, rng):
    rhos = np.stack([random_density_matrix(frame.group.order, rng) for _ in range(3)])
    once = measurement_channel(frame, rhos)
    defect = np.abs(measurement_channel(frame, once) - once).max()
    if frame.lagrangian:
        assert defect <= 1e-13
    else:
        assert defect > 1e-6


# the per-group transform caches hold every group of the minimize workload
# (the 10 suite groups and four of order 64): a second pass misses none
def test_transform_caches_hold_the_minimize_workload_groups():
    specs = ("Z2", "Z3", "Z4", "Z6", "Z8", "Z2xZ2", "Z4xZ2", "Z3xZ3", "Z9", "Z2xZ2xZ2",
             "Z64", "Z8xZ8", "Z4xZ4xZ4", "Z2xZ2xZ2xZ2xZ2xZ2")
    cached = (groups.difference_index_table, groups._dft_matrix, entropy._diagonal_index)

    def one_pass():
        for spec in specs:
            g = parse_group(spec)
            groups.difference_index_table(g)
            entropy._diagonal_index(g)
            x = np.zeros(g.order, dtype=np.complex128)
            group_dft(g, group_dft(g, x), inverse=True)
        return [f.cache_info().misses for f in cached]

    warm = one_pass()
    assert one_pass() == warm


# ---------------------------------------------------------------------------
# product structure


def test_tensor_partial_trace_round_trip(rng):
    r1 = random_density_matrix(2, rng)
    r2 = random_density_matrix(3, rng)
    r12 = np.kron(r1, r2)
    assert np.abs(partial_trace(r12, (2, 3), trace_out=2) - r1).max() < 1e-12
    assert np.abs(partial_trace(r12, (2, 3), trace_out=1) - r2).max() < 1e-12


def test_product_frame_fiducial_and_subgroup():
    f1 = vacuum_frame("Z2", (1,))
    f2 = vacuum_frame("Z2")
    f12 = product_frame(f1, f2)
    assert str(f12.group) == "Z2xZ2"
    assert np.allclose(f12.fiducial, np.kron(f1.fiducial, f2.fiducial))
    # the product's stabiliser is read off its own ambiguity function: K1 x K2
    assert f12.subgroup is None and f12.lagrangian
    K1, K2 = f1.stabiliser, f2.stabiliser
    g1, a1 = np.divmod(K1.indices, 2)
    g2, a2 = np.divmod(K2.indices, 2)
    # (g1, g2; a1, a2) has index (2 g1 + g2) * 4 + 2 a1 + a2
    product = ((2 * g1[:, None] + g2) * 4 + 2 * a1[:, None] + a2).ravel()
    assert np.array_equal(f12.stabiliser.indices, np.sort(product))


def test_husimi_factorises_on_product_states(rng):
    f1 = vacuum_frame("Z2", (1,))
    f2 = vacuum_frame("Z3")
    f12 = product_frame(f1, f2)
    r1 = random_density_matrix(2, rng)
    r2 = random_density_matrix(3, rng)
    q12 = husimi(f12, np.kron(r1, r2)).values.reshape(2, 3, 2, 3)
    q1 = husimi(f1, r1).values.reshape(2, 2)
    q2 = husimi(f2, r2).values.reshape(3, 3)
    assert np.abs(q12 - np.einsum("ik,jl->ijkl", q1, q2)).max() < 1e-12


def test_wehrl_additive_on_product_states(rng):
    f1 = vacuum_frame("Z2", (1,))
    f2 = vacuum_frame("Z3")
    f12 = product_frame(f1, f2)
    r1 = random_density_matrix(2, rng)
    r2 = random_density_matrix(3, rng)
    s12 = wehrl_entropy(husimi(f12, np.kron(r1, r2)))
    s1 = wehrl_entropy(husimi(f1, r1))
    s2 = wehrl_entropy(husimi(f2, r2))
    assert abs(s12 - s1 - s2) < 1e-10


def test_husimi_marginal_matches_reduced_state(rng):
    f1 = vacuum_frame("Z2", (1,))
    f2 = vacuum_frame("Z2")
    f12 = product_frame(f1, f2)
    for _ in range(10):
        rho12 = random_density_matrix(4, rng)
        table12 = husimi(f12, rho12)
        m1 = husimi_marginal(table12, (2, 2))
        direct1 = husimi(f1, partial_trace(rho12, (2, 2), trace_out=2)).values
        assert np.abs(m1 - direct1).max() < 1e-10


def test_wehrl_monotone_under_marginals(rng):
    f1 = vacuum_frame("Z4", (2,))
    f2 = vacuum_frame("Z2", (1,))
    f12 = product_frame(f1, f2)
    for _ in range(25):
        rho12 = random_density_matrix(8, rng)
        s12 = wehrl_entropy(husimi(f12, rho12))
        rho1 = partial_trace(rho12, (4, 2), trace_out=2)
        s1 = wehrl_entropy(husimi(f1, rho1))
        assert s12 >= s1 - 1e-9


def _shannon(p: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """-sum p log p over axes, with 0 log 0 = 0."""
    return -np.sum(p * np.log(np.where(p > 0, p, 1.0)), axis=axes)


# the strengthened-subadditivity gap S^W(rho12) - S^W(rho1) - S^W(rho2)
# - S(rho12) + S(rho1) + S(rho2) is I(A:B) - I(Z1:Z2): p = w Q is the outcome
# law of the local measurement M1 (x) M2, its marginals are the factor
# Husimis, and the log |G| constants cancel. Mutual information does not grow
# under local channels (Lindblad 1975, Uhlmann 1977), so the gap is >= 0. Each
# factor takes every vacuum frame and one random-fiducial frame
@pytest.mark.parametrize("factors", [("Z2", "Z3"), ("Z4", "Z2"), ("Z3", "Z3"), ("Z2xZ2", "Z2")])
def test_subadditivity_gap_is_a_mutual_information_difference(factors, rng):
    groups = [parse_group(spec) for spec in factors]
    d1, d2 = (g.order for g in groups)
    frames = [
        [CoherentFrame.vacuum(H) for H in all_subgroups(g)]
        + [CoherentFrame(g, random_state_vector(g.order, rng))]
        for g in groups
    ]
    for f1 in frames[0]:
        for f2 in frames[1]:
            psis = np.stack([random_state_vector(d1 * d2, rng) for _ in range(2)])
            mixed = np.stack([random_density_matrix(d1 * d2, rng) for _ in range(2)])
            rhos = np.concatenate([psis[:, :, None] * psis[:, None, :].conj(), mixed])
            rho1 = partial_trace(rhos, (d1, d2), trace_out=2)
            rho2 = partial_trace(rhos, (d1, d2), trace_out=1)
            quantum = von_neumann_entropy(rho1) + von_neumann_entropy(rho2) - von_neumann_entropy(rhos)
            table = husimi(product_frame(f1, f2), rhos)
            by_entropies = (
                wehrl_entropy(table) - wehrl_entropy(husimi(f1, rho1))
                - wehrl_entropy(husimi(f2, rho2)) + quantum
            )
            p = table.values.reshape(-1, d1, d2, d1, d2) / (d1 * d2)  # axes (g1, g2, a1, a2)
            classical = (
                _shannon(p.sum(axis=(2, 4)), (1, 2)) + _shannon(p.sum(axis=(1, 3)), (1, 2))
                - _shannon(p, (1, 2, 3, 4))
            )
            by_marginals = quantum - classical
            assert np.abs(by_entropies - by_marginals).max() <= 1e-12
            assert by_entropies.min() >= 0
