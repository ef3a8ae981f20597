"""Residual checks for the structural facts; shared by tests and the CLI.

Each check returns a `CheckResult` with the observed residual and the
tolerance it is held to. Checks come in independent pairs on purpose
(closed form vs numerical null space, coset formula vs full sum, transform
vs dense, analytic gradient vs finite differences); the two routes are never
collapsed into one.

Nine checks read the group G alone: the group laws, character unit
modulus and multiplicativity, cocycle bilinearity, the CCR, Weyl
unitarity, dense-vs-gathered W(z), the resolution of identity for random
fiducials and, on groups of two or more factors, the product structure.
`run_checks` computes them once per (group, seed, rho_samples, limits) in
a process and reuses them for every subgroup of G. The same entry holds
the random samples of the frame-level checks: one Ginibre stack of
max(100, rho_samples) densities, validated once by the `eigvalsh` whose
eigenvalues are the von Neumann side, and 100 pure states. Each random
consumer draws on its own stream (`_STREAM_TAGS`), so a draw added to one
moves no digit of another. The samples stay in memory for the process:
max(100, rho_samples) |G|^2 complex values per entry, with at most 16 entries.

Per pair, `run_checks` computes each input that several frame-level
checks read once and hands it to them: the stack's Husimi values (one
max(100, rho_samples) x |F| float table, freed with the pair) and their
Wehrl entropies, the overlap matrix, the coset basis, the points outside
K and A(H), read off K; the channel checks read the densities. Each check
still runs its own second route. The `check_*` functions keep no cache.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import limits, weyl
from .entropy import (
    HusimiTable,
    _channel,
    _coset_entropy,
    _entropy_sum,
    _husimi_values,
    _spectrum_entropy,
    entropy_report,
    husimi_coset_spread,
    husimi_fast,
    husimi_marginal,
    partial_trace,
    product_frame,
    pure_state_entropy,
    wehrl_entropy,
)
from .frames import (
    CoherentFrame,
    CosetBasis,
    _invariance_defect,
    coset_basis,
    coset_ids,
    invariant_subspace_dim,
    overlap_matrix,
    pure_amplitudes,
    resolution_residual,
    vacuum_vector,
)
from .groups import (
    DualSubgroup,
    FiniteAbelianGroup,
    PhaseSpaceSubgroup,
    Subgroup,
    _coords_grid,
    _character_rows,
    _index_sum,
    _pairing_numerators,
    _phase_weights,
    _require_same_group,
    _unit_roots,
    _unseparated,
    all_subgroups,
    dual_annihilator,
    parse_group,
)
from .minimize import entropy_gradient
from .states import (
    _checked_eigvalsh, _random_density_stack, _random_state_stack, maximally_mixed,
    pure_density, random_state_vector,
)
from .weyl import _apply_points, _matrix_points, cocycle_numerators, verify_ccr

__all__ = [
    "CheckResult",
    "standard_suite",
    "suite_pairs",
    "run_checks",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool
    note: str = ""


def _result(name: str, residual, tolerance: float, note: str = "") -> CheckResult:
    residual = float(residual)
    return CheckResult(name, residual, tolerance, residual <= tolerance, note)


def standard_suite() -> tuple[FiniteAbelianGroup, ...]:
    specs = ("Z2", "Z3", "Z4", "Z6", "Z8", "Z2xZ2", "Z4xZ2", "Z3xZ3", "Z9", "Z2xZ2xZ2")
    return tuple(parse_group(s) for s in specs)


def suite_pairs() -> list[tuple[FiniteAbelianGroup, Subgroup]]:
    """Every (group, subgroup) pair of the standard verification suite."""
    return [(g, H) for g in standard_suite() for H in all_subgroups(g)]


# ---------------------------------------------------------------------------
# shared numeric helpers


# the tag of each random consumer of `run_checks`, which draws on its own
# default_rng([seed, tag]) (`_stream`). A tag is never reused; a new consumer
# appends one. No tag is 0: [seed, 0] seeds the same stream as seed alone.
_STREAM_TAGS = {
    "group-laws": 1, "character-multiplicativity": 2, "cocycle-bilinearity": 3,
    "weyl-unitarity": 4, "weyl-dense-vs-apply": 5, "resolution-of-identity-random": 6,
    "density-stack": 7, "pure-state-stack": 8, "gradient-vs-finite-differences": 9,
}


def _stream(seed: int, consumer: str) -> np.random.Generator:
    """The generator of one random consumer of `run_checks`, by its `_STREAM_TAGS` tag."""
    return np.random.default_rng([seed, _STREAM_TAGS[consumer]])


def cocycle_phase_matrix(group: FiniteAbelianGroup, left, right) -> np.ndarray:
    """Integer cocycle phases M (numerators mod L): omega = exp(2 pi i M / L).

    M[i, j] pairs the phase-space indices left[i] and right[j].
    """
    d = group.order
    grid = _coords_grid(group.orders)
    z, w = np.asarray(left)[:, None], np.asarray(right)[None]
    return cocycle_numerators(group, grid[z // d], grid[z % d], grid[w // d], grid[w % d])


# ---------------------------------------------------------------------------
# group-level checks


def _sum_table(group: FiniteAbelianGroup) -> np.ndarray:
    """(|G|, |G|) table of the index of a + b over element indices a, b.

    The library's index arithmetic, `groups._index_sum`.
    """
    every = np.arange(group.order)
    return _index_sum(group, every[:, None], every[None, :])


def _triples(d: int, rng: np.random.Generator) -> np.ndarray:
    """(3, n) index triples over range(d), for the checks on triples.

    All d^3 of them when |F| = d^2 is at most `limits.EXHAUSTIVE_POINTS`,
    otherwise 1000 drawn from rng.
    """
    if d * d <= limits.EXHAUSTIVE_POINTS:
        return np.indices((d, d, d)).reshape(3, -1)
    return rng.integers(0, d, size=(1000, 3)).T


def check_group_laws(group: FiniteAbelianGroup, rng: np.random.Generator) -> CheckResult:
    """Inverses, commutativity and associativity on the table of index sums.

    Counts each element whose sum with its negation is not 0, each ordered
    pair whose two sums differ, and each triple that does not associate.
    """
    d = group.order
    orders = np.array(group.orders, dtype=np.int64)
    strides = np.array(group._strides, dtype=np.int64)
    sums = _sum_table(group)
    negation = ((-_coords_grid(group.orders)) % orders) @ strides
    bad = np.count_nonzero(sums[np.arange(d), negation])
    bad += np.count_nonzero(sums != sums.T)
    a, b, c = _triples(d, rng)
    bad += np.count_nonzero(sums[sums[a, b], c] != sums[a, sums[b, c]])
    return _result("group-laws", int(bad), 0.0, f"{len(a)} associativity triples")


def check_character_values(group: FiniteAbelianGroup) -> CheckResult:
    worst = float(np.abs(np.abs(_character_rows(group, slice(None))) - 1.0).max())
    return _result("character-unit-modulus", worst, 1e-14)


def check_character_multiplicativity(
    group: FiniteAbelianGroup, rng: np.random.Generator
) -> CheckResult:
    """chi(g + h) = chi(g) chi(h) on the integer numerators of each triple.

    All three are read from one (|G|, |G|) table of `_pairing_numerators`,
    row chi at columns g + h (`_index_sum`), g and h.
    """
    d = group.order
    chi, g, h = _triples(d, rng)
    L, _ = _phase_weights(group)
    roots = _unit_roots(L)
    m = _pairing_numerators(group, slice(None), slice(None))
    values = roots[m[chi, _index_sum(group, g, h)]]
    products = roots[m[chi, g]] * roots[m[chi, h]]
    worst = float(np.abs(values - products).max())
    return _result(
        "character-multiplicativity", worst, 1e-12, f"{len(chi)} triples"
    )


def check_annihilator_duality(subgroup: Subgroup, ann: DualSubgroup) -> CheckResult:
    residual = abs(ann.order * subgroup.order - subgroup.group.order)
    return _result("annihilator-duality", residual, 0.0, f"|A| = {ann.order}")


def check_double_annihilator(subgroup: Subgroup, ann: DualSubgroup) -> CheckResult:
    double = dual_annihilator(ann)
    mismatch = int(not np.array_equal(double.indices, subgroup.indices))
    return _result("double-annihilator", mismatch, 0.0)


def check_compact_maximality(K: PhaseSpaceSubgroup) -> CheckResult:
    """|K| = |G|, and A(H) separates every element outside H, for K = H x A(H)."""
    bad = abs(K.order - K.group.order)
    bad += int(np.count_nonzero(_unseparated(K.subgroup, K.dual_part)))
    return _result("compact-maximality", bad, 0.0, f"|K| = {K.order}")


def check_cocycle_trivial_on_K(K: PhaseSpaceSubgroup) -> CheckResult:
    phases = cocycle_phase_matrix(K.group, K.indices, K.indices)
    return _result("cocycle-trivial-on-K", int(np.count_nonzero(phases)), 0.0)


def check_cocycle_bilinearity(group: FiniteAbelianGroup, rng: np.random.Generator) -> CheckResult:
    """omega(z + w, v) = omega(z, v) omega(w, v) and omega(v, z + w) likewise.

    All triples at once on integer phase numerators mod L; a triple counts
    once for each side on which the exact phases disagree.
    """
    d = group.order
    L, _ = _phase_weights(group)
    orders = np.array(group.orders, dtype=np.int64)
    grid = _coords_grid(group.orders)
    idx = rng.integers(0, d * d, size=(1000, 3))
    g, a = grid[idx // d], grid[idx % d]  # (1000, 3, k)
    z, w, v = ((g[:, i], a[:, i]) for i in range(3))
    zw = ((z[0] + w[0]) % orders, (z[1] + w[1]) % orders)
    bad = np.count_nonzero(
        cocycle_numerators(group, *zw, *v)
        != (cocycle_numerators(group, *z, *v) + cocycle_numerators(group, *w, *v)) % L
    )
    bad += np.count_nonzero(
        cocycle_numerators(group, *v, *zw)
        != (cocycle_numerators(group, *v, *z) + cocycle_numerators(group, *v, *w)) % L
    )
    return _result("cocycle-bilinearity", int(bad), 0.0, "1000 random triples")


def check_ccr(group: FiniteAbelianGroup, seed: int) -> CheckResult:
    report = verify_ccr(group, seed=seed)
    return _result(
        "ccr-commutation",
        report.max_residual,
        report.tolerance,
        f"{report.mode}, {report.pairs_checked} pairs",
    )


def check_weyl_unitarity(
    group: FiniteAbelianGroup, rng: np.random.Generator
) -> CheckResult:
    d = group.order
    eye = np.eye(d)
    if d * d <= limits.EXHAUSTIVE_POINTS:
        points = np.arange(d * d)
    else:
        points = rng.integers(0, d * d, size=100)
    worst = 0.0
    for part in limits.blocks(len(points), 16 * d * d):
        W = _matrix_points(group, points[part])
        worst = max(worst, float(np.abs(np.conj(np.swapaxes(W, 1, 2)) @ W - eye).max()))
    return _result("weyl-unitarity", worst, 1e-12, f"{len(points)} points")


def check_weyl_dense_vs_apply(group: FiniteAbelianGroup, rng: np.random.Generator) -> CheckResult:
    """Dense W(z) f (scattered matrices, matmul) against the gathered W(z) f.

    The unit vectors come from one draw, the same bits as one
    `random_state_vector` call per sample.
    """
    d = group.order
    points = rng.integers(0, d * d, size=1000)
    states = _random_state_stack(d, len(points), rng)
    worst = 0.0
    for part in limits.blocks(len(points), 16 * d * d):
        dense = (_matrix_points(group, points[part]) @ states[part, :, None])[..., 0]
        gathered = _apply_points(group, points[part], states[part])
        worst = max(worst, float(np.abs(dense - gathered).max()))
    return _result("weyl-dense-vs-apply", worst, 1e-13, f"{len(points)} random (z, f)")


# ---------------------------------------------------------------------------
# frame-level checks (vacuum frame of a given subgroup)


def _outside_points(frame: CoherentFrame) -> np.ndarray:
    """Ascending phase-space indices of the points outside K, through a mask complement."""
    K, _ = frame.cosets()
    inside = np.zeros(frame.point_count, dtype=bool)
    inside[K.indices] = True
    return np.flatnonzero(~inside)


def check_vacuum_invariance(frame: CoherentFrame) -> CheckResult:
    K, _ = frame.cosets()
    u = K.indices
    worst = 0.0
    for part in limits.blocks(len(u), 16 * frame.group.order):
        moved = _apply_points(frame.group, u[part], frame.fiducial)
        worst = max(worst, float(np.abs(moved - frame.fiducial).max()))
    return _result("vacuum-invariance", worst, 1e-13)


def check_vacuum_uniqueness(K: PhaseSpaceSubgroup) -> CheckResult:
    dim = invariant_subspace_dim(K)
    return _result("vacuum-uniqueness-dim", abs(dim - 1), 0.0, f"dim = {dim}")


def check_vacuum_nullspace_match(K: PhaseSpaceSubgroup) -> CheckResult:
    """Closed-form indicator vacuum of H vs the numerical null vector of K = H x A(H)."""
    _, _, vh = np.linalg.svd(_invariance_defect(K))
    numeric = vh[-1].conj()
    closed = vacuum_vector(K.subgroup)
    residual = 1.0 - abs(np.vdot(closed, numeric))
    return _result("vacuum-closed-form-vs-nullspace", residual, 1e-10)


def check_resolution_vacuum(frame: CoherentFrame) -> CheckResult:
    return _result("resolution-of-identity", resolution_residual(frame), 1e-11)


def check_resolution_random(group: FiniteAbelianGroup, rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(5):
        fr = CoherentFrame(group, random_state_vector(group.order, rng))
        worst = max(worst, resolution_residual(fr))
    return _result("resolution-of-identity-random", worst, 1e-11, "5 random fiducials")


def check_overlap_dichotomy(overlaps: np.ndarray) -> CheckResult:
    """Every frame-point overlap |<z|z'>| (`overlap_matrix`) is 0 or 1."""
    dist = np.minimum(np.abs(overlaps), np.abs(overlaps - 1.0))
    return _result("overlap-dichotomy", float(dist.max()), 1e-12)


def check_overlap_coset_match(frame: CoherentFrame, overlaps: np.ndarray) -> CheckResult:
    ids = coset_ids(frame)
    relation = ids[:, None] == ids[None, :]
    mismatches = int(np.count_nonzero((overlaps > 0.5) != relation))
    return _result("overlap-coset-match", mismatches, 0.0)


def check_offcoset_vanishing(frame: CoherentFrame, outside: np.ndarray) -> CheckResult:
    """eq-mechanism part 1: <0|W(z)|0> = 0 at the points outside K (`_outside_points`)."""
    d = frame.group.order
    worst = 0.0
    for part in limits.blocks(len(outside), 16 * d):
        states = _apply_points(frame.group, outside[part], frame.fiducial)
        worst = max(worst, float(np.abs(states @ frame.fiducial.conj()).max()))
    return _result("offcoset-vanishing", worst, 1e-13)


def check_offcoset_witness(frame: CoherentFrame, outside: np.ndarray) -> CheckResult:
    """eq-mechanism part 2: every z outside K has u in K with omega(z, u) != 1."""
    K, _ = frame.cosets()
    if not outside.size:
        return _result("offcoset-witness", 0, 0.0, "K = F")
    phases = cocycle_phase_matrix(frame.group, outside, K.indices)
    missing = int(np.count_nonzero(~np.any(phases != 0, axis=1)))
    return _result("offcoset-witness", missing, 0.0, f"{len(outside)} points")


def check_coset_basis(basis: CosetBasis) -> CheckResult:
    gram = basis.vectors.conj() @ basis.vectors.T
    residual = np.abs(gram - np.eye(len(basis.representatives))).max()
    return _result("coset-basis-gram", residual, 1e-12)


def check_husimi_mass_and_range(frame: CoherentFrame, q: np.ndarray) -> list[CheckResult]:
    """Mass 1 and values in [0, 1] of the Husimi values q of validated densities."""
    mass = np.abs(HusimiTable(frame, q).mass() - 1.0).max()
    low = max(0.0, float(-q.min()))
    high = max(0.0, float(q.max() - 1.0))
    return [
        _result("husimi-mass", mass, 1e-10, f"{len(q)} random rho"),
        _result("husimi-range", max(low, high), 1e-12),
    ]


def check_coset_constancy(frame: CoherentFrame, q: np.ndarray) -> CheckResult:
    """Q constant on each stabiliser coset, for the Husimi values q of validated densities."""
    worst = husimi_coset_spread(HusimiTable(frame, q)).max()
    return _result("husimi-coset-spread", worst, 1e-12, f"{len(q)} random rho")


def check_coset_formula(basis: CosetBasis, rhos: np.ndarray, entropies: np.ndarray) -> CheckResult:
    """Full Husimi sums `entropies` of validated densities against the coset formula."""
    collapsed = _coset_entropy(basis.vectors, rhos)
    worst = np.abs(entropies - collapsed).max()
    return _result("coset-formula-vs-full", worst, 1e-10, f"{len(rhos)} random rho")


def check_fast_vs_dense(frame: CoherentFrame, psis: np.ndarray) -> CheckResult:
    """Transform Husimi tables of pure states against the state-matrix product.

    The dense side is <z|rho|z> as a product with the rows of
    `CoherentFrame.state_matrix`, not through the group transform.
    """
    S = frame.state_matrix()
    rhos = psis[:, :, None] * psis[:, None, :].conj()
    dense = np.einsum("...zk,zk->...z", S.conj() @ rhos, S).real
    fast = husimi_fast(frame, psis).values
    worst = np.abs(dense - fast).max()
    return _result("husimi-fast-vs-dense", worst, 1e-11, f"{len(psis)} pure states")


def check_wehrl_bounds(
    frame: CoherentFrame, q: np.ndarray, entropies: np.ndarray, overlaps: np.ndarray
) -> list[CheckResult]:
    """S^W >= 0 on validated densities, 0 on coherent states, above 0 elsewhere.

    q and entropies are the densities' Husimi values and Wehrl entropies;
    the coherent projectors' tables are the squared `overlap_matrix` columns.
    """
    lower = max(0.0, float(-entropies.min()))
    out = [
        _result(
            "wehrl-lower-bound", lower, 1e-9, f"min = {entropies.min():.3e}"
        )
    ]
    coherent_entropies = wehrl_entropy(HusimiTable(frame, (overlaps ** 2).T))
    out.append(
        _result(
            "wehrl-coherent-zero",
            float(coherent_entropies.max()),
            1e-12,
            f"{frame.point_count} coherent projectors",
        )
    )
    noncoherent = q.max(axis=1) < 1.0 - 1e-6
    if np.any(noncoherent):
        floor = float(entropies[noncoherent].min())
        residual = max(0.0, 1e-3 - floor)
        note = f"min = {floor:.3e} over {int(noncoherent.sum())} states"
    else:
        residual, note = 0.0, "no non-coherent samples"
    out.append(_result("wehrl-noncoherent-floor", residual, 0.0, note))
    return out


def check_wehrl_vs_von_neumann(
    frame: CoherentFrame, entropies: np.ndarray, eig: np.ndarray
) -> list[CheckResult]:
    """S^W >= S_vN on validated densities: their Wehrl entropies and ascending eigenvalues eig."""
    d = frame.group.order
    gaps = entropies - _spectrum_entropy(eig)
    out = [
        _result(
            "wehrl-vs-von-neumann",
            max(0.0, float(-gaps.min())),
            1e-9,
            f"min gap = {gaps.min():.3e}",
        )
    ]
    flat = entropy_report(frame, maximally_mixed(d))
    residual = max(abs(flat.wehrl - math.log(d)), abs(flat.von_neumann - math.log(d)))
    out.append(_result("flat-state-entropies", residual, 1e-10))
    return out


def check_channel(frame: CoherentFrame, rhos: np.ndarray) -> list[CheckResult]:
    """Trace kept on validated densities rhos; the flat state and coherent projectors fixed."""
    d = frame.group.order
    out = _channel(frame, rhos)
    worst_trace = np.abs(np.trace(out, axis1=-2, axis2=-1).real - 1.0).max()
    flat = maximally_mixed(d)
    flat_res = float(np.abs(_channel(frame, flat) - flat).max())
    _, reps = frame.cosets()
    projs = np.stack([pure_density(frame.state(rep)) for rep in reps[:3]])
    worst_coherent = np.abs(_channel(frame, projs) - projs).max()
    return [
        _result("channel-trace", worst_trace, 1e-10, f"{len(rhos)} random rho"),
        _result("channel-flat-fixed-point", flat_res, 1e-12),
        _result("channel-coherent-fixed-point", worst_coherent, 1e-11),
    ]


# step of the finite-difference gradient oracle
_FD_STEP = 1e-6


def fd_tangent_gradient(frame: CoherentFrame, psi: np.ndarray) -> np.ndarray:
    """Finite-difference oracle for the tangent entropy gradient.

    Central differences of step _FD_STEP along the 2d real directions of
    C^d; the 4d perturbed states go through one stacked pure_state_entropy
    call.
    """
    d = len(psi)
    h = _FD_STEP
    steps = h * np.eye(d, dtype=np.complex128)
    stencil = psi + np.concatenate([steps, -steps, 1j * steps, -1j * steps])
    plus, minus, plus_i, minus_i = pure_state_entropy(frame, stencil).reshape(4, d)
    grad = (plus - minus) / (4 * h) + 1j * ((plus_i - minus_i) / (4 * h))
    return grad - np.real(np.vdot(psi, grad)) * psi


def check_gradient_oracle(frame: CoherentFrame, rng: np.random.Generator) -> CheckResult:
    """Relative error of the analytic gradient against finite differences.

    The FD route resolves a gradient only to its own roundoff: each of its
    2d real partial derivatives is a difference of two entropies, each
    rounded at about 2 eps, over 4h, so its error norm is at most about
    sqrt(2d) eps / h. A relative error at the tolerance is only meaningful
    for ||numeric|| above that roundoff over the tolerance, so the relative
    metric's denominator has that absolute floor (3.1e-6 on Z1, whose
    tangent gradient is exactly 0 and whose FD gradient is roundoff alone;
    on the suite pairs ||numeric|| lies far above the floor).
    """
    d = frame.group.order
    tolerance = 1e-4
    floor = math.sqrt(2 * d) * np.finfo(float).eps / _FD_STEP / tolerance
    worst = 0.0
    tested = 0
    attempts = 0
    while tested < 4 and attempts < 200:
        attempts += 1
        psi = random_state_vector(d, rng)
        q = np.abs(pure_amplitudes(frame, psi)) ** 2
        if q.min() < 1e-6:  # keep log Q smooth across the FD stencil
            continue
        analytic = entropy_gradient(frame, psi)
        numeric = fd_tangent_gradient(frame, psi)
        scale = max(float(np.linalg.norm(numeric)), floor)
        worst = max(worst, float(np.linalg.norm(analytic - numeric)) / scale)
        tested += 1
    note = f"{tested} states" if tested else "no admissible states found"
    return _result("gradient-vs-finite-differences", worst, tolerance, note)


def check_product_structure(group: FiniteAbelianGroup, rhos: np.ndarray) -> list[CheckResult]:
    """Marginalisation and entropy monotonicity for a first-factor split.

    rhos are validated densities on G; their partial traces are densities
    on the first factor by construction, so neither is validated again.
    """
    g1 = FiniteAbelianGroup(group.orders[:1])
    g2 = FiniteAbelianGroup(group.orders[1:])
    fr1 = CoherentFrame.vacuum(Subgroup.whole(g1))
    fr2 = CoherentFrame.vacuum(Subgroup.whole(g2))
    fr12 = product_frame(fr1, fr2)
    dims = (g1.order, g2.order)
    table12 = HusimiTable(fr12, _husimi_values(fr12, rhos))
    table1 = HusimiTable(fr1, _husimi_values(fr1, partial_trace(rhos, dims, trace_out=2)))
    marginal = husimi_marginal(table12, dims)
    worst_marginal = np.abs(marginal - table1.values).max()
    worst_mono = (wehrl_entropy(table1) - wehrl_entropy(table12)).max()
    note = f"{len(rhos)} random rho"
    return [
        _result("husimi-marginalisation", worst_marginal, 1e-10, note),
        _result("wehrl-monotonicity", max(0.0, worst_mono), 1e-9, f"{note}, first factor kept"),
    ]


# ---------------------------------------------------------------------------
# runner


@dataclass(frozen=True, eq=False)
class _GroupLevel:
    """What `_group_checks` hands every subgroup of G: read-only, shared by every caller.

    `checks` holds the eight group-level checks in `run_checks`' order, and
    `product` the product-structure checks (empty on a cyclic group).
    `rhos` is the validated Ginibre stack, `eig` its ascending eigenvalues
    and `psis` the pure states of `check_fast_vs_dense`.
    """

    checks: tuple[CheckResult, ...]
    product: tuple[CheckResult, ...]
    rhos: np.ndarray
    eig: np.ndarray
    psis: np.ndarray


@functools.lru_cache(maxsize=16)
def _group_checks(
    group: FiniteAbelianGroup, seed: int, rho_samples: int, key: tuple
) -> _GroupLevel:
    """The checks of `run_checks` that read G alone, and the samples of the others.

    The eight group-level checks run in `run_checks`' order; one stack of
    max(100, rho_samples) Ginibre densities is validated by one `eigvalsh`,
    and 100 pure states are drawn. Each draws on its own `_stream`, and
    `check_ccr` hands seed to `verify_ccr`. On two or more factors the
    product-structure check reads the stack's first 100. `key` holds every
    public constant of `limits` and `weyl.CCR_SAMPLES` as read by the caller,
    so a patched constant makes another entry. Sixteen entries hold every
    group of the standard suite at one seed.
    """
    checks = (
        check_group_laws(group, _stream(seed, "group-laws")),
        check_character_values(group),
        check_character_multiplicativity(group, _stream(seed, "character-multiplicativity")),
        check_cocycle_bilinearity(group, _stream(seed, "cocycle-bilinearity")),
        check_ccr(group, seed),
        check_weyl_unitarity(group, _stream(seed, "weyl-unitarity")),
        check_weyl_dense_vs_apply(group, _stream(seed, "weyl-dense-vs-apply")),
        check_resolution_random(group, _stream(seed, "resolution-of-identity-random")),
    )
    d = group.order
    stack = _random_density_stack(d, max(100, rho_samples), _stream(seed, "density-stack"))
    rhos, eig = _checked_eigvalsh(stack)
    psis = _random_state_stack(d, 100, _stream(seed, "pure-state-stack"))
    for samples in (rhos, eig, psis):
        samples.flags.writeable = False
    product = ()
    if len(group.orders) >= 2:
        product = tuple(check_product_structure(group, rhos[:100]))
    return _GroupLevel(checks, product, rhos, eig, psis)


def run_checks(
    group: FiniteAbelianGroup,
    subgroup: Subgroup,
    seed: int = 0,
    *,
    rho_samples: int = 1000,
) -> list[CheckResult]:
    """The full invariant suite for one (G, H); deterministic in the seed.

    The nine checks that read G alone, and the random samples of the
    frame-level checks, come from `_group_checks`, so they are computed once
    per (group, seed, rho_samples, limits) in a process, whatever the
    subgroup. One validated stack of max(100, rho_samples) densities feeds
    the density checks through one table of its Husimi values and one vector
    of their entropies: their first 100 the Husimi mass and range, coset
    spread and coset formula checks, their first rho_samples the Wehrl bound
    and von Neumann checks; the channel checks read its first 100 densities.
    The overlap matrix, the coset basis, the points outside K and
    A(H) = K.dual_part are also computed once for the pair. Each random
    consumer draws on its own `_stream`. Every result, and the order of the
    list, is the same whether the memo was warm or cold, to the bit.

    Raises, before any check runs, ValueError when rho_samples is below 1,
    GroupMismatchError when H is a subgroup of another group than G, and
    DenseLimitError when |F| = |G|^2 is over the dense-matrix limit
    (`limits.require_dense`), which the overlap checks' `overlap_matrix`
    needs.
    """
    if rho_samples < 1:
        raise ValueError(f"rho_samples must be >= 1, got {rho_samples}")
    _require_same_group(group, subgroup.group)
    limits.require_dense("|F|", group.order ** 2)
    key = tuple(getattr(limits, name) for name in limits.__all__ if name.isupper())
    shared = _group_checks(group, seed, rho_samples, key + (weyl.CCR_SAMPLES,))
    laws, unit, multiplicative, bilinear, ccr, unitarity, dense, resolution = shared.checks
    frame = CoherentFrame.vacuum(subgroup)
    K, _ = frame.cosets()  # the one maximal compact subgroup of this pair, H x A(H)
    results = [laws, unit, multiplicative]
    results.append(check_annihilator_duality(subgroup, K.dual_part))
    results.append(check_double_annihilator(subgroup, K.dual_part))
    results.append(check_compact_maximality(K))
    results.append(check_cocycle_trivial_on_K(K))
    results += [bilinear, ccr, unitarity, dense]
    results.append(check_vacuum_uniqueness(K))
    results.append(check_vacuum_nullspace_match(K))
    results.append(check_vacuum_invariance(frame))
    results.append(check_resolution_vacuum(frame))
    results.append(resolution)
    overlaps = overlap_matrix(frame)
    outside = _outside_points(frame)
    basis = coset_basis(frame)
    q = _husimi_values(frame, shared.rhos)
    entropies = _entropy_sum(q, frame.haar_weight)
    results.append(check_overlap_dichotomy(overlaps))
    results.append(check_overlap_coset_match(frame, overlaps))
    results.append(check_offcoset_vanishing(frame, outside))
    results.append(check_offcoset_witness(frame, outside))
    results.append(check_coset_basis(basis))
    results.extend(check_husimi_mass_and_range(frame, q[:100]))
    results.append(check_coset_constancy(frame, q[:100]))
    results.append(check_coset_formula(basis, shared.rhos[:100], entropies[:100]))
    results.append(check_fast_vs_dense(frame, shared.psis))
    results.extend(
        check_wehrl_bounds(frame, q[:rho_samples], entropies[:rho_samples], overlaps)
    )
    results.extend(
        check_wehrl_vs_von_neumann(frame, entropies[:rho_samples], shared.eig[:rho_samples])
    )
    results.extend(check_channel(frame, shared.rhos[:100]))
    results.append(check_gradient_oracle(frame, _stream(seed, "gradient-vs-finite-differences")))
    results.extend(shared.product)
    return results
