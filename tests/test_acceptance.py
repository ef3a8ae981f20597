"""Acceptance gate: one test per headline claim, at the stated tolerances.

Each test prints a single `criterion N: PASS` line (visible under
`pytest -s`) after its assertions, with the measured residuals inline.
The standard suite is ten groups of order <= 9 crossed with their full
subgroup lattices (53 pairs).
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from wehrl import (
    CoherentFrame,
    HusimiTable,
    Subgroup,
    invariant_subspace_dim,
    husimi,
    husimi_fast,
    husimi_marginal,
    all_subgroups,
    maximal_compact,
    minimize,
    overlap_matrix,
    parse_group,
    partial_trace,
    product_frame,
    pure_density,
    random_state_vector,
    resolution_residual,
    verify_ccr,
    von_neumann_entropy,
    wehrl_entropy,
    wehrl_entropy_coset,
)
from density_oracle import husimi_by_state_matrix, state_matrix
from wehrl.cli import main as cli_main
from wehrl.frames import coset_ids, pure_amplitudes
from wehrl.minimize import entropy_gradient
from wehrl.verify import (
    fd_tangent_gradient,
    standard_suite,
    suite_pairs,
)

SUITE = standard_suite()
PAIRS = suite_pairs()


def random_density_batch(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, d, d) Ginibre densities: all n real parts drawn, then all n imaginary parts."""
    a = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    rho = a @ np.conj(np.swapaxes(a, 1, 2))
    tr = np.trace(rho, axis1=1, axis2=2).real
    return rho / tr[:, None, None]


def report(n: int, detail: str) -> None:
    print(f"criterion {n:2d}: PASS  {detail}", flush=True)


def test_criterion_01_ccr_relations():
    worst = 0.0
    for g in SUITE:
        rep = verify_ccr(g, seed=0)
        assert rep.mode == "exhaustive"  # |F| <= 256 throughout the suite
        assert rep.pairs_checked == (g.order ** 2) ** 2
        assert rep.max_residual <= 1e-12
        worst = max(worst, rep.max_residual)
    report(1, f"CCR residual {worst:.2e} <= 1e-12, exhaustive pairs, {len(SUITE)} groups")


def test_criterion_02_overlap_dichotomy():
    worst = 0.0
    for g, H in PAIRS:
        frame = CoherentFrame.vacuum(H)
        O = overlap_matrix(frame)
        dist = np.minimum(np.abs(O), np.abs(O - 1.0)).max()
        assert dist <= 1e-12
        worst = max(worst, float(dist))
        ids = coset_ids(frame)
        assert np.array_equal(O > 0.5, ids[:, None] == ids[None, :])
    report(2, f"overlaps within {worst:.2e} of {{0,1}}; value-1 relation == K-coset relation, {len(PAIRS)} pairs")


def test_criterion_03_vacuum_uniqueness():
    for g, H in PAIRS:
        assert invariant_subspace_dim(maximal_compact(H)) == 1
    report(3, f"invariant subspace dimension 1 for all {len(PAIRS)} maximal compacts")


def test_criterion_04_resolution_of_identity():
    worst = 0.0
    for gi, g in enumerate(SUITE):
        for H in all_subgroups(g):
            worst = max(worst, resolution_residual(CoherentFrame.vacuum(H)))
        rng = np.random.default_rng([4, gi])
        for _ in range(5):
            frame = CoherentFrame(g, random_state_vector(g.order, rng))
            worst = max(worst, resolution_residual(frame))
    assert worst <= 1e-11
    report(4, f"resolution residual {worst:.2e} <= 1e-11 (vacuum + 5 random fiducials per group)")


def test_criterion_05_wehrl_lower_bound():
    min_entropy = math.inf
    max_coherent = 0.0
    min_noncoherent = math.inf
    for pi, (g, H) in enumerate(PAIRS):
        frame = CoherentFrame.vacuum(H)
        rng = np.random.default_rng([5, pi])
        rhos = random_density_batch(g.order, 1000, rng)
        table = husimi(frame, rhos)
        q = table.values
        entropies = wehrl_entropy(table)
        min_entropy = min(min_entropy, float(entropies.min()))
        assert entropies.min() >= -1e-9
        O = overlap_matrix(frame)
        coherent = wehrl_entropy(HusimiTable(frame, (O ** 2).T))
        assert coherent.max() <= 1e-12
        max_coherent = max(max_coherent, float(coherent.max()))
        noncoherent = q.max(axis=1) < 1.0 - 1e-6
        if np.any(noncoherent):
            floor = float(entropies[noncoherent].min())
            assert floor >= 1e-3
            min_noncoherent = min(min_noncoherent, floor)
    report(5, f"min S^W {min_entropy:.2e} >= -1e-9 over 10^3 rho x {len(PAIRS)} pairs; "
              f"coherent max {max_coherent:.2e} <= 1e-12; non-coherent min {min_noncoherent:.2e} >= 1e-3")


def test_criterion_06_coset_structure():
    worst_spread = 0.0
    worst_diff = 0.0
    for pi, (g, H) in enumerate(PAIRS):
        frame = CoherentFrame.vacuum(H)
        rng = np.random.default_rng([6, pi])
        rhos = random_density_batch(g.order, 100, rng)
        q = husimi(frame, rhos).values
        ids = coset_ids(frame)
        for ordinal in range(ids.max() + 1):
            block = q[:, ids == ordinal]
            worst_spread = max(
                worst_spread, float((block.max(axis=1) - block.min(axis=1)).max())
            )
        for rho in rhos[:100]:
            diff = abs(
                wehrl_entropy(husimi(frame, rho)) - wehrl_entropy_coset(frame, rho)
            )
            worst_diff = max(worst_diff, diff)
    assert worst_spread <= 1e-12
    assert worst_diff <= 1e-10
    report(6, f"within-coset spread {worst_spread:.2e} <= 1e-12; coset formula diff {worst_diff:.2e} <= 1e-10, 10^2 states x {len(PAIRS)} pairs")


def test_criterion_07_wehrl_dominates_von_neumann():
    min_gap = math.inf
    worst_flat = 0.0
    for pi, (g, H) in enumerate(PAIRS):
        frame = CoherentFrame.vacuum(H)
        rng = np.random.default_rng([7, pi])
        rhos = random_density_batch(g.order, 1000, rng)
        gaps = wehrl_entropy(husimi(frame, rhos)) - von_neumann_entropy(rhos)
        assert gaps.min() >= -1e-9
        min_gap = min(min_gap, float(gaps.min()))
        flat = np.eye(g.order) / g.order
        sw = wehrl_entropy(husimi(frame, flat))
        sv = von_neumann_entropy(flat)
        dev = max(abs(sw - math.log(g.order)), abs(sv - math.log(g.order)))
        assert dev <= 1e-10
        worst_flat = max(worst_flat, dev)
    report(7, f"min gap {min_gap:.2e} >= -1e-9 over 10^3 rho x {len(PAIRS)} frames; flat-state deviation {worst_flat:.2e} <= 1e-10")


def test_criterion_08_monotonicity_product_frames():
    worst_marginal = 0.0
    worst_drop = 0.0
    combos = 0
    for spec in ("Z2xZ2", "Z4xZ2"):
        g = parse_group(spec)
        g1 = parse_group(f"Z{g.orders[0]}")
        g2 = parse_group(f"Z{g.orders[1]}")
        for H1 in all_subgroups(g1):
            for H2 in all_subgroups(g2):
                combos += 1
                fr1 = CoherentFrame.vacuum(H1)
                fr2 = CoherentFrame.vacuum(H2)
                fr12 = product_frame(fr1, fr2)
                d1, d2 = g1.order, g2.order
                rng = np.random.default_rng([8, combos])
                rhos = random_density_batch(d1 * d2, 100, rng)
                for rho in rhos:
                    table12 = husimi(fr12, rho)
                    rho1 = partial_trace(rho, (d1, d2), trace_out=2)
                    marg = husimi_marginal(table12, (d1, d2))
                    direct = husimi(fr1, rho1).values
                    err = float(np.abs(marg - direct).max())
                    assert err <= 1e-10
                    worst_marginal = max(worst_marginal, err)
                    s12 = wehrl_entropy(table12)
                    s1 = wehrl_entropy(husimi(fr1, rho1))
                    assert s12 >= s1 - 1e-9
                    worst_drop = max(worst_drop, s1 - s12)
    report(8, f"S^W(rho12) >= S^W(rho1) - 1e-9 on 10^2 rho x {combos} product frames (max drop {worst_drop:.2e}); marginalisation error {worst_marginal:.2e} <= 1e-10")


def test_criterion_09_fast_path():
    worst = 0.0
    for gi, g in enumerate(SUITE):
        frame = CoherentFrame.vacuum(Subgroup.whole(g))
        rng = np.random.default_rng([9, gi])
        states = state_matrix(frame)
        for _ in range(100):
            psi = random_state_vector(g.order, rng)
            dense = husimi_by_state_matrix(frame, pure_density(psi), states)
            fast = husimi_fast(frame, psi).values
            worst = max(worst, float(np.abs(dense - fast).max()))
    assert worst <= 1e-11
    # informational speedup measurement at |G| = 64 (not gating)
    g64 = parse_group("Z64")
    frame64 = CoherentFrame.vacuum(Subgroup.whole(g64))
    psi = random_state_vector(64, np.random.default_rng(9))
    states64 = state_matrix(frame64)  # built outside the timed region
    t0 = time.perf_counter()
    husimi_by_state_matrix(frame64, pure_density(psi), states64)
    t_dense = time.perf_counter() - t0
    t1 = time.perf_counter()
    husimi_fast(frame64, psi)
    t_fast = time.perf_counter() - t1
    speedup = t_dense / t_fast
    report(9, f"fast-vs-dense diff {worst:.2e} <= 1e-11 on 10^2 states x {len(SUITE)} groups; "
              f"|G|=64 speedup {speedup:.0f}x (informational, >= 5x expected)")


def test_criterion_10_minimizer():
    worst_entropy = 0.0
    worst_overlap = 1.0
    for g, H in PAIRS:
        result = minimize(CoherentFrame.vacuum(H))
        assert result.best_entropy <= 1e-6
        assert result.nearest_overlap >= 1 - 1e-4
        worst_entropy = max(worst_entropy, result.best_entropy)
        worst_overlap = min(worst_overlap, result.nearest_overlap)
    worst_grad = 0.0
    for gi, g in enumerate(SUITE):
        frame = CoherentFrame.vacuum(Subgroup.whole(g))
        rng = np.random.default_rng([10, gi])
        tested = 0
        while tested < 20:
            psi = random_state_vector(g.order, rng)
            if (np.abs(pure_amplitudes(frame, psi)) ** 2).min() < 1e-6:
                continue
            analytic = entropy_gradient(frame, psi)
            numeric = fd_tangent_gradient(frame, psi)
            rel = float(
                np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
            )
            assert rel <= 1e-4
            worst_grad = max(worst_grad, rel)
            tested += 1
    report(10, f"best entropy {worst_entropy:.2e} <= 1e-6 and overlap {worst_overlap:.8f} >= 1-1e-4 on {len(PAIRS)} pairs; "
               f"gradient FD rel err {worst_grad:.2e} <= 1e-4 (20 states x {len(SUITE)} groups)")


def test_criterion_11_cli_determinism(capsys):
    def run(argv):
        code = cli_main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    invocations = [
        ["minimize", "--group", "Z4", "--subgroup", "2", "--seed", "7"],
        ["verify", "--group", "Z3", "--seed", "1"],
        ["entropy", "--group", "Z2", "--subgroup", "1", "--state", "random:5"],
        ["husimi", "--group", "Z2xZ2", "--subgroup", "1,0", "--state", "coherent:0,1;1,0"],
        ["scan", "--group", "Z2", "--subgroup", "1", "--seed", "2"],
        ["group-info", "--group", "Z4xZ2"],
    ]
    for argv in invocations:
        first, second = run(argv), run(argv)
        assert first == second, argv
        assert first[0] == 0
    cmd = [sys.executable, "-m", "wehrl",
           "minimize", "--group", "Z4", "--subgroup", "2", "--seed", "7"]
    a = subprocess.run(cmd, capture_output=True, check=True)
    b = subprocess.run(cmd, capture_output=True, check=True)
    assert a.stdout == b.stdout
    data = json.loads(a.stdout)
    assert data["best_entropy"] <= 1e-6  # the documented CLI example
    with capsys.disabled():
        report(11, f"byte-identical output across repeats, {len(invocations)} in-process + 1 subprocess invocation")
