import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from wehrl import (
    CoherentFrame,
    GroupMismatchError,
    Subgroup,
    parse_group,
    random_state_vector,
    subgroup_closure,
)
from wehrl import entropy, frames, groups, limits, verify, weyl
from wehrl.limits import DenseLimitError
from wehrl.frames import coset_ids, overlap_matrix
from wehrl.groups import _phase_weights, _unit_roots
from wehrl.states import _random_density_stack, random_density_matrix
from wehrl.weyl import cocycle_phase

import phase_oracle
from phase_oracle import add, elements, index, neg, pairing_phase, phase_to_complex, point_add
from weyl_oracle import pointwise_weyl_matrix, roll_weyl_apply
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
    H = subgroup_closure(g, (2,))
    results = run_checks(g, H, seed=0)
    failed = [r for r in results if not r.passed]
    assert not failed, failed
    names = [r.name for r in results]
    assert len(names) == len(set(names))  # stable unique check names
    assert "ccr-commutation" in names
    assert "wehrl-lower-bound" in names


def test_run_checks_builds_one_maximal_compact_per_pair(monkeypatch):
    import wehrl.frames

    built = []
    exact = wehrl.frames.maximal_compact
    for module in (wehrl.frames, verify):  # every binding a check could call
        monkeypatch.setattr(
            module, "maximal_compact", lambda H: built.append(H) or exact(H), raising=False
        )
    g = parse_group("Z4xZ2")
    H = subgroup_closure(g, (index(g, (2, 1)),))
    results = run_checks(g, H, seed=0, rho_samples=50)
    assert built == [H]
    assert all(r.passed for r in results)
    by_name = {r.name: r for r in results}
    assert by_name["compact-maximality"].note == "|K| = 8"
    assert by_name["vacuum-closed-form-vs-nullspace"].residual < 1e-10


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


# a subgroup of another group would run the group-level checks on one group
# and the frame checks on the other, and pass
def test_run_checks_refuses_a_subgroup_of_another_group(monkeypatch):
    def not_called(*args, **kwargs):
        raise AssertionError("a check ran before the group guard")

    monkeypatch.setattr(verify, "check_group_laws", not_called)
    with pytest.raises(GroupMismatchError, match="^descriptor mismatch: Z4 vs Z2$"):
        run_checks(parse_group("Z4"), Subgroup.whole(parse_group("Z2")))


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
    H = subgroup_closure(g, (1,))
    first = run_checks(g, H, seed=4)
    verify._group_checks.cache_clear()  # the second call computes every check again
    assert first == run_checks(g, H, seed=4)


def _bits(results):
    return [(r.name, r.residual.hex(), r.tolerance, r.passed, r.note) for r in results]


# at 50 samples the 100-sample checks read a stack of 100 and the bounds
# checks its first 50; at 200 both read the one stack of 200
@pytest.mark.parametrize(
    "seed, rho_samples", [(0, 50), (3, 50), (0, 200), (3, 200)],
    ids=["0", "3", "0-rho200", "3-rho200"],
)
def test_run_checks_from_the_group_memo_equal_a_cold_run(seed, rho_samples):
    # the suite pairs in a shuffled order, so a group's memo is read by
    # subgroups other than the one that filled it, and entries of other
    # groups come in between
    pairs = suite_pairs()
    order = np.random.default_rng(seed).permutation(len(pairs))
    warm = {i: _bits(run_checks(*pairs[i], seed=seed, rho_samples=rho_samples)) for i in order}
    assert verify._group_checks.cache_info().misses == len(standard_suite())
    for i in order:
        verify._group_checks.cache_clear()
        cold = _bits(run_checks(*pairs[i], seed=seed, rho_samples=rho_samples))
        assert cold == warm[i], pairs[i]
        notes = {name: note for name, _, _, _, note in cold}
        assert notes["husimi-mass"] == notes["channel-trace"] == "100 random rho"
        assert notes["wehrl-noncoherent-floor"].endswith(f" over {rho_samples} states")


def _moved(before, after):
    """Names of the checks whose results differ, over two runs of every suite pair."""
    moved = set()
    for x, y in zip(before, after):
        assert [r[0] for r in x] == [r[0] for r in y]
        moved |= {a[0] for a, b in zip(x, y) if a != b}
    return moved


# each random consumer of run_checks draws on its own stream, so a longer
# density stack moves only the checks that read its rows past the first 100
def test_more_density_samples_move_only_the_checks_that_read_them():
    pairs = suite_pairs()
    at_100 = [_bits(run_checks(g, H, seed=0, rho_samples=100)) for g, H in pairs]
    at_200 = [_bits(run_checks(g, H, seed=0, rho_samples=200)) for g, H in pairs]
    assert _moved(at_100, at_200) == {
        "wehrl-lower-bound", "wehrl-noncoherent-floor", "wehrl-vs-von-neumann"
    }


# with no exhaustive branch, the triple and point checks draw their samples;
# an added draw moves no other check's digits
def test_sampled_branches_move_only_the_checks_that_draw_more(monkeypatch):
    pairs = suite_pairs()
    exhaustive = [_bits(run_checks(g, H, seed=0, rho_samples=100)) for g, H in pairs]
    monkeypatch.setattr(verify.limits, "EXHAUSTIVE_POINTS", 0)
    sampled = [_bits(run_checks(g, H, seed=0, rho_samples=100)) for g, H in pairs]
    assert _moved(exhaustive, sampled) == {
        "group-laws", "character-multiplicativity", "weyl-unitarity", "ccr-commutation"
    }


def test_stream_tags_are_distinct_and_nonzero():
    tags = list(verify._STREAM_TAGS.values())
    assert len(set(tags)) == len(tags) and 0 not in tags


def test_group_level_checks_run_once_per_group_and_seed(monkeypatch):
    calls = []
    exact = verify.check_ccr
    monkeypatch.setattr(verify, "check_ccr", lambda g, seed: calls.append(g) or exact(g, seed))
    g = parse_group("Z2xZ2xZ2")
    subgroups = [H for group, H in suite_pairs() if group == g]
    assert len(subgroups) == 16
    for H in subgroups:
        run_checks(g, H, seed=1, rho_samples=50)
    assert calls == [g]


def test_group_memo_sees_a_patched_limit(monkeypatch):
    g = parse_group("Z2")
    H = Subgroup.whole(g)
    ccr = {r.name: r for r in run_checks(g, H, seed=0, rho_samples=50)}["ccr-commutation"]
    assert ccr.note == "exhaustive, 16 pairs"
    monkeypatch.setattr(verify.limits, "EXHAUSTIVE_POINTS", 0)
    ccr = {r.name: r for r in run_checks(g, H, seed=0, rho_samples=50)}["ccr-commutation"]
    assert ccr.note == "randomized, 10000 pairs"
    assert verify._group_checks.cache_info().misses == 2


@pytest.mark.parametrize("rho_samples", [0, -1])
def test_run_checks_refuses_no_density_samples_before_any_check(rho_samples, monkeypatch):
    def not_called(*args, **kwargs):
        raise AssertionError("a check ran before the rho_samples guard")

    monkeypatch.setattr(verify, "_group_checks", not_called)
    monkeypatch.setattr(verify, "check_annihilator_duality", not_called)
    g = parse_group("Z2")
    with pytest.raises(ValueError, match=f"^rho_samples must be >= 1, got {rho_samples}$"):
        run_checks(g, Subgroup.whole(g), rho_samples=rho_samples)


def _run_script(name, *args):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(root / "scripts" / name), *args],
        capture_output=True, text=True, env=env,
    )


def test_run_suite_refuses_no_density_samples():
    proc = _run_script("run_suite.py", "--rho-samples", "0")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.endswith("error: argument --rho-samples: must be >= 1, got 0\n")


# exit 1 means a failed invariant: a bad argument is an argparse error, exit 2,
# raised before any check, frame or state is built
@pytest.mark.parametrize(
    "script, args, message",
    [
        ("run_suite.py", ("--seed", "-1"), "argument --seed: must be >= 0, got -1"),
    ],
)
def test_scripts_refuse_bad_arguments_with_exit_2(script, args, message, monkeypatch):
    monkeypatch.delenv("WEHRL_DENSE_LIMIT", raising=False)
    proc = _run_script(script, *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.endswith(f"error: {message}\n")


def test_run_checks_product_group_includes_marginals():
    g = parse_group("Z2xZ2")
    H = subgroup_closure(g, (index(g, (1, 0)),))
    names = [r.name for r in run_checks(g, H, seed=0, rho_samples=50)]
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
    result = check_overlap_dichotomy(overlap_matrix(frame))
    assert not result.passed
    assert result.residual > 1e-3


def test_cocycle_phase_matrix_matches_exact_fractions():
    g = parse_group("Z2xZ3")
    pts = np.arange(12)
    M = cocycle_phase_matrix(g, pts, pts)
    L = math.lcm(*g.orders)
    for z in pts.tolist():
        for w in pts.tolist():
            exact = Fraction(int(M[z, w]), L) % 1
            assert exact == cocycle_phase(g, z, w) == phase_oracle.cocycle_phase(g, z, w)


def test_coset_ids_partition():
    g = parse_group("Z6")
    H = subgroup_closure(g, (3,))
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
    omega = phase_oracle.cocycle_phase
    for z, w, v in rng.integers(0, total, size=(samples, 3)).tolist():
        zw = point_add(group, z, w)
        if omega(group, zw, v) != (omega(group, z, v) + omega(group, w, v)) % 1:
            bad += 1
        if omega(group, v, zw) != (omega(group, v, z) + omega(group, v, w)) % 1:
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


# ---------------------------------------------------------------------------
# stacked checks: negative controls, object routes, draw order, sampled branches


def test_dense_vs_apply_catches_a_translation_shifted_by_one(monkeypatch):
    g = parse_group("Z4xZ2")
    exact = verify._apply_points
    monkeypatch.setattr(
        verify, "_apply_points", lambda *args: np.roll(exact(*args), 1, axis=-1)
    )
    result = verify.check_weyl_dense_vs_apply(g, np.random.default_rng(0))
    assert not result.passed and result.residual > 1e-3


def test_group_laws_catch_a_sum_table_with_two_entries_swapped(monkeypatch):
    exact = verify._sum_table

    def swapped(group):
        table = exact(group).copy()
        table[1, [2, 3]] = table[1, [3, 2]]
        return table

    monkeypatch.setattr(verify, "_sum_table", swapped)
    for spec in ("Z4", "Z32"):
        result = verify.check_group_laws(parse_group(spec), np.random.default_rng(0))
        assert not result.passed and result.residual >= 2


def test_character_multiplicativity_catches_a_numerator_off_by_one(monkeypatch):
    exact = verify._pairing_numerators

    def off_by_one(group, a, b):
        # chi_1(0) != 1; an off-by-one elsewhere in Z2's table is still a character
        L, _ = _phase_weights(group)
        m = exact(group, a, b).copy()
        m[1, 0] = (m[1, 0] + 1) % L
        return m

    monkeypatch.setattr(verify, "_pairing_numerators", off_by_one)
    for spec in ("Z2", "Z3xZ3"):
        result = verify.check_character_multiplicativity(
            parse_group(spec), np.random.default_rng(0)
        )
        assert not result.passed and result.residual > 1e-3


@pytest.mark.parametrize("group", standard_suite(), ids=str)
def test_object_routes_agree_with_the_index_arithmetic(group):
    d = group.order
    sums = verify._sum_table(group)
    L, _ = _phase_weights(group)
    els = elements(group)
    assert [index(group, a) for a in els] == list(range(d))
    for a in els:
        assert sums[index(group, a), index(group, neg(group, a))] == 0
        for b in els:
            assert index(group, add(group, a, b)) == sums[index(group, a), index(group, b)]
    values = _unit_roots(L)[verify._pairing_numerators(group, slice(None), slice(None))]
    for i, chi in enumerate(els):
        assert [phase_to_complex(pairing_phase(group, chi, g)) for g in els] == values[i].tolist()


@pytest.mark.parametrize("d", range(1, 17))
def test_random_density_stack_equals_one_matrix_at_a_time(d):
    stacked_rng, scalar_rng = np.random.default_rng(d), np.random.default_rng(d)
    stacked = _random_density_stack(d, 5, stacked_rng)
    scalar = np.stack([random_density_matrix(d, scalar_rng) for _ in range(5)])
    assert np.array_equal(stacked, scalar)
    assert stacked_rng.random() == scalar_rng.random()


@pytest.mark.parametrize("spec", ["Z1", "Z6", "Z4xZ8"])
def test_dense_vs_apply_draws_like_one_state_per_sample(spec):
    g = parse_group(spec)
    stacked_rng, scalar_rng = np.random.default_rng(3), np.random.default_rng(3)
    assert verify.check_weyl_dense_vs_apply(g, stacked_rng).passed
    scalar_rng.integers(0, g.order ** 2, size=1000)
    for _ in range(1000):
        random_state_vector(g.order, scalar_rng)
    assert stacked_rng.random() == scalar_rng.random()


@pytest.mark.parametrize("spec", ["Z32", "Z4xZ8", "Z2xZ2xZ2xZ2xZ2"])
@pytest.mark.parametrize("whole", [True, False], ids=["H=G", "H=0"])
def test_run_checks_sampled_branches_above_order_16(spec, whole, monkeypatch):
    monkeypatch.setenv("WEHRL_DENSE_LIMIT", "1024")
    g = parse_group(spec)
    H = Subgroup.whole(g) if whole else Subgroup.trivial(g)
    results = {r.name: r for r in run_checks(g, H, seed=0, rho_samples=200)}
    failed = [r for r in results.values() if not r.passed]
    assert not failed, failed
    assert results["group-laws"].note == "1000 associativity triples"
    assert results["character-multiplicativity"].note == "1000 triples"
    assert results["weyl-unitarity"].note == "100 points"


def _per_point_checks(group, frame, rng):
    """The per-point routes of the six stacked checks, drawing from rng in run_checks order."""
    d = group.order
    els = elements(group)
    zero = els[0]

    def plus(a, b):
        return add(group, a, b)

    def chi_at(chi, g):
        return phase_to_complex(pairing_phase(group, chi, g))

    bad = sum(plus(a, neg(group, a)) != zero for a in els)
    bad += sum(plus(a, b) != plus(b, a) for a in els for b in els)
    if d <= 16:
        triples = [(a, b, c) for a in els for b in els for c in els]
    else:
        triples = [tuple(els[i] for i in t) for t in rng.integers(0, d, size=(1000, 3)).tolist()]
    bad += sum(plus(plus(a, b), c) != plus(a, plus(b, c)) for a, b, c in triples)
    if d <= 16:
        char_triples = [(chi, g, h) for chi in els for g in els for h in els]
    else:
        pick = rng.integers(0, d, size=(1000, 3)).tolist()
        char_triples = [(els[i], els[j], els[k]) for i, j, k in pick]
    mult = max(abs(chi_at(chi, plus(g, h)) - chi_at(chi, g) * chi_at(chi, h))
               for chi, g, h in char_triples)
    if d <= 16:
        points = range(d * d)
    else:
        points = rng.integers(0, d * d, size=100).tolist()
    unitarity = 0.0
    for z in points:
        W = pointwise_weyl_matrix(group, z)
        unitarity = max(unitarity, float(np.abs(W.conj().T @ W - np.eye(d)).max()))
    dense = 0.0
    for z in rng.integers(0, d * d, size=1000).tolist():
        f = random_state_vector(d, rng)
        residual = pointwise_weyl_matrix(group, z) @ f - roll_weyl_apply(group, z, f)
        dense = max(dense, float(np.abs(residual).max()))
    K, _ = frame.cosets()
    fid = frame.fiducial
    invariance = max(
        float(np.abs(roll_weyl_apply(group, u, fid) - fid).max()) for u in K.indices.tolist()
    )
    offcoset = max(
        (abs(np.vdot(fid, roll_weyl_apply(group, z, fid))) for z in range(d * d) if z not in K),
        default=0.0,
    )
    return {
        "group-laws": bad,
        "character-multiplicativity": mult,
        "weyl-unitarity": unitarity,
        "weyl-dense-vs-apply": dense,
        "vacuum-invariance": invariance,
        "offcoset-vanishing": offcoset,
    }


@pytest.mark.parametrize(
    "spec, gens",
    [("Z1", ()), ("Z4", ((2,),)), ("Z6", ((1,),)), ("Z3xZ3", ()), ("Z2xZ2xZ2", ((1, 0, 0),)),
     ("Z32", ((8,),))],
)
def test_stacked_checks_match_their_per_point_routes(spec, gens, monkeypatch):
    monkeypatch.setenv("WEHRL_DENSE_LIMIT", "1024")
    g = parse_group(spec)
    frame = CoherentFrame.vacuum(subgroup_closure(g, tuple(index(g, c) for c in gens)))
    stacked_rng, scalar_rng = np.random.default_rng(7), np.random.default_rng(7)
    stacked = {
        "group-laws": verify.check_group_laws(g, stacked_rng),
        "character-multiplicativity": verify.check_character_multiplicativity(g, stacked_rng),
        "weyl-unitarity": verify.check_weyl_unitarity(g, stacked_rng),
        "weyl-dense-vs-apply": verify.check_weyl_dense_vs_apply(g, stacked_rng),
        "vacuum-invariance": verify.check_vacuum_invariance(frame),
        "offcoset-vanishing": verify.check_offcoset_vanishing(
            frame, verify._outside_points(frame)
        ),
    }
    scalar = _per_point_checks(g, frame, scalar_rng)
    assert stacked_rng.random() == scalar_rng.random()
    for name in ("group-laws", "weyl-unitarity", "vacuum-invariance"):
        assert stacked[name].residual == scalar[name], name  # same arithmetic, same bits
    for name in ("character-multiplicativity", "weyl-dense-vs-apply", "offcoset-vanishing"):
        # products summed or multiplied in another order: a few ulps of 1
        assert abs(stacked[name].residual - scalar[name]) <= 4 * np.finfo(float).eps, name
    assert all(r.passed for r in stacked.values())


def _spy_everywhere(monkeypatch, module, name, calls, record):
    """Replace module.name in every wehrl module bound to it; each call appends record(*args)."""
    exact = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(record(*args))
        return exact(*args, **kwargs)

    for bound in [m for key, m in sys.modules.items() if key.split(".")[0] == "wehrl"]:
        if getattr(bound, name, None) is exact:
            monkeypatch.setattr(bound, name, spy)


# the 16 subgroups of Z2xZ2xZ2 at one seed share one drawn stack, validated
# and diagonalised once, and one product-structure check; no Cholesky
# factorisation revalidates the stack. Each pair computes the stack's Husimi
# values, its overlap matrix, its coset basis and A(H) once
def test_battery_draws_and_validates_one_stack_per_group(monkeypatch):
    draws, stacks, factorised, products = [], [], [], []
    husimi_calls, overlaps, bases, annihilators = [], [], [], []
    exact_draw = verify._random_density_stack
    exact_eigvalsh = np.linalg.eigvalsh
    exact_cholesky = np.linalg.cholesky
    exact_product = verify.check_product_structure

    def draw(d, n, rng):
        draws.append((d, n))
        return exact_draw(d, n, rng)

    def eigvalsh(a, *args, **kwargs):
        stacks.append(np.shape(a))
        return exact_eigvalsh(a, *args, **kwargs)

    def cholesky(a, *args, **kwargs):
        factorised.append(np.shape(a))
        return exact_cholesky(a, *args, **kwargs)

    def product(group, rhos):
        products.append((group, np.shape(rhos)))
        return exact_product(group, rhos)

    monkeypatch.setattr(verify, "_random_density_stack", draw)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    monkeypatch.setattr(verify, "check_product_structure", product)
    _spy_everywhere(
        monkeypatch, entropy, "_husimi_values", husimi_calls,
        lambda frame, rho: (frame.subgroup, np.shape(rho)),
    )
    _spy_everywhere(monkeypatch, frames, "overlap_matrix", overlaps, lambda frame: frame)
    _spy_everywhere(monkeypatch, frames, "coset_basis", bases, lambda frame: frame)
    _spy_everywhere(monkeypatch, groups, "annihilator", annihilators, lambda H: H)
    g = parse_group("Z2xZ2xZ2")
    subgroups = [H for group, H in suite_pairs() if group == g]
    assert len(subgroups) == 16
    for H in subgroups:
        for calls in (husimi_calls, overlaps, bases, annihilators):
            calls.clear()
        assert all(r.passed for r in run_checks(g, H, seed=2, rho_samples=200))
        # on the pair's frame: the stack once and the flat state for entropy_report;
        # the channel checks read densities, not Husimi values
        on_pair = Counter(shape for frame_subgroup, shape in husimi_calls if frame_subgroup is H)
        assert on_pair == {(200, 8, 8): 1, (8, 8): 1}, on_pair
        assert len(overlaps) == len(bases) == 1
        assert annihilators == [H]
    assert draws == [(8, 200)]
    assert [shape for shape in stacks if len(shape) == 3] == [(200, 8, 8)]
    assert factorised == []
    assert products == [(g, (100, 8, 8))]


# run_checks computes the Husimi values of the whole shared stack, and their
# entropies, once and hands each check its first 100 or rho_samples rows; the
# bits must be those of computing them on the slice alone
@pytest.mark.parametrize("rho_samples", [50, 200, 1000])
def test_shared_husimi_values_sliced_equal_the_per_slice_bits(rho_samples):
    key = tuple(getattr(limits, name) for name in limits.__all__ if name.isupper())
    for g, H in suite_pairs():
        rhos = verify._group_checks(g, 0, rho_samples, key + (weyl.CCR_SAMPLES,)).rhos
        assert len(rhos) == max(100, rho_samples)
        frame = CoherentFrame.vacuum(H)
        q = verify._husimi_values(frame, rhos)
        entropies = verify._entropy_sum(q, frame.haar_weight)
        for m in {100, rho_samples}:
            own = verify._husimi_values(frame, rhos[:m])
            assert q[:m].tobytes() == own.tobytes(), (g, H, m)
            own_entropies = verify._entropy_sum(own, frame.haar_weight)
            assert entropies[:m].tobytes() == own_entropies.tobytes(), (g, H, m)
