"""Tests of the benchmark's own checkers.

    python3 -m pytest perfbench
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from perfbench import oracle, tracing


@pytest.mark.parametrize(
    "spec, count",
    [("Z64", 7), ("Z2xZ2", 5), ("Z2xZ2xZ2", 16), ("Z3xZ3", 6), ("Z6xZ6", 30), ("Z1", 1)],
)
def test_brute_force_subgroup_counts(spec, count):
    assert len(oracle.brute_force_subgroups(oracle.parse_orders(spec))) == count


def test_brute_force_subgroups_are_closed_and_divide_the_order():
    orders = (4, 2)
    for H in oracle.brute_force_subgroups(orders):
        assert oracle.is_closed(orders, H)
        assert 8 % len(H) == 0
        assert oracle.annihilator_order(orders, H) * len(H) == 8


def test_annihilator_and_doubling_by_hand():
    assert oracle.annihilator_order((4,), {(0,), (2,)}) == 2  # characters 0 and 2
    assert oracle.doubling_is_onto((3,), {(0,), (1,), (2,)})
    assert not oracle.doubling_is_onto((4,), {(0,), (2,)})


# Z2 worked by hand: |g, a>(h) = (-1)^(a h) [h in g + H] / sqrt|H|.
# H = {0}:  Q(g, a) = |psi(g)|^2.
# H = Z2:   Q(g, a) = |psi(0) + (-1)^a psi(1)|^2 / 2.
@pytest.mark.parametrize(
    "subgroup, psi, expected",
    [
        ({(0,)}, [0.6, 0.8j], [0.36, 0.36, 0.64, 0.64]),
        ({(0,), (1,)}, [0.6, 0.8], [0.98, 0.02, 0.98, 0.02]),
        ({(0,), (1,)}, [0.6, 0.8j], [0.5, 0.5, 0.5, 0.5]),
    ],
)
def test_husimi_z2_by_hand(subgroup, psi, expected):
    psi = np.array(psi, dtype=complex)
    q = oracle.husimi_vector((2,), subgroup, psi)
    np.testing.assert_allclose(q, expected, atol=1e-15)
    np.testing.assert_allclose(
        oracle.husimi_density((2,), subgroup, np.outer(psi, psi.conj())), expected, atol=1e-15
    )
    assert oracle.wehrl(q, 2) == pytest.approx(-sum(x * math.log(x) for x in expected) / 2)


def test_husimi_z2_density_by_hand():
    rho = np.diag([0.25, 0.75]).astype(complex)
    np.testing.assert_allclose(oracle.husimi_density((2,), {(0,)}, rho), [0.25, 0.25, 0.75, 0.75])
    np.testing.assert_allclose(oracle.husimi_density((2,), {(0,), (1,)}, rho), [0.5] * 4)


def test_coherent_vector_is_a_row_of_the_frame_and_a_channel_fixed_point():
    orders, H = (4, 2), {(0, 0), (2, 0)}
    v = oracle.coherent_vector(orders, H, (1, 1), (3, 0))
    rows = oracle.coherent_states(orders, H)
    np.testing.assert_array_equal(v, rows[(1 * 2 + 1) * 8 + 3 * 2 + 0])
    rho = np.outer(v, v.conj())
    np.testing.assert_allclose(oracle.channel(orders, H, rho), rho, atol=1e-14)
    q = oracle.husimi_vector(orders, H, v)
    assert np.count_nonzero(q > 0.5) == 8 and oracle.wehrl(q, 8) == pytest.approx(0, abs=1e-14)


def test_tail_percentile_keeps_ten_samples_beyond():
    xs = list(range(1, 54))  # 53 samples
    assert oracle.tail_percentile(xs) == (81, 43)
    assert oracle.tail_percentile(list(range(1, 1001))) == (99, 990)
    assert oracle.tail_percentile(list(range(1, 41))) == (75, 30)
    for n in (11, 53, 57, 1062, 2124, 3186):
        p, value = oracle.tail_percentile(range(n))
        assert sum(x > value for x in range(n)) >= 10
        assert n - math.ceil((p + 1) * n / 100) < 10 or p == 99
    with pytest.raises(ValueError):
        oracle.tail_percentile(range(10))


def test_benchmark_json_lists_the_traced_metrics():
    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == tracing.LAYER_METRICS


def test_tracer_wraps_every_binding_and_restores_them():
    import contextlib
    import io
    import sys

    sys.path.insert(0, str(Path(__file__).parent.parent / "src"))
    import wehrl.cli
    import wehrl.entropy
    import wehrl.groups

    original = wehrl.entropy.husimi
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert wehrl.cli.husimi is wehrl.entropy.husimi is not original
        with contextlib.redirect_stdout(io.StringIO()):
            code = wehrl.cli.main(["husimi", "--group", "Z2", "--state", "maximally_mixed"])
        assert code == 0
        wehrl.groups.all_subgroups(wehrl.groups.parse_group("Z4"))
    finally:
        tracer.uninstall()
    assert wehrl.cli.husimi is wehrl.entropy.husimi is original
    calls = tracer.counts
    for key in ("cli.main", "cli.build_parser", "cli.commands", "entropy.husimi",
                "states.check_density_matrix", "io.husimi_to_csv", "groups.all_subgroups"):
        assert calls[key] == 1, key
    # the lattice's closures are charged to all_subgroups; no --subgroup was parsed
    assert calls["groups.subgroup_closure"] == 0
    assert all(s >= 0 for s in tracer.self_s.values())
