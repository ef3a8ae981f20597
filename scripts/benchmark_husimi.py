"""Time the transform Husimi path against the dense reference on cyclic groups.

The dense path materialises the |F| x |G| state matrix; the fast path
computes <z|psi> for pure states with one group Fourier transform per
translate (`group_dft`: a character-table GEMM up to Z32, fftn on Z64).
Both are exact, so the interesting number is the wall-clock ratio as |G|
grows.
"""

import argparse
import sys
import time

import numpy as np

from wehrl import CoherentFrame, Subgroup, husimi, husimi_fast, parse_group
from wehrl.states import pure_density, random_state_vector


def best_of(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--orders", type=int, nargs="+", default=[16, 32, 64])
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"{'group':8s} {'dense':>10s} {'fast':>10s} {'speedup':>8s} {'max diff':>10s}")
    for n in args.orders:
        group = parse_group(f"Z{n}")
        frame = CoherentFrame.vacuum(Subgroup.whole(group))
        frame.state_matrix()  # cache outside the timed region
        psi = random_state_vector(n, rng)
        rho = pure_density(psi)
        t_dense = best_of(lambda: husimi(frame, rho), args.repeats)
        t_fast = best_of(lambda: husimi_fast(frame, psi), args.repeats)
        diff = np.abs(husimi(frame, rho).values - husimi_fast(frame, psi).values).max()
        print(f"Z{n:<7d} {t_dense*1e3:9.3f}ms {t_fast*1e3:9.3f}ms "
              f"{t_dense/t_fast:7.1f}x {diff:10.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
