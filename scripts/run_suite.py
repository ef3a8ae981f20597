"""Run the full check battery over the standard suite and print a summary.

One line per (group, subgroup) pair with the worst residual across all
checks; exits 1 if anything fails and 2 on a bad argument.  The whole run
stays well under the five-minute budget on a laptop.
"""

import os

# One BLAS / OpenMP thread unless the caller sets one: at these matrix sizes
# a second thread only adds hand-off cost and noise. This must happen before
# numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from wehrl.verify import run_checks, suite_pairs  # noqa: E402


def at_least(low: int):
    """An argparse type: an int of at least low; argparse turns a refusal into exit 2."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return integer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=at_least(0), default=0,
                        help="seed of every check's generator, at least 0 (default 0)")
    parser.add_argument(
        "--rho-samples", type=at_least(1), default=200,
        help="random density matrices per statistical check, at least 1 (default 200)",
    )
    args = parser.parse_args()

    failures = 0
    total_checks = 0
    t0 = time.perf_counter()
    for group, sub in suite_pairs():
        t1 = time.perf_counter()
        results = run_checks(group, sub, seed=args.seed, rho_samples=args.rho_samples)
        dt = time.perf_counter() - t1
        total_checks += len(results)
        bad = [r for r in results if not r.passed]
        failures += len(bad)
        worst = max(r.residual for r in results)
        status = "ok" if not bad else "FAIL(" + ",".join(r.name for r in bad) + ")"
        print(f"{str(group):12s} H={str(sub):20s} {len(results):3d} checks  "
              f"worst={worst:9.2e}  {dt:6.2f}s  {status}")
    elapsed = time.perf_counter() - t0
    print(f"\n{total_checks} checks, {failures} failures, {elapsed:.3f}s total")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
