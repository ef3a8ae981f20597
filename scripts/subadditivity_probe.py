"""Probe the strengthened subadditivity inequality on random bipartite states.

Reports the distribution of

    gap = S^W(rho12) - [S^W(rho1) + S^W(rho2) + S(rho12) - S(rho1) - S(rho2)]

over random mixed and random pure states on G1 x G2.  The gap vanishes on
product states; whether it is nonnegative in general is open here, so this
script only reports the observed minimum and never asserts anything.  A bad
argument, including |G1 x G2| above the dense-matrix limit, exits 2 before
any frame is built.
"""

import argparse
import sys

import numpy as np

from wehrl import CoherentFrame, Subgroup, limits, parse_group, pure_density, subadditivity_gap
from wehrl.states import random_density_matrix, random_state_vector


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
    parser.add_argument("--factors", nargs=2, default=["Z2", "Z2"],
                        help="the two factor groups (default Z2 Z2)")
    parser.add_argument("--samples", type=at_least(1), default=200,
                        help="random states of each kind, at least 1 (default 200)")
    parser.add_argument("--seed", type=at_least(0), default=0,
                        help="seed of the state generator, at least 0 (default 0)")
    args = parser.parse_args()

    try:
        g1, g2 = (parse_group(s) for s in args.factors)
        d = g1.order * g2.order
        # the dense (d, d) densities of every sample, refused up front as the CLI does
        limits.require_dense("|G1 x G2|", d)
    except ValueError as exc:  # DenseLimitError included
        parser.error(str(exc))
    fr1 = CoherentFrame.vacuum(Subgroup.whole(g1))
    fr2 = CoherentFrame.vacuum(Subgroup.whole(g2))
    rng = np.random.default_rng(args.seed)

    mixed = [subadditivity_gap(fr1, fr2, random_density_matrix(d, rng))
             for _ in range(args.samples)]
    pure = [subadditivity_gap(fr1, fr2, pure_density(random_state_vector(d, rng)))
            for _ in range(args.samples)]

    for label, gaps in (("mixed", np.array(mixed)), ("pure", np.array(pure))):
        print(f"{label:6s} n={args.samples}  min={gaps.min():+.6e}  "
              f"median={np.median(gaps):+.6e}  max={gaps.max():+.6e}")
    if min(np.min(mixed), np.min(pure)) >= -1e-9:
        print("no violation observed at this sample size (not a proof)")
    else:
        print("violation candidate found; inspect before believing it")
    return 0


if __name__ == "__main__":
    sys.exit(main())
