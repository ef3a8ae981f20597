"""Every size threshold that chooses or refuses a code path, in one place.

The caps keep the dense objects bounded (Weyl matrices on C^|G|, the
(|F|, |G|) frame of coherent states, the subgroup lattice); the thresholds
pick between an exhaustive and a sampled route, or between two kernels.
Modules read them as `limits.NAME` when they are called, so one
monkeypatch of this module reaches every use. `WEHRL_DENSE_LIMIT` is the
one setting.

A count over a cap is refused by `require_within`, the one place that
words the refusal: a `DenseLimitError` naming the label, the count, the
cap and the cap's name. The subgroup lattice is the exception:
`all_subgroups` stops as soon as it has found more than SUBGROUP_CAP
subgroups, so its message gives that cap as a lower bound, not a count.
"""

from __future__ import annotations

import os

__all__ = [
    "DenseLimitError",
    "DEFAULT_DENSE_LIMIT",
    "STATE_MATRIX_CAP",
    "CHARACTER_TABLE_CAP",
    "SUBGROUP_CAP",
    "EXHAUSTIVE_POINTS",
    "GEMM_ORDER_PER_FACTOR",
    "BLOCK_BYTES",
    "dense_limit",
    "require_dense",
    "require_within",
    "blocks",
]

# dense (d, d) matrices on C^|G| and over phase space, unless WEHRL_DENSE_LIMIT
# sets another d: Weyl matrices, the overlap matrix, every CLI subcommand
DEFAULT_DENSE_LIMIT = 256
# |F| above this is never materialised as a (|F|, |G|) state matrix
STATE_MATRIX_CAP = 4096
# |G| above this never gets a full (|G|, |G|) character table (16 MiB)
CHARACTER_TABLE_CAP = 1024
# `all_subgroups` stops once the lattice has more subgroups than this
# (Z2^6 has 2,825; Z2^7 has 29,212)
SUBGROUP_CAP = 4096
# checks enumerate every point (pair, triple) of phase space when
# |F| = |G|^2 is at most this, and sample otherwise
EXHAUSTIVE_POINTS = 256
# `group_dft` multiplies by the character table when |G| is at most this many
# times the number of cyclic factors (and the table is within its cap):
# fftn's cost grows with the number of axes, the GEMM's with |G|^2
GEMM_ORDER_PER_FACTOR = 32
# target size in bytes of one temporary in the loops that work in blocks
# (`blocks`): the closure, coset and sum tables of `groups`, minimize's
# (rows, |G|, |G|), verify_ccr's (pairs, |G|, probes) and the Weyl stacks
BLOCK_BYTES = 1 << 18


class DenseLimitError(ValueError):
    """A dense path or an enumeration was asked to exceed its size cap."""


def dense_limit() -> int:
    """Dense-matrix dimension cap; override with WEHRL_DENSE_LIMIT."""
    raw = os.environ.get("WEHRL_DENSE_LIMIT")
    if raw is None:
        return DEFAULT_DENSE_LIMIT
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"WEHRL_DENSE_LIMIT must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"WEHRL_DENSE_LIMIT must be >= 1, got {value}")
    return value


def require_within(label: str, count: int, cap: int, cap_name: str) -> None:
    """DenseLimitError when count, the size named by label, exceeds cap."""
    if count > cap:
        raise DenseLimitError(f"{label} = {count} exceeds the {cap_name} {cap}")


def require_dense(label: str, count: int) -> None:
    """DenseLimitError when count, a dense dimension named by label, exceeds `dense_limit()`."""
    require_within(label, count, dense_limit(), "dense-matrix limit")


def blocks(n: int, row_bytes: int):
    """Slices covering range(n), each of about BLOCK_BYTES at row_bytes a row."""
    step = max(1, BLOCK_BYTES // row_bytes)
    return (slice(start, min(start + step, n)) for start in range(0, n, step))
