"""Chirp frames: Lagrangian (stabiliser) frames whose fiducial is not a vacuum.

The chirp exp(pi i a x^2 / n) / sqrt(n) on Z_n (even n) or
exp(2 pi i a x^2 / n) / sqrt(n) (odd n) is an eigenvector, up to phase, of
the n Weyl operators of a Lagrangian line through the origin, and it is
the indicator of no subgroup. Products of chirps with chirps or with a
vacuum are stabiliser frames too.
"""

from __future__ import annotations

import numpy as np

from wehrl import CoherentFrame, Subgroup, parse_group, product_frame


def chirp(n: int, a: int = 1) -> np.ndarray:
    x = np.arange(n)
    turns = a * x * x / n if n % 2 else a * x * x / (2 * n)
    return np.exp(2j * np.pi * turns) / np.sqrt(n)


def chirp_frame(n: int, a: int = 1) -> CoherentFrame:
    return CoherentFrame(parse_group(f"Z{n}"), chirp(n, a))


def chirp_frames() -> list[CoherentFrame]:
    """Chirps on Z2 .. Z64 (a = 3 on Z32), chirp x chirp on Z4xZ4, chirp x delta_0 on Z3xZ5."""
    frames = [chirp_frame(n) for n in (2, 4, 5, 7, 8, 9, 16, 64)]
    frames.append(chirp_frame(32, 3))
    frames.append(product_frame(chirp_frame(4), chirp_frame(4)))
    delta = CoherentFrame.vacuum(Subgroup.trivial(parse_group("Z5")))
    frames.append(product_frame(chirp_frame(3), delta))
    return frames
