"""Checkers made apart from the program under test.

Everything here works from a group's tuple of cyclic orders and plain
numpy; nothing imports `wehrl`. Elements and characters are coordinate
tuples, the character `a` evaluates on `h` as exp(2 pi i sum_j a_j h_j / n_j),
and phase-space points are listed in lex order, group part major.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from itertools import combinations_with_replacement, product

import numpy as np

Coords = tuple[int, ...]

_FACTOR = re.compile(r"Z(\d+)")


def parse_orders(spec: str) -> tuple[int, ...]:
    """'Z4xZ2' -> (4, 2)."""
    orders = []
    for part in spec.split("x"):
        m = _FACTOR.fullmatch(part)
        if m is None:
            raise ValueError(f"bad group spec {spec!r}")
        orders.append(int(m.group(1)))
    return tuple(orders)


def parse_coord_list(text: str) -> list[Coords]:
    """'0,0;1,0' -> [(0, 0), (1, 0)]."""
    return [tuple(int(c) for c in chunk.split(",")) for chunk in text.split(";")]


@lru_cache(maxsize=None)
def elements(orders: tuple[int, ...]) -> tuple[Coords, ...]:
    """All coordinate tuples in lex order; position = mixed-radix index."""
    return tuple(product(*(range(n) for n in orders)))


def add(orders: tuple[int, ...], x: Coords, y: Coords) -> Coords:
    return tuple((a + b) % n for a, b, n in zip(x, y, orders))


def generated(orders: tuple[int, ...], gens) -> frozenset:
    """The subgroup generated by `gens`: all sums of multiples."""
    span = {(0,) * len(orders)}
    for g in gens:
        multiples = [(0,) * len(orders)]
        x = g
        while any(x):
            multiples.append(x)
            x = add(orders, x, g)
        span = {add(orders, s, m) for s in span for m in multiples}
    return frozenset(span)


def brute_force_subgroups(orders: tuple[int, ...]) -> set[frozenset]:
    """Every subgroup of Z_{n_1} x ... x Z_{n_k}, as frozensets of coordinates.

    A subgroup of a finite abelian group with k cyclic factors needs at
    most k generators, so closing every multiset of k elements finds them
    all (the zero element pads shorter generator lists).
    """
    return {
        generated(orders, gens)
        for gens in combinations_with_replacement(elements(orders), len(orders))
    }


def is_closed(orders: tuple[int, ...], subset) -> bool:
    s = set(subset)
    return all(add(orders, x, y) in s for x in s for y in s)


def annihilator_order(orders: tuple[int, ...], subgroup) -> int:
    """Number of characters equal to 1 on every element, in integer arithmetic."""
    L = math.lcm(*orders)
    w = [L // n for n in orders]
    return sum(
        all(sum(ai * hi * wi for ai, hi, wi in zip(a, h, w)) % L == 0 for h in subgroup)
        for a in elements(orders)
    )


def doubling_is_onto(orders: tuple[int, ...], subgroup) -> bool:
    """Whether 2H = H."""
    return {add(orders, h, h) for h in subgroup} == set(subgroup)


@lru_cache(maxsize=None)
def character_table(orders: tuple[int, ...]) -> np.ndarray:
    """(|G|, |G|) values chi_a(h), row a, column h, lex order."""
    grid = np.array(elements(orders), dtype=np.int64)
    L = math.lcm(*orders)
    w = np.array([L // n for n in orders], dtype=np.int64)
    m = ((grid * w) @ grid.T) % L
    table = np.exp(2j * np.pi * m / L)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def coset_indicators(orders: tuple[int, ...], subgroup: frozenset) -> np.ndarray:
    """(|G|, |G|) 0/1 array: row g is the indicator of g + H."""
    els = elements(orders)
    pos = {x: i for i, x in enumerate(els)}
    ind = np.zeros((len(els), len(els)))
    for i, g in enumerate(els):
        for h in subgroup:
            ind[i, pos[add(orders, g, h)]] = 1.0
    ind.flags.writeable = False
    return ind


def coherent_states(orders: tuple[int, ...], subgroup) -> np.ndarray:
    """(|G|^2, |G|) rows |g, a>(h) = chi_a(h) [h in g + H] / sqrt|H|, lex order."""
    X = character_table(orders)
    ind = coset_indicators(orders, frozenset(subgroup))
    d = len(X)
    states = ind[:, None, :] * X[None, :, :] / math.sqrt(len(subgroup))
    return states.reshape(d * d, d)


def coherent_vector(orders: tuple[int, ...], subgroup, g: Coords, a: Coords) -> np.ndarray:
    """|g, a>(h) = chi_a(h) [h in g + H] / sqrt|H|."""
    coset = {add(orders, g, h) for h in subgroup}
    L = math.lcm(*orders)
    phases = [sum(x * y * (L // n) for x, y, n in zip(a, h, orders)) % L for h in elements(orders)]
    mask = [h in coset for h in elements(orders)]
    return np.exp(2j * np.pi * np.array(phases) / L) * np.array(mask) / math.sqrt(len(subgroup))


def husimi_vector(orders, subgroup, psi: np.ndarray) -> np.ndarray:
    """Q(g, a) = |sum_{h in g+H} conj chi_a(h) psi(h)|^2 / |H|, lex order."""
    X = character_table(orders)
    ind = coset_indicators(orders, frozenset(subgroup))
    amps = X.conj() @ (psi[:, None] * ind.T)  # [a, g]
    return (np.abs(amps.T) ** 2).reshape(-1) / len(subgroup)


def husimi_density(orders, subgroup, rho: np.ndarray) -> np.ndarray:
    """Q(g, a) = <g, a| rho |g, a>, lex order."""
    Z = coherent_states(orders, subgroup)
    return np.einsum("zk,zk->z", Z.conj() @ rho, Z).real


def wehrl(q: np.ndarray, d: int) -> float:
    """-sum_z Q log Q / |G|, with 0 log 0 = 0."""
    pos = q[q > 0]
    return float(-(pos * np.log(pos)).sum() / d)


def von_neumann(rho: np.ndarray) -> float:
    eig = np.linalg.eigvalsh(rho)
    eig = eig[eig > 0]
    return float(-(eig * np.log(eig)).sum())


def channel(orders, subgroup, rho: np.ndarray) -> np.ndarray:
    """sum_z Q(z) |z><z| / |G| over the vacuum frame of H."""
    Z = coherent_states(orders, subgroup)
    q = np.einsum("zk,zk->z", Z.conj() @ rho, Z).real
    return (Z.T * (q / len(rho))) @ Z.conj()


def median(samples) -> float:
    return float(np.median(np.asarray(samples, dtype=float)))


def tail_percentile(samples, beyond: int = 10) -> tuple[int, float]:
    """Highest whole percentile with at least `beyond` samples above it.

    Nearest-rank: percentile p is the ceil(p n / 100)-th smallest sample.
    Raises ValueError when fewer than beyond + 1 samples are given.
    """
    xs = sorted(float(x) for x in samples)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= beyond:
            return p, xs[rank - 1]
    raise ValueError(f"{n} samples leave no percentile with {beyond} beyond it")
