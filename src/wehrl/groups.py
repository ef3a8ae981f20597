"""Exact arithmetic for finite abelian groups, their duals, and phase space.

A group is a direct product of cyclic factors Z_{n_1} x ... x Z_{n_k}.
Elements and characters are coordinate tuples reduced modulo the factor
orders; the character with coordinates a evaluates on g as
exp(2*pi*i * sum_j a_j g_j / n_j). Every such phase is a root of unity of
order dividing L = lcm(n_j), so it is carried as an exact integer numerator
m mod L (`_phase_weights`) and exponentiated once per (m, L) by
`_unit_roots`; equal phases give bit-identical complex values.
`Character.phase` keeps an exact `fractions.Fraction` route as a test oracle.

Presentations are not canonicalised (no Smith normal form): Z4 and Z2xZ2
are distinct descriptors even though both have order 4.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product as _cartesian
from typing import Iterable, Iterator

import numpy as np

from .states import _BLOCK_BYTES

__all__ = [
    "FiniteAbelianGroup",
    "GroupElement",
    "Character",
    "PhaseSpacePoint",
    "Subgroup",
    "DualSubgroup",
    "PhaseSpaceSubgroup",
    "GroupMismatchError",
    "phase_space",
    "subgroup_closure",
    "all_subgroups",
    "annihilator",
    "dual_annihilator",
    "maximal_compact",
    "coset_representatives",
    "is_corwin",
    "direct_product",
    "product_point",
    "product_subgroup",
    "parse_group",
    "parse_generators",
    "parse_point",
    "format_coords",
    "format_generators",
    "character_row",
    "CHARACTER_TABLE_CAP",
    "character_table",
    "difference_index_table",
]


class GroupMismatchError(ValueError):
    """Objects from different group descriptors were combined."""


def _require_same_group(a: "FiniteAbelianGroup", b: "FiniteAbelianGroup") -> None:
    if a != b:
        raise GroupMismatchError(f"descriptor mismatch: {a} vs {b}")


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Z_{n_1} x ... x Z_{n_k}, recorded by its tuple of cyclic orders."""

    orders: tuple[int, ...]

    def __post_init__(self) -> None:
        orders = tuple(int(n) for n in self.orders)
        if not orders:
            raise ValueError("a group needs at least one cyclic factor")
        if any(n < 1 for n in orders):
            raise ValueError(f"cyclic orders must be >= 1, got {orders}")
        object.__setattr__(self, "orders", orders)

    @cached_property
    def order(self) -> int:
        return math.prod(self.orders)

    @cached_property
    def _strides(self) -> tuple[int, ...]:
        # mixed-radix strides so that lexicographic coordinate order matches
        # ascending index order
        out = []
        acc = 1
        for n in reversed(self.orders):
            out.append(acc)
            acc *= n
        return tuple(reversed(out))

    def _reduce(self, coords: Iterable[int]) -> tuple[int, ...]:
        coords = tuple(int(c) for c in coords)
        if len(coords) != len(self.orders):
            raise ValueError(
                f"expected {len(self.orders)} coordinates for {self}, got {coords}"
            )
        return tuple(c % n for c, n in zip(coords, self.orders))

    def element(self, coords: Iterable[int]) -> "GroupElement":
        return GroupElement(self, self._reduce(coords))

    def character(self, coords: Iterable[int]) -> "Character":
        return Character(self, self._reduce(coords))

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * len(self.orders))

    def trivial_character(self) -> "Character":
        return Character(self, (0,) * len(self.orders))

    def elements(self) -> Iterator["GroupElement"]:
        """All elements in lexicographic coordinate order."""
        for coords in _cartesian(*(range(n) for n in self.orders)):
            yield GroupElement(self, coords)

    def characters(self) -> Iterator["Character"]:
        for coords in _cartesian(*(range(n) for n in self.orders)):
            yield Character(self, coords)

    def element_by_index(self, index: int) -> "GroupElement":
        return GroupElement(self, self._coords_at(index))

    def character_by_index(self, index: int) -> "Character":
        return Character(self, self._coords_at(index))

    def _coords_at(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.order:
            raise IndexError(f"index {index} out of range for order {self.order}")
        coords = []
        for stride in self._strides:
            q, index = divmod(index, stride)
            coords.append(q)
        return tuple(coords)

    def __str__(self) -> str:
        return "x".join(f"Z{n}" for n in self.orders)


@dataclass(frozen=True)
class GroupElement:
    group: FiniteAbelianGroup
    coords: tuple[int, ...]

    def __add__(self, other: "GroupElement") -> "GroupElement":
        _require_same_group(self.group, other.group)
        return self.group.element(a + b for a, b in zip(self.coords, other.coords))

    def __neg__(self) -> "GroupElement":
        return self.group.element(-c for c in self.coords)

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        _require_same_group(self.group, other.group)
        return self.group.element(a - b for a, b in zip(self.coords, other.coords))

    @property
    def index(self) -> int:
        return sum(c * s for c, s in zip(self.coords, self.group._strides))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __str__(self) -> str:
        return format_coords(self.coords)


@dataclass(frozen=True)
class Character:
    """The character g -> exp(2*pi*i * sum_j coords_j g_j / n_j)."""

    group: FiniteAbelianGroup
    coords: tuple[int, ...]

    def phase(self, g: GroupElement) -> Fraction:
        """Exact evaluation phase in [0, 1) as a `Fraction`: a test oracle.

        The value is exp(2*pi*i*phase). No library path calls this; the
        library works on the integer numerators of `_phase_weights`.
        """
        _require_same_group(self.group, g.group)
        total = Fraction(0)
        for a, h, n in zip(self.coords, g.coords, self.group.orders):
            total += Fraction(a * h, n)
        return total % 1

    def __call__(self, g: GroupElement) -> complex:
        _require_same_group(self.group, g.group)
        L, weights = _phase_weights(self.group)
        m = sum(a * h * w for a, h, w in zip(self.coords, g.coords, weights.tolist())) % L
        return complex(_unit_roots(L)[m])

    def __mul__(self, other: "Character") -> "Character":
        _require_same_group(self.group, other.group)
        return self.group.character(a + b for a, b in zip(self.coords, other.coords))

    def conjugate(self) -> "Character":
        return self.group.character(-a for a in self.coords)

    def is_trivial(self) -> bool:
        return all(a == 0 for a in self.coords)

    @property
    def index(self) -> int:
        return sum(c * s for c, s in zip(self.coords, self.group._strides))

    def values(self) -> np.ndarray:
        """Character values over all group elements, lexicographic order."""
        return character_row(self.group, self.coords)

    def __str__(self) -> str:
        return format_coords(self.coords)


@dataclass(frozen=True)
class PhaseSpacePoint:
    """A point z = (g, chi) of phase space F = G x dual(G)."""

    g: GroupElement
    chi: Character

    def __post_init__(self) -> None:
        _require_same_group(self.g.group, self.chi.group)

    @property
    def group(self) -> FiniteAbelianGroup:
        return self.g.group

    def __add__(self, other: "PhaseSpacePoint") -> "PhaseSpacePoint":
        return PhaseSpacePoint(self.g + other.g, self.chi * other.chi)

    def __sub__(self, other: "PhaseSpacePoint") -> "PhaseSpacePoint":
        return PhaseSpacePoint(self.g - other.g, self.chi * other.chi.conjugate())

    def __neg__(self) -> "PhaseSpacePoint":
        return PhaseSpacePoint(-self.g, self.chi.conjugate())

    def is_identity(self) -> bool:
        return self.g.is_zero() and self.chi.is_trivial()

    @property
    def index(self) -> int:
        return self.g.index * self.group.order + self.chi.index

    @classmethod
    def by_index(cls, group: FiniteAbelianGroup, index: int) -> "PhaseSpacePoint":
        g_idx, a_idx = divmod(index, group.order)
        return cls(group.element_by_index(g_idx), group.character_by_index(a_idx))

    def __str__(self) -> str:
        return f"({self.g};{self.chi})"


def phase_space(group: FiniteAbelianGroup) -> Iterator[PhaseSpacePoint]:
    """All of F = G x dual(G) in lex order: g major, character minor."""
    for g in group.elements():
        for chi in group.characters():
            yield PhaseSpacePoint(g, chi)


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of G, stored by full element enumeration (lex sorted)."""

    group: FiniteAbelianGroup
    elements: tuple[GroupElement, ...]
    generators: tuple[GroupElement, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        coords = frozenset(e.coords for e in self.elements)
        if len(coords) != len(self.elements):
            raise ValueError("duplicate elements in subgroup")
        if (0,) * len(self.group.orders) not in coords:
            raise ValueError("subgroup must contain the neutral element")
        if self.group.order % len(self.elements) != 0:
            raise ValueError("subgroup size must divide the group order")
        for a in self.elements:
            _require_same_group(a.group, self.group)
        if not _sums_stay_inside(self.group, [e.coords for e in self.elements]):
            raise ValueError("element set is not closed under addition")
        ordered = tuple(sorted(self.elements, key=lambda e: e.coords))
        object.__setattr__(self, "elements", ordered)

    @cached_property
    def _coord_set(self) -> frozenset:
        return frozenset(e.coords for e in self.elements)

    def __contains__(self, g: GroupElement) -> bool:
        return g.group == self.group and g.coords in self._coord_set

    @property
    def order(self) -> int:
        return len(self.elements)

    @classmethod
    def whole(cls, group: FiniteAbelianGroup) -> "Subgroup":
        gens = tuple(
            group.element(tuple(int(i == j) for i in range(len(group.orders))))
            for j, n in enumerate(group.orders)
            if n > 1
        )
        return cls(group, tuple(group.elements()), gens)

    @classmethod
    def trivial(cls, group: FiniteAbelianGroup) -> "Subgroup":
        return cls(group, (group.zero(),), ())

    def __str__(self) -> str:
        return format_generators(self.elements)


@dataclass(frozen=True)
class DualSubgroup:
    """A subgroup of the dual group, stored as explicit characters."""

    group: FiniteAbelianGroup
    characters: tuple[Character, ...]

    def __post_init__(self) -> None:
        coords = frozenset(c.coords for c in self.characters)
        if len(coords) != len(self.characters):
            raise ValueError("duplicate characters in dual subgroup")
        if (0,) * len(self.group.orders) not in coords:
            raise ValueError("dual subgroup must contain the trivial character")
        for a in self.characters:
            _require_same_group(a.group, self.group)
        if not _sums_stay_inside(self.group, [c.coords for c in self.characters]):
            raise ValueError("character set is not closed under product")
        ordered = tuple(sorted(self.characters, key=lambda c: c.coords))
        object.__setattr__(self, "characters", ordered)

    @cached_property
    def _coord_set(self) -> frozenset:
        return frozenset(c.coords for c in self.characters)

    def __contains__(self, chi: Character) -> bool:
        return chi.group == self.group and chi.coords in self._coord_set

    @property
    def order(self) -> int:
        return len(self.characters)


@dataclass(frozen=True)
class PhaseSpaceSubgroup:
    """A subgroup of phase space F = G x dual(G)."""

    group: FiniteAbelianGroup
    points: tuple[PhaseSpacePoint, ...]
    subgroup: Subgroup | None = field(default=None, compare=False)
    dual_part: DualSubgroup | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        keys = frozenset((p.g.coords, p.chi.coords) for p in self.points)
        if len(keys) != len(self.points):
            raise ValueError("duplicate points in phase-space subgroup")
        zero = (0,) * len(self.group.orders)
        if (zero, zero) not in keys:
            raise ValueError("phase-space subgroup must contain the identity")
        if (self.group.order ** 2) % len(self.points) != 0:
            raise ValueError("phase-space subgroup size must divide |F|")
        # F = G x dual(G) is the group with the factor orders of G twice
        F = direct_product(self.group, self.group)
        if not _sums_stay_inside(F, [p.g.coords + p.chi.coords for p in self.points]):
            raise ValueError("point set is not closed under addition")
        ordered = tuple(
            sorted(self.points, key=lambda p: (p.g.coords, p.chi.coords))
        )
        object.__setattr__(self, "points", ordered)

    @cached_property
    def _key_set(self) -> frozenset:
        return frozenset((p.g.coords, p.chi.coords) for p in self.points)

    def __contains__(self, z: PhaseSpacePoint) -> bool:
        return z.group == self.group and (z.g.coords, z.chi.coords) in self._key_set

    @property
    def order(self) -> int:
        return len(self.points)

    @classmethod
    def full(cls, group: FiniteAbelianGroup) -> "PhaseSpaceSubgroup":
        return cls(group, tuple(phase_space(group)))

    @classmethod
    def trivial(cls, group: FiniteAbelianGroup) -> "PhaseSpaceSubgroup":
        return cls(group, (PhaseSpacePoint(group.zero(), group.trivial_character()),))


def subgroup_closure(
    group: FiniteAbelianGroup, generators: Iterable[GroupElement]
) -> Subgroup:
    """Smallest subgroup containing the generators.

    Closes on element indices: H + <x> is the union of the cosets H + k*x
    for k below the first k >= 1 with k*x in H, so each generator adds
    whole cosets of the subgroup built so far.
    """
    generators = tuple(generators)
    for g in generators:
        _require_same_group(g.group, group)
    orders = np.array(group.orders, dtype=np.int64)
    strides = np.array(group._strides, dtype=np.int64)
    grid = _coords_grid(group.orders)
    exponent, _ = _phase_weights(group)
    members = np.zeros(1, dtype=np.int64)
    inside = np.zeros(group.order, dtype=bool)
    inside[0] = True
    for gen in generators:
        multiples = (np.arange(exponent)[:, None] * np.array(gen.coords)) % orders
        back_in_H = np.nonzero(inside[multiples[1:] @ strides])[0]
        cut = int(back_in_H[0]) + 1 if back_in_H.size else exponent
        members = ((grid[members][:, None, :] + multiples[None, :cut]) % orders) @ strides
        members = members.reshape(-1)
        inside[members] = True
    elements = tuple(
        GroupElement(group, coords) for coords in map(tuple, grid[np.sort(members)].tolist())
    )
    return Subgroup(group, elements, generators)


def all_subgroups(group: FiniteAbelianGroup) -> tuple[Subgroup, ...]:
    """Every subgroup of G, found by breadth-first closure over generators.

    Deterministic: the result is sorted by (order, element coordinate list).
    Intended for desk-scale groups; the lattice is enumerated in full.
    Closures run on sets of element indices (the mixed-radix integers of
    `element_by_index`); one `Subgroup` is built per subgroup at the end.
    Each subgroup keeps the generators of the path that first reached it.
    """
    coords = [g.coords for g in group.elements()]
    orders, strides = group.orders, group._strides

    def translate(indices, x: int) -> frozenset:
        shift = coords[x]
        return frozenset(
            sum(
                ((c + t) % n) * s
                for c, t, n, s in zip(coords[i], shift, orders, strides)
            )
            for i in indices
        )

    def close(H: frozenset, x: int) -> frozenset:
        # H + <x> is the union of the cosets H + k*x up to the first k*x in H
        closure = set(H)
        coset = translate(H, x)
        while coset.isdisjoint(H):
            closure |= coset
            coset = translate(coset, x)
        return frozenset(closure)

    trivial = frozenset({0})
    found = {trivial: ()}
    frontier = [trivial]
    while frontier:
        current = frontier.pop()
        gens = found[current]
        for x in range(group.order):
            if x in current:
                continue
            bigger = close(current, x)
            if bigger not in found:
                found[bigger] = gens + (x,)
                frontier.append(bigger)
    subgroups = (
        Subgroup(
            group,
            tuple(group.element_by_index(i) for i in sorted(H)),
            tuple(group.element_by_index(i) for i in gens),
        )
        for H, gens in found.items()
    )
    return tuple(
        sorted(subgroups, key=lambda H: (H.order, [e.coords for e in H.elements]))
    )


def _pairing_kernel(group: FiniteAbelianGroup, coords) -> np.ndarray:
    """Mask over the lex-ordered coordinates x that pair to 1 with every row of coords.

    Exact integer arithmetic (`_phase_weights`): the pairing of x and c is
    exp(2*pi*i * m / L) with m = sum_j x_j c_j (L / n_j) mod L. It is
    symmetric, so the same kernel gives the characters that kill a set of
    elements and the elements that a set of characters kills.
    """
    L, weights = _phase_weights(group)
    columns = np.array(coords, dtype=np.int64).reshape(-1, len(group.orders)).T
    grid = _coords_grid(group.orders)  # (d, k)
    return np.all(((grid * weights) @ columns) % L == 0, axis=1)


def annihilator(subgroup: Subgroup) -> DualSubgroup:
    """Characters equal to 1 on all of H; always |A| * |H| = |G|.

    Brute-force filter of all |G| characters through `_pairing_kernel`.
    Testing against generators of H suffices because characters are
    homomorphisms.
    """
    group = subgroup.group
    testers = subgroup.generators if subgroup.generators else subgroup.elements
    mask = _pairing_kernel(group, [h.coords for h in testers])
    chars = tuple(group.character_by_index(int(i)) for i in np.nonzero(mask)[0])
    result = DualSubgroup(group, chars)
    if result.order * subgroup.order != group.order:
        raise RuntimeError(f"annihilator duality failed for {subgroup}")
    return result


def dual_annihilator(dual: DualSubgroup) -> Subgroup:
    """Group elements on which every character of the dual subgroup is 1."""
    group = dual.group
    mask = _pairing_kernel(group, [c.coords for c in dual.characters])
    elements = tuple(group.element_by_index(int(i)) for i in np.nonzero(mask)[0])
    result = Subgroup(group, elements, ())
    if result.order * dual.order != group.order:
        raise RuntimeError("annihilator duality failed for a dual subgroup")
    return result


def maximal_compact(subgroup: Subgroup) -> PhaseSpaceSubgroup:
    """K = H x A(H) inside F; always |K| = |G|.

    For |G| <= 64 the separation property behind maximality is checked
    exhaustively: every g outside H is detected by some character of A(H),
    i.e. no element outside H is in the kernel of all of A(H).
    """
    group = subgroup.group
    ann = annihilator(subgroup)
    points = tuple(
        PhaseSpacePoint(h, chi) for h in subgroup.elements for chi in ann.characters
    )
    K = PhaseSpaceSubgroup(group, points, subgroup=subgroup, dual_part=ann)
    if K.order != group.order:
        raise RuntimeError("maximal compact subgroup must have order |G|")
    if group.order <= 64:
        unseparated = _unseparated(subgroup, ann)
        if unseparated.any():
            g = group.element_by_index(int(np.argmax(unseparated)))
            raise RuntimeError(
                f"annihilator of {subgroup} fails to separate {g} from H"
            )
    return K


def _unseparated(subgroup: Subgroup, ann: DualSubgroup) -> np.ndarray:
    """(|G|,) mask of the elements outside H on which every character of ann is 1."""
    mask = _pairing_kernel(subgroup.group, [chi.coords for chi in ann.characters])
    mask[[h.index for h in subgroup.elements]] = False
    return mask


def _coset_partition(K: PhaseSpaceSubgroup) -> tuple[np.ndarray, np.ndarray]:
    """(representatives, ids): the cosets of K in F as point indices.

    One (|F|, |K|) table holds the index of z + u for every point z and
    every u in K; it is built in row blocks sized by the block budget. The
    least index in row z is the lex-least member of the coset z + K, which
    represents it. `representatives` lists those indices in ascending (lex)
    order, and ids[z] is the rank of row z's representative among them.
    """
    group = K.group
    d = group.order
    orders = np.array(group.orders, dtype=np.int64)
    strides = np.array(group._strides, dtype=np.int64)
    grid = _coords_grid(group.orders)
    u = np.array([p.g.coords + p.chi.coords for p in K.points], dtype=np.int64)
    k = len(group.orders)
    # index of g + g_u and of chi + chi_u, for every g (or chi) and every u
    g_sum = ((grid[:, None, :] + u[None, :, :k]) % orders) @ strides
    chi_sum = ((grid[:, None, :] + u[None, :, k:]) % orders) @ strides
    block = max(1, _BLOCK_BYTES // (8 * d * K.order))
    least = np.concatenate([
        (g_sum[start:start + block, None, :] * d + chi_sum[None]).min(axis=-1).reshape(-1)
        for start in range(0, d, block)
    ])
    representatives, ids = np.unique(least, return_inverse=True)
    if len(representatives) * K.order != d * d:
        raise RuntimeError("cosets of K do not partition phase space")
    return representatives, ids


def coset_representatives(K: PhaseSpaceSubgroup) -> tuple[PhaseSpacePoint, ...]:
    """Lexicographically least representative of each coset of K in F.

    Returned in lex order; there are exactly |F| / |K| of them.
    """
    representatives, _ = _coset_partition(K)
    return tuple(PhaseSpacePoint.by_index(K.group, int(i)) for i in representatives)


def is_corwin(subgroup: Subgroup) -> bool:
    """Whether doubling is surjective on H, i.e. 2H = H."""
    doubled = {(h + h).coords for h in subgroup.elements}
    return doubled == set(subgroup._coord_set)


def direct_product(
    a: FiniteAbelianGroup, b: FiniteAbelianGroup
) -> FiniteAbelianGroup:
    return FiniteAbelianGroup(a.orders + b.orders)


def product_point(z1: PhaseSpacePoint, z2: PhaseSpacePoint) -> PhaseSpacePoint:
    """The point (g1 + g2, chi1 x chi2) of the product group's phase space."""
    group = direct_product(z1.group, z2.group)
    return PhaseSpacePoint(
        group.element(z1.g.coords + z2.g.coords),
        group.character(z1.chi.coords + z2.chi.coords),
    )


def product_subgroup(a: Subgroup, b: Subgroup) -> Subgroup:
    group = direct_product(a.group, b.group)
    elements = tuple(
        group.element(x.coords + y.coords) for x in a.elements for y in b.elements
    )
    zeros_a = (0,) * len(a.group.orders)
    zeros_b = (0,) * len(b.group.orders)
    gens = tuple(group.element(x.coords + zeros_b) for x in a.generators) + tuple(
        group.element(zeros_a + y.coords) for y in b.generators
    )
    return Subgroup(group, elements, gens)


_FACTOR_RE = re.compile(r"[Zz](\d+)")


def parse_group(text: str) -> FiniteAbelianGroup:
    """Parse a group spec like 'Z4xZ2' into a descriptor."""
    orders = []
    for part in re.split("[xX]", text.strip()):
        m = _FACTOR_RE.fullmatch(part.strip())
        if m is None:
            raise ValueError(
                f"bad group spec {text!r}: expected factors like Z4 joined by 'x'"
            )
        orders.append(int(m.group(1)))
    return FiniteAbelianGroup(tuple(orders))


def format_coords(coords: Iterable[int]) -> str:
    return ",".join(str(c) for c in coords)


def format_generators(elements: Iterable[GroupElement]) -> str:
    return ";".join(format_coords(e.coords) for e in elements)


def _parse_coords(chunk: str) -> tuple[int, ...]:
    return tuple(int(t) for t in chunk.split(","))


def parse_generators(
    group: FiniteAbelianGroup, text: str | None
) -> tuple[GroupElement, ...]:
    """Parse generator strings like '2,0;0,1' (';' between, ',' within)."""
    if text is None or text.strip() == "":
        return ()
    return tuple(group.element(_parse_coords(chunk)) for chunk in text.split(";"))


def parse_point(group: FiniteAbelianGroup, text: str) -> PhaseSpacePoint:
    """Parse a phase-space point 'g_coords;lambda_coords', e.g. '1,0;0,1'."""
    chunks = text.split(";")
    if len(chunks) != 2:
        raise ValueError(
            f"bad phase-space point {text!r}: expected 'g_coords;lambda_coords'"
        )
    return PhaseSpacePoint(
        group.element(_parse_coords(chunks[0])),
        group.character(_parse_coords(chunks[1])),
    )


@lru_cache(maxsize=None)
def _coords_grid(orders: tuple[int, ...]) -> np.ndarray:
    """(|G|, k) array of all element coordinates in lex (C) order."""
    grid = np.indices(orders).reshape(len(orders), -1).T
    grid = np.ascontiguousarray(grid, dtype=np.int64)
    grid.flags.writeable = False
    return grid


def _sums_stay_inside(group: FiniteAbelianGroup, coords) -> bool:
    """Whether a + b is again a row of coords for every pair of rows a, b.

    Runs on element indices: each sum is reduced mod the factor orders and
    looked up in a membership mask. The (|S|, |S|) table of sums goes in row
    blocks sized by the block budget. A row that is not reduced is never
    matched, since every sum is reduced.
    """
    orders = np.array(group.orders, dtype=np.int64)
    strides = np.array(group._strides, dtype=np.int64)
    rows = np.array(coords, dtype=np.int64).reshape(-1, len(group.orders))
    reduced = rows % orders
    inside = np.zeros(group.order, dtype=bool)
    inside[(reduced @ strides)[(rows == reduced).all(axis=1)]] = True
    block = max(1, _BLOCK_BYTES // (8 * rows.size))
    for start in range(0, len(rows), block):
        sums = (reduced[start:start + block, None, :] + reduced[None, :, :]) % orders
        if not inside[sums @ strides].all():
            return False
    return True


@lru_cache(maxsize=None)
def _phase_weights(group: FiniteAbelianGroup) -> tuple[int, np.ndarray]:
    """(L, weights) with L = lcm(n_j) and weights_j = L / n_j.

    The one integer phase arithmetic of the library: the character with
    coordinates a takes g to exp(2*pi*i * m / L), m = sum_j a_j g_j weights_j
    mod L, and `_unit_roots(L)[m]` is that value.
    """
    L = math.lcm(*group.orders)
    weights = np.array([L // n for n in group.orders], dtype=np.int64)
    weights.flags.writeable = False
    return L, weights


@lru_cache(maxsize=None)
def _unit_roots(L: int) -> np.ndarray:
    """exp(2*pi*i * m / L) for m = 0, ..., L - 1."""
    roots = np.array(
        [cmath.exp(2j * math.pi * (m / L)) for m in range(L)], dtype=np.complex128
    )
    roots.flags.writeable = False
    return roots


@lru_cache(maxsize=None)
def character_row(
    group: FiniteAbelianGroup, coords: tuple[int, ...]
) -> np.ndarray:
    """Values of one character over all elements (lex order), phases exact."""
    L, weights = _phase_weights(group)
    m = (_coords_grid(group.orders) @ (np.array(coords, dtype=np.int64) * weights)) % L
    row = _unit_roots(L)[m]
    row.flags.writeable = False
    return row


# |G| above this never gets a full (|G|, |G|) character table (16 MiB)
CHARACTER_TABLE_CAP = 1024


@lru_cache(maxsize=8)
def character_table(group: FiniteAbelianGroup) -> np.ndarray:
    """Full (|G|, |G|) table of character values: row a-index, column h-index."""
    if group.order > CHARACTER_TABLE_CAP:
        raise ValueError(
            f"character table for |G| = {group.order} too large; use character_row"
        )
    L, weights = _phase_weights(group)
    grid = _coords_grid(group.orders)
    m = ((grid * weights) @ grid.T) % L
    table = _unit_roots(L)[m]
    table.flags.writeable = False
    return table


@lru_cache(maxsize=8)
def difference_index_table(group: FiniteAbelianGroup) -> np.ndarray:
    """(|G|, |G|) integer table: entry [g_index, h_index] = index of h - g."""
    grid = _coords_grid(group.orders)
    orders = np.array(group.orders, dtype=np.int64)
    diff = (grid[None, :, :] - grid[:, None, :]) % orders
    idx = diff @ np.array(group._strides, dtype=np.int64)
    idx = np.ascontiguousarray(idx)
    idx.flags.writeable = False
    return idx
