"""Exact arithmetic for finite abelian groups, their duals, and phase space.

A group is a direct product of cyclic factors Z_{n_1} x ... x Z_{n_k}.
An element or a character has coordinates reduced modulo the factor
orders; the character with coordinates a evaluates on g as
exp(2*pi*i * sum_j a_j g_j / n_j). Every such phase is a root of unity of
order dividing L = lcm(n_j), so it is carried as an exact integer numerator
m mod L and exponentiated once per (m, L) by `_unit_roots`; equal phases
give bit-identical complex values. `_pairing_numerators` is the one
character-phase formula: character values (`character_table`,
`_character_rows`), annihilators (`_pairing_kernel`),
the Weyl operators' character rows and the multiplicativity check all
read their numerators from it. The closed-form cocycle
(`weyl.cocycle_numerators`) stays apart, as the independent side of the
CCR check. `Character.phase` keeps an exact `fractions.Fraction` route as a
test oracle; `Character` is a (group, coords) record that exists for it.
The group Fourier transform `group_dft` lives beside `character_table`: it
multiplies by that table or runs fftn, as the `limits` thresholds choose,
and every transform of the package (the frame's analysis and synthesis in
`frames`, the Husimi and channel routes in `entropy`) goes through it.

An element, a character and a phase-space point are each one integer
index, the library's only representation of them: elements and characters
are numbered in mixed radix, so index order is lex coordinate order, and
the point (g, chi) has index g * |G| + chi. A public function that takes
one index refuses any value outside its range with ValueError (`_index`).
A subgroup of G, of the dual or of phase space is one sorted, read-only
int64 array of such indices (`H.indices`); `_index_sum` is their one
addition, and `_closures` the one closure kernel behind `subgroup_closure`
and `all_subgroups`. Coordinates appear only at the edges: `parse_point`
and `parse_generators` read them, `format_coords` writes them, and
`Subgroup.elements` lists a subgroup's members as frozen `GroupElement`
(group, coords) records.

Presentations are not canonicalised (no Smith normal form): Z4 and Z2xZ2
are distinct descriptors even though both have order 4.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable

import numpy as np

from . import limits

__all__ = [
    "FiniteAbelianGroup",
    "GroupElement",
    "Character",
    "Subgroup",
    "DualSubgroup",
    "PhaseSpaceSubgroup",
    "GroupMismatchError",
    "subgroup_closure",
    "all_subgroups",
    "annihilator",
    "dual_annihilator",
    "maximal_compact",
    "coset_representatives",
    "is_corwin",
    "direct_product",
    "parse_group",
    "parse_generators",
    "parse_point",
    "format_coords",
    "character_table",
    "group_dft",
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

    def __str__(self) -> str:
        return "x".join(f"Z{n}" for n in self.orders)


@dataclass(frozen=True)
class GroupElement:
    """An element of G as its coordinates: the records of `Subgroup.elements`."""

    group: FiniteAbelianGroup
    coords: tuple[int, ...]


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


def _index(value, size: int) -> int:
    """value as an int; ValueError unless it is an integer in range(size).

    The check of every public function that takes one element, character
    or point index: numpy would wrap a negative index silently.
    """
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not integer or not 0 <= value < size:
        raise ValueError(f"index must be an integer in range({size}), got {value!r}")
    return int(value)


def _coords_index(group: FiniteAbelianGroup, coords: Iterable[int]) -> int:
    """Index of the element (or character) with these coordinates, each reduced mod n_j."""
    coords = tuple(int(c) for c in coords)
    if len(coords) != len(group.orders):
        raise ValueError(f"expected {len(group.orders)} coordinates for {group}, got {coords}")
    return sum((c % n) * s for c, n, s in zip(coords, group.orders, group._strides))


def _index_array(values, size: int) -> np.ndarray:
    """values as an int64 array; ValueError unless each is an integer in range(size)."""
    arr = np.asarray(values)
    if arr.size == 0:
        return np.zeros(0, dtype=np.int64)
    if arr.ndim != 1 or arr.dtype.kind not in "iu" or arr.min() < 0 or arr.max() >= size:
        raise ValueError(f"indices must be integers in range({size})")
    return arr.astype(np.int64)


def _read_only(indices) -> np.ndarray:
    """indices as a read-only int64 array."""
    arr = np.asarray(indices, dtype=np.int64)
    arr.flags.writeable = False
    return arr


class _IndexSet:
    """A subgroup stored as sorted, read-only indices: checks, equality, hash, membership.

    Each subclass names its `_messages`: duplicate indices, no identity
    (index 0), a size that does not divide the order (None: not checked),
    and a set not closed under addition. The checks run in that order,
    after the one that every index is an integer in range.
    """

    def _space_order(self) -> int:
        """How many indices there are: |G| for G and its dual, |G|^2 for F."""
        return self.group.order

    def _add(self, a, b) -> np.ndarray:
        """Index of a + b for broadcast index arrays."""
        return _index_sum(self.group, a, b)

    def __post_init__(self) -> None:
        duplicate, identity, divide, closure = self._messages
        size = self._space_order()
        indices = np.sort(_index_array(self.indices, size))
        if (indices[1:] == indices[:-1]).any():
            raise ValueError(duplicate)
        if indices.size == 0 or indices[0] != 0:
            raise ValueError(identity)
        if divide is not None and size % indices.size:
            raise ValueError(divide)
        if not _sums_stay_inside(self._add, indices, size):
            raise ValueError(closure)
        object.__setattr__(self, "indices", _read_only(indices))

    @classmethod
    def _built(cls, group: FiniteAbelianGroup, indices: np.ndarray, **extra):
        """An instance from the library's own kernels or closures, without the checks.

        For `all_subgroups`, `subgroup_closure`, `annihilator`,
        `dual_annihilator` and `maximal_compact`, whose indices are sorted,
        distinct and closed by construction. The public constructor keeps
        every check, since it guards input from outside.
        """
        self = object.__new__(cls)
        values = {"group": group, "indices": _read_only(indices), **extra}
        for field in fields(cls):
            object.__setattr__(self, field.name, values.get(field.name, field.default))
        return self

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return other.group == self.group and np.array_equal(other.indices, self.indices)

    def __hash__(self) -> int:
        return hash((self.group, self.indices.tobytes()))

    @property
    def order(self) -> int:
        return len(self.indices)

    def __contains__(self, index) -> bool:
        """Whether the element, character or point with this index is a member."""
        index = _index(index, self._space_order())
        pos = int(np.searchsorted(self.indices, index))
        return pos < len(self.indices) and int(self.indices[pos]) == index


@dataclass(frozen=True, eq=False)
class Subgroup(_IndexSet):
    """A subgroup of G: its sorted element indices, so index order is lex order."""

    group: FiniteAbelianGroup
    indices: np.ndarray
    generator_indices: np.ndarray = ()

    _messages = (
        "duplicate elements in subgroup",
        "subgroup must contain the neutral element",
        "subgroup size must divide the group order",
        "element set is not closed under addition",
    )

    def __post_init__(self) -> None:
        super().__post_init__()
        gens = _index_array(self.generator_indices, self.group.order)
        object.__setattr__(self, "generator_indices", _read_only(gens))

    @classmethod
    def _built(cls, group: FiniteAbelianGroup, indices: np.ndarray, generators=()) -> "Subgroup":
        gens = _read_only(np.array(generators, dtype=np.int64))
        return super()._built(group, indices, generator_indices=gens)

    @cached_property
    def elements(self) -> tuple[GroupElement, ...]:
        """The members as coordinate records, in index order."""
        rows = _coords_grid(self.group.orders)[self.indices].tolist()
        return tuple(GroupElement(self.group, tuple(row)) for row in rows)

    @classmethod
    def whole(cls, group: FiniteAbelianGroup) -> "Subgroup":
        gens = [s for n, s in zip(group.orders, group._strides) if n > 1]
        return cls(group, np.arange(group.order), gens)

    @classmethod
    def trivial(cls, group: FiniteAbelianGroup) -> "Subgroup":
        return cls(group, [0])

    def __str__(self) -> str:
        rows = _coords_grid(self.group.orders)[self.indices].tolist()
        return ";".join(format_coords(row) for row in rows)


@dataclass(frozen=True, eq=False)
class DualSubgroup(_IndexSet):
    """A subgroup of the dual group: its sorted character indices."""

    group: FiniteAbelianGroup
    indices: np.ndarray

    _messages = (
        "duplicate characters in dual subgroup",
        "dual subgroup must contain the trivial character",
        None,
        "character set is not closed under product",
    )


@dataclass(frozen=True, eq=False)
class PhaseSpaceSubgroup(_IndexSet):
    """A subgroup of phase space F = G x dual(G): sorted indices g * |G| + chi."""

    group: FiniteAbelianGroup
    indices: np.ndarray
    subgroup: Subgroup | None = None
    dual_part: DualSubgroup | None = None

    _messages = (
        "duplicate points in phase-space subgroup",
        "phase-space subgroup must contain the identity",
        "phase-space subgroup size must divide |F|",
        "point set is not closed under addition",
    )

    def _space_order(self) -> int:
        return self.group.order ** 2

    def _add(self, a, b) -> np.ndarray:
        # (g, chi) has index g * |G| + chi, and each half adds in G
        d = self.group.order
        return _index_sum(self.group, a // d, b // d) * d + _index_sum(self.group, a % d, b % d)

    @cached_property
    def _partition(self) -> tuple[np.ndarray, np.ndarray]:
        """`_coset_partition` of this subgroup, computed once, read-only."""
        representatives, ids = _coset_partition(self)
        representatives.flags.writeable = False
        ids.flags.writeable = False
        return representatives, ids

    @classmethod
    def trivial(cls, group: FiniteAbelianGroup) -> "PhaseSpaceSubgroup":
        return cls(group, [0])


def _multiples(group: FiniteAbelianGroup, x) -> np.ndarray:
    """(len(x), exponent of G) indices of k x_i for k = 0, 1, ..., from the coordinate grid."""
    exponent, _ = _phase_weights(group)
    steps = np.arange(exponent)[:, None] * _coords_grid(group.orders)[x][:, None, :]
    orders = np.array(group.orders, dtype=np.int64)
    return (steps % orders) @ np.array(group._strides, dtype=np.int64)


def _closures(group: FiniteAbelianGroup, H: np.ndarray, multiples: np.ndarray) -> np.ndarray:
    """(len(multiples), |G|) membership masks of H + <x_i>, for subgroup indices H.

    Row i of multiples holds the multiples k x_i of `_multiples`; H + <x>
    is the union of the translates H + k x. All the sums are one gather
    through `_index_sum`, in blocks of rows sized by the block budget.
    """
    masks = np.zeros((len(multiples), group.order), dtype=bool)
    for part in limits.blocks(len(multiples), 8 * multiples.shape[1] * len(H)):
        sums = _index_sum(group, multiples[part, :, None], H)
        masks[np.arange(part.start, part.stop)[:, None], sums.reshape(len(sums), -1)] = True
    return masks


def subgroup_closure(group: FiniteAbelianGroup, generators: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing the generators, given as element indices.

    Adds one generator at a time through `_closures`; a generator already
    inside the subgroup built so far adds nothing and is skipped.
    """
    gens = [_index(x, group.order) for x in generators]
    inside = np.zeros(group.order, dtype=bool)
    inside[0] = True
    for x in gens:
        if not inside[x]:
            inside = _closures(group, np.flatnonzero(inside), _multiples(group, [x]))[0]
    return Subgroup._built(group, np.flatnonzero(inside), gens)


def all_subgroups(group: FiniteAbelianGroup) -> tuple[Subgroup, ...]:
    """Every subgroup of G, found by breadth-first closure over generators.

    Deterministic: the result is sorted by (order, element index list),
    which is (order, element coordinate list). Intended for desk-scale
    groups; the lattice is enumerated in full. The multiples of every
    element are computed once. The frontier is a stack; each subgroup taken
    from it is closed with every element outside it, in ascending order, by
    one `_closures` call, and the masks are deduplicated on their bytes.
    Each subgroup keeps the generators of the path that first reached it.
    DenseLimitError as soon as more than `limits.SUBGROUP_CAP` subgroups are
    found.
    """
    multiples = _multiples(group, np.arange(group.order))
    trivial = np.zeros(group.order, dtype=bool)
    trivial[0] = True
    found = {trivial.tobytes(): (np.flatnonzero(trivial), (), trivial)}
    frontier = list(found.values())
    while frontier:
        current, gens, inside = frontier.pop()
        x = np.flatnonzero(~inside)
        for xi, mask in zip(x.tolist(), _closures(group, current, multiples[x])):
            key = mask.tobytes()
            if key not in found:
                found[key] = (np.flatnonzero(mask), gens + (xi,), mask)
                frontier.append(found[key])
        if len(found) > limits.SUBGROUP_CAP:
            raise limits.DenseLimitError(
                f"{group} has more than {limits.SUBGROUP_CAP} subgroups (the subgroup-lattice cap)"
            )
    ordered = sorted(found.values(), key=lambda entry: (len(entry[0]), entry[0].tolist()))
    return tuple(Subgroup._built(group, H, gens) for H, gens, _ in ordered)


def _pairing_kernel(group: FiniteAbelianGroup, indices) -> np.ndarray:
    """Mask over the indices x that pair to 1 with every element (or character) index given.

    The pairing is symmetric (`_pairing_numerators`), so the same kernel
    gives the characters that kill a set of elements and the elements that
    a set of characters kills.
    """
    return (_pairing_numerators(group, slice(None), indices) == 0).all(axis=1)


def annihilator(subgroup: Subgroup) -> DualSubgroup:
    """Characters equal to 1 on all of H; always |A| * |H| = |G|.

    Brute-force filter of all |G| characters through `_pairing_kernel`.
    Testing against generators of H suffices because characters are
    homomorphisms.
    """
    group = subgroup.group
    testers = subgroup.generator_indices if subgroup.generator_indices.size else subgroup.indices
    result = DualSubgroup._built(group, np.flatnonzero(_pairing_kernel(group, testers)))
    if result.order * subgroup.order != group.order:
        raise RuntimeError(f"annihilator duality failed for {subgroup}")
    return result


def dual_annihilator(dual: DualSubgroup) -> Subgroup:
    """Group elements on which every character of the dual subgroup is 1."""
    group = dual.group
    result = Subgroup._built(group, np.flatnonzero(_pairing_kernel(group, dual.indices)))
    if result.order * dual.order != group.order:
        raise RuntimeError("annihilator duality failed for a dual subgroup")
    return result


def maximal_compact(subgroup: Subgroup) -> PhaseSpaceSubgroup:
    """K = H x A(H) inside F; always |K| = |G|.

    Its indices h * |G| + chi come out sorted, since both factors are.
    The separation property behind maximality is checked exhaustively:
    every g outside H is detected by some character of A(H), i.e. no
    element outside H is in the kernel of all of A(H).
    """
    group = subgroup.group
    ann = annihilator(subgroup)
    points = (subgroup.indices[:, None] * group.order + ann.indices[None, :]).ravel()
    K = PhaseSpaceSubgroup._built(group, points, subgroup=subgroup, dual_part=ann)
    if K.order != group.order:
        raise RuntimeError("maximal compact subgroup must have order |G|")
    unseparated = _unseparated(subgroup, ann)
    if unseparated.any():
        g = format_coords(_coords_grid(group.orders)[np.argmax(unseparated)].tolist())
        raise RuntimeError(f"annihilator of {subgroup} fails to separate {g} from H")
    return K


def _unseparated(subgroup: Subgroup, ann: DualSubgroup) -> np.ndarray:
    """(|G|,) mask of the elements outside H on which every character of ann is 1."""
    mask = _pairing_kernel(subgroup.group, ann.indices)
    mask[subgroup.indices] = False
    return mask


def _coset_partition(K: PhaseSpaceSubgroup) -> tuple[np.ndarray, np.ndarray]:
    """(representatives, ids): the cosets of K in F as point indices.

    The least index in the coset z + K is its lex-least member, which
    represents it. `representatives` lists those indices in ascending (lex)
    order, and ids[z] is the rank of z's representative among them. Where
    K = H x A(H) is known as a product (`maximal_compact`), so is each
    coset, (g + H) x (chi + A(H)), and its least point is
    least(g + H) * |G| + least(chi + A(H)) (`_product_partition`).
    Otherwise one (|F|, |K|) table holds the index of z + u for every point
    z and every u in K; it is built in row blocks sized by the block budget
    from the index sums g + g_u and chi + chi_u, and row z's least entry
    represents z + K.
    """
    group = K.group
    d = group.order
    if K.subgroup is not None and K.dual_part is not None:
        representatives, ids = _product_partition(K)
    else:
        every = np.arange(d)[:, None]
        g_sum = _index_sum(group, every, K.indices // d)  # (d, |K|)
        chi_sum = _index_sum(group, every, K.indices % d)
        least = np.concatenate([
            (g_sum[part, None, :] * d + chi_sum[None]).min(axis=-1).reshape(-1)
            for part in limits.blocks(d, 8 * d * K.order)
        ])
        representatives, ids = np.unique(least, return_inverse=True)
    if len(representatives) * K.order != d * d:
        raise RuntimeError("cosets of K do not partition phase space")
    return representatives, ids


def _product_partition(K: PhaseSpaceSubgroup) -> tuple[np.ndarray, np.ndarray]:
    """`_coset_partition` of K = H x A(H), from the cosets of H and of A(H).

    The representatives g0 * |G| + chi0 of the product come out ascending,
    since both factors' do and chi0 < |G|; the rank of (g0, chi0) is
    rank(g0) * (number of chi0) + rank(chi0).
    """
    group = K.group
    d = group.order
    every = np.arange(d)[:, None]
    g_least, g_ids = np.unique(
        _index_sum(group, every, K.subgroup.indices).min(axis=-1), return_inverse=True)
    chi_least, chi_ids = np.unique(
        _index_sum(group, every, K.dual_part.indices).min(axis=-1), return_inverse=True)
    representatives = (g_least[:, None] * d + chi_least).reshape(-1)
    ids = (g_ids[:, None] * len(chi_least) + chi_ids).reshape(-1)
    return representatives, ids


def coset_representatives(K: PhaseSpaceSubgroup) -> np.ndarray:
    """Point index of the lex-least member of each coset of K in F, read-only.

    Ascending (lex) order; there are exactly |F| / |K| of them.
    """
    return K._partition[0]


def is_corwin(subgroup: Subgroup) -> bool:
    """Whether doubling is surjective on H, i.e. 2H = H."""
    doubled = _index_sum(subgroup.group, subgroup.indices, subgroup.indices)
    # the sorted distinct doubles, by a bincount: np.unique would import numpy.ma
    hit = np.bincount(doubled, minlength=subgroup.group.order)
    return np.array_equal(np.flatnonzero(hit), subgroup.indices)


def direct_product(
    a: FiniteAbelianGroup, b: FiniteAbelianGroup
) -> FiniteAbelianGroup:
    return FiniteAbelianGroup(a.orders + b.orders)


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


def _parse_coords(chunk: str) -> tuple[int, ...]:
    return tuple(int(t) for t in chunk.split(","))


def parse_generators(group: FiniteAbelianGroup, text: str | None) -> tuple[int, ...]:
    """Element indices of generator strings like '2,0;0,1' (';' between, ',' within).

    Coordinates are reduced mod the factor orders.
    """
    if text is None or text.strip() == "":
        return ()
    return tuple(_coords_index(group, _parse_coords(chunk)) for chunk in text.split(";"))


def parse_point(group: FiniteAbelianGroup, text: str) -> int:
    """Index g * |G| + chi of a phase-space point 'g_coords;lambda_coords', e.g. '1,0;0,1'."""
    chunks = text.split(";")
    if len(chunks) != 2:
        raise ValueError(
            f"bad phase-space point {text!r}: expected 'g_coords;lambda_coords'"
        )
    g, chi = (_coords_index(group, _parse_coords(chunk)) for chunk in chunks)
    return g * group.order + chi


@lru_cache(maxsize=None)
def _coords_grid(orders: tuple[int, ...]) -> np.ndarray:
    """(|G|, k) array of all element coordinates in lex (C) order."""
    grid = np.indices(orders).reshape(len(orders), -1).T
    grid = np.ascontiguousarray(grid, dtype=np.int64)
    grid.flags.writeable = False
    return grid


def _index_sum(group: FiniteAbelianGroup, a, b) -> np.ndarray:
    """Index of a + b for broadcast arrays of element indices a and b.

    The library's one index addition. With digits a_j, b_j (the coordinate
    grid's columns) and strides s_j, the index of a + b is
    sum_j ((a_j + b_j) mod n_j) s_j = a + b - sum_j n_j s_j [a_j + b_j >= n_j].
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    out = a + b
    columns = _coords_grid(group.orders).T
    for digit, n, stride in zip(columns, group.orders, group._strides):
        if n > 1:
            out -= (digit[a] + digit[b] >= n) * (n * stride)
    return out


def _sums_stay_inside(add, indices: np.ndarray, size: int) -> bool:
    """Whether add(a, b) is again in the index set for every pair a, b of it.

    Indices run over range(size). Each sum is looked up in a membership
    mask; the (|S|, |S|) table of sums goes in row blocks sized by the
    block budget.
    """
    inside = np.zeros(size, dtype=bool)
    inside[indices] = True
    for part in limits.blocks(len(indices), 8 * len(indices)):
        if not inside[add(indices[part, None], indices)].all():
            return False
    return True


@lru_cache(maxsize=None)
def _phase_weights(group: FiniteAbelianGroup) -> tuple[int, np.ndarray]:
    """(L, weights) with L = lcm(n_j) and weights_j = L / n_j.

    The character with coordinates a takes g to exp(2*pi*i * m / L),
    m = sum_j a_j g_j weights_j mod L (`_pairing_numerators`), and
    `_unit_roots(L)[m]` is that value.
    """
    L = math.lcm(*group.orders)
    weights = np.array([L // n for n in group.orders], dtype=np.int64)
    weights.flags.writeable = False
    return L, weights


def _pairing_numerators(group: FiniteAbelianGroup, a, b) -> np.ndarray:
    """Integer phases m of the pairing of index a with index b: exp(2*pi*i * m / L).

    The library's one phase formula, m = sum_j a_j b_j L / n_j mod L on the
    coordinate digits of a and b. a and b are each an index, an index array
    or a slice; two arrays (or slices) give the (len(a), len(b)) table, and
    the pairing is symmetric. Row a of the table at column g is the
    numerator of chi_a(g).
    """
    L, weights = _phase_weights(group)
    grid = _coords_grid(group.orders)
    return ((grid[a] * weights) @ grid[b].T) % L


def _character_rows(group: FiniteAbelianGroup, chi) -> np.ndarray:
    """(n, |G|) values chi_i(h) over all h for character indices chi_i, phases exact."""
    L, _ = _phase_weights(group)
    return _unit_roots(L)[_pairing_numerators(group, chi, slice(None))]


@lru_cache(maxsize=None)
def _unit_roots(L: int) -> np.ndarray:
    """exp(2*pi*i * m / L) for m = 0, ..., L - 1."""
    roots = np.array(
        [cmath.exp(2j * math.pi * (m / L)) for m in range(L)], dtype=np.complex128
    )
    roots.flags.writeable = False
    return roots


@lru_cache(maxsize=8)
def character_table(group: FiniteAbelianGroup) -> np.ndarray:
    """Full (|G|, |G|) table of character values: row a-index, column h-index.

    DenseLimitError when |G| exceeds `limits.CHARACTER_TABLE_CAP`; row a is
    `_character_rows(group, a)`, which holds at any order.
    """
    limits.require_within(
        "|G|", group.order, limits.CHARACTER_TABLE_CAP, "character-table cap"
    )
    table = _character_rows(group, slice(None))
    table.flags.writeable = False
    return table


# both directions of every group on the GEMM branch: the minimize workload
# spans 14 groups (13 of them on GEMM), the 53-pair check suite 10. A GEMM
# table has |G| <= 32 x factors, at most 1 MiB.
@lru_cache(maxsize=32)
def _dft_matrix(group: FiniteAbelianGroup, inverse: bool) -> np.ndarray:
    table = character_table(group)
    if inverse:
        return table
    conj = table.conj()
    conj.flags.writeable = False
    return conj


def group_dft(group: FiniteAbelianGroup, x, inverse: bool = False) -> np.ndarray:
    """Fourier transform over G along the last axis of a (..., |G|) array.

    Forward: y[..., a] = sum_h conj(chi_a(h)) x[..., h]. inverse=True gives
    the adjoint, sum_a chi_a(h) x[..., a], which is |G| times the inverse
    transform. Elements and characters are indexed in lex order. With F
    this transform and F^-1 its adjoint, F^-1 F = |G|, and both turn
    convolution over G into a product: the route of `pure_amplitudes`,
    and of `husimi` and `measurement_channel`, whose one kernel multiplies
    the transformed shifted diagonals of rho by the frame's ambiguity
    table T (Husimi) or |T|^2 (channel).

    The kernel is chosen from the factor orders: a GEMM with the exact-phase
    character table when |G| is at most `limits.GEMM_ORDER_PER_FACTOR` (32)
    times the number of cyclic factors and the table is within its cap,
    otherwise fftn over the factor axes. fftn pays per axis, so it loses on
    many short factors (about 30x slower on Z2^6) and wins on long cyclic
    ones (about 8x faster on Z256). The GEMM takes all
    leading axes as rows of one (n |G|, |G|) product, not n small ones.
    """
    x = np.asarray(x)
    orders = group.orders
    gemm_order = limits.GEMM_ORDER_PER_FACTOR * len(orders)
    if group.order <= min(gemm_order, limits.CHARACTER_TABLE_CAP):
        rows = x.reshape(-1, group.order)
        return (rows @ _dft_matrix(group, inverse)).reshape(x.shape)
    lead = x.shape[:-1]
    axes = tuple(range(len(lead), len(lead) + len(orders)))
    grid = x.reshape(lead + orders)
    if inverse:
        out = np.fft.ifftn(grid, axes=axes, norm="forward")
    else:
        out = np.fft.fftn(grid, axes=axes)
    return out.reshape(x.shape)


# 16 groups: the minimize workload spans 14, the 53-pair check suite 10
@lru_cache(maxsize=16)
def difference_index_table(group: FiniteAbelianGroup) -> np.ndarray:
    """(|G|, |G|) integer table: entry [g_index, h_index] = index of h - g."""
    grid = _coords_grid(group.orders)
    orders = np.array(group.orders, dtype=np.int64)
    diff = (grid[None, :, :] - grid[:, None, :]) % orders
    idx = diff @ np.array(group._strides, dtype=np.int64)
    idx = np.ascontiguousarray(idx)
    idx.flags.writeable = False
    return idx
