import ast
import dataclasses
import graphlib
import importlib
import inspect
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wehrl
from wehrl import (
    CoherentFrame,
    DenseLimitError,
    DualSubgroup,
    FiniteAbelianGroup,
    GroupElement,
    GroupMismatchError,
    PhaseSpaceSubgroup,
    Subgroup,
    all_subgroups,
    annihilator,
    coset_representatives,
    direct_product,
    dual_annihilator,
    is_corwin,
    limits,
    maximal_compact,
    parse_generators,
    parse_group,
    parse_point,
    subgroup_closure,
    verify_ccr,
    weyl_apply,
    weyl_matrix,
)
from wehrl.groups import (
    Character,
    _character_rows,
    _closures,
    _coset_partition,
    _index_sum,
    _multiples,
    _phase_weights,
    _unit_roots,
    _unseparated,
    character_table,
    difference_index_table,
    format_coords,
)
from wehrl.verify import standard_suite
from wehrl.weyl import cocycle_phase

from phase_oracle import (
    add,
    coords,
    elements,
    index,
    neg,
    pairing_phase,
    phase_to_complex,
    point,
    point_add,
    point_index,
    unit_roots,
)

# groups up to order 36 with at most three factors; big enough to hit
# non-cyclic and non-squarefree structure, small enough for exhaustion
group_descriptors = st.lists(st.integers(2, 6), min_size=1, max_size=3).filter(
    lambda orders: math.prod(orders) <= 36
)


def groups(draw_orders):
    return FiniteAbelianGroup(tuple(draw_orders))


def random_subgroup(group, data):
    n = data.draw(st.integers(0, 2))
    gens = tuple(data.draw(st.integers(0, group.order - 1)) for _ in range(n))
    return subgroup_closure(group, gens)


def coords_of(collection):
    return [x.coords for x in collection]


def phase(group, a, x):
    """`Character.phase` of the character with coordinates a at the element x."""
    return Character(group, a).phase(GroupElement(group, x))


# ---------------------------------------------------------------------------
# parsing


def test_parse_group_round_trip():
    g = parse_group("Z4xZ2")
    assert g.orders == (4, 2)
    assert str(g) == "Z4xZ2"
    assert parse_group("z6").orders == (6,)
    assert parse_group("Z2XZ3").orders == (2, 3)


@pytest.mark.parametrize("bad", ["", "Z0", "Zx", "4", "Z-2", "Z2x", "xZ2"])
def test_parse_group_rejects(bad):
    with pytest.raises(ValueError):
        parse_group(bad)


def test_parse_generators():
    g = parse_group("Z4")
    assert parse_generators(g, "2") == (2,)
    assert parse_generators(g, "") == ()
    assert parse_generators(g, "4") == (0,)  # reduced mod 4
    assert parse_generators(g, "-1") == (3,)
    g2 = parse_group("Z2xZ2")
    assert parse_generators(g2, "1,0;0,1") == (2, 1)
    with pytest.raises(ValueError, match=r"^expected 2 coordinates for Z2xZ2, got \(1,\)$"):
        parse_generators(g2, "1")  # wrong arity


def test_parse_point():
    g = parse_group("Z2xZ2")
    z = parse_point(g, "0,1;1,0")
    assert z == 1 * 4 + 2
    assert point(g, z) == ((0, 1), (1, 0))
    assert parse_point(g, "2,3;-1,0") == z  # coordinates reduced mod 2
    with pytest.raises(ValueError):
        parse_point(g, "0,1")  # missing character half


# ---------------------------------------------------------------------------
# element indices


def test_element_order_is_lex():
    g = parse_group("Z2xZ3")
    whole = Subgroup.whole(g)
    listed = coords_of(whole.elements)
    assert listed == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)] == elements(g)
    assert whole.indices.tolist() == [index(g, c) for c in listed] == list(range(6))
    assert whole.elements[4] == GroupElement(g, (1, 1))


@settings(max_examples=25, deadline=None)
@given(group_descriptors, st.data())
def test_element_index_round_trip(orders, data):
    g = groups(orders)
    i = data.draw(st.integers(0, g.order - 1))
    assert Subgroup.whole(g).elements[i].coords == coords(g, i)
    assert parse_generators(g, format_coords(coords(g, i))) == (i,)
    j = data.draw(st.integers(0, g.order - 1))
    assert int(_index_sum(g, i, j)) == int(_index_sum(g, j, i))
    assert int(_index_sum(g, i, j)) == index(g, add(g, coords(g, i), coords(g, j)))
    assert int(_index_sum(g, i, index(g, neg(g, coords(g, i))))) == 0


# ---------------------------------------------------------------------------
# characters


def test_character_pairing_frozen():
    g = parse_group("Z4")
    assert phase(g, (1,), (1,)) == Fraction(1, 4)
    assert _character_rows(g, index(g, (1,)))[1] == pytest.approx(1j)
    assert phase(g, (3,), (3,)) == Fraction(1, 4)
    g2 = parse_group("Z2xZ2")
    assert phase(g2, (1, 1), (1, 1)) == 0
    with pytest.raises(GroupMismatchError):
        Character(g, (1,)).phase(GroupElement(parse_group("Z2"), (1,)))


def test_character_multiplicative_exact():
    for spec in ("Z6", "Z2xZ2", "Z4"):
        g = parse_group(spec)
        els = elements(g)
        for chi in els:
            for a in els:
                assert phase(g, chi, a) == pairing_phase(g, chi, a)
                for b in els:
                    assert phase(g, chi, add(g, a, b)) == (phase(g, chi, a) + phase(g, chi, b)) % 1


def test_unit_roots_match_fraction_oracle():
    # every exponent L = lcm(n_j) the tests and the suite use is at most 256
    assert max(_phase_weights(g)[0] for g in standard_suite()) <= 256
    assert _phase_weights(parse_group("Z64"))[0] == 64
    for L in range(1, 257):
        assert _unit_roots(L).tobytes() == unit_roots(L).tobytes(), L


def test_phase_weights():
    L, weights = _phase_weights(parse_group("Z4xZ6xZ1"))
    assert L == 12
    assert weights.tolist() == [3, 2, 12]
    assert not weights.flags.writeable


def test_character_call_matches_fraction_oracle():
    # integer numerator and root table: the same bits as the exact phase
    for spec in ("Z1", "Z6", "Z4xZ2", "Z3xZ3", "Z2xZ2xZ2", "Z5xZ6", "Z64"):
        g = parse_group(spec)
        rows = _character_rows(g, slice(None))
        for a in range(g.order):
            row = _character_rows(g, a)
            assert row.tobytes() == rows[a].tobytes()
            for x in range(g.order):
                value = complex(rows[a, x])
                expected = phase_to_complex(phase(g, coords(g, a), coords(g, x)))
                assert (value.real, value.imag) == (expected.real, expected.imag)


def test_fraction_only_in_scalar_oracles():
    # integer numerators mod L are the library's one phase representation;
    # Fraction stays in the two exact scalar oracles the tests call
    package = Path(wehrl.__file__).parent
    allowed = {("groups.py", "Character.phase"), ("weyl.py", "cocycle_phase")}
    found = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                    visit(child, f"{scope}.{child.name}" if scope else child.name)
                    continue
                if isinstance(child, (ast.Import, ast.ImportFrom)):
                    continue  # an import alone computes nothing
                if isinstance(child, ast.Name) and child.id == "Fraction":
                    found.add((path.name, scope))
                if isinstance(child, ast.Attribute) and child.attr == "Fraction":
                    found.add((path.name, scope))
                visit(child, scope)

        visit(tree, "")
    assert found == allowed


def test_character_table_matches_rows():
    g = parse_group("Z4xZ2")
    table = character_table(g)
    for a in range(g.order):
        assert np.array_equal(table[a], _character_rows(g, a))
    # orthogonality of distinct rows
    gram = table @ table.conj().T / g.order
    assert np.abs(gram - np.eye(g.order)).max() < 1e-13


def test_character_table_over_its_cap_is_refused():
    with pytest.raises(DenseLimitError, match=r"^\|G\| = 1025 exceeds the character-table cap 1024$"):
        character_table(parse_group("Z1025"))


@pytest.mark.parametrize("spec", ["Z1", "Z1xZ3", "Z4xZ2", "Z3xZ1xZ6", "Z2xZ3", "Z64"])
def test_index_sum_matches_object_sums(spec):
    g = parse_group(spec)
    els = elements(g)
    every = np.arange(g.order)
    table = _index_sum(g, every[:, None], every[None, :])
    assert table.dtype == np.int64
    assert table.tolist() == [[index(g, add(g, x, y)) for y in els] for x in els]
    # on F = G x G^, whose mixed-radix index is g * |G| + chi
    if g.order <= 8:
        F = direct_product(g, g)
        z = np.arange(g.order ** 2)
        expected = [[point_add(g, p, q) for q in z.tolist()] for p in z.tolist()]
        assert _index_sum(F, z[:, None], z).tolist() == expected
        # phase-space subgroups add their points as two elements of G
        assert PhaseSpaceSubgroup.trivial(g)._add(z[:, None], z).tolist() == expected


def test_difference_index_table():
    g = parse_group("Z2xZ3")
    idx = difference_index_table(g)
    for a in elements(g):
        for b in elements(g):
            assert idx[index(g, a), index(g, b)] == index(g, add(g, b, neg(g, a)))


# ---------------------------------------------------------------------------
# subgroups


def test_subgroup_validation():
    g = parse_group("Z4")
    with pytest.raises(ValueError):
        Subgroup(g, [1])  # missing zero
    with pytest.raises(ValueError):
        Subgroup(g, [0, 1])  # not closed
    with pytest.raises(ValueError):
        Subgroup(g, [0, 2, 2])


def test_subgroup_closure_frozen():
    g = parse_group("Z4")
    assert coords_of(subgroup_closure(g, (2,)).elements) == [(0,), (2,)]
    g2 = parse_group("Z2xZ2")
    assert coords_of(subgroup_closure(g2, (index(g2, (1, 0)),)).elements) == [(0, 0), (1, 0)]
    g6 = parse_group("Z6")
    assert coords_of(subgroup_closure(g6, (2,)).elements) == [(0,), (2,), (4,)]
    assert coords_of(subgroup_closure(g, ()).elements) == [(0,)]


@pytest.mark.parametrize(
    "spec,count",
    [("Z3", 2), ("Z4", 3), ("Z8", 4), ("Z9", 3), ("Z6", 4),
     ("Z2xZ2", 5), ("Z3xZ3", 6), ("Z4xZ2", 8), ("Z2xZ2xZ2", 16)],
)
def test_subgroup_lattice_counts(spec, count):
    g = parse_group(spec)
    subs = all_subgroups(g)
    assert len(subs) == count
    orders = [H.order for H in subs]
    assert orders == sorted(orders)
    for H in subs:
        assert g.order % H.order == 0


def _lattice_oracle(group):
    """all_subgroups by closing each subgroup's generators with every element."""
    trivial = subgroup_closure(group, ())
    found = {trivial: trivial}  # subgroups hash and compare by their indices
    frontier = list(found.values())
    while frontier:
        current = frontier.pop()
        for x in range(group.order):
            if x in current:
                continue
            bigger = subgroup_closure(group, current.generator_indices.tolist() + [x])
            if bigger not in found:
                found[bigger] = bigger
                frontier.append(bigger)
    return sorted(found.values(), key=lambda H: (H.order, coords_of(H.elements)))


def _frozenset_bfs(group):
    """The frozenset closure BFS that all_subgroups ran before its batched kernel.

    Returns (element indices, generator indices) per subgroup, sorted by
    (order, element coordinate list).
    """
    coords_ = elements(group)

    def translate(indices, x: int) -> frozenset:
        return frozenset(index(group, add(group, coords_[i], coords_[x])) for i in indices)

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
    lattice = [(sorted(H), list(gens)) for H, gens in found.items()]
    return sorted(lattice, key=lambda entry: (len(entry[0]), [coords_[i] for i in entry[0]]))


@pytest.mark.parametrize(
    "spec",
    # the suite groups, the groups of the CLI benchmark session, and Z2^5
    ["Z2", "Z3", "Z4", "Z6", "Z8", "Z2xZ2", "Z4xZ2", "Z3xZ3", "Z9", "Z2xZ2xZ2",
     "Z64", "Z4xZ8", "Z6xZ6", "Z2xZ2xZ2xZ2xZ2"],
)
def test_subgroup_lattice_matches_frozenset_bfs(spec):
    """Suite groups, the CLI groups and Z2^5: same subgroups, order and generators."""
    g = parse_group(spec)
    got = [(H.indices.tolist(), H.generator_indices.tolist()) for H in all_subgroups(g)]
    assert got == _frozenset_bfs(g)


@pytest.mark.parametrize(
    "spec,count",
    [("Z2", 2), ("Z2xZ2", 5), ("Z2xZ2xZ2", 16), ("Z2xZ2xZ2xZ2", 67),
     ("Z2xZ2xZ2xZ2xZ2", 374), ("Z2xZ2xZ2xZ2xZ2xZ2", 2825),
     ("Z3", 2), ("Z3xZ3", 6), ("Z3xZ3xZ3", 28), ("Z5xZ5", 8)],
)
def test_subgroup_counts_of_elementary_groups(spec, count):
    """|subgroups of Z_p^n| = sum_k of the Gaussian binomials [n choose k]_p."""
    g = parse_group(spec)
    p, n = g.orders[0], len(g.orders)

    def gaussian_binomial(k):
        top = math.prod(p ** (n - i) - 1 for i in range(k))
        return top // math.prod(p ** (i + 1) - 1 for i in range(k))

    assert sum(gaussian_binomial(k) for k in range(n + 1)) == count
    assert len(all_subgroups(g)) == count


def test_all_subgroups_stops_past_the_lattice_cap(monkeypatch):
    g = parse_group("Z2xZ2")  # five subgroups
    monkeypatch.setattr(limits, "SUBGROUP_CAP", 5)
    assert len(all_subgroups(g)) == 5
    monkeypatch.setattr(limits, "SUBGROUP_CAP", 4)
    with pytest.raises(DenseLimitError, match=r"^Z2xZ2 has more than 4 subgroups \(the subgroup-lattice cap\)$"):
        all_subgroups(g)


@pytest.mark.parametrize("spec", ["Z1", "Z12", "Z2xZ2xZ2", "Z4xZ2", "Z3xZ1xZ6", "Z2xZ6"])
def test_subgroup_lattice_matches_closure_oracle(spec):
    g = parse_group(spec)
    got = all_subgroups(g)
    want = _lattice_oracle(g)
    assert [coords_of(H.elements) for H in got] == [coords_of(H.elements) for H in want]
    # generators are kept too: annihilator tests characters against them
    assert [H.generator_indices.tolist() for H in got] == [
        H.generator_indices.tolist() for H in want
    ]


@settings(max_examples=25, deadline=None)
@given(group_descriptors, st.data())
def test_subgroup_closure_is_group(orders, data):
    g = groups(orders)
    H = random_subgroup(g, data)
    members = set(coords_of(H.elements))
    for a in members:
        assert neg(g, a) in members
        for b in members:
            assert add(g, a, b) in members


def _worklist_closure(group, generators):
    """The frontier closure over coordinate sums, as an oracle."""
    gens = [coords(group, x) for x in generators]
    zero = coords(group, 0)
    known = {zero}
    frontier = [zero]
    while frontier:
        x = frontier.pop()
        for gen in gens:
            y = add(group, x, gen)
            if y not in known:
                known.add(y)
                frontier.append(y)
    return sorted(known)


@pytest.mark.parametrize(
    "spec", ["Z1", "Z1xZ3", "Z4", "Z12", "Z2xZ2xZ2", "Z4xZ8", "Z6xZ6", "Z3xZ1xZ6", "Z64"]
)
def test_subgroup_closure_matches_worklist_oracle(spec):
    g = parse_group(spec)
    rng = np.random.default_rng(5)
    gen_sets = [()] + [(x,) for x in range(g.order)]
    for size in (2, 3):
        for _ in range(12):
            picks = rng.integers(0, g.order, size=size)
            gen_sets.append(tuple(int(i) for i in picks))
    for gens in gen_sets:
        H = subgroup_closure(g, gens)
        assert coords_of(H.elements) == _worklist_closure(g, gens)
        assert H.generator_indices.tolist() == list(gens)


def _closed_under_sums(coords_set, orders):
    return all(
        tuple((x + y) % n for x, y, n in zip(a, b, orders)) in coords_set
        for a in coords_set
        for b in coords_set
    )


@pytest.mark.parametrize("budget", ["default", "one row"])
@pytest.mark.parametrize("spec", ["Z1", "Z4", "Z6", "Z2xZ2", "Z1xZ3", "Z2xZ2xZ2"])
def test_subgroup_checks_every_subset(spec, budget, monkeypatch):
    """Subgroup and DualSubgroup accept exactly the closed subsets with zero."""
    if budget == "one row":
        monkeypatch.setattr(limits, "BLOCK_BYTES", 1)
    g = parse_group(spec)
    els = elements(g)
    zero = coords(g, 0)
    for mask in range(1, 2 ** g.order):
        subset = [i for i in range(g.order) if mask >> i & 1]
        members = {els[i] for i in subset}
        if zero not in members:
            message = "neutral element"
        elif g.order % len(subset):
            message = "divide"
        elif not _closed_under_sums(members, g.orders):
            message = "not closed under addition"
        else:
            message = None
        chars = subset[::-1]  # any order; the indices are sorted on construction
        if message is None:
            assert coords_of(Subgroup(g, subset).elements) == sorted(members)
            assert DualSubgroup(g, chars).indices.tolist() == subset
            continue
        with pytest.raises(ValueError, match=message):
            Subgroup(g, subset)
        dual_message = {
            "neutral element": "trivial character",
            "not closed under addition": "not closed under product",
        }.get(message)
        if dual_message is not None:
            with pytest.raises(ValueError, match=dual_message):
                DualSubgroup(g, chars)


@pytest.mark.parametrize("budget", ["default", "one row"])
def test_subgroup_rejections_at_larger_orders(budget, monkeypatch):
    if budget == "one row":
        monkeypatch.setattr(limits, "BLOCK_BYTES", 1)
    g = parse_group("Z4xZ8")
    even = [i for i, c in enumerate(elements(g)) if c[1] % 2 == 0]  # a subgroup of order 16
    assert Subgroup(g, even).order == 16
    assert DualSubgroup(g, even).order == 16
    # swap the last member for an element outside: only sums with it leave the set
    broken = even[:-1] + [index(g, (3, 7))]
    with pytest.raises(ValueError, match="not closed under addition"):
        Subgroup(g, broken)
    with pytest.raises(ValueError, match="not closed under product"):
        DualSubgroup(g, broken)
    with pytest.raises(ValueError, match="duplicate elements"):
        Subgroup(g, even + [even[-1]])
    with pytest.raises(ValueError, match="duplicate characters"):
        DualSubgroup(g, even + [even[-1]])
    with pytest.raises(ValueError, match="neutral element"):
        Subgroup(g, even[1:])
    with pytest.raises(ValueError, match="trivial character"):
        DualSubgroup(g, even[1:])
    whole = Subgroup.whole(parse_group("Z64"))
    assert whole.order == 64 and whole.generator_indices.tolist() == [1]


def test_one_byte_block_budget_reaches_every_blocked_loop(monkeypatch):
    # one patch of limits.BLOCK_BYTES reaches the closure, coset and CCR
    # loops, wherever they sit, and one-row blocks leave every result
    # unchanged; K = H x A(H) is read as a bare phase-space subgroup, since
    # maximal_compact's product form needs no (|F|, |K|) table
    g = parse_group("Z4xZ2")
    H = subgroup_closure(g, (index(g, (2, 0)),))
    K = PhaseSpaceSubgroup(g, maximal_compact(H).indices)
    multiples = _multiples(g, np.arange(g.order))

    def run():
        return (_closures(g, H.indices, multiples), _coset_partition(K),
                verify_ccr(parse_group("Z2xZ2"), seed=1))

    expected = run()
    seen = []
    real_blocks = limits.blocks

    def spy(n, row_bytes):
        parts = list(real_blocks(n, row_bytes))
        seen.append(parts)
        return iter(parts)

    monkeypatch.setattr(limits, "BLOCK_BYTES", 1)
    monkeypatch.setattr(limits, "blocks", spy)
    masks, (representatives, ids), ccr = run()
    assert [len(parts) for parts in seen] == [g.order, g.order, 256]
    assert all(part.stop - part.start == 1 for parts in seen for part in parts)
    assert np.array_equal(masks, expected[0])
    assert np.array_equal(representatives, expected[1][0])
    assert np.array_equal(ids, expected[1][1])
    assert ccr == expected[2] and ccr.mode == "exhaustive"


def test_subgroup_indices_must_be_integers_in_range():
    z4 = parse_group("Z4")
    # the index of the unreduced coordinate 7 is out of range, never reduced
    with pytest.raises(ValueError, match=r"integers in range\(4\)"):
        Subgroup(z4, [0, 1, 2, 7])
    for bad in ([0, -2], [0, 2.0], [0, 1.5], [[0, 2]],
                (GroupElement(z4, (0,)), GroupElement(z4, (2,)))):
        with pytest.raises(ValueError, match="integers in range"):
            Subgroup(z4, bad)
        with pytest.raises(ValueError, match="integers in range"):
            DualSubgroup(z4, bad)
    with pytest.raises(ValueError, match=r"integers in range\(16\)"):
        PhaseSpaceSubgroup(z4, [0, 16])
    with pytest.raises(ValueError, match="integers in range"):
        PhaseSpaceSubgroup(z4, [0, 10.0])
    with pytest.raises(ValueError, match="integers in range"):
        Subgroup(z4, [0, 2], [5])  # generators too
    with pytest.raises(ValueError, match="neutral element"):
        Subgroup(z4, [])


def test_subgroup_storage_views_equality_and_membership():
    g = parse_group("Z4xZ2")
    H = Subgroup(g, np.array([6, 0, 2, 4]), [2])
    assert H.indices.dtype == np.int64 and H.indices.tolist() == [0, 2, 4, 6]
    assert not H.indices.flags.writeable and not H.generator_indices.flags.writeable
    assert coords_of(H.elements) == [(0, 0), (1, 0), (2, 0), (3, 0)]
    assert H.elements[1] == GroupElement(g, (1, 0))
    assert H.generator_indices.tolist() == [2]
    assert str(H) == "0,0;1,0;2,0;3,0"
    assert 6 in H and np.int64(6) in H and 7 not in H  # (3, 0) and (3, 1)
    # equality and hash by (group, indices); generators do not count
    same = subgroup_closure(g, (6,))
    assert same == H and hash(same) == hash(H)
    assert same.generator_indices.tolist() != H.generator_indices.tolist()
    assert Subgroup(parse_group("Z8"), [0, 2, 4, 6]) != H
    assert DualSubgroup(g, [0, 2, 4, 6]) != H
    assert len({H, same, Subgroup.whole(g)}) == 2
    A = annihilator(H)
    assert A.indices.tolist() == [0, 1]
    assert 1 in A and 2 not in A  # the characters (0, 1) and (1, 0)
    K = maximal_compact(H)
    d = g.order
    assert K.indices.tolist() == [h * d + a for h in (0, 2, 4, 6) for a in (0, 1)]
    assert all(z in K for z in K.indices)
    assert sum(z in K for z in range(d * d)) == K.order


def _assert_equals_its_validated_copy(built):
    """built passes every check of its public constructor and equals the copy it makes."""
    values = {field.name: getattr(built, field.name) for field in dataclasses.fields(built)}
    copy = type(built)(**values)
    assert copy == built and hash(copy) == hash(built)
    for name, value in values.items():
        if isinstance(value, np.ndarray):
            assert value.dtype == np.int64 and not value.flags.writeable, name
            assert np.array_equal(value, getattr(copy, name)), name  # sorted and distinct
        else:
            assert value == getattr(copy, name), name


# subgroup_closure, all_subgroups, annihilator, dual_annihilator and
# maximal_compact build their results without the validator
@pytest.mark.parametrize(
    "spec", [str(g) for g in standard_suite()] + ["Z2xZ2xZ2xZ2", "Z4xZ4xZ2", "Z64", "Z6xZ6"]
)
def test_library_built_subgroups_pass_the_validator(spec):
    g = parse_group(spec)
    for H in all_subgroups(g):
        A = annihilator(H)
        closure = subgroup_closure(g, H.generator_indices)
        assert np.array_equal(closure.generator_indices, H.generator_indices)
        for built in (H, closure, A, dual_annihilator(A), maximal_compact(H)):
            _assert_equals_its_validated_copy(built)


# ---------------------------------------------------------------------------
# removed names and index ranges


def test_no_module_defines_or_imports_phase_space_point_objects():
    # a point is its index; the object layer and its iterator are gone
    removed = {"PhaseSpacePoint", "phase_space"}
    package = Path(wehrl.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in removed:
                found.append(f"{path.name}:{node.lineno} defines {node.name}")
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [f"{path.name}:{node.lineno} imports {alias.name}"
                          for alias in node.names if alias.name in removed]
    assert not found, found


# the package's public names, pinned: a name added or removed is an API change
PACKAGE_NAMES = {
    "CcrReport", "CheckResult", "CoherentFrame", "CosetBasis", "DenseLimitError",
    "DualSubgroup", "EntropyReport", "FiniteAbelianGroup", "GroupElement",
    "GroupMismatchError", "HusimiTable", "MinimizerConfig", "MinimizerResult",
    "PhaseSpaceSubgroup", "Subgroup", "all_subgroups", "annihilator",
    "check_density_matrix", "check_state_vector", "coset_basis", "coset_representatives",
    "dense_limit", "descend", "direct_product", "dual_annihilator", "entropy_gradient",
    "entropy_report", "group_dft", "husimi", "husimi_coset_spread", "husimi_fast",
    "husimi_marginal", "invariant_subspace_dim", "is_corwin", "maximal_compact",
    "maximally_mixed", "measurement_channel", "minimize", "nearest_coherent",
    "overlap_matrix", "parse_generators", "parse_group", "parse_point", "partial_trace",
    "product_frame", "pure_amplitudes", "pure_density", "pure_state_entropy",
    "random_density_matrix", "random_state_vector", "resolution_residual", "run_checks",
    "scan_fiducials", "standard_suite", "subgroup_closure",
    "suite_pairs", "vacuum_vector", "verify_ccr", "von_neumann_entropy", "wehrl_entropy",
    "wehrl_entropy_coset", "weyl_apply", "weyl_matrix",
}


def test_package_exports_exactly_its_pinned_names():
    assert len(wehrl.__all__) == len(set(wehrl.__all__))
    assert set(wehrl.__all__) == PACKAGE_NAMES
    assert all(hasattr(wehrl, name) for name in wehrl.__all__)


@pytest.mark.parametrize("spec", ["Z1", "Z4", "Z2xZ3"])
def test_index_arguments_refuse_values_outside_their_range(spec):
    g = parse_group(spec)
    d = g.order
    H = Subgroup.whole(g)
    K = maximal_compact(H)
    frame = CoherentFrame.vacuum(H)
    calls = {
        "weyl_apply": (d * d, lambda z: weyl_apply(g, z, frame.fiducial)),
        "weyl_matrix": (d * d, lambda z: weyl_matrix(g, z)),
        "cocycle_phase z": (d * d, lambda z: cocycle_phase(g, z, 0)),
        "cocycle_phase w": (d * d, lambda w: cocycle_phase(g, 0, w)),
        "CoherentFrame.state": (d * d, frame.state),
        "subgroup_closure": (d, lambda x: subgroup_closure(g, (0, x))),
        "Subgroup in": (d, lambda x: x in H),
        "DualSubgroup in": (d, lambda x: x in annihilator(H)),
        "PhaseSpaceSubgroup in": (d * d, lambda z: z in K),
    }
    for size, call in calls.values():
        call(size - 1)  # the last index in range is taken
        for bad in (-1, size, np.int64(-1), np.int64(size), 1.0, True):
            with pytest.raises(ValueError, match=rf"integer in range\({size}\)"):
                call(bad)


# ---------------------------------------------------------------------------
# annihilators


def test_annihilator_frozen():
    g = parse_group("Z4")
    assert annihilator(subgroup_closure(g, (2,))).indices.tolist() == [0, 2]
    g2 = parse_group("Z2xZ2")
    A2 = annihilator(subgroup_closure(g2, (index(g2, (1, 0)),)))
    assert [coords(g2, a) for a in A2.indices.tolist()] == [(0, 0), (0, 1)]
    g6 = parse_group("Z6")
    assert annihilator(subgroup_closure(g6, (2,))).indices.tolist() == [0, 3]


def test_annihilator_float_oracle():
    # independent route: brute-force the defining property in floats
    for spec in ("Z4", "Z6", "Z2xZ2", "Z9"):
        g = parse_group(spec)
        for H in all_subgroups(g):
            expected = set()
            for chi in elements(g):
                vals = [
                    np.exp(2j * np.pi * sum(c * h / n for c, h, n
                                            in zip(chi, e.coords, g.orders)))
                    for e in H.elements
                ]
                if max(abs(v - 1.0) for v in vals) < 1e-9:
                    expected.add(chi)
            assert {coords(g, a) for a in annihilator(H).indices.tolist()} == expected


@settings(max_examples=25, deadline=None)
@given(group_descriptors, st.data())
def test_annihilator_size_and_duality(orders, data):
    g = groups(orders)
    H = random_subgroup(g, data)
    A = annihilator(H)
    assert A.order * H.order == g.order
    back = dual_annihilator(A)
    assert back.elements == H.elements


# ---------------------------------------------------------------------------
# maximal compact subgroup and cosets


def test_maximal_compact_structure():
    g = parse_group("Z4")
    K = maximal_compact(subgroup_closure(g, (2,)))
    assert K.order == g.order
    expected = {((0,), (0,)), ((0,), (2,)), ((2,), (0,)), ((2,), (2,))}
    assert {point(g, z) for z in K.indices.tolist()} == expected


def test_phase_space_subgroup_rejects_non_closed_points():
    g = parse_group("Z4")

    def pt(a, b):
        return point_index(g, (a,), (b,))

    with pytest.raises(ValueError, match="not closed under addition"):
        PhaseSpaceSubgroup(g, (pt(0, 0), pt(1, 0)))
    with pytest.raises(ValueError, match="not closed under addition"):
        PhaseSpaceSubgroup(g, (pt(0, 0), pt(2, 0), pt(0, 1), pt(2, 1)))
    assert PhaseSpaceSubgroup(g, (pt(0, 0), pt(2, 2))).order == 2
    # the earlier messages are unchanged and come first
    with pytest.raises(ValueError, match="duplicate points"):
        PhaseSpaceSubgroup(g, (pt(0, 0), pt(1, 0), pt(1, 0)))
    with pytest.raises(ValueError, match="must contain the identity"):
        PhaseSpaceSubgroup(g, (pt(1, 0), pt(3, 0)))
    with pytest.raises(ValueError, match="size must divide"):
        PhaseSpaceSubgroup(g, (pt(0, 0), pt(1, 0), pt(2, 0)))


def test_maximal_compact_builds_on_suite_and_order_64_frames():
    subgroups = [H for g in standard_suite() for H in all_subgroups(g)]
    assert len(subgroups) == 53
    for spec in ("Z64", "Z8xZ8", "Z4xZ4xZ4", "Z2xZ2xZ2xZ2xZ2xZ2"):
        subgroups.append(Subgroup.whole(parse_group(spec)))
    for H in subgroups:
        K = maximal_compact(H)
        assert K.order == H.group.order


def test_maximal_compact_separation():
    for spec in ("Z4", "Z6", "Z2xZ2", "Z8"):
        g = parse_group(spec)
        for H in all_subgroups(g):
            A = maximal_compact(H).dual_part
            for x in elements(g):
                if index(g, x) in H:
                    continue
                # some annihilator character must see x
                assert any(pairing_phase(g, coords(g, a), x) != 0 for a in A.indices.tolist())


def test_maximal_compact_checks_separation_above_order_64(monkeypatch):
    # the separation check runs at every order: an element flagged as
    # unseparated makes maximal_compact raise on a subgroup of Z128
    def one_unseparated(subgroup, ann):
        mask = np.zeros(subgroup.group.order, dtype=bool)
        mask[1] = True
        return mask

    monkeypatch.setattr(wehrl.groups, "_unseparated", one_unseparated)
    g = parse_group("Z128")
    H = subgroup_closure(g, (2,))
    with pytest.raises(RuntimeError, match="fails to separate 1 from H"):
        maximal_compact(H)


def test_unseparated_matches_fraction_oracle():
    # integer kernel vs exact Fraction phases, on A(H) and on the trivial
    # dual subgroup, which separates nothing outside H
    for spec in ("Z1", "Z4", "Z6", "Z2xZ2", "Z3xZ3", "Z1xZ3", "Z4xZ2"):
        g = parse_group(spec)
        trivial = DualSubgroup(g, [0])
        for H in all_subgroups(g):
            for dual in (annihilator(H), trivial):
                expected = [
                    index(g, x) not in H
                    and all(pairing_phase(g, coords(g, a), x) == 0 for a in dual.indices.tolist())
                    for x in elements(g)
                ]
                assert _unseparated(H, dual).tolist() == expected


def test_coset_representatives_partition():
    g = parse_group("Z6")
    for H in all_subgroups(g):
        K = maximal_compact(H)
        reps = coset_representatives(K)
        assert not reps.flags.writeable
        assert len(reps) * K.order == g.order ** 2
        seen = set()
        for rep in reps.tolist():
            block = {point_add(g, rep, u) for u in K.indices.tolist()}
            assert len(block) == K.order
            assert not (block & seen)
            seen |= block
            assert rep == min(block)  # lex-least member represents
        assert len(seen) == g.order ** 2


def test_coset_partition_matches_object_walk():
    from phase_oracle import coset_partition_walk

    pairs = [(g, H) for g in standard_suite() for H in all_subgroups(g)]
    for spec in ("Z64", "Z8xZ8", "Z4xZ4xZ4"):
        g = parse_group(spec)
        pairs += [(g, Subgroup.whole(g)), (g, Subgroup.trivial(g))]
    assert len(pairs) == 53 + 6
    for g, H in pairs:
        K = maximal_compact(H)
        reps, ids = coset_partition_walk(K)
        assert coset_representatives(K).tolist() == reps
        indices, labels = _coset_partition(K)
        assert indices.tolist() == reps
        assert np.array_equal(labels, ids)


# K = H x A(H) from maximal_compact takes the product route; the same
# points read as a bare phase-space subgroup (as a stabiliser read off the
# ambiguity function is) take the generic (|F|, |K|) min-reduction
def test_product_coset_partition_matches_the_generic_route():
    subgroups = [H for g in standard_suite() for H in all_subgroups(g)]
    subgroups += [Subgroup.whole(parse_group(s))
                  for s in ("Z64", "Z8xZ8", "Z4xZ4xZ4", "Z2xZ2xZ2xZ2xZ2xZ2")]
    subgroups += [H for s in ("Z4xZ8", "Z6xZ6") for H in all_subgroups(parse_group(s))]
    for H in subgroups:
        K = maximal_compact(H)
        assert K.subgroup is H and K.dual_part is not None
        bare = PhaseSpaceSubgroup(K.group, K.indices)
        assert bare.subgroup is None and bare.dual_part is None
        product, generic = _coset_partition(K), _coset_partition(bare)
        for a, b in zip(product, generic):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b)


def test_coset_representatives_trivial_cases():
    g = parse_group("Z4")
    K_full = maximal_compact(subgroup_closure(g, (1,)))
    # H = G gives K = H x {trivial}; |K| = 4, 4 cosets
    assert len(coset_representatives(K_full)) == 4


# ---------------------------------------------------------------------------
# Corwin predicate, products


def test_is_corwin_frozen():
    g4 = parse_group("Z4")
    assert is_corwin(subgroup_closure(g4, ())) is True
    assert is_corwin(subgroup_closure(g4, (2,))) is False
    assert is_corwin(subgroup_closure(g4, (1,))) is False
    g3 = parse_group("Z3")
    assert is_corwin(subgroup_closure(g3, (1,))) is True
    g2 = parse_group("Z2")
    assert is_corwin(subgroup_closure(g2, (1,))) is False


# 2H = H against the set of doubled coordinates, on every subgroup
@pytest.mark.parametrize("spec", ["Z4xZ2", "Z6", "Z3xZ3", "Z9", "Z2xZ2xZ2"])
def test_is_corwin_matches_doubled_coordinates(spec):
    g = parse_group(spec)
    for H in all_subgroups(g):
        members = [coords(g, int(h)) for h in H.indices]
        doubled = {add(g, h, h) for h in members}
        assert is_corwin(H) is (doubled == set(members))


def test_direct_product():
    g = direct_product(parse_group("Z2"), parse_group("Z3"))
    assert g.orders == (2, 3)
    assert str(g) == "Z2xZ3"


def test_library_invariants_are_not_asserts():
    # `python -O` strips assert statements; invariants must raise explicitly
    package = Path(wehrl.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not found, f"{path.name}: assert at lines {found}"


def test_package_imports_in_layers():
    # every relative import is a module-level statement, and the graph of
    # relative imports has no cycle, so each module reads only modules that
    # load before it
    package = Path(wehrl.__file__).parent
    nested = []
    imports = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        relative = [
            node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
        ]
        nested += [f"{path.name}:{node.lineno}" for node in relative if node not in tree.body]
        imports[path.stem] = {node.module or alias.name for node in relative for alias in node.names}
    assert not nested, f"relative imports below module level: {nested}"
    try:
        graphlib.TopologicalSorter(imports).prepare()
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")


# every settable value of the public API that a caller may leave out: each one
# has a program caller (the library, scripts/, perfbench/ or the CLI) that
# sets it to another value, or is data another function builds
DEFAULTED_PARAMETERS = {
    "groups.Subgroup.generator_indices": (),
    "groups.PhaseSpaceSubgroup.subgroup": None,
    "groups.PhaseSpaceSubgroup.dual_part": None,
    "groups.group_dft.inverse": False,
    "weyl.verify_ccr.seed": 0,
    "states.check_state_vector.dim": None,
    "states.check_density_matrix.dim": None,
    "entropy.entropy_report.log_base": "e",
    "entropy.partial_trace.trace_out": 2,
    "minimize.MinimizerConfig.max_iters": 5000,
    "minimize.MinimizerConfig.tol_grad": 1e-8,
    "minimize.MinimizerConfig.tol_entropy": 1e-9,
    "minimize.MinimizerConfig.restarts": 16,
    "minimize.MinimizerConfig.seed": 0,
    "minimize.minimize.config": None,
    "verify.CheckResult.note": "",
    "verify.run_checks.seed": 0,
    "verify.run_checks.rho_samples": 1000,
    "cli.main.argv": None,
}


def _defaulted_parameters(obj) -> dict:
    """name -> default of each parameter of obj with a default; dataclass fields too."""
    if dataclasses.is_dataclass(obj):
        return {f.name: f.default for f in dataclasses.fields(obj)
                if f.default is not dataclasses.MISSING}
    if inspect.isclass(obj):
        obj = obj.__init__ if "__init__" in vars(obj) else None
    if not callable(obj):
        return {}
    return {name: p.default for name, p in inspect.signature(obj).parameters.items()
            if p.default is not p.empty}


def test_public_api_has_exactly_the_defaulted_parameters_its_callers_set():
    found = {}
    for path in sorted(Path(wehrl.__file__).parent.glob("[!_]*.py")):
        module = importlib.import_module(f"wehrl.{path.stem}")
        names = list(module.__all__)
        if path.stem == "verify":
            names += sorted(name for name in vars(module) if name.startswith("check_"))
        for name in names:
            for param, default in _defaulted_parameters(getattr(module, name)).items():
                found[f"{path.stem}.{name}.{param}"] = default
    assert found == DEFAULTED_PARAMETERS
    with pytest.raises(TypeError):
        wehrl.CoherentFrame(parse_group("Z4"), [1, 0, 0, 0], subgroup=None)
