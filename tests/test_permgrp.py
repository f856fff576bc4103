import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bfs_elements, conjugacy_partition, cycle_string, group_exponent, power_orbits
from stacky.arith import CyclotomicSignature, cyclotomic_image
from stacky.malle import group_preset, malle_invariants
from stacky.permgrp import (
    Permutation,
    _index_and_order,
    class_of,
    closure,
    conjugacy_classes,
    from_cycles,
    gamma_orbits,
    identity,
    index,
    is_transitive,
    parse_group_spec,
    parse_permutation,
    power_action,
)

CLASS_SPECS = [
    "(1 2); (1 2 3)",
    "(1 2); (1 2 3 4)",
    "(1 2 3 4 5)",
    "(1 2 3 4 5 6)",
    "(1 2 3); (4 5 6); (1 4)(2 5)(3 6)",
    "(1 2 3 4); (1 3)",
]
# degree above 16: element keys are raw bytes instead of one packed integer
DIHEDRAL_20 = ("(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20);"
               "(2 20)(3 19)(4 18)(5 17)(6 16)(7 15)(8 14)(9 13)(10 12)")


def test_permutation_basics():
    g = from_cycles([(1, 2, 3)], 4)
    assert g.images == (2, 3, 1, 4)
    assert g(1) == 2 and g(4) == 4
    assert g.inverse().images == (3, 1, 2, 4)
    assert (g * g.inverse()) == identity(4)
    assert g.order() == 3
    assert g.pow(5) == g * g
    assert g.pow(-1) == g.inverse()


def _repeated_power(g: Permutation, k: int) -> Permutation:
    base = g if k >= 0 else g.inverse()
    out = identity(g.degree)
    for _ in range(abs(k)):
        out = out * base
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.permutations(range(n))), st.data())
def test_pow_by_cycle_shifts_matches_repeated_products(images, data):
    g = Permutation(tuple(x + 1 for x in images))
    o = g.order()
    k = data.draw(st.integers(-2 * o, 2 * o))
    assert g.pow(k) == _repeated_power(g, k)
    for m in (-2, -1, 0, 1, 2):  # multiples of the order give the identity
        assert g.pow(m * o) == identity(g.degree)
    assert g.pow(-1) == g.inverse()
    assert g.pow(k) * g.pow(-k) == identity(g.degree)


def test_cycles_are_computed_once_and_returned_fresh():
    g = from_cycles([(1, 3), (2, 4, 5)], 5)
    assert g.cycles() == [(1, 3), (2, 4, 5)]
    g.cycles().clear()
    assert g.cycles() == [(1, 3), (2, 4, 5)]


def _random_rows(degree: int):
    return st.lists(st.permutations(range(degree)), min_size=1, max_size=40)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 16).flatmap(_random_rows), st.integers(17, 30).flatmap(_random_rows))
def test_batched_index_and_order_match_per_permutation(small, large):
    # degrees on both sides of 16, where element keys turn from packed integers to bytes
    for images in (small, small[:1], large, large[:1]):
        rows = np.array(images, dtype=np.uint8)
        indices, orders = _index_and_order(rows)
        perms = [Permutation(tuple(x + 1 for x in im)) for im in images]
        assert indices.tolist() == [index(g) for g in perms]
        assert orders.tolist() == [g.order() for g in perms]


def test_multiplication_convention():
    # (a * b)(i) = a(b(i))
    a = from_cycles([(1, 2)], 3)
    b = from_cycles([(2, 3)], 3)
    assert (a * b)(3) == a(b(3)) == 1


def test_cycles_and_strings():
    g = from_cycles([(1, 4), (2, 5), (3, 6)], 6)
    assert g.cycle_string() == "(1 4)(2 5)(3 6)"
    assert identity(3).cycle_string() == "()"
    assert len(identity(3).cycles()) == 3


def test_cycle_string_is_built_once():
    g = from_cycles([(1, 4), (2, 5), (3, 6)], 6)
    assert g.cycle_string() is g.cycle_string()
    # the second call on a group reads the labels the first one built
    G = closure(group_preset("cyclic_regular:29"))
    first, second = (malle_invariants(G, cyclotomic_image(G.exponent, "Q")) for _ in range(2))
    assert first == second
    assert all(a is b for a, b in zip(first.minimal_classes, second.minimal_classes))


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))


def test_parse_permutation():
    g = parse_permutation("(1 2 3)(4 5)", 5)
    assert g == from_cycles([(1, 2, 3), (4, 5)], 5)
    assert parse_permutation("(1,2)", 2) == from_cycles([(1, 2)], 2)
    with pytest.raises(ValueError):
        parse_permutation("1 2 3")


@pytest.mark.parametrize("spec", ["(1 2 0)", "(1 1 2)", "deg=2; (1 2 3)", "(1 -2)",
                                  "(1 2)(2 3)", "(1 2)(1 2)"])
def test_points_outside_the_degree_or_repeated_are_rejected(spec):
    with pytest.raises(ValueError, match="point"):
        parse_group_spec(spec)


def test_from_cycles_rejects_bad_points():
    with pytest.raises(ValueError, match="outside 1..3"):
        from_cycles([(1, 4)], 3)
    with pytest.raises(ValueError, match="twice"):
        from_cycles([(2, 3, 2)], 3)
    assert from_cycles([(3,)], 3) == identity(3)  # a 1-cycle is a fixed point


def test_parse_group_spec():
    gens = parse_group_spec("(1 2 3)(4 5 6); (1 4)(2 5)(3 6)")
    assert len(gens) == 2 and gens[0].degree == 6
    gens = parse_group_spec("(1 2); deg=4")
    assert gens[0].degree == 4


def test_closure_orders():
    s3 = closure(parse_group_spec("(1 2); (1 2 3)"))
    assert s3.order == 6
    c5 = closure([from_cycles([(1, 2, 3, 4, 5)], 5)])
    assert c5.order == 5
    assert c5.exponent == 5
    wreath = closure(parse_group_spec("(1 2 3); (4 5 6); (1 4)(2 5)(3 6)"))
    assert wreath.order == 18
    assert wreath.exponent == 6


def test_closure_cap():
    with pytest.raises(ValueError):
        closure(parse_group_spec("(1 2); (1 2 3 4 5 6 7 8)"), cap=100)
    # the cap bounds the order itself: |G| elements pass, one fewer raises
    for spec, order in (("(1 2); (1 2 3 4)", 24), (DIHEDRAL_20, 40)):
        assert closure(parse_group_spec(spec), cap=order).order == order
        with pytest.raises(ValueError, match="cap"):
            closure(parse_group_spec(spec), cap=order - 1)


def test_index():
    assert index(from_cycles([(1, 2)], 5)) == 1
    assert index(from_cycles([(1, 2, 3, 4, 5)], 5)) == 4
    assert index(identity(5)) == 0
    assert index(from_cycles([(1, 2), (3, 4)], 5)) == 2


def test_conjugacy_classes_s4():
    s4 = closure(parse_group_spec("(1 2); (1 2 3 4)"))
    classes = conjugacy_classes(s4)
    assert len(classes) == 5
    assert sorted(len(c.members) for c in classes) == [1, 3, 6, 6, 8]
    assert sum(len(c.members) for c in classes) == 24
    # sorted by index: identity first, transpositions next
    assert classes[0].index == 0
    assert classes[1].index == 1


def test_power_action_cyclic():
    c6 = closure([from_cycles([(1, 2, 3, 4, 5, 6)], 6)])
    classes = conjugacy_classes(c6)
    g = c6.generators[0]
    cls = class_of(classes, c6, g)
    moved = power_action(c6, cls, 5, classes)
    assert moved.representative == g.pow(5)
    with pytest.raises(ValueError):
        power_action(c6, cls, 2, classes)


def test_gamma_orbits_c3():
    c3 = closure([from_cycles([(1, 2, 3)], 3)])
    classes = conjugacy_classes(c3)
    nontrivial = [c for c in classes if c.index > 0]
    assert len(nontrivial) == 2
    full = cyclotomic_image(3, "Q")
    assert len(gamma_orbits(c3, full, nontrivial)) == 1
    trivial = cyclotomic_image(3, ("zeta", 3))
    assert len(gamma_orbits(c3, trivial, nontrivial)) == 2


def test_gamma_orbits_modulus_mismatch():
    c3 = closure([from_cycles([(1, 2, 3)], 3)])
    with pytest.raises(ValueError):
        gamma_orbits(c3, CyclotomicSignature(4, (1, 3)), conjugacy_classes(c3))


def test_class_sizes_partition_group():
    for spec in CLASS_SPECS:
        G = closure(parse_group_spec(spec))
        classes = conjugacy_classes(G)
        sizes = [len(c.members) for c in classes]
        assert sum(sizes) == G.order
        assert all(G.order % s == 0 for s in sizes)
        assert sorted(i for c in classes for i in c.members) == list(range(G.order))


def test_index_invariant_under_coprime_powers():
    import math as _math

    for spec in ["(1 2); (1 2 3)", "(1 2 3 4 5 6)", "(1 2 3 4); (1 3)",
                 "(1 2 3); (4 5 6); (1 4)(2 5)(3 6)"]:
        G = closure(parse_group_spec(spec))
        assert G.order <= 100
        for g in G.elements:
            o = g.order()
            for k in range(1, o + 1):
                if _math.gcd(k, o) == 1:
                    assert index(g.pow(k)) == index(g)


def test_is_transitive():
    assert is_transitive(closure(parse_group_spec("(1 2 3 4)")))
    assert not is_transitive(closure(parse_group_spec("(1 2); (3 4)")))
    # transitive only through both generators
    assert is_transitive(closure(parse_group_spec("(1 2); (2 3)")))
    # point 5 is moved by no generator
    assert not is_transitive(closure(parse_group_spec("deg=5; (1 2 3 4)")))


def _assert_matches_oracle(gens, label):
    G = closure(gens)
    elements = bfs_elements([g.images for g in gens])
    assert [g.images for g in G.elements] == elements, label
    got = [(c.index, c.representative.images, c.members) for c in conjugacy_classes(G)]
    assert got == conjugacy_partition(elements), label
    assert G.exponent == group_exponent(elements), label


def test_conjugacy_classes_match_brute_oracle():
    names = [f"symmetric:{n}" for n in range(2, 7)]
    names += [f"cyclic_regular:{n}" for n in range(2, 31)] + ["kluners_c3wrc2"]
    cases = [(name, group_preset(name)) for name in names]
    cases += [(spec, parse_group_spec(spec)) for spec in CLASS_SPECS]
    cases.append(("dihedral:20", parse_group_spec(DIHEDRAL_20)))
    for label, gens in cases:
        _assert_matches_oracle(gens, label)


@st.composite
def small_groups(draw):
    """Generator images of degree n <= 6, or the same generators moving the
    points offset+1..offset+n of a degree 17-24 group (byte keys) and fixing
    every other point."""
    n = draw(st.integers(1, 6))
    images = draw(st.lists(st.permutations(range(1, n + 1)), min_size=1, max_size=3))
    if draw(st.booleans()):
        degree = draw(st.integers(17, 24))
        offset = draw(st.integers(0, degree - n))
        images = [(*range(1, offset + 1), *(i + offset for i in im),
                   *range(offset + n + 1, degree + 1)) for im in images]
    return images


@settings(max_examples=40, deadline=None)
@given(small_groups())
def test_random_groups_match_brute_oracle(images):
    gens = [Permutation(tuple(im)) for im in images]
    _assert_matches_oracle(gens, images)


@settings(max_examples=60, deadline=None)
@given(small_groups(), st.data())
def test_permutation_positions_match_the_binary_search(images, data):
    # the rows of G in a drawn order: row k is element order[k]
    G = closure([Permutation(tuple(im)) for im in images])
    order = data.draw(st.permutations(range(G.order)))
    rows = G.rows[list(order)]
    assert G._permutation_positions(rows).tolist() == list(order)
    assert np.array_equal(G._permutation_positions(rows), G._positions(rows))
    if G.order > 1:
        # one element twice, so another one missing
        i, j = data.draw(st.lists(st.integers(0, G.order - 1), min_size=2, max_size=2,
                                  unique=True))
        repeated = rows.copy()
        repeated[i] = rows[j]
        with pytest.raises(ValueError, match="not in group"):
            G._permutation_positions(repeated)
    if G.degree > 1:
        # one element replaced by a row of images that is not in G
        elements = set(map(tuple, G.rows.tolist()))
        stranger = data.draw(st.lists(st.integers(0, G.degree - 1), min_size=G.degree,
                                      max_size=G.degree).filter(
                                          lambda r: tuple(r) not in elements))
        replaced = rows.copy()
        replaced[data.draw(st.integers(0, G.order - 1))] = stranger
        with pytest.raises(ValueError, match="not in group"):
            G._permutation_positions(replaced)


def _partitions(n: int, largest: int):
    """The partitions of n into parts of at most ``largest``, parts descending."""
    if n == 0:
        yield ()
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part, *rest)


def test_symmetric_8_class_sizes_are_n_factorial_over_z_lambda():
    # the class of cycle type lambda, with m_i parts of size i, has
    # 8! / z_lambda elements, z_lambda = prod_i i^m_i m_i!
    want = {}
    for lam in _partitions(8, 8):
        z = math.prod(i ** lam.count(i) * math.factorial(lam.count(i)) for i in set(lam))
        want[lam] = math.factorial(8) // z
    assert len(want) == 22
    G = closure(group_preset("symmetric:8"))
    classes = conjugacy_classes(G)
    got = {tuple(sorted(map(len, c.representative.cycles()), reverse=True)): len(c.members)
           for c in classes}
    assert len(classes) == 22
    assert got == want
    assert sorted(i for c in classes for i in c.members) == list(range(G.order))


def test_gamma_orbits_and_malle_invariants_match_power_oracle():
    names = [f"cyclic_regular:{n}" for n in range(2, 31)]
    names += [f"symmetric:{n}" for n in range(2, 8)] + ["kluners_c3wrc2"]
    cases = [(name, group_preset(name)) for name in names]
    cases.append(("dihedral:20", parse_group_spec(DIHEDRAL_20)))
    for label, gens in cases:
        G = closure(gens)
        classes = conjugacy_classes(G)
        # the partition itself is checked against brute conjugation above
        members = [[G.elements[i].images for i in c.members] for c in classes]
        fields = ["Q", *(("zeta", d) for d in (2, 3, 4, 5, 7, 8, 12, 29)), [G.exponent - 1]]
        for field in fields:
            sig = cyclotomic_image(G.exponent, field)
            want = power_orbits(members, sig.units)
            got = gamma_orbits(G, sig, classes)
            assert [[c.representative.images for c in orbit] for orbit in got] == want, \
                (label, field)
            m = min(c.index for c in classes if c.index > 0)
            minimal = {c.representative.images for c in classes if c.index == m}
            orbits = [[cycle_string(g) for g in orbit] for orbit in want if orbit[0] in minimal]
            inv = malle_invariants(G, sig)
            assert (inv.min_index, inv.b) == (m, len(orbits)), (label, field)
            assert [list(o) for o in inv.orbits] == orbits, (label, field)
            assert list(inv.minimal_classes) == [cycle_string(g) for g in sorted(minimal)]


def test_class_list_is_a_fresh_copy():
    G = closure(parse_group_spec("(1 2); (1 2 3 4)"))
    conjugacy_classes(G).clear()
    assert len(conjugacy_classes(G)) == 5
    c4 = closure(parse_group_spec("(1 2 3 4)"))
    with pytest.raises(ValueError, match="not in group"):
        class_of(conjugacy_classes(c4), c4, from_cycles([(1, 2)], 4))
