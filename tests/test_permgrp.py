import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bfs_elements, conjugacy_partition, group_exponent
from stacky.arith import CyclotomicSignature, cyclotomic_image
from stacky.malle import group_preset
from stacky.permgrp import (
    Permutation,
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


def test_permutation_basics():
    g = from_cycles([(1, 2, 3)], 4)
    assert g.images == (2, 3, 1, 4)
    assert g(1) == 2 and g(4) == 4
    assert g.inverse().images == (3, 1, 2, 4)
    assert (g * g.inverse()) == identity(4)
    assert g.order() == 3
    assert g.pow(5) == g * g
    assert g.pow(-1) == g.inverse()


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


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))


def test_parse_permutation():
    g = parse_permutation("(1 2 3)(4 5)", 5)
    assert g == from_cycles([(1, 2, 3), (4, 5)], 5)
    assert parse_permutation("(1,2)", 2) == from_cycles([(1, 2)], 2)
    with pytest.raises(ValueError):
        parse_permutation("1 2 3")


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
    # degree above 16: element keys are raw bytes instead of one packed integer
    cases.append(("dihedral:20", parse_group_spec(
        "(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20);"
        "(2 20)(3 19)(4 18)(5 17)(6 16)(7 15)(8 14)(9 13)(10 12)")))
    for label, gens in cases:
        _assert_matches_oracle(gens, label)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.permutations(range(1, n + 1)), min_size=1, max_size=3)))
def test_random_groups_match_brute_oracle(images):
    gens = [Permutation(tuple(im)) for im in images]
    _assert_matches_oracle(gens, images)


def test_class_list_is_a_fresh_copy():
    G = closure(parse_group_spec("(1 2); (1 2 3 4)"))
    conjugacy_classes(G).clear()
    assert len(conjugacy_classes(G)) == 5
    c4 = closure(parse_group_spec("(1 2 3 4)"))
    with pytest.raises(ValueError, match="not in group"):
        class_of(conjugacy_classes(c4), c4, from_cycles([(1, 2)], 4))
