from fractions import Fraction

import pytest

from stacky.arith import cyclotomic_image
from stacky.malle import (
    a_invariant,
    b_invariant,
    group_preset,
    malle_invariants,
    min_index,
    minimal_classes,
    signature_for_field,
)
from stacky.permgrp import closure, from_cycles


def _group(name):
    return closure(group_preset(name))


def test_symmetric_a_is_one():
    for n in range(2, 7):
        G = _group(f"symmetric:{n}")
        assert a_invariant(G) == 1
        assert min_index(G) == 1


def test_symmetric_b_is_one():
    # a transposition is rational, so the cyclotomic action fixes its class
    for n in range(2, 6):
        G = _group(f"symmetric:{n}")
        assert b_invariant(G, signature_for_field(G, "Q")) == 1


def test_cyclic_regular_spot_values():
    G6 = _group("cyclic_regular:6")
    assert a_invariant(G6) == Fraction(1, 3)
    assert b_invariant(G6, signature_for_field(G6, "Q")) == 1
    assert b_invariant(G6, signature_for_field(G6, ("zeta", 2))) == 1

    G9 = _group("cyclic_regular:9")
    assert a_invariant(G9) == Fraction(1, 6)
    assert b_invariant(G9, signature_for_field(G9, "Q")) == 1
    assert b_invariant(G9, signature_for_field(G9, ("zeta", 3))) == 2


def test_kluners_wreath_product():
    G = _group("kluners_c3wrc2")
    assert G.order == 18
    inv = malle_invariants(G, signature_for_field(G, "Q"))
    assert inv.a == Fraction(1, 2)
    assert inv.min_index == 2
    assert inv.b == 1
    # over Q(zeta_3) the two minimal classes fall apart
    inv3 = malle_invariants(G, signature_for_field(G, ("zeta", 3)))
    assert inv3.b == 2
    assert len(inv3.orbits) == 2


def test_malle_invariants_structure():
    G = _group("cyclic_regular:4")
    inv = malle_invariants(G, signature_for_field(G, "Q"))
    assert inv.a == Fraction(1, 2)
    assert inv.min_index == 2
    assert inv.minimal_classes == ("(1 3)(2 4)",)
    assert inv.b == 1


def test_group_preset_forms():
    assert closure(group_preset("cyclic_regular:5")).order == 5
    assert closure(group_preset("cyclic_regular(5)")).order == 5
    assert closure(group_preset("symmetric(3)")).order == 6
    assert closure(group_preset("kluners_c3wrc2")).order == 18
    with pytest.raises(ValueError):
        group_preset("alternating:5")
    with pytest.raises(ValueError):
        group_preset("cyclic_regular:31")


def _entry_points(G):
    """Each invariant's entry point, as a call on G with the signature of Q."""
    sig = cyclotomic_image(2)
    return (lambda: a_invariant(G), lambda: min_index(G), lambda: minimal_classes(G),
            lambda: b_invariant(G, sig), lambda: malle_invariants(G, sig))


def test_invariants_require_transitivity():
    for degree in (3, 4):
        G = closure([from_cycles([(1, 2)], degree)])
        for call in _entry_points(G):
            with pytest.raises(ValueError, match="group must act transitively"):
                call()


def test_invariants_reject_trivial_group():
    G = closure([from_cycles([], 1)])
    for call in _entry_points(G):
        with pytest.raises(ValueError, match="trivial group"):
            call()


def test_signature_for_field_reads_field_strings():
    # "Q" and "Q(zeta_d)" name the same fields as ("zeta", 1) and ("zeta", d);
    # any other string is a ValueError, not a TypeError from the generators
    G = _group("cyclic_regular:6")
    assert signature_for_field(G, "Q(zeta_3)") == signature_for_field(G, ("zeta", 3))
    assert signature_for_field(G, " Q ") == signature_for_field(G, ("zeta", 1))
    for text in ("Q(i)", "Q(zeta_x)", "Q(zeta_3", "zeta_3", ""):
        with pytest.raises(ValueError, match="cannot parse field"):
            signature_for_field(G, text)
