"""Counting invariants of transitive permutation groups.

The a-invariant is the reciprocal of the minimal index of a nonidentity
element; the b-invariant counts orbits of the minimal-index conjugacy
classes under the cyclotomic action of the base field.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .arith import CyclotomicSignature, cyclotomic_image
from .permgrp import (
    ConjClass,
    PermGroup,
    Permutation,
    conjugacy_classes,
    from_cycles,
    gamma_orbits,
    is_transitive,
)

__all__ = [
    "MalleInvariants",
    "a_invariant",
    "minimal_classes",
    "b_invariant",
    "malle_invariants",
    "group_preset",
    "PRESETS",
]


@dataclass(frozen=True)
class MalleInvariants:
    a: Fraction
    min_index: int
    b: int
    minimal_classes: tuple[str, ...]
    orbits: tuple[tuple[str, ...], ...]


def minimal_classes(G: PermGroup) -> list[ConjClass]:
    """The nonidentity conjugacy classes of least index, the one place the
    invariants below check that G is transitive and nontrivial."""
    if G.order <= 1:
        raise ValueError("invariants are undefined for the trivial group")
    if not is_transitive(G):
        raise ValueError("group must act transitively")
    classes = conjugacy_classes(G)
    m = min(c.index for c in classes if c.index > 0)
    return [c for c in classes if c.index == m]


def min_index(G: PermGroup) -> int:
    return minimal_classes(G)[0].index


def a_invariant(G: PermGroup) -> Fraction:
    """1 / min{index(g) : g != 1}."""
    return Fraction(1, min_index(G))


def b_invariant(G: PermGroup, sig: CyclotomicSignature) -> int:
    """Number of cyclotomic orbits of the minimal-index classes."""
    return len(malle_invariants(G, sig).orbits)


def malle_invariants(G: PermGroup, sig: CyclotomicSignature) -> MalleInvariants:
    mins = minimal_classes(G)
    # g -> g^u for u prime to the exponent keeps the cycle type, so the
    # minimal classes hold every image class
    orbits = gamma_orbits(G, sig, mins, mins)
    # the orbits partition the minimal classes, so each label is built once
    label = {c.representative.images: c.representative.cycle_string() for c in mins}
    return MalleInvariants(
        a=Fraction(1, mins[0].index),
        min_index=mins[0].index,
        b=len(orbits),
        minimal_classes=tuple(label[c.representative.images] for c in mins),
        orbits=tuple(tuple(label[c.representative.images] for c in orbit) for orbit in orbits),
    )


def _cyclic_regular(n: int) -> list[Permutation]:
    if not 2 <= n <= 30:
        raise ValueError("cyclic_regular supports 2 <= n <= 30")
    return [from_cycles([tuple(range(1, n + 1))], n)]


def _symmetric(n: int) -> list[Permutation]:
    if not 2 <= n <= 8:
        raise ValueError("symmetric supports 2 <= n <= 8")
    gens = [from_cycles([(1, 2)], n)]
    if n > 2:
        gens.append(from_cycles([tuple(range(1, n + 1))], n))
    return gens


def _kluners_c3wrc2() -> list[Permutation]:
    return [
        from_cycles([(1, 2, 3)], 6),
        from_cycles([(4, 5, 6)], 6),
        from_cycles([(1, 4), (2, 5), (3, 6)], 6),
    ]


PRESETS = {
    "cyclic_regular": _cyclic_regular,
    "symmetric": _symmetric,
    "kluners_c3wrc2": _kluners_c3wrc2,
}


_PRESET_RE = re.compile(r"\s*(\w+)\s*(?::(.*)|\((.*)\))?\s*")


def group_preset(name: str) -> list[Permutation]:
    """Generators for a named group: cyclic_regular(n), symmetric(n),
    or kluners_c3wrc2.  Also accepts colon form "cyclic_regular:6"."""
    m = _PRESET_RE.fullmatch(name)
    base = m.group(1) if m else None
    if base not in PRESETS:
        raise ValueError(f"unknown preset {name!r}")
    if base == "kluners_c3wrc2":
        return PRESETS[base]()
    arg = m.group(2) if m.group(2) is not None else m.group(3)
    if arg is None:
        raise ValueError(f"preset {base!r} needs a size, as in {base}:6")
    return PRESETS[base](int(arg))


def signature_for_field(G: PermGroup, field: str | tuple | list) -> CyclotomicSignature:
    """Cyclotomic signature at the group exponent for the given base field."""
    return cyclotomic_image(G.exponent, field)
