"""Finite permutation groups stored by full element list.

Groups here are small (the largest preset, S8, has 40320 elements), so a
group keeps all its elements, as a (|G|, n) array of small-int images.

* ``closure`` multiplies breadth-first, one frontier at a time: a single
  fancy-indexing step forms every product of the frontier with the
  generators.  Each row of images packs into one key, and a set of the
  keys seen so far keeps each product the first time it appears.
  Products of valid permutations are not checked again.
* Conjugation by a generator permutes the element positions.  The
  conjugated rows are all of G, so their keys sort to the sorted element
  keys: one argsort of them gives every position (the k-th smallest
  conjugated row is the k-th smallest element), and comparing the two
  sorted key lists checks that the rows are G, each element once.  The
  conjugacy classes are the orbits of these permutations, found by a
  vectorised union-find.  The few arbitrary elements that the power maps
  and ``class_of`` look up are binary-searched in the sorted keys.
* The position lookup, the class list and the exponent are computed once
  per group, on first use, and cached on the ``PermGroup``.  The index and
  order of every class representative come from one numpy pass over the
  representative rows, and the exponent is the lcm of those orders.
* A ``Permutation`` computes its cycle decomposition and its cycle string
  once and keeps them.  ``pow`` shifts each cycle by k modulo its length,
  and the order, index and cycle string are read from the same cycles.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .arith import CyclotomicSignature

__all__ = [
    "Permutation",
    "PermGroup",
    "ConjClass",
    "identity",
    "from_cycles",
    "parse_group_spec",
    "closure",
    "index",
    "conjugacy_classes",
    "power_action",
    "gamma_orbits",
    "is_transitive",
]

DEFAULT_CAP = 10**6


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1..n}, stored as the image tuple (1-based)."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError("images must be a permutation of {1..n}")

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Permutation":
        """Wrap images known to form a bijection, without checking them."""
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (self * other)(i) = self(other(i))
        im = self.images
        return Permutation._trusted(tuple([im[j - 1] for j in other.images]))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Permutation._trusted(tuple(inv))

    def pow(self, k: int) -> "Permutation":
        """self^k: every cycle shifted by k modulo its length."""
        images = list(range(1, self.degree + 1))
        for cyc in self._cycles:
            s = k % len(cyc)
            for a, b in zip(cyc, cyc[s:] + cyc[:s]):
                images[a - 1] = b
        return Permutation._trusted(tuple(images))

    @cached_property
    def _cycles(self) -> tuple[tuple[int, ...], ...]:
        """Cycle decomposition including fixed points, smallest element first."""
        im = self.images
        seen = [False] * self.degree
        out = []
        for start in range(1, self.degree + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            j = im[start - 1]
            while j != start:
                cyc.append(j)
                seen[j - 1] = True
                j = im[j - 1]
            out.append(tuple(cyc))
        return tuple(out)

    def cycles(self) -> list[tuple[int, ...]]:
        """The cycle decomposition, as a fresh list."""
        return list(self._cycles)

    def order(self) -> int:
        return math.lcm(*map(len, self._cycles))

    def cycle_string(self) -> str:
        return self._cycle_string

    @cached_property
    def _cycle_string(self) -> str:
        """Cycle notation without fixed points, "()" for the identity."""
        nontrivial = [c for c in self._cycles if len(c) > 1]
        if not nontrivial:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in nontrivial)


def identity(degree: int) -> Permutation:
    return Permutation._trusted(tuple(range(1, degree + 1)))


def from_cycles(cycles: list[tuple[int, ...]], degree: int | None = None) -> Permutation:
    """The permutation with the given disjoint cycles; every point must lie
    in 1..degree (by default the largest point) and appear only once."""
    n = degree or max((max(c) for c in cycles if c), default=1)
    seen = set()
    for a in (a for cyc in cycles for a in cyc):
        if not 1 <= a <= n:
            raise ValueError(f"point {a} outside 1..{n}")
        if a in seen:
            raise ValueError(f"point {a} appears twice in the cycles")
        seen.add(a)
    images = list(range(1, n + 1))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a - 1] = b
    return Permutation(tuple(images))


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_permutation(text: str, degree: int | None = None) -> Permutation:
    """Parse cycle notation like "(1 2 3)(4 5 6)"; commas also accepted."""
    cycles = []
    rest = text.strip()
    if not _CYCLE_RE.sub("", rest).strip() == "":
        raise ValueError(f"malformed cycle notation: {text!r}")
    for body in _CYCLE_RE.findall(rest):
        entries = [int(tok) for tok in re.split(r"[,\s]+", body.strip()) if tok]
        if entries:
            cycles.append(tuple(entries))
    return from_cycles(cycles, degree)


def parse_group_spec(spec: str) -> list[Permutation]:
    """Parse a generator list like "(1 2 3)(4 5 6); (1 4)(2 5)(3 6)".

    An optional "deg=N" entry fixes the degree; otherwise it is inferred
    from the largest moved point.
    """
    degree = None
    parts = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        m = re.fullmatch(r"deg\s*=\s*(\d+)", chunk)
        if m:
            degree = int(m.group(1))
        else:
            parts.append(chunk)
    if degree is None:
        degree = max(
            (int(tok) for part in parts for tok in re.findall(r"\d+", part)),
            default=1,
        )
    return [parse_permutation(part, degree) for part in parts]


@dataclass(frozen=True)
class PermGroup:
    """A permutation group, stored as the images of all its elements.

    ``rows`` is a (|G|, degree) array of small ints: row i holds the 0-based
    images of element i, in breadth-first closure order.  Two groups are
    equal when they have the same degree and generators.  The elements as
    ``Permutation`` objects, the position lookup, the conjugacy classes and
    the exponent are computed on first use and then kept on the instance.
    """

    degree: int
    generators: tuple[Permutation, ...]
    rows: np.ndarray = field(repr=False, compare=False)

    @property
    def order(self) -> int:
        return len(self.rows)

    @cached_property
    def elements(self) -> tuple[Permutation, ...]:
        images = (self.rows.astype(np.intp) + 1).tolist()
        return tuple(map(Permutation._trusted, map(tuple, images)))

    @property
    def exponent(self) -> int:
        return self._partition[2]

    @cached_property
    def _lookup(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted element keys, and the element positions in that order."""
        keys = _row_keys(self.rows)
        order = np.argsort(keys)
        return keys[order], order

    def _positions(self, rows: np.ndarray) -> np.ndarray:
        """Positions in ``elements`` of the rows of 0-based images."""
        sorted_keys, order = self._lookup
        keys = _row_keys(rows)
        at = np.minimum(np.searchsorted(sorted_keys, keys), self.order - 1)
        if np.any(sorted_keys[at] != keys):
            raise ValueError("element not in group")
        return order[at]

    def _permutation_positions(self, rows: np.ndarray) -> np.ndarray:
        """Positions in ``elements`` of |G| rows that hold every element of G
        once, in any order: the k-th smallest row is the k-th smallest
        element.  Unless the rows' sorted keys are the element keys, some
        row is not in G and ValueError is raised."""
        sorted_keys, order = self._lookup
        keys = _row_keys(rows)
        by_key = np.argsort(keys)
        if not np.array_equal(keys[by_key], sorted_keys):
            raise ValueError("element not in group")
        positions = np.empty(self.order, dtype=np.intp)
        positions[by_key] = order
        return positions

    @cached_property
    def _partition(self) -> tuple[tuple[ConjClass, ...], np.ndarray, int]:
        """The sorted class list, the class number of each position and the
        exponent."""
        return _class_partition(self)

    def _classes_of(self, perms: list[Permutation]) -> list[ConjClass]:
        rows = np.array([p.images for p in perms], dtype=np.intp)
        positions = self._positions(rows.reshape(len(perms), self.degree) - 1)
        classes, ids, _ = self._partition
        return [classes[k] for k in ids[positions].tolist()]


@dataclass(frozen=True)
class ConjClass:
    """A conjugacy class: representative, member positions, Malle index."""

    representative: Permutation
    members: tuple[int, ...]
    index: int


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One key per row of images; keys sort as the rows do, lexicographically.

    A row packs into one uint64 when its images fit in 64 bits together
    (degree up to 16): one product with the place values of its columns.
    Wider rows are keyed by their big-endian bytes.
    """
    n = rows.shape[1]
    bits = max(1, (n - 1).bit_length())
    if n * bits <= 64:
        place = np.uint64(1) << np.arange(n - 1, -1, -1, dtype=np.uint64) * np.uint64(bits)
        return rows.astype(np.uint64) @ place
    packed = np.ascontiguousarray(rows, dtype=np.uint8 if n <= 256 else ">u4")
    return packed.view(f"V{packed.itemsize * n}").ravel()


def closure(generators: list[Permutation], cap: int = DEFAULT_CAP) -> PermGroup:
    """Close a generator list under products, breadth-first and deterministic.

    Elements appear in the order of the plain loop "for x in frontier: for g
    in generators: x * g", keeping each product the first time it is seen.
    """
    if not generators:
        raise ValueError("need at least one generator")
    degree = generators[0].degree
    for g in generators:
        if g.degree != degree:
            raise ValueError("generators must share a degree")
    gens0 = np.array([g.images for g in generators], dtype=np.intp)
    gens0 = gens0.reshape(len(generators), degree) - 1
    frontier = np.arange(degree, dtype=np.min_scalar_type(degree)).reshape(1, degree)
    blocks = [frontier]
    seen = set(_row_keys(frontier).tolist())  # keys of every element found so far
    while len(frontier):
        # row k * len(generators) + j holds frontier[k] * generators[j]
        prods = frontier[:, gens0].reshape(len(frontier) * len(gens0), degree)
        # the rows whose key appears for the first time, in product order
        new = [i for i, k in enumerate(_row_keys(prods).tolist()) if k not in seen and not seen.add(k)]
        if len(seen) > cap:
            raise ValueError(f"group exceeds element cap {cap}")
        frontier = prods[new]
        blocks.append(frontier)
    rows = np.concatenate(blocks)
    rows.flags.writeable = False  # the cached lookup and classes depend on it
    return PermGroup(degree, tuple(generators), rows)


def index(g: Permutation) -> int:
    """Degree minus number of cycles (fixed points count as cycles)."""
    return g.degree - len(g._cycles)


def _index_and_order(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``index`` and order of the permutation in each row of 0-based images.

    The rows are read as one permutation of the flat positions.  Pointer
    doubling labels every position with the least position of its cycle:
    after t rounds ``lab`` is the least of the 2^t positions from each one
    along its cycle, and ``step`` jumps 2^t places.  A position that keeps
    its own label starts a cycle, and counts the positions labelled by it.
    """
    k, n = rows.shape
    step = (rows + np.arange(0, k * n, n).reshape(k, 1)).ravel()
    lab = np.arange(k * n)
    for _ in range((n - 1).bit_length()):
        lab = np.minimum(lab, lab[step])
        step = step[step]
    lengths = np.bincount(lab, minlength=k * n).reshape(k, n)
    return n - np.count_nonzero(lengths, axis=1), np.lcm.reduce(np.maximum(lengths, 1), axis=1)


def _orbit_labels(maps: list[np.ndarray], size: int) -> np.ndarray:
    """Smallest point of each orbit of the permutations ``maps`` of range(size).

    Union-find in vectorised form.  Every label points to a smaller or equal
    point of the same orbit, and a root points to itself.  Each pass links,
    for every edge i -- m[i] between two trees, the larger root to the
    smaller one, then compresses every path to its root; every tree with an
    edge out merges, so the number of trees at least halves per pass.
    """
    labels = np.arange(size)
    tails, heads = np.tile(labels, len(maps)), np.concatenate(maps)
    while True:
        a, b = labels[tails], labels[heads]
        split = a != b
        if not split.any():
            return labels
        a, b = a[split], b[split]
        np.minimum.at(labels, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped


def _class_partition(G: PermGroup) -> tuple[tuple[ConjClass, ...], np.ndarray, int]:
    """Conjugacy classes of G sorted by (index, representative images), the
    class number of each element position, and the exponent of G.

    Conjugation by each generator h permutes the element positions; the
    classes are the orbits of those permutations.  Members are listed by
    position and the representative is the lexicographically smallest member.
    Element order is a class function, so the exponent is the lcm of the
    representatives' orders.
    """
    rows = G.rows
    maps = []
    for h in G.generators:
        h0 = np.array(h.images, dtype=np.intp) - 1
        # (h g h^-1)(x) = h(g(h^-1(x))), on 0-based images
        maps.append(G._permutation_positions(h0[rows[:, np.argsort(h0)]]))
    labels = _orbit_labels(maps, G.order)
    by_class = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[by_class], prepend=-1))
    bounds = np.append(starts, G.order)
    lex = G._lookup[1]  # positions in lexicographic order of their images
    rank = np.empty(G.order, dtype=np.intp)
    rank[lex] = np.arange(G.order)
    rep_ranks = np.minimum.reduceat(rank[by_class], starts)
    rep_rows = rows[lex[rep_ranks]].astype(np.intp)
    reps = [Permutation._trusted(tuple(im)) for im in (rep_rows + 1).tolist()]
    indices, orders = _index_and_order(rep_rows)
    ordered = np.lexsort((rep_ranks, indices)).tolist()
    indices = indices.tolist()
    members, cut = by_class.tolist(), bounds.tolist()
    classes = tuple(
        ConjClass(reps[k], tuple(members[cut[k]:cut[k + 1]]), indices[k]) for k in ordered
    )
    number = np.empty(len(ordered), dtype=np.intp)
    number[ordered] = np.arange(len(ordered))
    ids = np.empty(G.order, dtype=np.intp)
    ids[by_class] = np.repeat(number, np.diff(bounds))
    return classes, ids, int(np.lcm.reduce(orders))


def conjugacy_classes(G: PermGroup) -> list[ConjClass]:
    """Partition of G into conjugacy classes, deterministically ordered.

    Classes are sorted by (index, minimal member images); the representative
    is the lexicographically smallest member and ``members`` are element
    positions in increasing order.  The partition is computed once per
    group; every call returns a fresh list.
    """
    return list(G._partition[0])


def class_of(classes: list[ConjClass], G: PermGroup, g: Permutation) -> ConjClass:
    """The class in ``classes`` that contains g."""
    (cls,) = G._classes_of([g])
    if cls not in classes:
        raise ValueError("element not in the given classes")
    return cls


def power_action(
    G: PermGroup, cls: ConjClass, k: int, classes: list[ConjClass] | None = None
) -> ConjClass:
    """The class of representative^k, for k coprime to the group exponent."""
    if math.gcd(k, G.exponent) != 1:
        raise ValueError(f"k={k} not coprime to group exponent {G.exponent}")
    if classes is None:
        classes = conjugacy_classes(G)
    return class_of(classes, G, cls.representative.pow(k))


def gamma_orbits(
    G: PermGroup,
    sig: CyclotomicSignature,
    classes: list[ConjClass],
    all_classes: list[ConjClass] | None = None,
) -> list[list[ConjClass]]:
    """Orbits of the given classes under g -> g^u for u in the signature.

    The image classes are taken from ``all_classes``, the full class list
    of G (computed if not given).
    """
    if sig.modulus != G.exponent:
        raise ValueError(
            f"signature modulus {sig.modulus} != group exponent {G.exponent}"
        )
    if all_classes is None:
        all_classes = conjugacy_classes(G)
    by_rep = {c.representative.images: c for c in all_classes}

    def key(c: ConjClass) -> tuple[int, ...]:
        return c.representative.images

    covered = set()
    orbits = []
    for first in sorted(classes, key=key):
        if key(first) in covered:
            continue
        rep = first.representative
        order = rep.order()
        # u = 1 mod the order gives rep itself; the other residues are looked up
        units = sorted({u % order for u in sig.units} - {1 % order})
        images = G._classes_of([rep.pow(u) for u in units]) if units else []
        orbit = {key(img): by_rep[key(img)] for img in [first, *images]}
        covered.update(orbit)
        orbits.append(sorted(orbit.values(), key=key))
    return orbits


def is_transitive(G: PermGroup) -> bool:
    """True iff the group has a single orbit on {1..n}: the images of 1
    under its elements cover every point."""
    return bool(np.bincount(G.rows[:, 0], minlength=G.degree).all())
