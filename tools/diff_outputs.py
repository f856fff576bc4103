"""Digest what the census counters, the Bmu_n enumerator and the Kummer
queries return, so that two checkouts can be compared entry by entry.  A
correctness check, not a benchmark: nothing is timed.

The census section has five kinds of entries:

- ``count()`` for every ``FAST_COUNTERS`` key, on the ladders b0 * 2^i of
  ``LADDERS``: the counts, or the exception's type and message;
- ``count()`` over the whole key grid, kinds mu and cyclic, n = 2..12,
  counters T and M and every ordering, on the one small ladder of
  ``GRID_LADDER``: the counts, or the rejection's type and message;
- ``enumerate_mu(n, B, ordering)`` for n = 2..12 under every ordering it
  takes (disc_tame and darda past n = 3), at the |disc| caps of
  ``ENUM_CAPS``: the sorted multiset of (a, measure) pairs;
- ``enumerate_cyclic(n, B)`` for n = 2..12 at the bounds of
  ``CYCLIC_BOUNDS``: the sorted (conductor, character, |disc|) triples;
- every census record for n = 2..12: ``_mu_types(n, ordering, within)``
  under every ordering ``enumerate_mu`` takes, over the empty restriction
  and every intersection of the sets of ``kummer._reducible(n)``, and
  ``_cyclic_types(n, d)`` for each d | n.  Its entry is M, then at each
  unit residue u mod n the sorted (cost, class exponent mod M) of its tame
  types, then at each unit class mod M its wild costs in their order.  The
  payloads are left out, so a record may change their shape.

The kummer section takes seeded a of 8, 20, 40 and 62 bits, products of two
31-bit primes and powers of 6-bit numbers, each of either sign.  Its
entries are ``factor(a)`` and, for n = 2..12 without and with a seeded
denominator of either sign, the canonical class, ``is_irreducible``, and in
every mode the class admits (exact for n in {2, 3}, else tame and
interval) the discriminant's JSON, the eszb and darda heights, ``edd``,
the raising height (exact mode only) and ``darda_local`` at "inf" and at
each prime of the class's a and of n (or the exception it raises), then
all of these a second time on the same class, after every mode was asked
for once, and ``D_aprime`` at a' = ``a_eszb_closed(n)``.  Last, a fresh
class of the same a, n and den is asked for the exact (n in {2, 3}) or
interval discriminant first and then for the tame one, the tame eszb and
darda heights, the tame ``edd`` and ``D_aprime``.

The factor section takes seeded products of sympy primes: of about 70,
91 and 140 bits, the last with factors of 20 and 30 bits that rho splits
off; primes in (2^10, 2^16] times primes past 2^63; and powers of 16-bit
and 31-bit primes up to 91 bits.  Its entries are ``factor(m)``.

The permgrp section closes every group preset (cyclic_regular:2..30,
symmetric:2..8, kluners_c3wrc2) and the dihedral groups of degree 20, 101
and 300, given in cycle notation.  Its entries are the closure rows, the class
list (index, representative images, member positions), the exponent and
``malle_invariants`` over Q, Q(zeta_3) and Q(zeta_4).

The cyclotomic section takes m = 1..120, 420 and 840.  Its entries are
``cyclotomic_image(m, field).units`` over Q, over Q(zeta_d) for d = 1..12
and for the explicit generator list ``CYCLOTOMIC_GENERATORS`` (or the
exception it raises).

It prints one sha256 digest per section, and for the census section also
the digest of its entries before the records, so that a checkout whose
records differ can still be compared on its counts and streams; ``--dump``
prints the entries themselves first, one per line, so that two dumps can
be compared with ``diff``.  The census section runs twice in the one process: first cold,
each counter building its records' plans, then warm, reading the plans
the first pass built and grew; the tool exits non-zero if the two digests
differ.  Run from anywhere: ``python tools/diff_outputs.py [--dump]``.
"""

import argparse
import hashlib
import itertools
import math
import pathlib
import random
import sys

import sympy

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from stacky.arith import cyclotomic_image, factor  # noqa: E402
from stacky.census import (FAST_COUNTERS, ORDERINGS, LadderSpec, _cyclic_types,  # noqa: E402
                           _mu_types, count, enumerate_cyclic, enumerate_mu)
from stacky.heights import (D_aprime, a_eszb_closed, darda_denominator,  # noqa: E402
                            darda_global, darda_local, edd, eszb_height, raising_height)
from stacky.kummer import (EXACT_WILD_DEGREES, _reducible, canonical,  # noqa: E402
                           discriminant, is_irreducible)
from stacky.malle import group_preset, malle_invariants, signature_for_field  # noqa: E402
from stacky.permgrp import closure, conjugacy_classes, parse_group_spec  # noqa: E402

# (b0, doublings): the top rungs are 1.1e12, 7.8e9 and 1.7e13
LADDERS = ((1e3, 30), (7.3, 30), (1e6, 24))
# (b0, doublings) for the key grid: a top rung of 655360, which a checkout
# that streams some keys (mu:n M for composite n, caps past 2^62) also
# finishes in seconds
GRID_LADDER = (10, 16)
# |disc| caps per n; darda bounds are the cap ** (1/N); n = 7..12 stream
# 2,000-15,000 classes each
ENUM_CAPS = {2: 3 * 10**4, 3: 10**6, 4: 10**7, 5: 10**9, 6: 10**9, 7: 10**10, 8: 10**9,
             9: 10**10, 10: 3 * 10**9, 11: 10**12, 12: 10**9}
# |disc| bounds per n, about 0.3 s in all; 10: 1e14 reaches conductors 75
# and 132, where a tame prime lies below a wild one
CYCLIC_BOUNDS = {2: 5e4, 3: 1e8, 4: 1e8, 5: 1e15, 6: 1e8, 7: 1e16, 8: 1e13, 9: 1e16,
                 10: 1e14, 11: 1e19, 12: 2e14}

# Kummer queries: KUMMER_DRAWS seeded a per bit band, KUMMER_SEMIPRIMES
# products of two 31-bit primes and the k-th powers of a 6-bit number for
# k = 2..12, against n = 2..12
KUMMER_BANDS = (8, 20, 40, 62)
KUMMER_DRAWS = 12
KUMMER_SEMIPRIMES = 4

# factor: FACTOR_DRAWS seeded m of each kind
FACTOR_DRAWS = 12

# permgrp: every preset, and dihedral groups past the 16-point packed keys,
# the last past the 255 points of uint8 rows
GROUP_PRESETS = ([f"cyclic_regular:{n}" for n in range(2, 31)]
                 + [f"symmetric:{n}" for n in range(2, 9)] + ["kluners_c3wrc2"])
DIHEDRAL_DEGREES = (20, 101, 300)
MALLE_FIELDS = ("Q", ("zeta", 3), ("zeta", 4))

# cyclotomic images: the moduli, and the explicit generators, which 7 | m
# refuses
CYCLOTOMIC_MODULI = (*range(1, 121), 420, 840)
CYCLOTOMIC_GENERATORS = [-1, 7]


def _recorded(f, *args):
    """f(*args), or the exception's type and message, so that a changed
    error shows."""
    try:
        return f(*args)
    except Exception as exc:  # recorded, not raised
        return f"{type(exc).__name__}: {exc}"


def census_entries():
    for key in sorted(FAST_COUNTERS):
        kind, n, counter, ordering = key
        for b0, doublings in LADDERS:
            name = f"count {kind}:{n} {counter} {ordering} b0={b0!r} doublings={doublings}"
            yield name, _recorded(lambda: [c for _, c in count(
                LadderSpec((kind, n), counter, ordering, b0=b0, doublings=doublings)).points])
    b0, doublings = GRID_LADDER
    for kind, n, counter, ordering in itertools.product(("mu", "cyclic"), range(2, 13), "TM",
                                                        ORDERINGS):
        name = f"count grid {kind}:{n} {counter} {ordering} b0={b0!r} doublings={doublings}"
        yield name, _recorded(lambda: [c for _, c in count(
            LadderSpec((kind, n), counter, ordering, b0=b0, doublings=doublings)).points])
    for n, cap in ENUM_CAPS.items():
        for ordering in ORDERINGS:
            if ordering == "disc_exact" and n not in EXACT_WILD_DEGREES:
                continue
            B = cap ** (1 / darda_denominator(n)) if ordering == "darda" else cap
            classes = sorted((cls.a.value, m) for cls, m in enumerate_mu(n, B, ordering))
            yield f"enumerate_mu {n} {B!r} {ordering}", classes
    for n, B in CYCLIC_BOUNDS.items():
        fields = sorted((f.conductor, f.character, f.disc) for f, _ in enumerate_cyclic(n, B))
        yield f"enumerate_cyclic {n} {B!r}", fields


def _record(local):
    """A census record without its payloads: M, the sorted (cost, class
    exponent mod M) of the tame types at each unit residue mod n, and the
    wild costs of each unit class mod M."""
    n, types, M, wild = local
    tame = [(u, sorted((j, e % M) for _, e, j in types[u]))
            for u in range(n) if math.gcd(u, n) == 1]
    return M, tame, [(c, [cost for cost, _, _ in wild[c]]) for c in range(M) if math.gcd(c, M) == 1]


def record_entries():
    for n in range(2, 13):
        sets = _reducible(n)
        for ordering in ORDERINGS:
            if ordering == "disc_exact" and n not in EXACT_WILD_DEGREES:
                continue
            for k in range(len(sets) + 1):
                for within in itertools.combinations(sets, k):
                    local = _mu_types(n, ordering, within)
                    yield f"record mu {n} {ordering} {within}", _record(local)
        for d in (d for d in range(1, n + 1) if n % d == 0):
            yield f"record cyclic {n} {d}", _record(_cyclic_types(n, d))


def _height(h):
    """A height as JSON, or the (lo, hi) pair of an interval mode."""
    return [x.to_json() for x in h] if isinstance(h, tuple) else h.to_json()


def _prime(rng, bits):
    return sympy.nextprime(rng.getrandbits(bits) | 1 << (bits - 1))


def kummer_entries():
    rng = random.Random("diff_outputs:kummer")
    values = [rng.getrandbits(bits) | 1 << (bits - 1)
              for bits in KUMMER_BANDS for _ in range(KUMMER_DRAWS)]
    values += [_prime(rng, 31) * _prime(rng, 31) for _ in range(KUMMER_SEMIPRIMES)]
    values += [(rng.getrandbits(6) | 1 << 5) ** k for k in range(2, 13)]
    for a in (v * rng.choice((1, -1)) for v in values):
        fa = factor(a)
        yield f"factor {a}", str(fa)
        for n in range(2, 13):
            # an int a without a denominator, the factored a with one
            for num, den in ((a, None), (fa, rng.choice((1, -1)) * rng.randint(2, 2**16))):
                cls = canonical(num, n, den)
                out = [str(cls.a), is_irreducible(cls)]
                exact = n in EXACT_WILD_DEGREES
                places = ["inf"] + sorted({p for p, _ in cls.a.factors}
                                          | {p for p, _ in factor(n).factors})
                for mode in (("exact",) if exact else ("tame", "interval")) * 2:
                    out += [discriminant(cls, mode).to_json(), _height(eszb_height(cls, mode)),
                            _height(darda_global(cls, mode)), edd(cls, mode)]
                    if exact:
                        out.append(raising_height(cls, mode).to_json())
                    out += [_recorded(darda_local, cls, place, mode) for place in places]
                point_mode = "exact" if exact else "tame"
                out.append(D_aprime(cls, float(a_eszb_closed(n)), point_mode))
                # a fresh class asked for its wide mode first, so that its
                # tame discriminant is the one read off the kept result
                fresh = canonical(num, n, den)
                out += [discriminant(fresh, "exact" if exact else "interval").to_json(),
                        discriminant(fresh, "tame").to_json(), _height(eszb_height(fresh, "tame")),
                        _height(darda_global(fresh, "tame")), edd(fresh, "tame"),
                        D_aprime(fresh, float(a_eszb_closed(n)), point_mode)]
                yield f"kummer a={a} n={n} den={den}", out


def factor_entries():
    rng = random.Random("diff_outputs:factor")
    values = []
    for _ in range(FACTOR_DRAWS):
        values += [_prime(rng, 35) * _prime(rng, 35), _prime(rng, 45) * _prime(rng, 46),
                   _prime(rng, 20) * _prime(rng, 30) * _prime(rng, 90),
                   _prime(rng, 16) * _prime(rng, 12) * _prime(rng, rng.randint(64, 100)),
                   _prime(rng, 16) ** rng.randint(2, 5), _prime(rng, 31) ** 2 * _prime(rng, 16)]
    for m in values:
        yield f"factor {m}", str(factor(m))


def _dihedral(n):
    """The dihedral group of degree n: the n-cycle and the reflection fixing 1."""
    rotation = "(" + " ".join(map(str, range(1, n + 1))) + ")"
    reflection = "".join(f"({i} {n + 2 - i})" for i in range(2, (n + 1) // 2 + 1))
    return f"{rotation}; {reflection}"


def permgrp_entries():
    groups = [(name, group_preset(name)) for name in GROUP_PRESETS]
    groups += [(f"dihedral:{n}", parse_group_spec(_dihedral(n))) for n in DIHEDRAL_DEGREES]
    for name, gens in groups:
        G = closure(gens)
        yield f"closure {name}", G.rows.tolist()
        yield f"classes {name}", [(c.index, c.representative.images, c.members)
                                  for c in conjugacy_classes(G)]
        yield f"exponent {name}", G.exponent
        for field in MALLE_FIELDS:
            yield f"malle {name} {field}", malle_invariants(G, signature_for_field(G, field))


def cyclotomic_entries():
    fields = ["Q", *(("zeta", d) for d in range(1, 13)), CYCLOTOMIC_GENERATORS]
    for m in CYCLOTOMIC_MODULI:
        for field in fields:
            yield f"cyclotomic {m} {field}", _recorded(lambda: cyclotomic_image(m, field).units)


# each section's parts, in order
SECTIONS = {"census": (census_entries, record_entries), "kummer": (kummer_entries,),
            "permgrp": (permgrp_entries,), "factor": (factor_entries,),
            "cyclotomic": (cyclotomic_entries,)}


def section_digests(parts, dump: bool) -> list[str]:
    """The sha256 digest of a section's entries up to the end of each of its
    parts: the last is the whole section's."""
    digest, out = hashlib.sha256(), []
    for part in parts:
        for name, value in part():
            line = f"{name}: {value}"
            digest.update(line.encode() + b"\n")
            if dump:
                print(line, flush=True)
        out.append(digest.hexdigest())
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dump", action="store_true", help="print every entry before the digest")
    args = parser.parse_args()
    for section, parts in SECTIONS.items():
        *heads, digest = section_digests(parts, args.dump)
        print(f"{section} sha256 {digest}", flush=True)
        if section == "census":
            print(f"census sha256 without the records {heads[0]}", flush=True)
            if (warm := section_digests(parts, False)[-1]) != digest:
                sys.exit(f"census sha256 {warm} on the warm pass, {digest} on the cold one")


if __name__ == "__main__":
    main()
