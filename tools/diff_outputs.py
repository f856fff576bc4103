"""Digest what the census counters and the Bmu_n enumerator return, so that
two checkouts can be compared entry by entry.  A correctness check, not a
benchmark: nothing is timed.

Three kinds of entries:

- ``count()`` for every ``FAST_COUNTERS`` key, on the ladders b0 * 2^i of
  ``LADDERS``: the counts, or the exception's type and message;
- ``enumerate_mu(n, B, ordering)`` for n = 2..6 under every ordering it
  takes, at the |disc| caps of ``ENUM_CAPS``: the sorted multiset of
  (a, measure) pairs;
- ``enumerate_cyclic(n, B)`` for n = 2..12 at the bounds of
  ``CYCLIC_BOUNDS``: the sorted (conductor, character, |disc|) triples.

It prints one sha256 digest over every entry; ``--dump`` prints the entries
themselves first, one per line, so that two dumps can be compared with
``diff``.  Run from anywhere: ``python tools/diff_outputs.py [--dump]``.
"""

import argparse
import hashlib
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from stacky.census import (FAST_COUNTERS, ORDERINGS, LadderSpec, count,  # noqa: E402
                           enumerate_cyclic, enumerate_mu)
from stacky.heights import darda_denominator  # noqa: E402
from stacky.kummer import EXACT_WILD_DEGREES  # noqa: E402

# (b0, doublings): the top rungs are 1.1e12, 7.8e9 and 1.7e13
LADDERS = ((1e3, 30), (7.3, 30), (1e6, 24))
# |disc| caps per n; darda bounds are the cap ** (1/N)
ENUM_CAPS = {2: 3 * 10**4, 3: 10**6, 4: 10**7, 5: 10**9, 6: 10**9}
# |disc| bounds per n, about 0.3 s in all; 10: 1e14 reaches conductors 75
# and 132, where a tame prime lies below a wild one
CYCLIC_BOUNDS = {2: 5e4, 3: 1e8, 4: 1e8, 5: 1e15, 6: 1e8, 7: 1e16, 8: 1e13, 9: 1e16,
                 10: 1e14, 11: 1e19, 12: 2e14}


def entries():
    for key in sorted(FAST_COUNTERS):
        kind, n, counter, ordering = key
        for b0, doublings in LADDERS:
            name = f"count {kind}:{n} {counter} {ordering} b0={b0!r} doublings={doublings}"
            try:
                spec = LadderSpec((kind, n), counter, ordering, b0=b0, doublings=doublings)
                yield name, [c for _, c in count(spec).points]
            except Exception as exc:  # recorded, so that a changed error shows
                yield name, f"{type(exc).__name__}: {exc}"
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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dump", action="store_true", help="print every entry before the digest")
    args = parser.parse_args()
    digest = hashlib.sha256()
    for name, value in entries():
        line = f"{name}: {value}"
        digest.update(line.encode() + b"\n")
        if args.dump:
            print(line, flush=True)
    print(f"sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
