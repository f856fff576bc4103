"""The benchmark's four workloads: inputs drawn from a seed, the operations
that drive stacky through its public functions, and the checks on their
outputs.

A workload's inputs are a list of passes; a pass is a tuple of operations.
The census and group workloads have one pass that the run repeats; the
Kummer query workload has several distinct passes, so that one run sees
many different integers.  Every operation is called through its module
(``census.count``, not a name imported from it), so the traced run sees it
at the names it wraps.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import json
import math
import random
from fractions import Fraction

from stacky import arith, census, cli, heights, kummer, malle, permgrp


class Workload:
    name = ""

    def make_inputs(self, seed: int) -> list[tuple]:
        raise NotImplementedError

    def run_op(self, op: tuple):
        raise NotImplementedError

    def classes(self, op: tuple, out) -> int:
        """Classes the operation delivered; the numerator of classes_per_s."""
        raise NotImplementedError

    def check(self, op: tuple, out) -> str | None:
        """None if the operation's output is right, else what is wrong."""
        raise NotImplementedError


def digest(inputs: list[tuple]) -> str:
    """Fingerprint of a workload's inputs, to compare them across processes."""
    return hashlib.sha256(repr(inputs).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# census workloads


def _ladder(op: tuple) -> census.CountLadder:
    _, target, counter, ordering, b0, doublings = op
    spec = census.LadderSpec(target, counter, ordering, b0=b0, doublings=doublings, jobs=1)
    return census.count(spec)


def _rung_b(b0: float, doublings: int) -> list[float]:
    return [b0 * 2**i for i in range(doublings + 1)]


def _jitter(rng: random.Random, b0: float) -> float:
    # within 2%, so a seed changes the inputs but not the scale of the work
    return b0 * (1 + 0.02 * rng.random())


def _squarefree_flags(limit: int) -> bytearray:
    flags = bytearray([1]) * (limit + 1)
    flags[0] = 0
    d = 2
    while d * d <= limit:
        flags[d * d :: d * d] = bytearray(len(flags[d * d :: d * d]))
        d += 1
    return flags


def fundamental_discs(limit: int) -> list[int]:
    """Sorted |d| of the quadratic fields with |d| <= limit, counted from the
    definition of a fundamental discriminant (no stacky code involved)."""
    sqf = _squarefree_flags(limit)
    out = []
    for m in range(-limit, limit + 1):
        if m in (0, 1) or not sqf[abs(m)]:
            continue
        d = m if m % 4 == 1 else 4 * m
        if abs(d) <= limit:
            out.append(abs(d))
    out.sort()
    return out


def tame_class_count(n: int, bound: float) -> int:
    """Number of mu_n classes with tame discriminant <= bound.

    The sign (n even), the exponents at the primes dividing n, and an
    independent choice of e in 1..n-1 at each other support prime p, which
    weighs p^(n - gcd(e, n)).
    """
    wild = [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]
    prefix = (2 if n % 2 == 0 else 1) * n ** len(wild)
    cap = math.floor(bound)
    r = min(wild)
    top = int(cap ** (1.0 / (n - n // r))) + 2
    primes = [p for p in range(2, top + 1)
              if n % p and all(p % q for q in range(2, math.isqrt(p) + 1))]
    weights = [sorted(p ** (n - math.gcd(e, n)) for e in range(1, n)) for p in primes]

    def rec(i: int, acc: int) -> int:
        total = 1
        for j in range(i, len(primes)):
            if acc * weights[j][0] > cap:
                break
            for w in weights[j]:
                if acc * w > cap:
                    break
                total += rec(j + 1, acc * w)
        return total

    return prefix * rec(0, 1)


def _count_upto(sorted_vals: list[int], bound: float) -> int:
    return bisect.bisect_right(sorted_vals, math.floor(bound))


class CensusStream(Workload):
    name = "census_stream"

    def make_inputs(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        ops = (
            ("ladder", ("mu", 2), "T", "disc_tame", _jitter(rng, 6e3 / 2**8), 8),
            ("ladder", ("mu", 2), "M", "disc_exact", _jitter(rng, 6e3 / 2**8), 8),
            ("ladder", ("mu", 3), "T", "darda", _jitter(rng, 12.0 / 2**4), 4),
            ("ladder", ("mu", 6), "T", "disc_tame", _jitter(rng, 3e7 / 2**8), 8),
            ("brute", 2, _jitter(rng, 6e3)),
        )
        return [ops]

    def run_op(self, op):
        if op[0] == "brute":
            return sum(1 for _ in census.enumerate_mu(op[1], op[2]))
        return _ladder(op).points

    def classes(self, op, out):
        return out if op[0] == "brute" else out[-1][1]

    def check(self, op, out):
        if op[0] == "brute":
            want = [1 + len(fundamental_discs(math.floor(op[2])))]
            got = [out]
        else:
            _, (_, n), counter, ordering, b0, doublings = op
            rungs = _rung_b(b0, doublings)
            if (n, counter, ordering) == (2, "M", "disc_exact"):
                discs = fundamental_discs(math.floor(rungs[-1]))
                want = [_count_upto(discs, b) for b in rungs]
            elif ordering == "disc_tame":
                want = [tame_class_count(n, b) for b in rungs]
            else:  # mu:3 darda: darda^6 is |disc|, so count disc_exact to B^6
                spec = census.LadderSpec(("mu", 3), "T", "disc_exact",
                                         b0=b0**6, doublings=6 * doublings)
                want = [c for i, (_, c) in enumerate(census.count(spec).points)
                        if i % 6 == 0]
            got = [c for _, c in out]
        return None if got == want else f"counts {got} != {want}"


# Ladders the closed-form and sieve counters serve, each followed by fit():
# (target, counter, ordering, b0, doublings, seed jitters b0, rung the
# recount checks, fit gate).  The gates are the acceptance tests'
# tolerances on (alpha, beta).  mu:4 and cyclic:3 stop well short of the
# acceptance sizes (2.7e14 and 6.7e10) so that a run holds ten passes.  mu:2
# goes past its acceptance size (2.6e8) to 3.4e10, where it takes about as
# long as mu:4, so that the median of a pass's four latencies lies between
# two ladders of similar length rather than between 40 ms and 600 ms.
# The three-parameter fit of the mu:3 and cyclic:3 ladders is ill-conditioned
# at these sizes: moving b0 by 0.3% moves beta by 0.25, in and out of the
# gate.  So those two keep the acceptance tests' b0 = 1e3, and the seed
# jitters only mu:2 and mu:4 (whose fits stay inside the gate) and the order.
FAST_LADDERS = (
    (("mu", 2), "T", "disc_exact", 1e3, 25, True, 4, ((0.97, 1.03), (-0.15, 0.15))),
    (("mu", 3), "T", "disc_exact", 1e3, 20, False, 7, ((0.45, 0.55), (0.7, 1.3))),
    (("mu", 4), "T", "disc_tame", 1e7, 16, True, 0, ((0.45, 0.55), (-0.2, 0.2))),
    (("cyclic", 3), "M", "disc_exact", 1e3, 20, False, 20, ((0.45, 0.55), (-0.2, 0.2))),
)


def cyclic_cubic_count(bound: float) -> int:
    """Number of cyclic cubic fields with |disc| <= bound, from conductors:
    disc = f^2, f is a product of distinct primes = 1 mod 3, times 1 or 9,
    and a conductor with t prime factors carries 2^(t-1) fields."""
    fmax = math.isqrt(math.floor(bound))
    spf = list(range(fmax + 1))
    for p in range(2, math.isqrt(fmax) + 1):
        if spf[p] == p:
            for m in range(p * p, fmax + 1, p):
                if spf[m] == m:
                    spf[m] = p
    total = 0
    for f in range(2, fmax + 1):
        m, t, ok = f, 0, True
        if m % 9 == 0:
            m //= 9
            t = 1
        while m > 1 and ok:
            p = spf[m]
            m //= p
            ok = p % 3 == 1 and m % p != 0
            t += 1
        if ok:
            total += 2 ** (t - 1)
    return total


class CensusFast(Workload):
    name = "census_fast"

    def make_inputs(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        ops = [("ladder", target, counter, ordering, _jitter(rng, b0) if jitter else b0,
                doublings)
               for target, counter, ordering, b0, doublings, jitter, _, _ in FAST_LADDERS]
        rng.shuffle(ops)
        return [tuple(ops)]

    def run_op(self, op):
        ladder = _ladder(op)
        res = census.fit(ladder)
        return ladder.points, (res.alpha, res.beta, res.gamma, res.residual_rms)

    def classes(self, op, out):
        return out[0][-1][1]

    def check(self, op, out):
        _, target, counter, ordering, b0, doublings = op
        (low_rung, gate), = [(k, g) for t, c, o, _, _, _, k, g in FAST_LADDERS
                             if (t, c, o) == (target, counter, ordering)]
        points, (alpha, beta, _, _) = out
        if [b for b, _ in points] != _rung_b(b0, doublings):
            return f"rungs {[b for b, _ in points]}"
        b, got = points[low_rung]
        if target[0] == "cyclic":
            want = cyclic_cubic_count(b)
        else:
            want = sum(1 for _ in census.enumerate_mu(target[1], b, ordering))
        if got != want:
            return f"count {got} at B={b:.6g}, recount {want}"
        (alo, ahi), (blo, bhi) = gate
        if not (alo <= alpha <= ahi and blo <= beta <= bhi):
            return f"fit alpha={alpha:.4f} beta={beta:.4f} outside {gate}"
        return None


# ---------------------------------------------------------------------------
# one-shot Kummer queries

# Queries per pass: (route, band, count).  Most are cheap 20-bit queries, so
# the median latency sits inside one dense group; one query per band goes
# through the CLI.
QUERY_MIX = (
    ("lib", "b20", 27), ("lib", "b40", 8), ("lib", "b62", 3), ("lib", "semi31", 8),
    ("cli", "b20", 1), ("cli", "b40", 1), ("cli", "b62", 1), ("cli", "semi31", 1),
)
KUMMER_PASSES = 24
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(rng: random.Random, bits: int) -> int:
    while True:
        x = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_prime(x):
            return x


def _draw_a(rng: random.Random, band: str) -> int:
    if band == "semi31":
        a = _random_prime(rng, 31) * _random_prime(rng, 31)
    else:
        bits = int(band[1:])
        a = rng.getrandbits(bits) | (1 << (bits - 1))
    return a if rng.random() < 0.5 else -a


def _mode(n: int) -> str:
    return "exact" if n in kummer.EXACT_WILD_DEGREES else "interval"


def _a_prime(n: int) -> float:
    r = min(p for p in range(2, n + 1) if n % p == 0)
    return 2 / (n - n // r)


class KummerQueries(Workload):
    name = "kummer_queries"

    def make_inputs(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        passes = []
        for _ in range(KUMMER_PASSES):
            kinds = [(route, band) for route, band, k in QUERY_MIX for _ in range(k)]
            rng.shuffle(kinds)
            ops = []
            for route, band in kinds:
                a = _draw_a(rng, band)
                n = rng.randint(2, 12)
                den = None
                if route == "lib" and rng.random() < 0.25:
                    den = rng.randint(2, 2**16)
                ops.append((route, a, den, n))
            passes.append(tuple(ops))
        return passes

    def run_op(self, op):
        route, a, den, n = op
        mode = _mode(n)
        if route == "cli":
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["kummer", "disc", "--n", str(n), "--a", str(a),
                                 "--mode", mode, "--json"])
            return code, buf.getvalue()
        fa = arith.factor(a)
        cls = kummer.canonical(fa, n, den)
        res = kummer.discriminant(cls, mode)
        irreducible = kummer.is_irreducible(cls)
        darda = heights.darda_global(cls, mode)
        eszb = heights.eszb_height(cls, mode)
        d = heights.D_aprime(cls, _a_prime(n), "exact" if mode == "exact" else "tame")
        darda_pair = darda if isinstance(darda, tuple) else (darda,)
        eszb_pair = eszb if isinstance(eszb, tuple) else (eszb,)
        return (
            (fa.sign, fa.factors),
            (cls.a.sign, cls.a.factors),
            (res.lo.abs_value, res.hi.abs_value),
            irreducible,
            tuple((h.exact_base.abs_value, str(h.exact_power)) for h in darda_pair),
            tuple(h.log_value for h in eszb_pair),
            d,
        )

    def classes(self, op, out):
        return 1

    def check(self, op, out):
        import sympy

        route, a, den, n = op
        mode = _mode(n)
        if route == "cli":
            code, text = out
            if code != 0:
                return f"exit code {code}"
            # the CLI must agree with the library on the same class
            cls = kummer.canonical(a, n)
            want = {"n": n, "a": cls.a.value, **kummer.discriminant(cls, mode).to_json()}
            if json.loads(text) != want:
                return f"CLI printed {text.strip()}, library gives {want}"
            return None

        (sign, factors), (csign, cfactors), (lo, hi), irreducible, darda, _, _ = out
        value = sign
        for p, e in factors:
            value *= p**e
        if value != a:
            return f"factors multiply to {value}"
        if not all(sympy.isprime(p) for p, _ in factors):
            return f"non-prime factor in {factors}"
        # canonical class from the checked factorization, reduced by hand
        exps = dict(factors)
        for p, e in sympy.factorint(den or 1).items():
            exps[p] = exps.get(p, 0) - e
        want_factors = tuple(sorted((p, e % n) for p, e in exps.items() if e % n))
        want_sign = 1 if n % 2 else sign
        if (csign, cfactors) != (want_sign, want_factors):
            return f"canonical {(csign, cfactors)} != {(want_sign, want_factors)}"
        # quasi-discriminant identity: darda's base is |disc| (each end)
        if tuple(base for base, _ in darda) != ((lo,) if lo == hi else (lo, hi)):
            return f"darda base {darda} != disc [{lo}, {hi}]"
        r = min(p for p in range(2, n + 1) if n % p == 0)
        if any(power != str(Fraction(1, n * n - n * n // r)) for _, power in darda):
            return f"darda power {darda}"
        if mode == "exact":
            ca = csign
            for p, e in cfactors:
                ca *= p**e
            if lo != hi or lo != _oracle_disc(n, ca, [p for p, _ in cfactors]):
                return f"disc {lo} != Dedekind oracle"
            if irreducible != (ca != 1):
                return f"irreducible={irreducible} for a={ca}"
        return None


def _oracle_disc(n: int, a: int, a_primes: list[int]) -> int:
    """|disc| by Dedekind's criterion (tests/oracles.py) at each prime of the
    polynomial discriminant; the primes come from a's checked factorization."""
    import oracles

    if a == 1:
        return 1 if n == 2 else oracles.cubic_etale_disc(1)
    poly_disc = -4 * a if n == 2 else -27 * a * a
    out = 1
    for p in sorted(set(a_primes) | {n}):
        v = 0
        m = poly_disc
        while m % p == 0:
            m //= p
            v += 1
        if oracles.dedekind_divides_index(n, a, p):
            v -= 2
        out *= p**v
    return out


# ---------------------------------------------------------------------------
# Malle invariants


def _groups() -> list[tuple[str, int, int]]:
    """(preset spec, degree, r) with r the prime of the field Q(zeta_r)."""
    spf = lambda n: min(p for p in range(2, n + 1) if n % p == 0)  # noqa: E731
    out = [(f"cyclic_regular:{n}", n, spf(n)) for n in range(2, 31)]
    # S8 is left out: one S8 run takes about 4 s and varies by 12-25% from one
    # execution to the next on a shared 2-core host, which the calibration
    # around it does not follow, so a run cannot hold enough of them.
    out += [(f"symmetric:{n}", n, spf(n)) for n in range(2, 8)]
    out.append(("kluners_c3wrc2", 6, 3))
    return out


class MalleGroups(Workload):
    name = "malle_groups"

    def make_inputs(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        ops = _groups()
        rng.shuffle(ops)
        return [tuple(ops)]

    def run_op(self, op):
        spec, _, r = op
        G = permgrp.closure(malle.group_preset(spec))
        exponent = G.exponent
        out = [G.order]
        for field in ("Q", ("zeta", r)):
            inv = malle.malle_invariants(G, arith.cyclotomic_image(exponent, field))
            out.append((str(inv.a), inv.min_index, inv.b, inv.minimal_classes, inv.orbits))
        return tuple(out)

    def classes(self, op, out):
        return len(out[1][3]) + len(out[2][3])

    def check(self, op, out):
        spec, n, r = op
        order, over_q, over_zeta = out
        family = spec.split(":")[0]
        if family == "cyclic_regular":
            want = (n, str(Fraction(1, n - n // r)), 1, r - 1)
        elif family == "symmetric":
            want = (math.factorial(n), "1", 1, 1)
        else:  # C3 wr C2: two rational classes of 3-cycles, swapped over Q
            want = (18, "1/2", 1, 2)
        got = (order, over_q[0], over_q[2], over_zeta[2])
        if got != want or over_q[0] != over_zeta[0]:
            return f"(order, a, b_Q, b_zeta) {got} != {want}"
        return None


WORKLOADS = {w.name: w for w in (CensusStream(), CensusFast(), KummerQueries(), MalleGroups())}
