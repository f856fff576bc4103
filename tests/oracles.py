"""Independent oracles used by the test suite.

Nothing here touches the code under test: discriminants come from the
Dedekind index criterion applied to t^n - a over F_p, irreducibility comes
from numerically expanding subset products of the exact complex roots and
certifying near-integer factors by exact division over Z, Capelli's
reducible sets from a direct reading of a factored integer's exponents,
permutation
groups come from a plain breadth-first closure and brute-force conjugation
on image tuples, power-map orbits from repeated composition, and cyclic
fields come from a scan of every conductor f over every character of
(Z/fZ)^x, unit subgroups from a check of every product of two residues,
squarefree counts from a plain bytearray sieve, n-th-power-free
reductions from ``sympy.factorint``, the census supports of a local-type
record from a recursive walk, one generator per support, over the primes
of a plain sieve, and darda |disc| caps from a bisection started at 1.
The one exception is
``census_measure``, the slow path that measures a census class through the
library's assembled ``discriminant()``; the integer kernel of
``enumerate_mu`` is checked against it.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from array import array
from collections import Counter

# ---------------------------------------------------------------------------
# F_p[x] arithmetic on ascending coefficient lists


def _trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _mod(f: list[int], p: int) -> list[int]:
    return _trim([c % p for c in f])


def _mulmod(f: list[int], g: list[int], p: int) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return _trim(out)


def _divmod_fp(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    f = f[:]
    q = [0] * max(0, len(f) - len(g) + 1)
    inv = pow(g[-1], -1, p)
    while len(f) >= len(g) and _trim(f):
        shift = len(f) - len(g)
        c = f[-1] * inv % p
        q[shift] = c
        for i, b in enumerate(g):
            f[shift + i] = (f[shift + i] - c * b) % p
        _trim(f)
    return _trim(q), _trim(f)


def _gcd_fp(f: list[int], g: list[int], p: int) -> list[int]:
    f, g = _mod(f, p), _mod(g, p)
    while g:
        f, g = g, _divmod_fp(f, g, p)[1]
    if f:
        inv = pow(f[-1], -1, p)
        f = [c * inv % p for c in f]
    return f


def _eval_fp(f: list[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def _factor_fp(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Irreducible factors with multiplicity, for deg f <= 3.

    Roots are split off one by one; a rootless leftover of degree 2 or 3
    is irreducible, so no equal-degree machinery is needed.
    """
    if len(f) - 1 > 3:
        raise ValueError("factorization oracle handles degree <= 3 only")
    f = _mod(f, p)
    factors: dict[tuple[int, ...], int] = {}
    while len(f) > 1:
        root = next((x for x in range(p) if _eval_fp(f, x, p) == 0), None)
        if root is None:
            break
        lin = [(-root) % p, 1]
        factors[tuple(lin)] = factors.get(tuple(lin), 0) + 1
        f = _divmod_fp(f, lin, p)[0]
    if len(f) > 1:
        inv = pow(f[-1], -1, p)
        g = tuple(c * inv % p for c in f)
        factors[g] = factors.get(g, 0) + 1
    return [(list(g), e) for g, e in factors.items()]


# ---------------------------------------------------------------------------
# Dedekind index criterion


def _mul_z(f: list[int], g: list[int]) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def dedekind_divides_index(n: int, a: int, p: int) -> bool:
    """Whether p divides [O_K : Z[t]/(t^n - a)], by Dedekind's criterion.

    Write f = g h - p F with g the radical of f mod p and h the cofactor;
    p is a common index divisor iff gcd(F, g, h) is nonconstant in F_p[x].
    """
    f = [-a] + [0] * (n - 1) + [1]
    fac = _factor_fp(f, p)
    g = [1]
    h = [1]
    for gi, e in fac:
        g = _mulmod(g, gi, p)
        for _ in range(e - 1):
            h = _mulmod(h, gi, p)
    # lift g, h to Z with coefficients in [0, p) and form F = (g h - f) / p
    gh = _mul_z(g, h)
    gh += [0] * (len(f) - len(gh))
    F = [(c1 - c2) // p for c1, c2 in zip(gh, f)]
    assert all((c1 - c2) % p == 0 for c1, c2 in zip(gh, f))
    d = _gcd_fp(_mod(F, p), _gcd_fp(g, h, p), p)
    return len(d) != 1


def _vp(m: int, p: int) -> int:
    v = 0
    m = abs(m)
    while m and m % p == 0:
        m //= p
        v += 1
    return v


def dedekind_disc(n: int, a: int) -> int:
    """|disc| of the ring of integers of Q[t]/(t^n - a), n in {2, 3}.

    Valid when t^n - a is irreducible and the index valuation at every
    prime is 0 or 1, which holds for squarefree a (n = 2) and cube-free
    a (n = 3): the polynomial discriminant is -4a resp. -27a^2, and its
    valuation at any prime is at most 3 resp. 7 with field part >= 0.
    """
    if n == 2:
        poly_disc = -4 * a
    elif n == 3:
        poly_disc = -27 * a * a
    else:
        raise ValueError("oracle supports n in {2, 3}")
    out = 1
    m = abs(poly_disc)
    p = 2
    while p * p <= m or m > 1:
        if m % p == 0:
            v = _vp(poly_disc, p)
            if dedekind_divides_index(n, a, p):
                v -= 2
            out *= p**v
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    return out


def quadratic_disc(a: int) -> int:
    """|disc| of Q(sqrt(a)) for squarefree a != 1, via Dedekind."""
    return dedekind_disc(2, a)


def cubic_etale_disc(a: int) -> int:
    """|disc| of the etale algebra Q[t]/(t^3 - a) for cube-free a >= 1.

    For a = 1 the algebra splits as Q x Q(zeta_3) and the Q(zeta_3) part
    is handled as the quadratic field of sqrt(-3).
    """
    if a == 1:
        return quadratic_disc(-3)
    return dedekind_disc(3, a)


# ---------------------------------------------------------------------------
# numeric subset-product irreducibility oracle


def _exact_divides(n: int, a: int, cand: list[int]) -> bool:
    """Whether the monic integer polynomial cand divides t^n - a exactly."""
    f = [-a] + [0] * (n - 1) + [1]
    deg = len(cand) - 1
    quot = [0] * (n - deg + 1)
    for shift in range(n - deg, -1, -1):
        c = f[shift + deg]
        quot[shift] = c
        for i, b in enumerate(cand):
            f[shift + i] -= c * b
    return all(c == 0 for c in f)


def numeric_irreducible(n: int, a: int, tol: float = 1e-6) -> bool:
    """Whether t^n - a is irreducible over Q, for a != 0.

    Any rational factorization has a monic integer factor of degree at
    most n/2 whose roots form a subset of the exact complex roots
    |a|^(1/n) exp(i (2 pi j + arg a) / n).  Subset products with all
    coefficients within tol of integers are certified by exact division.
    """
    radius = abs(a) ** (1.0 / n)
    phase = math.pi / n if a < 0 else 0.0
    roots = [radius * cmath.exp(1j * (2 * math.pi * j / n + phase)) for j in range(n)]
    for size in range(1, n // 2 + 1):
        for subset in itertools.combinations(range(n), size):
            coeffs = [1.0 + 0.0j]
            for j in subset:
                z = roots[j]
                coeffs = [0.0j] + coeffs
                for i in range(len(coeffs) - 1):
                    coeffs[i] -= z * coeffs[i + 1]
            rounded = [round(c.real) for c in coeffs]
            if all(abs(c - r) < tol for c, r in zip(coeffs, rounded)):
                if _exact_divides(n, a, rounded):
                    return False
    return True


def is_qth_power(a, q: int) -> bool:
    """Whether the factored integer a (its sign and (p, e) factors) is a
    q-th power in Q^x, for a prime q: Capelli's set A_q."""
    if a.sign < 0 and q == 2:
        return False
    return all(e % q == 0 for _, e in a.factors)


def in_minus_four_fourth_powers(a) -> bool:
    """Whether the factored integer a lies in -4 (Q^x)^4: Capelli's set A_-4."""
    if a.sign > 0:
        return False
    for p, e in a.factors:
        want = 2 if p == 2 else 0
        if e % 4 != want:
            return False
    return a.valuation(2) % 4 == 2


# ---------------------------------------------------------------------------
# Permutation groups by brute force, on plain 1-based image tuples


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """(a * b)(i) = a(b(i))."""
    return tuple(a[j - 1] for j in b)


def _invert(a: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(a)
    for i, j in enumerate(a, start=1):
        inv[j - 1] = i
    return tuple(inv)


def _cycle_lengths(a: tuple[int, ...]) -> list[int]:
    seen: set[int] = set()
    lengths = []
    for start in range(1, len(a) + 1):
        length, j = 0, start
        while j not in seen:
            seen.add(j)
            length += 1
            j = a[j - 1]
        if length:
            lengths.append(length)
    return lengths


def bfs_elements(generators: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Group elements in the order of the loop "for x in frontier: for g in
    generators: x * g", each kept the first time it appears."""
    e = tuple(range(1, len(generators[0]) + 1))
    order, seen, frontier = [e], {e}, [e]
    while frontier:
        nxt = []
        for x in frontier:
            for g in generators:
                y = _compose(x, g)
                if y not in seen:
                    seen.add(y)
                    order.append(y)
                    nxt.append(y)
        frontier = nxt
    return order


def conjugacy_partition(
    elements: list[tuple[int, ...]],
) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """Conjugacy classes as (index, representative, member positions).

    Every element not yet placed in a class is conjugated by every group
    element.  The representative is the lexicographically smallest member,
    the index is the degree minus the number of cycles, and the classes are
    sorted by (index, representative).
    """
    pos = {g: i for i, g in enumerate(elements)}
    placed: set[tuple[int, ...]] = set()
    out = []
    for g in elements:
        if g in placed:
            continue
        cls = {_compose(_compose(h, g), _invert(h)) for h in elements}
        placed |= cls
        rep = min(cls)
        index = len(rep) - len(_cycle_lengths(rep))
        out.append((index, rep, tuple(sorted(pos[c] for c in cls))))
    out.sort(key=lambda t: t[:2])
    return out


def group_exponent(elements: list[tuple[int, ...]]) -> int:
    """The lcm of the element orders."""
    return math.lcm(*(math.lcm(*_cycle_lengths(g)) for g in elements))


def closed_under_products(m: int, units) -> bool:
    """Whether the residues mod m hold 1 and every product of two of them:
    the double loop over the units, O(|H|^2) products."""
    us = set(units)
    return 1 in us and all((u * v % m if m > 1 else 1) in us for u in us for v in us)


def power_orbits(
    classes: list[list[tuple[int, ...]]], units: tuple[int, ...]
) -> list[list[tuple[int, ...]]]:
    """Orbits of the classes under g -> g^u for u in ``units``.

    ``classes`` lists each class by its members' images, and a class is
    named by its least member.  The powers of one member of each class are
    formed by repeated composition up to its order.  Each orbit is sorted,
    and the orbits are in order of their least class.
    """
    name = {g: min(members) for members in classes for g in members}
    orbits = []
    for members in sorted(classes, key=min):
        if any(min(members) in orbit for orbit in orbits):
            continue
        g = members[0]
        powers = [tuple(range(1, len(g) + 1))]
        while (nxt := _compose(powers[-1], g)) != powers[0]:
            powers.append(nxt)
        orbits.append(sorted({name[powers[u % len(powers)]] for u in units}))
    return orbits


def cycle_string(a: tuple[int, ...]) -> str:
    """Cycle notation of the nontrivial cycles, each from its least point."""
    seen: set[int] = set()
    out = ""
    for start in range(1, len(a) + 1):
        cyc, j = [], start
        while j not in seen:
            seen.add(j)
            cyc.append(j)
            j = a[j - 1]
        if len(cyc) > 1:
            out += "(" + " ".join(map(str, cyc)) + ")"
    return out or "()"


# ---------------------------------------------------------------------------
# cyclic fields by conductor


def _spf_table(limit: int) -> list[int]:
    spf = list(range(limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


def _unit_components(f: int, spf: list[int]) -> list[tuple[int, int]]:
    """Cyclic decomposition of (Z/fZ)^x as (p, order) components, primes
    increasing: odd p^k gives phi(p^k); 4 gives (2, 2); 2^k with k >= 3
    gives (2, 2) and (2, 2^(k-2))."""
    comps = []
    m = f
    while m > 1:
        p, k = spf[m], 0
        while m % p == 0:
            m //= p
            k += 1
        if p != 2:
            comps.append((p, p ** (k - 1) * (p - 1)))
        elif k >= 2:
            comps.append((2, 2))
            if k >= 3:
                comps.append((2, 2 ** (k - 2)))
    return comps


def _p_conductor(p: int, orders: list[int]) -> int:
    """Conductor of a p-part character from the orders of its component
    values."""
    if all(o == 1 for o in orders):
        return 1
    if p != 2:
        j, phi = 1, p - 1  # smallest p^j with orders[0] | phi(p^j)
        while phi % orders[0]:
            j, phi = j + 1, phi * p
        return p**j
    if len(orders) == 1 or orders[1] == 1:
        return 4
    return 2 ** (orders[1].bit_length() + 1)


def _conductor(comps: list[tuple[int, int]], values: tuple[int, ...], n: int) -> int:
    cond = 1
    for p, group in itertools.groupby(zip(comps, values), key=lambda cv: cv[0][0]):
        cond *= _p_conductor(p, [n // math.gcd(n, c) for _, c in group])
    return cond


def cyclic_fields_by_conductor(n: int, Bmax: float) -> list[tuple[int, tuple[int, ...], int]]:
    """Sorted (conductor, character, |disc|) of the cyclic degree-n fields
    with |disc| <= Bmax.

    Every conductor f <= Bmax^(1/phi(n)) is scanned (|disc| >= f^phi(n),
    since chi^j has conductor f for each j prime to n), with every
    character of (Z/fZ)^x into Z/n: its values on the unit-group
    generators of ``_unit_components``.  A character is kept when its
    order is n, its conductor is f and it is the least of its orbit under
    (Z/n)^x; |disc| = prod_{j=1}^{n-1} cond(chi^j).
    """
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    phi_n = len(units)
    fmax = int(Bmax ** (1.0 / phi_n) + 1e-9) if Bmax >= 1 else 0
    spf = _spf_table(max(fmax, 1))
    out = []
    for f in range(2, fmax + 1):
        comps = _unit_components(f, spf)
        choices = [range(0, n, n // math.gcd(n, d)) for _, d in comps]
        for values in itertools.product(*choices):
            if math.lcm(*(n // math.gcd(n, c) for c in values)) != n:
                continue
            if min(tuple(u * c % n for c in values) for u in units) != values:
                continue
            if _conductor(comps, values, n) != f:
                continue
            disc = math.prod(_conductor(comps, tuple(j * c % n for c in values), n)
                             for j in range(1, n))
            if disc <= Bmax:
                out.append((f, values, disc))
    return sorted(out)


# ---------------------------------------------------------------------------
# squarefree counts


@functools.cache
def squarefree_prime_to(n: int, limit: int) -> array:
    """counts[z]: how many squarefree d <= z are prime to n, for z = 0..limit.

    A bytearray marks 1..limit, then clears the multiples of every square
    q^2 >= 4 and of every divisor > 1 of n; the counts are its running sums.
    """
    keep = bytearray([0]) + bytearray([1]) * limit
    squares = [q * q for q in range(2, math.isqrt(limit) + 1)]
    for q in squares + [q for q in range(2, n + 1) if n % q == 0]:
        keep[q::q] = bytes(len(range(q, limit + 1, q)))
    return array("q", itertools.accumulate(keep))


# ---------------------------------------------------------------------------
# census supports and darda caps


def reference_walk(local, disc_bound: int):
    """Every support of a census record (n, types, M, wild) within
    disc_bound beside each wild row of its class, as (pairs, tag, |disc|),
    by recursion: one generator per support, each support before its
    extensions, the empty one first, and its wild rows cheapest first.
    types[u] lists the (payload, class exponent, cost) of a tame prime
    p = u mod n, and wild[c] the (cost, pairs, tag) rows of class c mod M."""
    n, types, M, wild = local
    least = min((j for ts in types for _, _, j in ts), default=math.inf)
    limit = int(disc_bound ** (1.0 / least)) + 2
    spf = _spf_table(limit)
    primes = [(p**least, [((p, t), pow(p, e, M), p**j) for t, e, j in ts])
              for p in range(2, limit + 1) if spf[p] == p and (ts := types[p % n])]

    def rec(i0: int, pairs: tuple, c: int, disc: int):
        for i in range(i0, len(primes)):
            least, ts = primes[i]
            if disc * least > disc_bound:
                break
            for pair, pe, pj in ts:
                d = disc * pj
                if d <= disc_bound:
                    s = pairs + (pair,), c * pe % M, d
                    yield s
                    yield from rec(i + 1, *s)

    for pairs, c, disc in itertools.chain([((), 1 % M, 1)], rec(0, (), 1 % M, 1)):
        for cost, wpairs, tag in wild[c]:
            if disc * cost > disc_bound:
                break
            yield tuple(sorted(wpairs + pairs)), tag, disc * cost


def darda_cap_bisection(Bmax: float, N: int) -> int:
    """The largest integer d with d ** (1/N) <= Bmax, for a cap below
    2^1023: doubling from 1 past it, then bisecting."""
    x = 1.0 / N
    lo, hi = 0, 1  # hi fails the test, lo passes or is 0
    while hi**x <= Bmax:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid**x <= Bmax else (lo, mid)
    return lo


# ---------------------------------------------------------------------------
# n-th-power-free reduction


def power_free_reduce(num: int, n: int, den: int = 1) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(sign, factors) of the representative of num/den in Q^x/(Q^x)^n:
    the exponents of ``sympy.factorint`` on |num| less those on |den|, each
    taken mod n; the sign of num/den for even n, else +1, as -1 = (-1)^n."""
    import sympy

    exps = Counter(sympy.factorint(abs(num)))
    exps.subtract(sympy.factorint(abs(den)))
    sign = 1 if n % 2 or (num > 0) == (den > 0) else -1
    return sign, tuple(sorted((p, e % n) for p, e in exps.items() if e % n))


# ---------------------------------------------------------------------------
# census measures


def census_measure(cls, ordering: str):
    """Measure of a Kummer class under a census ordering, by building the
    full ``discriminant()`` of the class: an int for the disc orderings, a
    float for darda."""
    from stacky.kummer import discriminant

    if ordering == "disc_exact":
        return discriminant(cls, "exact").value.abs_value
    if ordering == "disc_tame":
        return discriminant(cls, "tame").value.abs_value
    if ordering == "darda":
        mode = "exact" if cls.n in (2, 3) else "tame"
        d = discriminant(cls, mode).value.abs_value
        n, r = cls.n, cls.r
        return d ** (1.0 / (n * n - n * n // r))
    raise ValueError(f"unknown ordering {ordering!r}")
