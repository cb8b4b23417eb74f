"""Exact arithmetic the benchmark computes on its own, apart from the program.

The corpus builders and the output checks use these routines, never the
program's, so a fault in the program's field or cluster layer cannot hide
itself by also shaping the inputs or the reference values:

* ell-adic valuations of rationals, normalised so that v(p) = 1 when the
  residue characteristic is p (as the program's fields are);
* Q(zeta_p) for odd p, computed in Q[x]/(x^p - 1) and projected to the
  basis 1, zeta, ..., zeta^(p-2) (the program's canonical coefficient
  tuples); inverses come from Galois conjugates and the norm; valuations
  come from the norm (ell = p) or from a Hensel-lifted root of the
  cyclotomic polynomial modulo a power of ell (ell = 1 mod p);
* the order-p maps fixing a pair, their action on points, and 2x2 matrix
  products;
* cluster classes of a finite set of points, found by enumerating discs
  around every point (the program builds them by recursive partition);
* the number of reduced words the group-word audit must visit.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd

INF = "inf"


def vq(x: Fraction, ell: int) -> int:
    """ell-adic valuation of a nonzero rational."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("valuation of zero")
    v = 0
    num, den = abs(x.numerator), x.denominator
    while num % ell == 0:
        num //= ell
        v += 1
    while den % ell == 0:
        den //= ell
        v -= 1
    return v


def rho(p: int, ell: int) -> Fraction:
    """v(p)/(p-1) in the normalisation v(ell) = 1 (zero unless ell = p)."""
    return Fraction(1, p - 1) if ell == p else Fraction(0)


# --------------------------------------------------------------------------
# the cyclotomic field Q(zeta_p), odd p
# --------------------------------------------------------------------------


class Cyclo:
    """Q(zeta_p) with elements as canonical (p-1)-tuples of Fractions."""

    def __init__(self, p: int):
        self.p = p

    def lift(self, x) -> list:
        """Canonical tuple (or rational) -> length-p vector mod x^p - 1."""
        if isinstance(x, (int, Fraction)):
            return [Fraction(x)] + [Fraction(0)] * (self.p - 1)
        return list(x) + [Fraction(0)]

    def canon(self, v: list) -> tuple:
        """Length-p vector -> canonical tuple, using 1 + zeta + ... = 0."""
        top = v[self.p - 1]
        return tuple(c - top for c in v[: self.p - 1])

    def vmul(self, a: list, b: list) -> list:
        p = self.p
        out = [Fraction(0)] * p
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[(i + j) % p] += ai * bj
        return out

    def conj(self, v: list, k: int) -> list:
        """The Galois conjugate zeta -> zeta^k."""
        out = [Fraction(0)] * self.p
        for i, c in enumerate(v):
            out[(i * k) % self.p] += c
        return out

    def norm(self, x) -> Fraction:
        v = self.lift(x)
        prod = v
        for k in range(2, self.p):
            prod = self.vmul(prod, self.conj(v, k))
        c = self.canon(prod)
        assert all(t == 0 for t in c[1:]), "norm is not rational"
        return c[0]

    def mul(self, x, y) -> tuple:
        return self.canon(self.vmul(self.lift(x), self.lift(y)))

    def add(self, x, y) -> tuple:
        return self.canon([a + b for a, b in zip(self.lift(x), self.lift(y))])

    def sub(self, x, y) -> tuple:
        return self.canon([a - b for a, b in zip(self.lift(x), self.lift(y))])

    def inv(self, x) -> tuple:
        v = self.lift(x)
        prod = [Fraction(1)] + [Fraction(0)] * (self.p - 1)
        for k in range(2, self.p):
            prod = self.vmul(prod, self.conj(v, k))
        n = self.norm(x)
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return tuple(c / n for c in self.canon(prod))

    def zeta(self, n: int) -> tuple:
        v = [Fraction(0)] * self.p
        v[n % self.p] = Fraction(1)
        return self.canon(v)

    def is_zero(self, x) -> bool:
        return all(c == 0 for c in self.canon(self.lift(x)))


class Rat:
    """Q with zeta_2 = -1, in the same interface as :class:`Cyclo`."""

    p = 2

    def mul(self, x, y):
        return Fraction(x) * Fraction(y)

    def add(self, x, y):
        return Fraction(x) + Fraction(y)

    def sub(self, x, y):
        return Fraction(x) - Fraction(y)

    def inv(self, x):
        return 1 / Fraction(x)

    def zeta(self, n: int):
        return Fraction(-1) ** (n % 2)

    def is_zero(self, x) -> bool:
        return x == 0


def field(p: int):
    return Rat() if p == 2 else Cyclo(p)


def _phi(p: int, r: int, mod: int) -> int:
    return sum(pow(r, k, mod) for k in range(p)) % mod


def split_root(p: int, ell: int, prec: int) -> int:
    """A root of the p-th cyclotomic polynomial modulo ell^prec, for
    ell = 1 (mod p).  The valuation is the one at the prime above ell
    through the least root modulo ell (the program's fields take the same
    prime); that root is lifted by Newton steps, one power of ell at a time.
    """
    r = next(r for r in range(2, ell) if _phi(p, r, ell) == 0)
    for k in range(2, prec + 1):
        mod = ell**k
        dphi = sum(j * pow(r, j - 1, mod) for j in range(1, p)) % mod
        r = (r - _phi(p, r, mod) * pow(dphi, -1, mod)) % mod
    return r


def valuation(p: int, ell: int, x) -> Fraction:
    """v(x) of a nonzero element of Q (p = 2) or Q(zeta_p) (odd p)."""
    if p == 2 or isinstance(x, (int, Fraction)):
        return Fraction(vq(x, ell))
    F = Cyclo(p)
    if ell == p:  # one prime above p, totally ramified: v(p) = 1
        return Fraction(vq(F.norm(x), p), p - 1)
    coeffs = F.canon(F.lift(x))
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    # the integral element's valuation at one prime is at most its norm's
    prec = vq(F.norm(tuple(Fraction(c) for c in ints)), ell) + 1
    r, mod = split_root(p, ell, prec), ell**prec
    value = sum(c * pow(r, k, mod) for k, c in enumerate(ints)) % mod
    return Fraction(vq(value, ell) - vq(den, ell))


# --------------------------------------------------------------------------
# Moebius maps as 2x2 matrices (a, b, c, d)
# --------------------------------------------------------------------------


def order_p_map(F, a, b, n: int) -> tuple:
    """Matrix of the order-p map fixing a, b with multiplier zeta^n at a.

    In the coordinate w = (z - a)/(z - b) the map is w -> zeta^n w; for
    b = infinity it is z -> zeta^n z + (1 - zeta^n) a.
    """
    zn = F.zeta(n)
    one = F.zeta(0)
    if b == INF:
        return (zn, F.mul(F.sub(one, zn), a), F.sub(one, one), one)
    return (
        F.sub(a, F.mul(zn, b)),
        F.mul(F.sub(zn, one), F.mul(a, b)),
        F.sub(one, zn),
        F.sub(F.mul(zn, a), b),
    )


def apply_map(F, m: tuple, z):
    a, b, c, d = m
    if z == INF:
        return INF if F.is_zero(c) else F.mul(a, F.inv(c))
    den = F.add(F.mul(c, z), d)
    if F.is_zero(den):
        return INF
    return F.mul(F.add(F.mul(a, z), b), F.inv(den))


def mat_mul(F, m1: tuple, m2: tuple) -> tuple:
    a1, b1, c1, d1 = m1
    a2, b2, c2, d2 = m2
    return (
        F.add(F.mul(a1, a2), F.mul(b1, c2)),
        F.add(F.mul(a1, b2), F.mul(b1, d2)),
        F.add(F.mul(c1, a2), F.mul(d1, c2)),
        F.add(F.mul(c1, b2), F.mul(d1, d2)),
    )


# --------------------------------------------------------------------------
# clusters of points
# --------------------------------------------------------------------------


def cluster_sets(values: list, ell: int, p: int = 2) -> set[frozenset]:
    """Every cluster (as a set of indices) of distinct finite points of Q
    (p = 2) or Q(zeta_p).

    A cluster is the set of points in a disc D(x, r); it is enough to take
    every point x and every radius r among the pairwise valuations.
    """
    F = field(p)
    n = len(values)
    val = {}
    for i, j in combinations(range(n), 2):
        val[i, j] = val[j, i] = valuation(p, ell, F.sub(values[i], values[j]))
    out = {frozenset(range(n))} if n else set()
    for x in range(n):
        out.add(frozenset({x}))
        for r in {val[x, y] for y in range(n) if y != x}:
            out.add(frozenset(y for y in range(n) if y == x or val[x, y] >= r))
    return out


def even_classes(points: list, ell: int, p: int = 2) -> list[list]:
    """The classes of "lies in the same even clusters", infinity included.

    ``points`` are distinct points of Q (p = 2) or Q(zeta_p) and at most
    one ``"inf"``; infinity lies in no finite cluster.  A set is clustered
    in pairs exactly when every class has two members.
    """
    finite = [x for x in points if x != INF]
    even = [c for c in cluster_sets(finite, ell, p) if len(c) % 2 == 0]
    classes: dict[frozenset, list] = {}
    for k, x in enumerate(finite):
        profile = frozenset(c for c in even if k in c)
        classes.setdefault(profile, []).append(x)
    if INF in points:
        classes.setdefault(frozenset(), []).append(INF)
    return list(classes.values())


def axis_gap(pair1, pair2, ell: int) -> Fraction:
    """Tree distance between the axes of two disjoint rational pairs."""
    fin1 = [x for x in pair1 if x != INF]
    fin2 = [x for x in pair2 if x != INF]
    u = max(vq(x - y, ell) for x in fin1 for y in fin2)
    total = Fraction(0)
    for fin in (fin1, fin2):
        if len(fin) == 2:
            total += max(0, vq(fin[0] - fin[1], ell) - u)
    return total


def is_paired(pairs: list, p: int, ell: int) -> bool:
    """Whether rational pairs are exactly the even-cluster classes and their
    axes stay more than 2 rho apart."""
    points = [x for pr in pairs for x in pr]
    want = {frozenset(pr) for pr in pairs}
    if {frozenset(c) for c in even_classes(points, ell)} != want:
        return False
    return all(
        axis_gap(a, b, ell) > 2 * rho(p, ell) for a, b in combinations(pairs, 2)
    )


# --------------------------------------------------------------------------
# the group-word audit's search space
# --------------------------------------------------------------------------


def gamma_word_count(g: int, p: int, depth: int) -> int:
    """Reduced words of syllable length 1..depth in g+1 order-p generators
    whose exponent sum is divisible by p.

    A word of length k picks g+1 generators for its first syllable and g
    for each later one, independently of the exponents in 1..p-1, so the
    count is sum_k (g+1) g^(k-1) E_k with E_k the number of exponent
    sequences of length k summing to 0 mod p.
    """
    sums = [1] + [0] * (p - 1)  # E_0 by residue
    total = 0
    for k in range(1, depth + 1):
        nxt = [0] * p
        for s, c in enumerate(sums):
            for e in range(1, p):
                nxt[(s + e) % p] += c
        sums = nxt
        total += (g + 1) * g ** (k - 1) * sums[0]
    return total
