"""Exact arithmetic in discretely valued fields containing a p-th root of unity.

Three field flavours cover every supported (p, ell) pair:

* ``RATIONAL`` -- K = Q with the ell-adic valuation; zeta_2 = -1.  This is
  the home of every p = 2 computation, for any residue characteristic
  (ell = 2 included).
* ``CYCLOTOMIC_SPLIT`` -- K = Q(zeta_p) for odd p with ell = 1 (mod p).  The
  p-th cyclotomic polynomial splits over Z_ell, so the valuation of an
  integral element A(zeta) is v_ell(A(r)) for r the p-th root of unity in
  Z_ell above the least root mod ell, a power of a^((ell-1)/p) for the
  first a where that is not 1.  A(r) is taken modulo ell^k with k = 4, 8,
  16, ...: the first nonzero residue gives the valuation exactly.
* ``CYCLOTOMIC_RAMIFIED`` -- K = Q(zeta_p) for odd p with ell = p.  The
  prime above p is generated by pi = 1 - zeta with v(pi) = 1/(p - 1), so
  v(p) = 1 and the value group is (1/(p-1)) Z.  pi divides an integral
  A(zeta) exactly when p divides A(1), so A is a unit, valuation 0, as
  soon as p does not divide A(1); otherwise the valuation counts the exact
  divisions by pi after taking out the p-adic valuation of A's content.

Field elements are ``Fraction`` values in the rational flavour, and tuples
of ``Fraction`` coefficients (degree < p - 1, reduced modulo the p-th
cyclotomic polynomial, hence canonical) in the cyclotomic flavours.  A
context builds, converts, values and prints elements, and adds or
multiplies none (its ``mul`` stays only for the benchmark's tracer, which
counts that no run calls it).  The decision procedure clears denominators
once and works on integers, in the product kernels of the integer ring
(below), where products are convolutions folded modulo x^p - 1 and
reduced with x^(p-1) = -(1 + ... + x^(p-2)), and quotients multiply by
the product of the Galois conjugates over the norm, each conjugate and
each product taken in that ring.  The valuation kernels are reached
through one entry point, ``integral_valuation``, which takes integer
coefficients and counts the valuation in steps of the value group.
A ``Val`` is the public, printed form of a valuation: an exact rational or
+infinity, with equality and hash but no arithmetic and no order.

The entry point from field elements to the integers is ``lower``: it puts
a list of elements over one common denominator L and returns their
integral numerators, in the ring ``FieldContext.integers`` (``int``, or
lists of p - 1 integer coefficients), with L, in one pass over the
coefficients; ``quotient`` is the way back, one conversion of num / den.
Then e v(x - y) is ``integral_valuation`` of a numerator difference minus
e v(L), and ``valuation`` is the one-element case.  Callers that compare
many valuations lower their elements once and stay on integers; counts of
steps are plain ``int``s, with ``INF_STEPS`` for +infinity, and
``val_of_steps`` turns one back into a ``Val``.

Each integer ring has three fused kernels for the 2x2 matrices (a, b, c, d)
that the group-word audit and the fold test multiply: ``matmul(m, n)``,
the product m n; ``trace_mul(m, n)``, tr(m n), four products; and
``cross(x, y, u, v)``, x y - u v (a determinant, or a cross-multiplied
difference).  Over Q they are inline ``int`` arithmetic.  Over Q(zeta_p)
each sum of products is reduced once: folded mod x^p - 1, and the top
coefficient subtracted, rather than reducing every product and adding
afterwards.  For p up to 13 these kernels, the plain product ``mul``, the
difference ``sub`` and the turn by a power of zeta ``rotate`` are
straight-line functions, generated from p: one expression per
coefficient over the unpacked coefficients, with no loop and no buffer
(``rotate`` has one branch per residue of its exponent mod p).  Each is
compiled once per (p, kernel) per process, at its own first lookup on a
ring (building a context compiles nothing), so a run that folds without
an audit compiles only the ``mul``, ``cross``, ``sub`` and ``rotate`` it
looks up.  The four product kernels' source has 15 (p - 1)^2 products, so
its cost grows as p^2: all four compile in about 11 ms and 3 MiB of peak
RSS at p = 13, 86 ms and 15 MiB at p = 31, 285 ms and 43 MiB at p = 53,
1.2 s and 159 MiB at p = 101 (medians of three fresh processes, Python
3.11.7 on an x86-64 Xeon).  Timed apart, ``mul`` and ``cross`` take about
0.6 ms at p = 5 and 2.6 ms at p = 13, ``matmul`` and ``trace_mul`` 1.8 ms
and 9.9 ms, ``sub`` and ``rotate`` 0.2 and 0.3 ms at p = 5, 0.4 and
1.3 ms at p = 13 (medians of five fresh processes).  Above 13 the kernels
are loops over the coefficients; the product loops accumulate each sum
in one convolution buffer of 2p - 3 coefficients (one rule,
``_CyclotomicIntegers._sum``), the one path that stays small at large p.

Everything here is immutable and every operation is a pure function, so
contexts and elements can be shared between threads; ``field_context``
hands every caller the one context of a field.  The internal mutable
state, the split flavour's table of the root's powers (filled with
``dict.setdefault``), the compiled kernel of each (p, name) and the
kernels a ring stores at their first lookup, holds values every thread
computes alike.
"""

from __future__ import annotations

import operator
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm
from typing import NamedTuple

from .errors import UnsupportedFieldError


class FieldKind(Enum):
    RATIONAL = "rational"
    CYCLOTOMIC_SPLIT = "cyclotomic_split"
    CYCLOTOMIC_RAMIFIED = "cyclotomic_ramified"


# two members bound once, for the flavour tests below (the valuation's
# among them, on the fold loop's hot path): on Python 3.11 a member looked
# up through its Enum class costs about 0.2 us, a module global 0.03 us
_RATIONAL, _RAMIFIED = FieldKind.RATIONAL, FieldKind.CYCLOTOMIC_RAMIFIED


# --------------------------------------------------------------------------
# Valuation values
# --------------------------------------------------------------------------


class Val(NamedTuple):
    """A valuation as shown at the edges: a rational number or +infinity.

    The infinite value arises only as the valuation of zero (and, by the
    empty-minimum convention, as the depth of a singleton cluster).  The
    program compares valuations as counts of steps; a ``Val`` is read
    through :attr:`fraction` and :attr:`is_infinite` and has no arithmetic
    or order.
    """

    q: Fraction | None = None  # None encodes +infinity

    @property
    def is_infinite(self) -> bool:
        return self.q is None

    @property
    def fraction(self) -> Fraction:
        if self.q is None:
            raise ValueError("valuation is infinite")
        return self.q

    # A tuple would add, multiply and order element-wise, and INF against a
    # finite value would raise.  Valuations are compared by their fraction
    # or counted in steps of the value group instead, so all nine refuse.
    def _no_arithmetic(self, other):
        return NotImplemented

    __add__ = __radd__ = __sub__ = __mul__ = __rmul__ = _no_arithmetic
    __lt__ = __le__ = __gt__ = __ge__ = _no_arithmetic

    def __repr__(self):
        return "Val(inf)" if self.q is None else f"Val({self.q})"


INF = Val(None)


class _InfSteps:
    """+infinity among counts of steps: above every ``int``, each comparison one call."""

    __slots__ = ()

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __repr__(self):
        return "INF_STEPS"

    def __reduce__(self):
        # pickled by name, so that unpickling gives back the one instance
        # the ``is INF_STEPS`` tests compare with
        return "INF_STEPS"


INF_STEPS = _InfSteps()


def int_valuation(n: int, ell: int) -> int:
    """ell-adic valuation of a nonzero integer (ell >= 2).

    For ell = 2 it is read in one step, as the index of n's lowest set bit
    (``n & -n`` isolates that bit, also for n < 0).  Otherwise one division
    per step while the valuation is small; from 8 on, the rest comes off in
    blocks, so a valuation v costs O(log v) divisions, not v.
    """
    if n == 0:
        raise ValueError("valuation of zero is infinite")
    if ell == 2:
        return (n & -n).bit_length() - 1
    v = 0
    while n % ell == 0:
        n //= ell
        v += 1
        if v == 8:
            break
    else:
        return v
    # strip ell, ell^2, ell^4, ... while n stays divisible, then try each
    # smaller block once on the way back down (a binary search on the rest)
    blocks = [ell]
    while n % blocks[-1] == 0:
        n //= blocks[-1]
        v += 1 << (len(blocks) - 1)
        blocks.append(blocks[-1] * blocks[-1])
    # the rest is below the last block tried, so below 2^(len(blocks) - 1)
    for k in range(len(blocks) - 2, -1, -1):
        if n % blocks[k] == 0:
            n //= blocks[k]
            v += 1 << k
    return v


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below this bound (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Primality by Miller-Rabin with the bases ``_MR_BASES``: exact below
    ``_MR_BOUND`` (about 3.3 10^24).  At or above the bound no base set is
    proven, so a composite may pass; :class:`FieldContext` refuses such
    p and ell before asking."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    odd, s = n - 1, 0
    while odd % 2 == 0:
        odd, s = odd // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# --------------------------------------------------------------------------
# Integer kernels for the cyclotomic flavours.  An element x is A(zeta) / L
# with A a list of integer coefficients (low degree first) and L > 0.
# --------------------------------------------------------------------------


class _Integers:
    """Integral elements of Q: ``int``."""

    zero, one = 0, 1
    add = staticmethod(operator.add)
    mul = staticmethod(operator.mul)
    sub = staticmethod(operator.sub)
    times = staticmethod(operator.mul)

    @staticmethod
    def matmul(m: tuple, n: tuple) -> tuple:
        """The 2x2 product m n of matrices (a, b, c, d)."""
        a, b, c, d = m
        w, x, y, z = n
        return (a * w + b * y, a * x + b * z, c * w + d * y, c * x + d * z)

    @staticmethod
    def trace_mul(m: tuple, n: tuple) -> int:
        """tr(m n)."""
        a, b, c, d = m
        w, x, y, z = n
        return a * w + b * y + c * x + d * z

    @staticmethod
    def cross(x: int, y: int, u: int, v: int) -> int:
        """x y - u v."""
        return x * y - u * v

    @staticmethod
    def rotate(x: int, n: int) -> int:
        """zeta^n x, with zeta = -1."""
        return -x if n % 2 else x

    @staticmethod
    def content(entries) -> int:
        return gcd(*entries)

    @staticmethod
    def divide(entries, k: int) -> tuple:
        return tuple([x // k for x in entries])


# The straight-line kernels are compiled for p up to this bound and
# the loop kernels run above it: compiling costs time and memory that grow
# as p^2 (measured in the module docstring).
_STRAIGHT_LINE_BOUND = 13
# the kernels a ring fixes at their first lookup, by name: four products,
# the difference and the rotation by a power of zeta
_KERNELS = ("mul", "matmul", "trace_mul", "cross", "sub", "rotate")


def _kernel_source(p: int, name: str) -> str:
    """Python source of the kernel ``name`` (one of ``_KERNELS``) over
    Z[zeta_p], one expression per coefficient over the unpacked
    coefficients.  In a sum of products, coefficient k takes the products
    x_i y_j with i + j = k or k + p (the fold mod x^p - 1), less the top
    coefficient t, the products with i + j = p - 1, as
    :meth:`_CyclotomicIntegers._sum` does.  ``sub`` is x_k - y_k, and
    ``rotate`` has one branch per residue of n mod p, the turn and
    reduction of :meth:`_CyclotomicIntegers._rotate` written out."""
    n = p - 1

    def unpack(names: str, arg: str) -> str:
        return ", ".join("(" + ", ".join(f"{v}{i}" for i in range(n)) + ")" for v in names) + f" = {arg}"

    def element(products: list[str], target: str) -> list[str]:
        # products are signed pairs of names, "+xy" or "-uv"; i + j = p - 1
        # is the only sum with its residue, so t is the top coefficient
        def coefficient(k: int) -> str:
            terms = " ".join(
                f"{sign} {x}{i}*{y}{j}"
                for sign, x, y in products
                for i in range(n)
                for j in range(n)
                if (i + j) % p == k
            )
            return terms.removeprefix("+ ")

        return [f"t = {coefficient(n)}", f"{target} [" + ", ".join(f"{coefficient(k)} - t" for k in range(n)) + "]"]

    matrices = [unpack("abcd", "m"), unpack("wxyz", "n")]
    if name == "mul":
        head, body = "mul(x, y)", [unpack("xy", "x, y"), *element(["+xy"], "return")]
    elif name == "matmul":
        entries = (["+aw", "+by"], ["+ax", "+bz"], ["+cw", "+dy"], ["+cx", "+dz"])
        head, body = "matmul(m, n)", [
            *matrices,
            *[line for k, products in enumerate(entries) for line in element(products, f"r{k} =")],
            "return r0, r1, r2, r3",
        ]
    elif name == "trace_mul":
        head, body = "trace_mul(m, n)", [*matrices, *element(["+aw", "+by", "+cx", "+dz"], "return")]
    elif name == "cross":
        head, body = "cross(x, y, u, v)", [unpack("xyuv", "x, y, u, v"), *element(["+xy", "-uv"], "return")]
    elif name == "sub":
        head, body = "sub(x, y)", [unpack("xy", "x, y"), "return [" + ", ".join(f"x{k} - y{k}" for k in range(n)) + "]"]
    else:
        # zeta^r x, r = n mod p: coefficient k is x_(k-r) less x_t, t = p -
        # 1 - r, where x_(p-1) = 0 (so coefficient r - 1 is -x_t, and r = 0
        # copies x)
        def turned(r: int) -> str:
            t = n - r
            return "[" + ", ".join(
                f"x{k}" if r == 0 else f"-x{t}" if k == r - 1 else f"x{(k - r) % p} - x{t}"
                for k in range(n)
            ) + "]"

        head, body = "rotate(x, n)", [
            unpack("x", "x"),
            f"n %= {p}",
            *[f"if n == {r}: return {turned(r)}" for r in range(n)],
            f"return {turned(n)}",
        ]
    return "\n    ".join([f"def {head}:", *body]) + "\n"


@lru_cache(maxsize=None)
def _straight_line_kernel(p: int, name: str):
    """The kernel ``name`` of :func:`_kernel_source`, compiled once per
    (p, name) (only primes up to ``_STRAIGHT_LINE_BOUND`` reach the cache)."""
    namespace: dict = {}
    exec(compile(_kernel_source(p, name), f"<Z[zeta_{p}] {name}>", "exec"), namespace)
    return namespace[name]


class _CyclotomicIntegers:
    """Integral elements A(zeta) of Q(zeta_p): the p - 1 integer
    coefficients of A in the canonical basis 1, zeta, ..., zeta^(p-2), so
    equal elements are equal lists.  The kernels ``mul``, ``matmul``,
    ``trace_mul``, ``cross``, ``sub`` and ``rotate`` are fixed on a ring
    each at its own first lookup (:meth:`__getattr__`): the straight-line
    function of that name for its p up to ``_STRAIGHT_LINE_BOUND``, the
    loops ``_mul``, ``_matmul``, ``_trace_mul``, ``_cross``, ``_sub`` and
    ``_rotate`` above it."""

    def __init__(self, p: int):
        self.p = p
        self.zero = [0] * (p - 1)
        self.one = [1] + [0] * (p - 2)

    def __getattr__(self, name: str):
        """A kernel missing from the ring, stored on it: up to
        ``_STRAIGHT_LINE_BOUND`` the one kernel looked up is compiled, once
        per (p, name) per process, and the others stay uncompiled until
        their own lookup; later lookups read the instance.  Any other name
        is missing before ``p`` is read, so that copy and pickle probes of
        a ring without one do not recurse."""
        if name not in _KERNELS:
            raise AttributeError(name)
        if self.p <= _STRAIGHT_LINE_BOUND:
            kernel = _straight_line_kernel(self.p, name)
        else:
            kernel = getattr(self, "_" + name)
        vars(self)[name] = kernel
        return kernel

    def _sum(self, *products) -> list[int]:
        """The sum of the products sign x y of (sign, x, y) triples, built
        in Z[x] in one buffer of 2p - 3 coefficients and reduced once:
        folded mod x^p - 1, then zeta^(p-1) = -(1 + zeta + ... +
        zeta^(p-2)) subtracts the top coefficient from the others."""
        p = self.p
        buf = [0] * (2 * p - 3)
        for sign, x, y in products:
            for i, xi in enumerate(x):
                if xi:
                    xi *= sign
                    for k, yk in enumerate(y, i):
                        buf[k] += xi * yk
        top = buf[p - 1]
        out = [c - top for c in buf[: p - 1]]
        for k, c in enumerate(buf[p:]):
            out[k] += c
        return out

    def _mul(self, x: list[int], y: list[int]) -> list[int]:
        return self._sum((1, x, y))

    def _matmul(self, m: tuple, n: tuple) -> tuple:
        """The 2x2 product m n of matrices (a, b, c, d)."""
        (a, b, c, d), (w, x, y, z) = m, n
        entries = ((a, w, b, y), (a, x, b, z), (c, w, d, y), (c, x, d, z))
        return tuple([self._sum((1, r, s), (1, t, u)) for r, s, t, u in entries])

    def _trace_mul(self, m: tuple, n: tuple) -> list[int]:
        """tr(m n)."""
        (a, b, c, d), (w, x, y, z) = m, n
        return self._sum((1, a, w), (1, b, y), (1, c, x), (1, d, z))

    def _cross(self, x: list[int], y: list[int], u: list[int], v: list[int]) -> list[int]:
        """x y - u v."""
        return self._sum((1, x, y), (-1, u, v))

    def conjugate(self, x: list[int], k: int) -> list[int]:
        """The Galois conjugate x(zeta^k): zeta^i goes to zeta^(i k) in
        Z[x]/(x^p - 1), then the top coefficient is reduced away."""
        p = self.p
        z = [0] * p
        for i, c in enumerate(x):
            z[i * k % p] = c
        top = z[-1]
        return [c - top for c in z[:-1]]

    def _rotate(self, x: list[int], n: int) -> list[int]:
        """zeta^n x: in Z[x]/(x^p - 1) the p coefficients turn by n places,
        then the top one is reduced away."""
        n %= self.p
        z = x + [0]
        z = z[-n:] + z[:-n]
        top = z[-1]
        return [c - top for c in z[:-1]]

    def _sub(self, x: list[int], y: list[int]) -> list[int]:
        return list(map(operator.sub, x, y))

    @staticmethod
    def add(x: list[int], y: list[int]) -> list[int]:
        return [a + b for a, b in zip(x, y)]

    @staticmethod
    def times(x: list[int], k: int) -> list[int]:
        return [c * k for c in x]

    @staticmethod
    def content(entries) -> int:
        return gcd(*[c for x in entries for c in x])

    @staticmethod
    def divide(entries, k: int) -> tuple:
        return tuple([[c // k for c in x] for x in entries])


# --------------------------------------------------------------------------
# Field context
# --------------------------------------------------------------------------


_ZERO = Fraction(0)


class FieldContext:
    """Field K with an ell-adic valuation and a chosen primitive p-th root
    of unity.

    Elements are ``Fraction`` (rational flavour) or tuples of ``Fraction``
    of length p - 1 (cyclotomic flavours).  Use :func:`field_context` to
    construct instances.  Contexts compare and hash by (p, ell), from which
    all else is derived; the split flavour's root powers are a cache.
    """

    def __init__(self, p: int, ell: int):
        if type(p) is not int or type(ell) is not int:
            raise UnsupportedFieldError(f"p={p!r} and ell={ell!r} must both be of type int")
        if max(p, ell) >= _MR_BOUND:
            raise UnsupportedFieldError(
                f"p={p} and ell={ell} must be below {_MR_BOUND}, the bound "
                "under which primality is decided exactly"
            )
        if not _is_prime(p) or not _is_prime(ell):
            raise UnsupportedFieldError(f"p={p} and ell={ell} must be prime")
        self.p = p
        self.ell = ell
        if p == 2:
            self.kind = FieldKind.RATIONAL
            self.degree = 1
        elif ell == p:
            self.kind = FieldKind.CYCLOTOMIC_RAMIFIED
            self.degree = p - 1
        elif ell % p == 1:
            self.kind = FieldKind.CYCLOTOMIC_SPLIT
            self.degree = p - 1
        else:
            raise UnsupportedFieldError(
                f"no supported valued field contains a primitive root of unity "
                f"of order {p} for residue characteristic {ell}"
            )
        # The ramification index e: the value group is (1/e) Z, v(ell) = 1.
        self.ramification = p - 1 if ell == p else 1
        # The separation radius rho = v(p)/(p-1), the radius of the fixed
        # tube of an order-p map, counted in steps of (1/e) Z: one step
        # when the residue characteristic is p, and zero otherwise
        self.rho_steps = 1 if ell == p else 0
        # the integral elements, in the ring the integer callers work in
        self.integers = (
            _Integers if self.kind is _RATIONAL else _CyclotomicIntegers(p)
        )
        # precision k -> (ell^k, the powers 1, r, ..., r^(p-2) mod ell^k of
        # the split flavour's root r)
        self._root_powers: dict[int, tuple[int, tuple[int, ...]]] = {}
        # the degree - 1 zero coefficients above a rational element
        self._zero_tail = (_ZERO,) * (self.degree - 1)

    # -- constructors ------------------------------------------------------

    def from_fraction(self, q) -> object:
        if type(q) is not Fraction:  # a Fraction is kept: copying one is slow
            q = Fraction(q)
        if self.kind is _RATIONAL:
            return q
        return (q,) + self._zero_tail

    # -- product and quotient ----------------------------------------------

    # no program path multiplies elements; mul stays because the benchmark's
    # tracer wraps it (perfbench/spans.py) to count that no run does
    def mul(self, x, y):
        if self.kind is _RATIONAL:
            return x * y
        (a, b), den = self.lower([x, y])
        square = den * den
        return tuple(Fraction(c, square) for c in self.integers.mul(a, b))

    def quotient(self, num, den):
        """num / den for integral num and den in :attr:`integers`, as a
        canonical element converted once (the field's division); None when
        den = 0.  Over Q(zeta_p), 1/A is the product of the Galois
        conjugates A(zeta^s), s = 2..p-1, over the rational norm of A."""
        if den == self.integers.zero:
            return None
        if self.kind is _RATIONAL:
            return Fraction(num, den)
        ring = self.integers
        conjugates = ring.conjugate(den, 2)
        for s in range(3, self.p):
            conjugates = ring.mul(conjugates, ring.conjugate(den, s))
        # A times its conjugates is the rational norm, so in Z[x]/(x^p - 1)
        # the coefficients of x, ..., x^(p-1) of that product agree; the norm,
        # constant less top, is read off A and the padded conjugates
        padded = conjugates + [0]
        norm = sum([c * (padded[-i] - padded[-1 - i]) for i, c in enumerate(den)])
        return tuple([Fraction(c, norm) for c in ring.mul(num, conjugates)])

    # -- the valuation -----------------------------------------------------

    def lower(self, values) -> tuple[list, int]:
        """The elements over one common denominator L > 0, the lcm of every
        coefficient's denominator taken in one pass: their integral numerators
        in :attr:`integers`, each x being A_x / L, scaled once (as they are
        when L = 1), then L.  One loop reads each coefficient once, as its
        ``as_integer_ratio()``, not through the ``numerator`` and
        ``denominator`` properties; over Q(zeta_p) the coefficients are
        read in a row and regrouped p - 1 at a time."""
        rational = self.kind is _RATIONAL
        nums, dens = [], []
        for x in values if rational else chain.from_iterable(values):
            a, d = x.as_integer_ratio()
            nums.append(a)
            dens.append(d)
        den = lcm(*dens)
        if den != 1:
            nums = [a * (den // d) for a, d in zip(nums, dens)]
        if rational:
            return nums, den
        n = self.degree
        return [nums[k : k + n] for k in range(0, len(nums), n)], den

    def val_of_steps(self, steps) -> Val:
        """A count of steps of (1/e) Z as a ``Val``; ``INF_STEPS`` is
        +infinity.  With e = 1 the ``Fraction`` is made with no gcd."""
        if steps is INF_STEPS:
            return INF
        e = self.ramification
        return Val(Fraction(steps) if e == 1 else Fraction(steps, e))

    # demo 01 shows valuations through it, and the benchmark's tracer
    # counts its calls per field flavour (perfbench/spans.py)
    def valuation(self, x) -> Val:
        """v(x): multiplicative, ultrametric, v(0) = +infinity."""
        (a,), den = self.lower([x])
        if a == self.integers.zero:
            return INF
        den_steps = self.ramification * int_valuation(den, self.ell)
        return self.val_of_steps(self.integral_valuation(a) - den_steps)

    def integral_valuation(self, a) -> int:
        """e v(A) for a nonzero integral A: its valuation counted in steps
        of the value group (1/e) Z, e = :attr:`ramification`.

        A is an ``int`` in the rational flavour and the p - 1 integer
        coefficients of A(zeta) (low degree first, the canonical basis of
        the cyclotomic elements) otherwise.  This is the one route to the
        valuation kernels: :meth:`valuation` clears denominators and calls
        it, and integer callers call it directly.
        """
        if self.kind is _RATIONAL:
            return int_valuation(a, self.ell)
        if not any(a):
            raise ValueError("valuation of zero is infinite")
        if self.kind is _RAMIFIED:
            return self._ramified_valuation(a)
        return self._split_valuation(a)

    def _ramified_valuation(self, a: list[int]) -> int:
        """(p - 1) v(A(zeta)) for nonzero integer coefficients A, with
        v(p) = 1.

        pi = 1 - zeta generates the prime above p, and A(zeta) = A(1) mod
        pi.  So when p does not divide A(1), A(zeta) is a unit and the
        count is 0, with no gcd taken.  Otherwise the p-adic valuation of
        A's content, p - 1 steps each, is taken out first; then while p
        divides A(1), A(x) - (A(1)/p) Phi_p(x) vanishes at 1 and is divided
        exactly by 1 - x, and each division is one step, v(pi) = 1/(p - 1).
        """
        p = self.p
        if sum(a) % p:
            return 0
        e = int_valuation(gcd(*a), p)
        if e:
            q = p**e
            a = [c // q for c in a]
        k = 0
        while True:
            t, r = divmod(sum(a), p)
            if r:
                return k + e * (p - 1)
            # the quotient's coefficients are the prefix sums of a_i - t
            acc = 0
            b = []
            for c in a:
                acc += c - t
                b.append(acc)
            a = b
            k += 1

    def _split_valuation(self, a: list[int]) -> int:
        """v_ell(A(zeta)) for nonzero integer coefficients A: A evaluated at
        the root r mod ell^k (:meth:`_power_table`), the dot product of A
        with the powers of r taken in one ``sum(map(operator.mul, ...))``,
        is exact once it is nonzero mod ell^k, so k starts at 4 and doubles
        until then."""
        k = 4
        while True:
            modulus, powers = self._root_powers.get(k) or self._power_table(k)
            value = sum(map(operator.mul, a, powers)) % modulus
            if value:
                return int_valuation(value, self.ell)
            k *= 2

    def _power_table(self, prec: int) -> tuple[int, tuple[int, ...]]:
        """ell^prec and the powers of the root of the cyclotomic polynomial
        modulo it.  The first a^((ell-1)/p) mod ell that is not 1 has order
        p, so its powers are every root mod ell; the least of them is lifted
        to the one p-th root of unity above it (Hensel: ell does not divide
        p) by Newton steps on x^p - 1 that double the precision.  The power
        least^(ell^(prec-1)) is the same lift, but takes about prec log2(ell)
        squarings mod ell^prec where the steps take log2(prec)."""
        ell, p = self.ell, self.p
        r = next(x for a in range(2, ell) if (x := pow(a, (ell - 1) // p, ell)) != 1)
        root, k = min(pow(r, i, ell) for i in range(1, p)), 1
        while k < prec:
            k = min(2 * k, prec)
            mod = ell**k
            # x - (x^p - 1) / (p x^(p-1)), where 1 / x^(p-1) is x while x^p = 1
            root = root * (p + 1 - pow(root, p, mod)) * pow(p, -1, mod) % mod
        modulus = ell**prec
        powers = tuple(pow(root, i, modulus) for i in range(self.degree))
        # setdefault is atomic and every thread computes the same table
        return self._root_powers.setdefault(prec, (modulus, powers))

    # -- presentation ------------------------------------------------------

    def to_str(self, x) -> str:
        """A rational element as its fraction, any other as its coefficients."""
        if self.kind is _RATIONAL:
            return format_fraction(x)
        if not any(x[1:]):
            return format_fraction(x[0])
        return "[" + ",".join(format_fraction(c) for c in x) + "]"

    def __eq__(self, other):
        if type(other) is not FieldContext:
            return NotImplemented
        return self.p == other.p and self.ell == other.ell

    def __hash__(self):
        return hash((self.p, self.ell))

    def __reduce__(self):
        # pickled as its field: the ring's stored kernels come from exec and
        # cannot be pickled, and unpickling gives back the shared context
        return field_context, (self.p, self.ell)

    def __repr__(self):
        return f"FieldContext(p={self.p}, ell={self.ell}, {self.kind.value})"


def field_context(p: int, ell: int) -> FieldContext:
    """The valued field for superelliptic degree p and residue characteristic ell.

    One context per field is shared by every caller, whether it passes p
    and ell by position or by keyword, from a cache of the 64 fields used
    last (``field_context.cache_info`` and ``.cache_clear`` are its):
    building one tests p and ell for primality and, for a split field,
    starts the table of the root's powers, which the shared context then
    keeps.  A context is immutable but for that table, which is
    deterministic and filled with ``dict.setdefault``.  The cache is keyed
    by the two arguments and their types, so a p or ell that is not an
    ``int`` (2.0, ``Fraction(2)``, ``True``) never meets an int's context:
    like a field that is refused, it raises UnsupportedFieldError each time
    and is not kept.
    """
    return _shared_context(p, ell)


@lru_cache(maxsize=64, typed=True)
def _shared_context(p: int, ell: int) -> FieldContext:
    return FieldContext(p, ell)


field_context.cache_info = _shared_context.cache_info
field_context.cache_clear = _shared_context.cache_clear


def format_fraction(q: Fraction) -> str:
    """q in lowest terms as "n" or "n/d": ``str`` of a ``Fraction`` or an
    ``int``, any other rational converted to a ``Fraction`` first.

    ``str`` is one call; past the interpreter's limit on int-to-string
    conversion it raises, and :func:`int_to_decimal` writes each part.
    """
    if type(q) is not Fraction and type(q) is not int:
        q = Fraction(q)
    try:
        return str(q)
    except ValueError:
        text = int_to_decimal(q.numerator)
        return text if q.denominator == 1 else f"{text}/{int_to_decimal(q.denominator)}"


def int_to_decimal(n: int) -> str:
    """str(n), exact for any size.

    Above the interpreter's limit on int-to-string conversion (4300 digits
    by default) the digits are produced by splitting n into halves by a
    power of ten, so the limit is never lifted for the process.
    """
    try:
        return str(n)
    except ValueError:
        pass
    if n < 0:
        return "-" + int_to_decimal(-n)
    half = n.bit_length() * 3 // 20  # about half of the decimal digits
    high, low = divmod(n, 10**half)
    return int_to_decimal(high) + int_to_decimal(low).zfill(half)


def decimal_to_int(text: str) -> int:
    """int(text) for a string of decimal digits with an optional leading
    minus, exact for any length (the inverse of :func:`int_to_decimal`)."""
    try:
        return int(text)
    except ValueError:
        negative = text.startswith("-")
        digits = text[1:] if negative else text
        if not digits.isdecimal():
            raise
    if negative:
        return -decimal_to_int(digits)
    half = len(digits) // 2
    return decimal_to_int(digits[:-half]) * 10**half + decimal_to_int(digits[-half:])
