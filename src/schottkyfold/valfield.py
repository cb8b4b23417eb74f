"""Exact arithmetic in discretely valued fields containing a p-th root of unity.

Three field flavours cover every supported (p, ell) pair:

* ``RATIONAL`` -- K = Q with the ell-adic valuation; zeta_2 = -1.  This is
  the home of every p = 2 computation, for any residue characteristic
  (ell = 2 included).
* ``CYCLOTOMIC_SPLIT`` -- K = Q(zeta_p) for odd p with ell = 1 (mod p).  The
  p-th cyclotomic polynomial splits over Z_ell, so the valuation of an
  element is read off by evaluating it at a Hensel-lifted root modulo a
  sufficiently high power of ell.
* ``CYCLOTOMIC_RAMIFIED`` -- K = Q(zeta_p) for odd p with ell = p.  Here
  v(x) = v_p(Norm(x)) / (p - 1), with the norm computed as a resultant, and
  the normalisation fixes v(p) = 1 so the value group is (1/(p-1)) Z.

Field elements are ``Fraction`` values in the rational flavour, and tuples
of ``Fraction`` coefficients (degree < p - 1, reduced modulo the p-th
cyclotomic polynomial, hence canonical) in the cyclotomic flavours.
Valuations are ``Val`` objects: exact rationals plus a +infinity sentinel
reserved for the valuation of zero.

Everything here is immutable and every operation is a pure function, so
contexts and elements can be shared between threads.  The only internal
mutable state, the Hensel-lift cache of the split flavour, is guarded by a
lock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd

from .errors import FieldDivisionError, UnsupportedFieldError


class FieldKind(Enum):
    RATIONAL = "rational"
    CYCLOTOMIC_SPLIT = "cyclotomic_split"
    CYCLOTOMIC_RAMIFIED = "cyclotomic_ramified"


# --------------------------------------------------------------------------
# Valuation values
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Val:
    """An exact valuation value: a rational number or +infinity.

    The infinite value arises only as the valuation of zero (and, by the
    empty-minimum convention, as the depth of a singleton cluster).
    """

    q: Fraction | None = None  # None encodes +infinity

    @staticmethod
    def of(x) -> "Val":
        return Val(Fraction(x))

    @property
    def is_infinite(self) -> bool:
        return self.q is None

    @property
    def fraction(self) -> Fraction:
        if self.q is None:
            raise ValueError("valuation is infinite")
        return self.q

    def __add__(self, other):
        o = _as_val(other)
        if self.q is None or o.q is None:
            return INF
        return Val(self.q + o.q)

    __radd__ = __add__

    def __sub__(self, other):
        o = _as_val(other)
        if o.q is None:
            raise ValueError("cannot subtract an infinite valuation")
        if self.q is None:
            return INF
        return Val(self.q - o.q)

    def __mul__(self, k: int):
        if self.q is None:
            return INF
        return Val(self.q * k)

    __rmul__ = __mul__

    # Comparisons read q directly (None is +infinity) and build nothing.

    def __lt__(self, other):
        a, b = self.q, _operand(other)
        if a is None:
            return False
        return b is None or a < b

    def __le__(self, other):
        a, b = self.q, _operand(other)
        if b is None:
            return True
        return a is not None and a <= b

    def __gt__(self, other):
        a, b = self.q, _operand(other)
        if b is None:
            return False
        return a is None or a > b

    def __ge__(self, other):
        a, b = self.q, _operand(other)
        if a is None:
            return True
        return b is not None and a >= b

    def __repr__(self):
        return "Val(inf)" if self.q is None else f"Val({self.q})"


INF = Val(None)


def _as_val(x) -> Val:
    if isinstance(x, Val):
        return x
    return Val(Fraction(x))


def _operand(x):
    """The rational a valuation is compared with; None for +infinity."""
    if type(x) is Val:
        return x.q
    if type(x) is int or type(x) is Fraction:
        return x
    return _as_val(x).q


def int_valuation(n: int, ell: int) -> int:
    """ell-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of zero is infinite")
    n = abs(n)
    v = 0
    while n % ell == 0:
        n //= ell
        v += 1
    return v


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# --------------------------------------------------------------------------
# Polynomial helpers for the cyclotomic flavours (coefficient lists, low
# degree first)
# --------------------------------------------------------------------------


def _poly_trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_divmod(a: list, b: list) -> tuple[list, list]:
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv_lead = Fraction(1) / b[-1]
    for k in range(len(a) - len(b), -1, -1):
        coeff = a[k + len(b) - 1] * inv_lead
        q[k] = coeff
        if coeff != 0:
            for j, bj in enumerate(b):
                a[k + j] -= coeff * bj
    return _poly_trim(q), _poly_trim(a)


def _resultant(a: list, b: list) -> Fraction:
    """Resultant of two polynomials over Q via the Euclidean algorithm."""
    a = _poly_trim([Fraction(x) for x in a])
    b = _poly_trim([Fraction(x) for x in b])
    if not a or not b:
        return Fraction(0)
    res = Fraction(1)
    while True:
        da, db = len(a) - 1, len(b) - 1
        if db == 0:
            return res * b[0] ** da
        _, r = _poly_divmod(a, b)
        if not r:
            return Fraction(0)
        dr = len(r) - 1
        res *= Fraction(-1) ** (da * db) * b[-1] ** (da - dr)
        a, b = b, r


# --------------------------------------------------------------------------
# Field context
# --------------------------------------------------------------------------


class FieldContext:
    """Field K with an ell-adic valuation and a chosen primitive p-th root
    of unity.

    Elements are ``Fraction`` (rational flavour) or tuples of ``Fraction``
    of length p - 1 (cyclotomic flavours).  Use :func:`field_context` to
    construct instances.
    """

    def __init__(self, p: int, ell: int):
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
                f"no supported valued field contains a primitive {p}-th root "
                f"of unity for residue characteristic {ell}"
            )
        # The separation radius v(p)/(p-1), the radius of the fixed tube of
        # an order-p map: zero unless the residue characteristic is p.
        self.rho: Fraction = Fraction(1, p - 1) if ell == p else Fraction(0)
        # cyclotomic polynomial 1 + x + ... + x^(p-1)
        self._phi = [Fraction(1)] * p if p > 2 else None
        self._root_lock = threading.Lock()
        self._root: int | None = None
        self._root_prec = 0
        self.zeta = self.zeta_power(1)

    # -- constructors ------------------------------------------------------

    def zero(self):
        if self.kind is FieldKind.RATIONAL:
            return Fraction(0)
        return (Fraction(0),) * self.degree

    def one(self):
        return self.from_fraction(Fraction(1))

    def from_fraction(self, q) -> object:
        q = Fraction(q)
        if self.kind is FieldKind.RATIONAL:
            return q
        return (q,) + (Fraction(0),) * (self.degree - 1)

    def zeta_power(self, n: int):
        """zeta_p^n in canonical form; zeta_2 = -1."""
        n %= self.p
        if self.kind is FieldKind.RATIONAL:
            return Fraction(-1) ** n
        if n == 0:
            return self.one()
        if n < self.p - 1:
            coeffs = [Fraction(0)] * self.degree
            coeffs[n] = Fraction(1)
            return tuple(coeffs)
        # x^(p-1) = -(1 + x + ... + x^(p-2))
        return (Fraction(-1),) * self.degree

    # -- predicates --------------------------------------------------------

    def is_zero(self, x) -> bool:
        if self.kind is FieldKind.RATIONAL:
            return x == 0
        return all(c == 0 for c in x)

    def is_rational(self, x) -> bool:
        if self.kind is FieldKind.RATIONAL:
            return True
        return all(c == 0 for c in x[1:])

    def as_fraction(self, x) -> Fraction:
        if self.kind is FieldKind.RATIONAL:
            return x
        if not self.is_rational(x):
            raise ValueError("element is not rational")
        return x[0]

    # -- arithmetic --------------------------------------------------------

    def add(self, x, y):
        if self.kind is FieldKind.RATIONAL:
            return x + y
        return tuple(a + b for a, b in zip(x, y))

    def sub(self, x, y):
        if self.kind is FieldKind.RATIONAL:
            return x - y
        return tuple(a - b for a, b in zip(x, y))

    def neg(self, x):
        if self.kind is FieldKind.RATIONAL:
            return -x
        return tuple(-a for a in x)

    def mul(self, x, y):
        if self.kind is FieldKind.RATIONAL:
            return x * y
        prod = _poly_mul(list(x), list(y))
        return self._reduce(prod)

    def inv(self, x):
        if self.is_zero(x):
            raise FieldDivisionError("inversion of zero")
        if self.kind is FieldKind.RATIONAL:
            return Fraction(1) / x
        # extended Euclid against the cyclotomic polynomial
        g, s = self._half_xgcd(list(x))
        if len(g) != 1:
            raise ArithmeticError("cyclotomic polynomial is not irreducible?")
        inv_scale = Fraction(1) / g[0]
        return self._reduce([c * inv_scale for c in s])

    def div(self, x, y):
        return self.mul(x, self.inv(y))

    def _reduce(self, poly: list) -> tuple:
        _, r = _poly_divmod(poly, self._phi)
        r = list(r) + [Fraction(0)] * (self.degree - len(r))
        return tuple(r[: self.degree])

    def _half_xgcd(self, a: list) -> tuple[list, list]:
        # returns (g, s) with g = gcd(a, phi) and s*a = g (mod phi)
        r0, r1 = self._phi[:], _poly_trim([Fraction(c) for c in a])
        s0, s1 = [], [Fraction(1)]
        while r1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            qs = _poly_mul(q, s1)
            news = _poly_trim(
                [
                    (s0[i] if i < len(s0) else Fraction(0))
                    - (qs[i] if i < len(qs) else Fraction(0))
                    for i in range(max(len(s0), len(qs), 1))
                ]
            )
            s0, s1 = s1, news
        return r0, s0

    # -- the valuation -----------------------------------------------------

    def valuation(self, x) -> Val:
        """v(x): multiplicative, ultrametric, v(0) = +infinity."""
        if self.is_zero(x):
            return INF
        if self.kind is FieldKind.RATIONAL:
            return Val.of(
                int_valuation(x.numerator, self.ell)
                - int_valuation(x.denominator, self.ell)
            )
        # clear denominators: x = A(zeta) / L with A integral
        dens = [c.denominator for c in x]
        lcm = 1
        for d in dens:
            lcm = lcm * d // gcd(lcm, d)
        coeffs = [int(c * lcm) for c in x]
        shift = int_valuation(lcm, self.ell)
        if self.kind is FieldKind.CYCLOTOMIC_RAMIFIED:
            res = _resultant(self._phi, [Fraction(c) for c in coeffs])
            num = int_valuation(res.numerator, self.p)
            return Val(Fraction(num, self.p - 1) - shift)
        return Val(Fraction(self._split_valuation(coeffs) - shift))

    def _split_valuation(self, coeffs: list[int]) -> int:
        res = _resultant(self._phi, [Fraction(c) for c in coeffs])
        assert res != 0, "nonzero reduced element has zero norm"
        bound = int_valuation(res.numerator, self.ell)
        prec = bound + 1
        root = self._lifted_root(prec)
        modulus = self.ell**prec
        value = 0
        for c in reversed(coeffs):
            value = (value * root + c) % modulus
        assert value != 0
        return int_valuation(value, self.ell)

    def _lifted_root(self, prec: int) -> int:
        """A root of the cyclotomic polynomial in Z/ell^prec, Hensel-lifted."""
        with self._root_lock:
            if self._root is None:
                r = next(
                    r
                    for r in range(2, self.ell)
                    if self._phi_int(r, self.ell) == 0
                )
                self._root, self._root_prec = r, 1
            while self._root_prec < prec:
                k = min(2 * self._root_prec, prec)
                mod = self.ell**k
                r = self._root
                fr = self._phi_int(r, mod)
                dfr = self._dphi_int(r, mod)
                r = (r - fr * pow(dfr, -1, mod)) % mod
                self._root, self._root_prec = r, k
            return self._root % (self.ell**prec)

    def _phi_int(self, r: int, mod: int) -> int:
        value = 0
        for _ in range(self.p):
            value = (value * r + 1) % mod
        return value

    def _dphi_int(self, r: int, mod: int) -> int:
        value = 0
        for k in range(self.p - 1, 0, -1):
            value = (value + k * pow(r, k - 1, mod)) % mod
        return value

    # -- presentation ------------------------------------------------------

    def to_str(self, x) -> str:
        if self.kind is FieldKind.RATIONAL or self.is_rational(x):
            return format_fraction(self.as_fraction(x))
        return "[" + ",".join(format_fraction(c) for c in x) + "]"

    def __repr__(self):
        return f"FieldContext(p={self.p}, ell={self.ell}, {self.kind.value})"


def field_context(p: int, ell: int) -> FieldContext:
    """The valued field for superelliptic degree p and residue characteristic ell."""
    return FieldContext(p, ell)


def format_fraction(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return int_to_decimal(q.numerator)
    return f"{int_to_decimal(q.numerator)}/{int_to_decimal(q.denominator)}"


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
