"""
Valued fields and exact valuations
==================================

Every computation in the library happens over a field K that carries a
discrete valuation and a primitive p-th root of unity.  This walkthrough
builds the three supported flavours and inspects their valuations.
"""

from fractions import Fraction

from schottkyfold import field_context

# For p = 2 the root of unity is -1, so plain rationals suffice.  The
# residue characteristic ell is free, including ell = 2 itself.
ctx = field_context(p=2, ell=5)
print("5-adic valuations over Q:")
for x in (350, 625, Fraction(224, 935), Fraction(1, 125)):
    print(f"  v({x}) =", ctx.valuation(ctx.from_fraction(x)))

# The valuation of zero is the infinite sentinel.
print("  v(0) =", ctx.valuation(ctx.from_fraction(0)))

# The separation radius v(p)/(p-1) measures how thick the fixed locus of
# an order-p map is.  It vanishes unless ell = p.  A context counts it in
# steps of the value group (1/e) Z, e the ramification index.
for p, ell in ((2, 5), (2, 2), (3, 3), (3, 7)):
    c = field_context(p, ell)
    print(f"separation radius for (p={p}, ell={ell}):", Fraction(c.rho_steps, c.ramification))

# Odd p needs the cyclotomic field Q(zeta_p).  When ell = 1 (mod p) the
# cyclotomic polynomial splits ell-adically and a valuation is read off by
# evaluating at a p-th root of unity in Z_ell (a power of a^((ell-1)/p) mod
# ell, lifted to ell^k) modulo ell^4, ell^8, ... until the value is
# nonzero; when ell = p the extension is totally ramified, pi =
# 1 - zeta generates the prime, and the valuation counts exact divisions
# by pi, each worth 1/(p - 1).  An element is its tuple of coefficients in
# the basis 1, zeta, so zeta - 1 takes 1 off the first one.
split = field_context(p=3, ell=7)
zeta = (Fraction(0), Fraction(1))
print("zeta_3 lives as the coefficient tuple", zeta)
zeta_minus_one = (zeta[0] - 1, *zeta[1:])
print("v(zeta_3 - 1) over the 7-adics:", split.valuation(zeta_minus_one))

# The same element of Q(zeta_3), valued at the prime above 3 instead.
ramified = field_context(p=3, ell=3)
print("v(zeta_3 - 1) over the 3-adics:", ramified.valuation(zeta_minus_one))
print("v(3) over the 3-adics:", ramified.valuation(ramified.from_fraction(3)))
