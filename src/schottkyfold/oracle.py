"""Brute-force group-word audit of a paired configuration.

The g+1 order-p maps fixing the pairs generate a group whose index-p
subgroup consists of the words with exponent sum divisible by p.  A
configuration is good exactly when every nontrivial element of that
subgroup is loxodromic, so enumerating reduced words up to a length bound
and classifying their matrices falsifies goodness whenever a short
non-loxodromic element exists.  The audit is a falsifier, not a decider:
no a-priori bound on the length of a witness is known.

Words are visited in length-lexicographic order and the first witness in
that order is returned, which keeps recorded results stable.  Identity
evaluations are collected separately as relation witnesses.

:func:`schottky_audit` walks the words one length at a time on integer
matrices: the generators are lowered once to integral entries, each prefix
is composed once from its parent and divided by its integer content, and a
word is classified from its integer trace and the cached valuations of the
determinants, with the Newton polygon rule of
:func:`~.projline.is_loxodromic`.  Cyclic rotations of a word are not
merged; they classify alike and are all counted.
:func:`enumerate_gamma_words`, :func:`word_matrix` and
:func:`~.projline.classify` give the same verdicts word by word and serve
as its reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .clusters import PairedConfiguration
from .projline import (
    ElementClass,
    MapKind,
    Mobius,
    compose,
    is_loxodromic,
    order_p_fixing,
)
from .valfield import int_valuation


@dataclass(frozen=True)
class GroupWord:
    """A reduced word: syllables (generator index, exponent in 1..p-1)."""

    syllables: tuple[tuple[int, int], ...]

    def __repr__(self):
        return "*".join(
            f"s{i}" + (f"^{e}" if e != 1 else "") for i, e in self.syllables
        )


def enumerate_gamma_words(g: int, p: int, max_len: int) -> Iterator[GroupWord]:
    """All reduced words of syllable length <= max_len whose exponent sum is
    divisible by p, in length-lexicographic order, each exactly once.

    Cyclic rotations and conjugates are not deduplicated; they classify
    identically, so the redundancy is harmless at this scale.
    """
    for length in range(1, max_len + 1):
        # depth-first in lexicographic syllable order, fixed length
        def rec(prefix: list[tuple[int, int]], total: int):
            if len(prefix) == length:
                if total % p == 0:
                    yield GroupWord(tuple(prefix))
                return
            for idx in range(g + 1):
                if prefix and prefix[-1][0] == idx:
                    continue
                for exp in range(1, p):
                    prefix.append((idx, exp))
                    yield from rec(prefix, total + exp)
                    prefix.pop()

        yield from rec([], 0)


def pair_generators(pcfg: PairedConfiguration) -> list[list[Mobius]]:
    """gens[i][e-1] = the e-th power of the order-p map fixing pair i."""
    out = []
    for a, b in pcfg.pairs:
        if a.is_infinity:
            a, b = b, a
        out.append(
            [order_p_fixing(pcfg.ctx, a, b, e) for e in range(1, pcfg.ctx.p)]
        )
    return out


def word_matrix(pcfg: PairedConfiguration, word: GroupWord) -> Mobius:
    gens = pair_generators(pcfg)
    m = None
    for idx, exp in word.syllables:
        factor = gens[idx][exp - 1]
        m = factor if m is None else compose(m, factor)
    if m is None:
        raise ValueError("empty word")
    return m


def _det(ring, m: tuple):
    a, b, c, d = m
    return ring.sub(ring.mul(a, d), ring.mul(b, c))


def _product(ring, m: tuple, n: tuple) -> tuple:
    """The integer matrix product m n."""
    mul, add = ring.mul, ring.add
    a, b, c, d = m
    w, x, y, z = n
    return (
        add(mul(a, w), mul(b, y)),
        add(mul(a, x), mul(b, z)),
        add(mul(c, w), mul(d, y)),
        add(mul(c, x), mul(d, z)),
    )


@dataclass(frozen=True)
class AuditResult:
    witness: Optional[tuple[GroupWord, ElementClass]]
    relations: tuple[GroupWord, ...]
    words_checked: int


def schottky_audit(pcfg: PairedConfiguration, max_len: int) -> AuditResult:
    """First non-loxodromic, non-identity word up to the length bound, if any.

    The words of :func:`enumerate_gamma_words` are visited in the same
    order and counted in ``words_checked`` up to and including the witness;
    identity words go to ``relations``.  The walk runs on integers from
    start to end:

    * **lowering** -- each generator matrix is brought once to integral
      entries over one common denominator (``int`` over Q, the p - 1
      integer coefficients of A(zeta) over Q(zeta_p)); the denominator is
      a scalar and is dropped.  Each generator's det and v(det) are
      computed then;
    * **prefixes** -- the walk goes one length at a time over a list of
      prefixes, each with its integer matrix, exponent sum mod p and
      v(det).  A prefix is composed once, from its parent, and divided by
      the integer content of its entries: a scalar, which would otherwise
      grow with the length.  Its v(det) is the parent's plus the last
      generator's, less twice v(content).  Only one level is held at a
      time;
    * **closing** -- a word's last exponent is forced to close the exponent
      sum, so a prefix whose sum is already 0 mod p ends no word of the
      next length, the last level keeps only prefixes that can close, and
      the walk stops at the longest length that holds a word (for p = 2,
      the largest even length <= ``max_len``);
    * **classifying** -- a word M G (prefix M, last syllable G) has trace
      tr(M G), four products, and v(det) = v(det M) + v(det G) from the
      cached values; :func:`~.projline.is_loxodromic` applies the Newton
      polygon rule to them.  A word it does not call loxodromic is tested
      for tr^2 = 4 det exactly on integers, and a parabolic one is a
      relation when the integer product M G is scalar (b = c = 0, a = d).

    Every test is unchanged when a matrix is scaled, so the verdicts are
    those of :func:`~.projline.classify` on the normalised products.
    """
    ctx = pcfg.ctx
    g, p = pcfg.g, ctx.p
    last = max_len - max_len % 2 if p == 2 else max_len
    ring = ctx.integers
    mul, add, zero = ring.mul, ring.add, ring.zero
    # valuations are counted in steps of the value group (1/e) Z; a content
    # k is an integer and v(ell) = 1, so k is worth e v_ell(k) steps
    valuation = ctx.integral_valuation
    step = ctx.ramification

    # gens[idx][exp - 1] = (integer matrix, det, v(det)) of the exp-th power
    # of generator idx
    gens = []
    for row in pair_generators(pcfg):
        lowered = [tuple(ctx.lower(m.entries())[0]) for m in row]
        dets = [_det(ring, m) for m in lowered]
        gens.append([(m, d, valuation(d)) for m, d in zip(lowered, dets)])
    relations: list[GroupWord] = []
    checked = 0

    # prefixes of the current length: (syllables, integer matrix, exponent
    # sum mod p, v(det))
    level = [
        (((idx, exp),), gens[idx][exp - 1][0], exp, gens[idx][exp - 1][2])
        for idx in range(g + 1)
        for exp in range(1, p)
    ]
    for length in range(2, last + 1):
        for prefix, m, total, v_det in level:
            exp = -total % p
            if exp == 0:
                continue
            a, b, c, d = m
            end = prefix[-1][0]
            for idx in range(g + 1):
                if idx == end:
                    continue
                checked += 1
                gen, det_gen, v_det_gen = gens[idx][exp - 1]
                w, x, y, z = gen
                tr = add(add(mul(a, w), mul(b, y)), add(mul(c, x), mul(d, z)))
                if tr != zero and is_loxodromic(valuation(tr), v_det + v_det_gen):
                    continue
                word = GroupWord(prefix + ((idx, exp),))
                if mul(tr, tr) != ring.times(mul(_det(ring, m), det_gen), 4):
                    cls = ElementClass(MapKind.ELLIPTIC)
                else:
                    cls = ElementClass(MapKind.PARABOLIC)
                    a_, b_, c_, d_ = _product(ring, m, gen)
                    if b_ == zero and c_ == zero and a_ == d_:
                        relations.append(word)
                        continue
                return AuditResult((word, cls), tuple(relations), checked)
        if length < last:
            # the next level; on the last one a prefix must be able to close
            closing = length + 1 == last
            nxt = []
            for prefix, m, total, v_det in level:
                end = prefix[-1][0]
                for idx in range(g + 1):
                    if idx == end:
                        continue
                    for exp in range(1, p):
                        if closing and (total + exp) % p == 0:
                            continue
                        gen, _, v_det_gen = gens[idx][exp - 1]
                        product = _product(ring, m, gen)
                        k = ring.content(product)
                        nxt.append((
                            prefix + ((idx, exp),),
                            ring.divide(product, k),
                            (total + exp) % p,
                            v_det + v_det_gen - 2 * step * int_valuation(k, ctx.ell),
                        ))
            level = nxt
    return AuditResult(None, tuple(relations), checked)
