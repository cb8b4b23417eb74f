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

:func:`schottky_audit` classifies one word per conjugacy class up to
inversion.  Trace and determinant valuations do not change under
conjugation, and a map and its inverse have the same class.  A word that
is not cyclically reduced, or is not the least of its cyclic rotations,
is conjugate to a word met earlier in the order; a word that a rotation
of its inverse precedes is the inverse of a conjugate of that earlier
word; and a power u^k of an earlier word u of the subgroup is loxodromic
when u is.  While all the
words met so far are loxodromic such a word is loxodromic too, so only
the least rotations of cyclically reduced words are classified, less
those whose inverse has a rotation that two syllables put earlier, and
less the powers of shorter words of the subgroup.  ``words_checked``
still counts every word up to the witness, in closed form.  The walk runs
on integer matrices that :func:`~.projline.order_p_matrix` builds, as for
the fold step, from all the points lowered once over one common
denominator (:func:`_lowered_pairs`, which :func:`word_matrix` reads too,
building only the generator powers its word names).  It composes each
prefix once from its parent (except the prefixes one syllable short of
the longest words, which close on a cached product of two generators),
divides by its content only a prefix that it extends further, and
classifies a word from its integer trace and the cached valuations of
the determinants, with the Newton polygon rule of
:func:`~.projline.is_loxodromic`.  Every product, trace and determinant is
one fused kernel of the integer ring.  :func:`word_matrix` and
:func:`~.projline.classify` give the same verdicts word by word.
"""

from __future__ import annotations

from functools import reduce
from typing import NamedTuple, Optional

from .clusters import PairedConfiguration
from .errors import RepeatedPointsError
from .projline import (
    ElementClass,
    MapKind,
    Mobius,
    compose,
    integer_map,
    is_loxodromic,
    order_p_matrix,
)
from .valfield import int_valuation


class GroupWord(NamedTuple):
    """A reduced word: syllables (generator index, exponent in 1..p-1)."""

    syllables: tuple[tuple[int, int], ...]

    def __repr__(self):
        return "*".join(
            f"s{i}" + (f"^{e}" if e != 1 else "") for i, e in self.syllables
        )


def _exponent_tuples(p: int, r: int, s: int) -> int:
    """The number of r-tuples of exponents in 1..p-1 with sum s mod p.

    This solves E(0, s) = [s = 0], E(r + 1, s) = (p - 1)^r - E(r, s)."""
    return ((p - 1) ** r + (-1) ** r * (p - 1 if s % p == 0 else -1)) // p


def _word_count(g: int, p: int, max_len: int) -> int:
    """The number of reduced words of syllable length <= max_len whose
    exponent sum is divisible by p: g + 1 first indices, then g per
    syllable, times the exponent tuples summing to 0."""
    return sum(
        (g + 1) * g ** (k - 1) * _exponent_tuples(p, k, 0)
        for k in range(1, max_len + 1)
    )


def _word_position(g: int, p: int, word: GroupWord) -> int:
    """The position, from 1, of a word among the words :func:`_word_count`
    counts, in length-lexicographic order: every shorter word, then each
    word of its length that leaves the word's prefix at a smaller
    syllable, counted by its completions."""
    syllables = word.syllables
    position = _word_count(g, p, len(syllables) - 1) + 1
    total, prev = 0, None
    for k, (idx, exp) in enumerate(syllables):
        left = len(syllables) - k - 1
        for i in range(idx + 1):
            if i == prev:
                continue
            for e in range(1, p if i < idx else exp):
                position += g**left * _exponent_tuples(p, left, -(total + e))
        total, prev = total + exp, idx
    return position


def _det(ring, m: tuple):
    a, b, c, d = m
    return ring.cross(a, d, b, c)


def _lowered_pairs(pcfg: PairedConfiguration) -> tuple[list[list], int]:
    """Each pair's finite points as integral numerators over one common
    denominator L, and L: every finite point of the configuration is
    lowered by one call, and an infinite point is dropped.  A pair of two
    infinities, or of two equal numerators, is refused
    (RepeatedPointsError)."""
    ints, den = pcfg.ctx.lower([pt.value for pt in pcfg.points() if not pt.is_infinity])
    lowered = iter(ints)
    pairs = [[next(lowered) for pt in pair if not pt.is_infinity] for pair in pcfg.pairs]
    if any(not pair or len(pair) == 2 and pair[0] == pair[1] for pair in pairs):
        raise RepeatedPointsError("order-p map needs two distinct fixed points")
    return pairs, den


def word_matrix(pcfg: PairedConfiguration, word: GroupWord) -> Mobius:
    """The word's map, its generator powers built once from
    :func:`_lowered_pairs` and composed.  A syllable (k, n) is the n-th
    power of the order-p map fixing pair k, whose multiplier at the pair's
    finite first point is zeta_p^n (a pair (infinity, x) is read as (x,
    infinity)): the orientation the folding test certifies."""
    if not word.syllables:
        raise ValueError("empty word")
    ctx = pcfg.ctx
    pairs, den = _lowered_pairs(pcfg)
    factors = {
        (idx, exp): integer_map(ctx, *order_p_matrix(ctx, pairs[idx], den, exp))
        for idx, exp in set(word.syllables)
    }
    return reduce(compose, [factors[syllable] for syllable in word.syllables])


class AuditResult(NamedTuple):
    witness: Optional[tuple[GroupWord, ElementClass]]
    relations: tuple[GroupWord, ...]
    words_checked: int


def schottky_audit(pcfg: PairedConfiguration, max_len: int) -> AuditResult:
    """First non-loxodromic, non-identity word up to the length bound, if any.

    The result is that of classifying, in length-lexicographic order, every
    reduced word of syllable length <= ``max_len`` whose exponent sum is
    divisible by p: ``words_checked`` counts them up to and including the
    witness, and identity words go to ``relations``.  Only one word per
    conjugacy class is classified:

    * **skip rule** -- while no relation has been found, a word is
      classified only when it is cyclically reduced (first and last
      generator differ) and no cyclic rotation of it is lexicographically
      smaller.  Any other word w is conjugate to an earlier one: if w =
      s^a u s^b, to u (a + b = 0 mod p) or u s^(a+b), which are shorter;
      otherwise to its least rotation, of the same length and earlier in
      lexicographic order.  Inductively every earlier word is loxodromic,
      so w is, and the first non-loxodromic word is always classified.
      ``words_checked`` is then computed in closed form, as the position
      of the witness in the order (or the count of all the words);
    * **inverse rule** -- the same induction skips a least rotation w =
      w_0 ... w_(n-1) when a rotation of w^-1, a word of the same length
      and class, is smaller; it is decided on two syllables.  The inverse
      of a syllable (i, e) is (i, p - e), and the rotation of w^-1 that
      starts at inv(w_k) reads inv(w_k), inv(w_(k-1)), ...  As every
      syllable of w is at least w_0, inv(w_k) < w_0 needs w_k to carry
      w_0's index, so never at k = 1 or k = n - 1.  A first syllable with
      2e > p starts no word; a syllable w_k, 2 <= k <= n - 2, of w_0's
      index is dropped with all its extensions when inv(w_k) < w_0, or
      inv(w_k) = w_0 and inv(w_(k-1)) < w_1; and when w_0 is its own
      inverse (p = 2), a last syllable c is skipped when inv(c) < w_1;
    * **powers rule** -- a least rotation that is a power u^k (k >= 2)
      of its Lyndon prefix u is skipped when u's exponent sum is 0 mod
      p: u is then an earlier word of the subgroup, and u^k is
      loxodromic when u is;
    * **necklaces** -- a least rotation is a necklace, so every prefix of
      it is a prenecklace: a word whose syllable after its longest Lyndon
      prefix of length q repeats the syllable q places back or exceeds
      it.  Only prenecklaces are built, each with its q; a word closing
      one is a necklace when its last syllable exceeds that syllable, or
      equals it and q divides the length;
    * **relations** -- an identity word breaks the induction, so the walk
      then starts again with skipping off, classifies every word and
      lists every identity word in order.  This takes degenerate input,
      such as a duplicated pair.

    The walk runs on integers from start to end:

    * **generators** -- each generator matrix is built once in
      ``ctx.integers`` from the points, all lowered by one call over one
      common denominator (:func:`_lowered_pairs`), with its det and v(det);
    * **prefixes** -- the walk goes one length at a time over a list of
      prefixes, each with its integer matrix, exponent sum mod p and
      v(det).  A prefix is composed once, from its parent, with the ring's
      ``matmul``.  A prefix that the walk extends is divided by the
      integer content of its entries, a scalar that would otherwise grow
      with the length, and its v(det) is the parent's plus the last
      generator's, less twice v(content).  The last multiplied level, of
      length ``last`` - 2, is extended by no product, so its prefixes keep
      their content and their v(det) is the plain sum.  Only one level is
      held at a time;
    * **closing** -- a word's last exponent is forced to close the exponent
      sum, so a prefix whose sum is already 0 mod p ends no word of the
      next length, and the walk stops at the longest length that holds a
      word, ``last`` (for p = 2, the largest even length <= ``max_len``).
      The level of length ``last`` - 1 keeps only prefixes that can close,
      and multiplies nothing: each entry keeps its parent's matrix P and
      v(det P), and its own last syllable s.  Its words close on the
      products G_s G_t of two generators, each built once per audit call
      with its det and v(det), so there are at most ((g+1)(p-1))^2 of them;
    * **classifying** -- a word M C (M the prefix's matrix, or P on the
      closing level; C the last generator G, or G_s G_t) has trace
      tr(M C), one ``trace_mul``, and v(det) = v(det M) + v(det C) from
      the cached values.  M and C are not normalised together, so the
      trace and the det share one scale; :func:`~.projline.is_loxodromic`
      applies the Newton polygon rule to them.  Only a word it does not
      call loxodromic is tested for tr^2 = 4 det(M) det(C) exactly on
      integers, and a parabolic one is a relation when the product M C,
      built for it alone, is scalar (b = c = 0, a = d).

    Every test is unchanged when a matrix is scaled, so the verdicts are
    those of :func:`~.projline.classify` on the normalised products.
    """
    ctx = pcfg.ctx
    g, p = pcfg.g, ctx.p
    last = max_len - max_len % 2 if p == 2 else max_len
    ring, valuation = ctx.integers, ctx.integral_valuation
    pair_ints, den = _lowered_pairs(pcfg)
    # gens[idx][n - 1] = (M, det M, e v(det M)) for the n-th power of
    # generator idx; M is a scalar multiple of its matrix
    gens = []
    for ints in pair_ints:
        row = []
        for n in range(1, p):
            m, _ = order_p_matrix(ctx, ints, den, n)
            det = _det(ring, m)
            row.append((m, det, valuation(det)))
        gens.append(row)
    pairs: dict = {}
    witness, relations = (
        _walk(ctx, gens, last, True, pairs) or _walk(ctx, gens, last, False, pairs)
    )
    if witness is None:
        checked = _word_count(g, p, last)
    else:
        checked = _word_position(g, p, witness[0])
    return AuditResult(witness, tuple(relations), checked)


def _walk(ctx, gens: list, last: int, necklaces: bool, pairs: dict):
    """(witness, relations) over the words of length 2..last, in order.

    With ``necklaces`` only the words the skip, inverse and powers rules
    of :func:`schottky_audit` keep are classified, and meeting an identity
    word returns None.
    Syllables are coded as idx p + exp, which orders them as (idx, exp).
    ``pairs`` memoises the two-generator products of the closing level.
    A prefix is divided by its content only when a later level multiplies
    it again: the products of the last multiplied level are read only by
    tests that a scalar does not change (the trace's and det's valuations,
    tr^2 = 4 det and the scalar test).
    """
    p = ctx.p
    ring = ctx.integers
    matmul, trace_mul, mul, zero = ring.matmul, ring.trace_mul, ring.mul, ring.zero
    # valuations are counted in steps of the value group (1/e) Z; a content
    # k is an integer and v(ell) = 1, so k is worth e v_ell(k) steps
    valuation, step = ctx.integral_valuation, ctx.ramification
    relations: list[GroupWord] = []

    def pair(s: int, t: int) -> tuple:
        """(G_s G_t, det, e v(det)) for syllable codes s and t."""
        hit = pairs.get((s, t))
        if hit is None:
            g_s, det_s, v_s = gens[s // p][s % p - 1]
            g_t, det_t, v_t = gens[t // p][t % p - 1]
            hit = pairs[s, t] = (matmul(g_s, g_t), mul(det_s, det_t), v_s + v_t)
        return hit

    # prefixes of the current length: (syllable codes, integer matrix,
    # exponent sum mod p, e v(det), length of the longest Lyndon prefix);
    # on the closing level the matrix and e v(det) are the parent's
    level = [
        ((idx * p + exp,), gen, exp, v_det, 1)
        for idx, row in enumerate(gens)
        for exp, (gen, _, v_det) in enumerate(row, 1)
        if not necklaces or 2 * exp <= p
    ]
    closing = False
    for length in range(2, last + 1):
        n = length - 1
        for prefix, m, total, v_det, lyndon in level:
            exp = -total % p
            if exp == 0:
                continue
            end = prefix[-1] // p
            # a syllable code is >= 1: with ref 0 and first -1 nothing is skipped
            ref, first = (prefix[n - lyndon], prefix[0] // p) if necklaces else (0, -1)
            # for p = 2 a syllable is its own inverse: the rotation of the
            # inverse from w_0 reads w_0, then the closer
            low = max(ref, prefix[1]) if necklaces and p == 2 and n > 1 else ref
            for idx, row in enumerate(gens):
                code = idx * p + exp
                if idx == end or idx == first or code < low:
                    continue
                # a power u^k of its Lyndon prefix u: skipped when u's
                # exponent sum, so u is a word of the subgroup, is 0 mod p
                if code == ref and (
                    length % lyndon or sum(s % p for s in prefix[:lyndon]) % p == 0
                ):
                    continue
                # the word is m times its closer: the last generator, or on
                # the closing level the last two
                closer, det_closer, v_det_closer = (
                    pair(prefix[-1], code) if closing else row[exp - 1]
                )
                tr = trace_mul(m, closer)
                if tr != zero and is_loxodromic(valuation(tr), v_det + v_det_closer):
                    continue
                word = GroupWord(tuple(divmod(s, p) for s in prefix + (code,)))
                if mul(tr, tr) != ring.times(mul(_det(ring, m), det_closer), 4):
                    cls = ElementClass(MapKind.ELLIPTIC)
                else:
                    cls = ElementClass(MapKind.PARABOLIC)
                    a, b, c, d = matmul(m, closer)
                    if b == zero and c == zero and a == d:
                        if necklaces:
                            return None
                        relations.append(word)
                        continue
                return (word, cls), relations
        if length < last:
            # the next level; on the last one a prefix must be able to close,
            # and it keeps its parent's matrix rather than a product, so the
            # level before it, the last multiplied, is not divided
            closing = length + 1 == last
            final = length + 2 == last
            nxt = []
            for prefix, m, total, v_det, lyndon in level:
                end = prefix[-1] // p
                ref = prefix[n - lyndon] if necklaces else 0
                lead = prefix[0] // p if necklaces else -1
                for idx in range(ref // p, len(gens)):
                    if idx == end:
                        continue
                    # a syllable w_k of w_0's index keeps inv(w_k) >= w_0
                    # while exp <= p - e_0, and at equality needs
                    # inv(w_(k-1)) >= w_1; the inverse of code c is
                    # c + p - 2 (c mod p)
                    top = p
                    if idx == lead:
                        top = p + 1 - prefix[0] % p
                        if prefix[-1] + p - 2 * (prefix[-1] % p) < prefix[1]:
                            top -= 1
                    for exp in range(1, top):
                        code = idx * p + exp
                        if code < ref or closing and (total + exp) % p == 0:
                            continue
                        extended, total_next = prefix + (code,), (total + exp) % p
                        lyndon_next = lyndon if code == ref else length
                        if closing:
                            nxt.append((extended, m, total_next, v_det, lyndon_next))
                            continue
                        gen, _, v_det_gen = gens[idx][exp - 1]
                        product, v_next = matmul(m, gen), v_det + v_det_gen
                        if not final:
                            k = ring.content(product)
                            product = ring.divide(product, k)
                            v_next -= 2 * step * int_valuation(k, ctx.ell)
                        nxt.append((extended, product, total_next, v_next, lyndon_next))
            level = nxt
    return None, relations
