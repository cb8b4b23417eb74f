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
one fused kernel of the integer ring.  Which words are classified and
which prefixes are composed depends only on the number of generators, p
and the length bound, never on the matrices: that schedule, a plan, is
worked out from syllable codes once per shape, level by level and only as
deep as some walk has gone, and replayed on each call's integer
generators.  A plan is plain data, its levels as lists of slots and codes,
kept in a cache of a fixed number of plans for the life of the process;
a walk that needs a level the cache lacks plans it and publishes it whole.
:func:`word_matrix` and :func:`~.projline.classify` give the same verdicts
word by word.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import islice
from typing import NamedTuple, Optional

from .clusters import PairedConfiguration
from .errors import InvalidInputError, RepeatedPointsError
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
    syllable, times the exponent tuples summing to 0.

    With q = p - 1 the words of length k number (g + 1) g^(k-1) (q^k +
    (-1)^k q) / p = (g + 1) ((g q)^k + q (-g)^k) / (g p), so the count is
    two geometric sums; for g = 0 every word has one syllable, whose
    exponent is not 0 mod p."""
    if g == 0 or max_len <= 0:
        return 0
    q = p - 1
    x, y = g * q, -g
    powers = max_len if x == 1 else x * (x**max_len - 1) // (x - 1)
    signed = y * (y**max_len - 1) // (y - 1)
    return (g + 1) * (powers + q * signed) // (g * p)


def _word_position(g: int, p: int, word: GroupWord) -> int:
    """The position, from 1, of a word among the words :func:`_word_count`
    counts, in length-lexicographic order: every shorter word, then each
    word of its length that leaves the word's prefix at a smaller
    syllable, counted by its completions.  A smaller syllable of a smaller
    index i (not the previous one) takes any exponent, so its completions
    are all the exponent tuples but those that sum to minus the prefix's
    sum."""
    syllables = word.syllables
    n = len(syllables)
    position = _word_count(g, p, n - 1) + 1
    total, prev = 0, -1
    for k, (idx, exp) in enumerate(syllables, 1):
        left = n - k
        tuples = (idx - (0 <= prev < idx)) * ((p - 1) ** left - _exponent_tuples(p, left, -total))
        for e in range(1, exp):
            tuples += _exponent_tuples(p, left, -(total + e))
        position += g**left * tuples
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
    infinity)): the orientation the folding test certifies.  An empty
    word, or a syllable whose index is not a pair's or whose exponent is
    not in 1..p-1, is refused (InvalidInputError)."""
    ctx = pcfg.ctx
    indices, exps = range(len(pcfg.pairs)), range(1, ctx.p)
    if not word.syllables or any(idx not in indices or exp not in exps for idx, exp in word.syllables):
        raise InvalidInputError(f"not a word of the pairs' generators: {word.syllables!r}")
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
    reduced word of syllable length <= ``max_len`` (an ``int`` >= 0, or
    InvalidInputError) whose exponent sum is divisible by p:
    ``words_checked`` counts them up to and including the witness, and
    identity words go to ``relations``.  Only one word per conjugacy class
    is classified:

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

    These rules read syllable codes, never matrices, so which words are
    classified and which prefixes are multiplied depends only on the
    shape (g + 1, p, ``last``) and on whether skipping is on.  That
    schedule is a plan (:func:`_plan`), worked out once per shape, one
    length at a time and only as deep as some walk has gone, and kept as
    plain data, the levels planned so far, in a cache of the
    ``_PLAN_CACHE_SIZE`` plans used last; each call replays it on its own
    integer generators, and plans a level the cache lacks with a schedule
    of its own that ends with the call:

    * **generators** -- each generator matrix is built once in
      ``ctx.integers`` from the points, all lowered by one call over one
      common denominator (:func:`_lowered_pairs`), with its det and v(det);
    * **prefixes** -- the walk goes one length at a time over the plan's
      prefixes, each with its integer matrix and v(det).  The plan keeps
      every level it has built, each prefix as its parent's slot and its
      last syllable; the replay holds the matrices of one level at a time.
      A prefix is composed once, from its parent, with the ring's
      ``matmul``.  A prefix that the walk extends is divided by the
      integer content of its entries, a scalar that would otherwise grow
      with the length, and its v(det) is the parent's plus the last
      generator's, less twice v(content).  The last multiplied level, of
      length ``last`` - 2, is extended by no product, so its prefixes keep
      their content and their v(det) is the plain sum;
    * **closing** -- a word's last exponent is forced to close the exponent
      sum, so a prefix whose sum is already 0 mod p ends no word of the
      next length, and the walk stops at the longest length that holds a
      word, ``last`` (for p = 2, the largest even length <= ``max_len``).
      The level of length ``last`` - 1 keeps only prefixes that can close,
      and multiplies nothing: its words read the matrix P and v(det P) of
      their prefix's parent and close on the products G_s G_t of two generators,
      each built once per audit call with its det and v(det), so there are
      at most ((g+1)(p-1))^2 of them;
    * **classifying** -- a word M C (M the prefix's matrix, or P on the
      closing level; C the last generator G, or G_s G_t) has trace
      tr(M C), one ``trace_mul``, and v(det) = v(det M) + v(det C) from
      the cached values.  M and C are not normalised together, so the
      trace and the det share one scale; :func:`~.projline.is_loxodromic`
      applies the Newton polygon rule to them.  Only a word it does not
      call loxodromic is tested for tr^2 = 4 det(M) det(C) exactly on
      integers, and a parabolic one is a relation when the product M C,
      built for it alone, is scalar (b = c = 0, a = d).  Its
      :class:`GroupWord` is read off the plan's parent links.

    Every test is unchanged when a matrix is scaled, so the verdicts are
    those of :func:`~.projline.classify` on the normalised products.  A
    pairing with no pair has no generator and so no word.
    """
    if isinstance(max_len, bool) or not isinstance(max_len, int) or max_len < 0:
        raise InvalidInputError("the length bound must be an integer >= 0")
    ctx = pcfg.ctx
    g, p = pcfg.g, ctx.p
    if g < 0:
        return AuditResult(None, (), 0)
    last = max_len - max_len % 2 if p == 2 else max_len
    ring, valuation = ctx.integers, ctx.integral_valuation
    pair_ints, den = _lowered_pairs(pcfg)
    # gens[idx p + n] = (M, det M, e v(det M)) for the n-th power of
    # generator idx, M a scalar multiple of its matrix: indexed by syllable
    # code, so gens[idx p] is unused
    gens = [None] * (len(pair_ints) * p)
    for idx, ints in enumerate(pair_ints):
        for n in range(1, p):
            m, _ = order_p_matrix(ctx, ints, den, n)
            det = _det(ring, m)
            gens[idx * p + n] = (m, det, valuation(det))
    products = _Products()
    products.ring, products.gens = ring, gens
    witness, relations = (
        _walk(ctx, gens, last, True, products)
        or _walk(ctx, gens, last, False, products)
    )
    if witness is None:
        checked = _word_count(g, p, last)
    else:
        checked = _word_position(g, p, witness[0])
    return AuditResult(witness, tuple(relations), checked)


class _Products(dict):
    """(G_s G_t, det, e v(det)) for syllable codes s and t, by the key
    s len(gens) + t, each product built at its first lookup from ``ring``
    and the generator table ``gens``."""

    __slots__ = ("ring", "gens")

    def __missing__(self, key: int) -> tuple:
        s, t = divmod(key, len(self.gens))
        (g_s, det_s, v_s), (g_t, det_t, v_t) = self.gens[s], self.gens[t]
        hit = self[key] = (self.ring.matmul(g_s, g_t), self.ring.mul(det_s, det_t), v_s + v_t)
        return hit


# the number of plans kept, one per (generators, p, last, necklaces); the
# least recently used goes first
_PLAN_CACHE_SIZE = 16


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(ngens: int, p: int, last: int, necklaces: bool) -> list:
    """The walk's word schedule for ``ngens`` generators, p and ``last``,
    as plain data: which words :func:`_walk` classifies and which prefixes
    it multiplies, worked out from syllable codes alone.

    Syllables are coded as idx p + exp, which orders them as (idx, exp).
    With ``necklaces`` only the words the skip, inverse and powers rules of
    :func:`schottky_audit` keep are scheduled, otherwise every word is.
    The plan is the list [levels, first]: ``first`` lists the codes of the
    prefixes of length 1, in slot order, and ``levels`` is the tuple of the
    levels planned so far.  The level of a length 2..``last`` is four
    lists:

    * ``slots`` and ``keys``, its words: each as the slot of its prefix's
      matrix in the level before (on the closing level, the level before
      that) and its closer's code (there, the key s ngens p + t of the
      product G_s G_t);
    * ``parents`` and ``codes``, its prefixes, on a level the walk
      multiplies (length <= ``last`` - 2; else None): each as its parent's
      slot and its last syllable's code.

    The walk that needs a level past the tuple plans it and puts a longer
    tuple in the list, so the plan is only as deep as some walk has gone.
    Two walks that plan at once put equal levels, and a walk that reads
    the tuple once reads whole levels.
    """
    # a first syllable with 2 exp > p starts no necklace
    top = p // 2 + 1 if necklaces else p
    return [(), [idx * p + exp for idx in range(ngens) for exp in range(1, top)]]


def _schedule(ngens: int, p: int, last: int, necklaces: bool, first: list):
    """The levels of a :func:`_plan`, in order, from the prefixes of length 1
    whose codes ``first`` lists: for each length 2..``last``, the words of
    that length and the prefixes that extend the level before, both read
    off that level's prefixes in one pass.

    Each prefix of the deepest level is held as (syllable codes, exponent
    sum mod p, length q of its longest Lyndon prefix, that prefix's
    exponent sum mod p, slot of the matrix its words read); on the closing
    level, of length ``last`` - 1, which the walk does not multiply, that
    slot is the parent's.  They go once the words of length ``last`` are
    built.
    """
    size = ngens * p
    prefixes = [((code,), code % p, 1, code % p, slot) for slot, code in enumerate(first)]
    for length in range(2, last + 1):
        n = length - 1
        stride = size if length == last > 2 else 0
        closing = length + 1 == last
        slots, keys, parents, codes, nxt = [], [], [], [], []
        for parent, (prefix, total, lyndon, lyndon_total, slot) in enumerate(prefixes):
            tail = prefix[-1]
            end = tail // p
            # a syllable code is >= 1: with ref 0 and lead -1 nothing is skipped
            ref, lead = (prefix[n - lyndon], prefix[0] // p) if necklaces else (0, -1)
            # the words closing the prefix: the last exponent closes the sum
            exp = -total % p
            if exp:
                # for p = 2 a syllable is its own inverse: the rotation of
                # the inverse from w_0 reads w_0, then the closer
                low = max(ref, prefix[1]) if necklaces and p == 2 and n > 1 else ref
                # a power u^k of its Lyndon prefix u: skipped when u's
                # exponent sum, so u is a word of the subgroup, is 0 mod p
                power = ref if necklaces and (length % lyndon or lyndon_total == 0) else -1
                # the closer's index is neither the last nor, for a
                # cyclically reduced word, the first
                skip = (end * p + exp, lead * p + exp, power)
                base = tail * stride
                for code in range(exp if low <= exp else low + (exp - low) % p, size, p):
                    if code not in skip:
                        slots.append(slot)
                        keys.append(base + code)
            if length == last:
                continue
            # the prefixes extending it; on the closing level a prefix must
            # be able to close, and its words read its parent's matrix
            # rather than a product
            for idx in range(ref // p, ngens):
                if idx == end:
                    continue
                base = idx * p
                # a syllable w_k of w_0's index keeps inv(w_k) >= w_0 while
                # exp <= p - e_0, and at equality needs inv(w_(k-1)) >= w_1;
                # the inverse of code c is c + p - 2 (c mod p)
                top = base + p
                if idx == lead:
                    top -= prefix[0] % p - 1
                    if tail + p - 2 * (tail % p) < prefix[1]:
                        top -= 1
                for code in range(max(base + 1, ref), top):
                    total_next = (total + code - base) % p
                    if closing and total_next == 0:
                        continue
                    same = code == ref
                    nxt.append((
                        prefix + (code,),
                        total_next,
                        lyndon if same else length,
                        lyndon_total if same else total_next,
                        parent if closing else len(codes),
                    ))
                    if not closing:
                        parents.append(parent)
                        codes.append(code)
        if closing or length == last:
            parents = codes = None
        prefixes = nxt
        yield slots, keys, parents, codes


def _word(p: int, first: list, levels: tuple, slot: int, tail: tuple) -> GroupWord:
    """The word of the prefix in ``slot`` of the last of the multiplied
    ``levels`` (of the prefixes of length 1, ``first``, when there is
    none), followed by the syllable codes ``tail``: read off the parent
    links."""
    codes = []
    for _, _, parents, level_codes in reversed(levels):
        codes.append(level_codes[slot])
        slot = parents[slot]
    codes.append(first[slot])
    codes.reverse()
    codes += tail
    return GroupWord(tuple(map(divmod, codes, [p] * len(codes))))


def _walk(ctx, gens: list, last: int, necklaces: bool, products: _Products):
    """(witness, relations): the words of the plan of ``gens``'s shape,
    ``last`` and ``necklaces`` classified in order, on the generator table
    ``gens`` of :func:`schottky_audit`.

    With ``necklaces``, meeting an identity word returns None.  The walk
    reads the levels its cached plan holds, and plans each further level it
    needs with its own :func:`_schedule`, advanced past them, publishing it
    at once; the schedule ends with the call.  The replay holds the
    matrices of one level of prefixes at a time, each as (integer matrix,
    e v(det)), and ``products`` memoises the two-generator products of the
    closing level.  A prefix is divided by its content only when a later
    level multiplies it again: the products of the last multiplied level
    are read only by tests that a scalar does not change (the trace's and
    det's valuations, tr^2 = 4 det and the scalar test).
    """
    ring = ctx.integers
    matmul, trace_mul, mul, zero = ring.matmul, ring.trace_mul, ring.mul, ring.zero
    # valuations are counted in steps of the value group (1/e) Z; a content
    # k is an integer and v(ell) = 1, so k is worth e v_ell(k) steps
    valuation, step = ctx.integral_valuation, ctx.ramification
    p, size = ctx.p, len(gens)
    shape = (size // p, p, last, necklaces)
    plan = _plan(*shape)
    (levels, first), schedule = plan, None
    relations: list[GroupWord] = []
    level = [(gens[code][0], gens[code][2]) for code in first]
    for length in range(2, last + 1):
        if len(levels) == length - 2:
            if schedule is None:
                schedule = islice(_schedule(*shape, first), len(levels), None)
            levels += (next(schedule),)
            plan[0] = levels
        slots, keys, parents, codes = levels[length - 2]
        # the word is m times its closer: the last generator, or on the
        # closing level the last two
        closing = length == last > 2
        closers = products if closing else gens
        for slot, key in zip(slots, keys):
            m, v_det = level[slot]
            closer, det_closer, v_det_closer = closers[key]
            tr = trace_mul(m, closer)
            if tr != zero and is_loxodromic(valuation(tr), v_det + v_det_closer):
                continue
            word = _word(p, first, levels[:length - 2 - closing], slot,
                         divmod(key, size) if closing else (key,))
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
        if parents is not None:
            final = length + 2 == last
            nxt = []
            for parent, code in zip(parents, codes):
                m, v_det = level[parent]
                gen, _, v_det_gen = gens[code]
                product, v_next = matmul(m, gen), v_det + v_det_gen
                if not final:
                    k = ring.content(product)
                    product = ring.divide(product, k)
                    v_next -= 2 * step * int_valuation(k, ctx.ell)
                nxt.append((product, v_next))
            level = nxt
    return None, relations
