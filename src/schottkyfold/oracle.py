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

:func:`schottky_audit` walks the words one length at a time.  A prefix's
matrix is composed once from its parent's and shared by every longer word
that starts with it; only one length of prefixes is held in memory.  The
last syllable of a word is forced by the exponent sum, so prefixes and
lengths that cannot end a word of the subgroup are never built, and each
word is classified from the trace and determinant of its product, without
forming the product.  Cyclic rotations of a word are not merged; they
classify alike and are all counted.  :func:`enumerate_gamma_words`,
:func:`word_matrix` and :func:`~.projline.classify` give the same
verdicts word by word and serve as its reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .clusters import PairedConfiguration
from .projline import (
    ElementClass,
    MapKind,
    Mobius,
    classify_trace_det,
    compose,
    order_p_fixing,
    trace_of_product,
)


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


@dataclass(frozen=True)
class AuditResult:
    witness: Optional[tuple[GroupWord, ElementClass]]
    relations: tuple[GroupWord, ...]
    words_checked: int


def schottky_audit(pcfg: PairedConfiguration, max_len: int) -> AuditResult:
    """First non-loxodromic, non-identity word up to the length bound, if any.

    The words of :func:`enumerate_gamma_words` are visited in the same
    order and counted in ``words_checked`` up to and including the witness;
    identity words go to ``relations``.  The enumeration runs one length at
    a time over a list of prefixes, each with its matrix and exponent sum:

    * every prefix is composed once, from its parent, and only one level of
      prefixes is held at a time;
    * a word's last exponent is forced to close the exponent sum, so a
      prefix whose sum is already 0 mod p ends no word of the next length,
      and the last level of prefixes keeps only prefixes that can close;
    * the walk stops at the longest length that holds a word (for p = 2,
      the largest even length <= ``max_len``);
    * a word is classified from tr(M G) and det M * det G, where M is its
      prefix and G its last syllable; the product is formed only when
      tr^2 = 4 det, to tell the identity from a parabolic map.
    """
    ctx = pcfg.ctx
    gens = pair_generators(pcfg)
    g, p = pcfg.g, ctx.p
    last = max_len - max_len % 2 if p == 2 else max_len
    gen_dets = [[m.det() for m in row] for row in gens]
    relations: list[GroupWord] = []
    checked = 0

    # prefixes of the current length: (syllables, matrix, exponent sum mod p)
    level = [
        (((idx, exp),), gens[idx][exp - 1], exp)
        for idx in range(g + 1)
        for exp in range(1, p)
    ]
    for length in range(2, last + 1):
        for prefix, m, total in level:
            exp = -total % p
            if exp == 0:
                continue
            det_m = m.det()
            for idx in range(g + 1):
                if idx == prefix[-1][0]:
                    continue
                factor = gens[idx][exp - 1]
                checked += 1
                cls = classify_trace_det(
                    ctx,
                    trace_of_product(m, factor),
                    ctx.mul(det_m, gen_dets[idx][exp - 1]),
                )
                if cls.kind is MapKind.LOXODROMIC:
                    continue
                word = GroupWord(prefix + ((idx, exp),))
                if cls.kind is MapKind.PARABOLIC and compose(m, factor).is_scalar():
                    relations.append(word)
                    continue
                return AuditResult((word, cls), tuple(relations), checked)
        if length < last:
            # the next level; on the last one a prefix must be able to close
            closing = length + 1 == last
            level = [
                (
                    prefix + ((idx, exp),),
                    compose(m, gens[idx][exp - 1]),
                    (total + exp) % p,
                )
                for prefix, m, total in level
                for idx in range(g + 1)
                if idx != prefix[-1][0]
                for exp in range(1, p)
                if not (closing and (total + exp) % p == 0)
            ]
    return AuditResult(None, tuple(relations), checked)
