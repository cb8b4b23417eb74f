"""Brute-force group-word audit of a paired configuration.

The g+1 order-p maps fixing the pairs generate a group whose index-p
subgroup consists of the words with exponent sum divisible by p.  A
configuration is good exactly when every nontrivial element of that
subgroup is loxodromic, so enumerating reduced words up to a length bound
and classifying their matrices falsifies goodness whenever a short
non-loxodromic element exists.  The audit is a falsifier, not a decider:
no a-priori bound on the length of a witness is known.

Words are streamed in length-lexicographic order and the first witness in
that order is returned, which keeps recorded results stable.  Identity
evaluations are collected separately as relation witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .clusters import PairedConfiguration
from .folding import FoldingStep
from .projline import (
    ElementClass,
    MapKind,
    Mobius,
    apply,
    classify,
    compose,
    inverse,
    order_p_fixing,
    proj_eq,
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

    Prefix products are shared along the enumeration, so the audit runs in
    time proportional to the number of scanned prefixes.
    """
    ctx = pcfg.ctx
    gens = pair_generators(pcfg)
    g, p = pcfg.g, ctx.p
    relations: list[GroupWord] = []
    checked = 0

    for length in range(1, max_len + 1):

        def rec(prefix, matrix, total):
            if len(prefix) == length:
                if total % p == 0:
                    yield GroupWord(tuple(prefix)), matrix
                return
            for idx in range(g + 1):
                if prefix and prefix[-1][0] == idx:
                    continue
                for exp in range(1, p):
                    factor = gens[idx][exp - 1]
                    nxt = factor if matrix is None else compose(matrix, factor)
                    prefix.append((idx, exp))
                    yield from rec(prefix, nxt, total + exp)
                    prefix.pop()

        for word, m in rec([], None, 0):
            checked += 1
            cls = classify(ctx, m)
            if cls.kind is MapKind.IDENTITY:
                relations.append(word)
                continue
            if cls.kind is not MapKind.LOXODROMIC:
                return AuditResult((word, cls), tuple(relations), checked)
    return AuditResult(None, tuple(relations), checked)


def verify_fold_conjugation(step: FoldingStep) -> bool:
    """Each folded pair's order-p map must be the conjugate of the original
    by the fold map (true vacuously for an empty fold set).

    Folded pairs are finite, and for finite image pairs the orientation of
    the fixed points is preserved, so the conjugate equals the image pair's
    map at the same exponent.  Should an image point land at infinity, the
    representation loses the orientation and any generator power is
    accepted.
    """
    ctx = step.before.ctx
    m = step.map
    m_inv = inverse(m)
    for l in sorted(step.indices):
        a, b = step.before.pairs[l]
        if a.is_infinity:
            a, b = b, a
        s_l = order_p_fixing(ctx, a, b, 1)
        conjugate = compose(compose(m, s_l), m_inv)
        a2, b2 = apply(m, a), apply(m, b)
        swapped = a2.is_infinity
        if swapped:
            a2, b2 = b2, a2
        if not (swapped or b2.is_infinity):
            if not proj_eq(order_p_fixing(ctx, a2, b2, 1), conjugate):
                return False
            continue
        if not any(
            proj_eq(order_p_fixing(ctx, a2, b2, k), conjugate)
            for k in range(1, ctx.p)
        ):
            return False
    return True
