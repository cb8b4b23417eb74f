"""Seeded inputs for every workload, built with the benchmark's own arithmetic.

Nothing here calls the program: paired sets are laid out as laminar
families of ell-adic discs and accepted only when the benchmark's own
cluster classes (``arith.is_paired``) say they are clustered in separated
pairs; Nielsen moves and affine images are computed with ``arith``'s
Moebius maps.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from arith import INF, Cyclo, apply_map, even_classes, field as field_of, is_paired, order_p_map, rho

# The two showcases of the paper's running examples (p = 2).
SIX_POINT_5ADIC = (5, [7, 12, 0, 5, 1, INF])
EIGHT_POINT_7ADIC_MIN = (7, [-7, 42, 112, -84, 0, 7, 1, INF])


# --------------------------------------------------------------------------
# paired sets
# --------------------------------------------------------------------------


def _layout(rng: random.Random, p: int, ell: int, g: int, strays: bool) -> list[tuple]:
    """Pairs of integers laid out as nested ell-adic discs.

    Each finite pair is a "cherry" alone in its own residue branch, deeper
    than its branch point by more than 2 rho; the finite partner of
    infinity ("anchor") sits in some branch.  With ``strays`` (g >= 3) one
    pair is instead split into two strays, each planted next to another
    cherry, which creates odd clusters and so non-trivial fold targets.
    """
    gap = int(2 * rho(p, ell)) + 1
    blocks: list[tuple] = [("cherry", i) for i in range(g)]
    if strays:
        stray, host_a, host_b = (blocks.pop()[1] for _ in range(3))
        blocks.append(("strays", stray, host_a, host_b))
    blocks.append(("anchor",))
    rng.shuffle(blocks)
    pairs: dict = {}

    def unit() -> int:
        return rng.randrange(1, ell) if ell > 2 else 1

    def cherry(base: int, level: int) -> tuple[int, int]:
        depth = level + gap + rng.randint(0, 2)
        return base, base + unit() * ell**depth

    def place(group: list, base: int, level: int) -> None:
        if len(group) == 1:
            blk = group[0]
            if blk[0] == "cherry":
                pairs[blk[1]] = cherry(base, level)
            elif blk[0] == "anchor":
                pairs["anchor"] = (base, INF)
            else:
                _, stray, host_a, host_b = blk
                # the strays part below their branch point by at least gap
                level += gap - 1
                points = []
                for host, r in zip((host_a, host_b), rng.sample(range(ell), 2)):
                    branch = base + r * ell**level
                    s_host, s_stray = rng.sample(range(ell), 2)
                    pairs[host] = cherry(branch + s_host * ell ** (level + 1), level + 2)
                    points.append(branch + s_stray * ell ** (level + 1))
                pairs[stray] = tuple(points)
            return
        k = rng.randint(2, min(ell, len(group)))
        buckets: list[list] = [[] for _ in range(k)]
        for idx, blk in enumerate(group):
            buckets[idx if idx < k else rng.randrange(k)].append(blk)
        for bucket, r in zip(buckets, rng.sample(range(ell), k)):
            place(bucket, base + r * ell**level, level + 1)

    place(blocks, rng.randrange(-ell, ell), 0)
    return [pairs[i] for i in range(g)] + [pairs["anchor"]]


def paired_set(rng: random.Random, p: int, ell: int, g: int, strays: bool) -> list[tuple]:
    """g+1 rational pairs, clustered in separated pairs, anchor pair last."""
    while True:
        layout = _layout(rng, p, ell, g, strays)
        pairs = [tuple(Fraction(x) if x != INF else INF for x in pr) for pr in layout]
        if is_paired(pairs, p, ell):
            return pairs


# --------------------------------------------------------------------------
# moves that keep the group (Nielsen) or the geometry (affine)
# --------------------------------------------------------------------------


def _key(F, x):
    return INF if x == INF else (F.canon(F.lift(x)) if isinstance(F, Cyclo) else x)


def _clustered_as(F, p: int, ell: int, pairs: list[tuple]) -> bool:
    """Whether the points' own even-cluster classes are exactly ``pairs``."""
    key = partial(_key, F)
    classes = even_classes([x for pr in pairs for x in pr], ell, p)
    return {frozenset(map(key, c)) for c in classes} == {frozenset(map(key, pr)) for pr in pairs}


def nielsen(rng: random.Random, p: int, ell: int, pairs: list[tuple], moves: int) -> list[tuple]:
    """Replace a finite pair i by its image under the n-th power of the
    order-p map fixing pair j (j != i), ``moves`` times.

    The generator of pair i becomes its conjugate by that map, so the group
    the pairs generate does not change.  Images that would hit infinity or
    an existing point are skipped.  So are images after which the points'
    own even-cluster classes are no longer the moved pairs: the program
    pairs a point set by its clusters, so such a set names other generators
    and, in general, another group (a base that is not good can then have
    a good copy).  If every move is skipped, fewer moves are made.
    """
    F = field_of(p)
    pairs = list(pairs)
    candidates = (len(pairs) - 1) ** 2 * (p - 1)
    done = 0
    tried: set[tuple[int, int, int]] = set()
    while done < moves and len(tried) < candidates:
        i = rng.randrange(len(pairs) - 1)
        j = rng.choice([k for k in range(len(pairs)) if k != i])
        n = rng.randrange(1, p)
        tried.add((i, j, n))
        m = order_p_map(F, *pairs[j], n)
        image = tuple(apply_map(F, m, x) for x in pairs[i])
        others = {_key(F, x) for k, pr in enumerate(pairs) if k != i for x in pr}
        keys = {_key(F, x) for x in image}
        if INF in keys or keys & others or len(keys) != 2:
            continue
        moved = pairs[:i] + [image] + pairs[i + 1 :]
        if not _clustered_as(F, p, ell, moved):
            continue
        pairs = moved
        done += 1
        tried.clear()
    return pairs


def affine(p: int, pairs: list[tuple], a: Fraction, b: Fraction) -> list[tuple]:
    """The image of every point under z -> a z + b (infinity is fixed)."""
    F = field_of(p)

    def image(x):
        if x == INF:
            return INF
        return a * x + b if isinstance(x, Fraction) else F.add(F.mul(a, x), b)

    return [tuple(image(x) for x in pr) for pr in pairs]


def affine_coefficients(rng: random.Random, ell: int) -> tuple[Fraction, Fraction]:
    a = Fraction(rng.choice([1, -1]) * rng.randint(1, 9), rng.randint(1, 4)) * Fraction(ell) ** rng.randint(-1, 2)
    b = Fraction(rng.randint(-50, 50), rng.randint(1, 3))
    return a, b


def flatten(pairs: list[tuple], rng: random.Random) -> list:
    """The points of ``pairs`` in a shuffled order (the program must find
    the pairing itself)."""
    points = [x for pr in pairs for x in pr]
    rng.shuffle(points)
    return points


# --------------------------------------------------------------------------
# workload cycles: each call draws one cycle of fresh inputs
# --------------------------------------------------------------------------


@dataclass
class FoldInput:
    """One run_algorithm input.  Inputs of one ``family`` (a base set and
    its Nielsen-moved or affine copy) generate the same group up to a change
    of coordinates, so they must agree on goodness."""

    p: int
    ell: int
    g: int
    points: list
    family: int
    label: str


def fold_cycle(rng: random.Random, strata: list[tuple[int, int, int, bool]], max_moves: int, turn: int) -> list[FoldInput]:
    """One family per stratum (p, ell, g, strays); ``turn`` counts cycles.

    Each family holds a base set; every other family adds one copy, moved
    by 1, ..., max_moves Nielsen moves or by an affine map.  Which families
    get a copy, and which copy, rotates from cycle to cycle, so that every
    stratum gets every kind of copy.
    """
    out: list[FoldInput] = []
    for family, (p, ell, g, strays) in enumerate(strata):
        base = paired_set(rng, p, ell, g, strays)
        out.append(FoldInput(p, ell, g, flatten(base, rng), family, "strays" if strays else "base"))
        if (family + turn) % 2:
            continue
        moves = (family // 2 + turn) % (max_moves + 1) + 1
        if moves <= max_moves:
            out.append(FoldInput(p, ell, g, flatten(nielsen(rng, p, ell, base, moves), rng), family, f"nielsen{moves}"))
        else:
            a, b = affine_coefficients(rng, ell)
            out.append(FoldInput(p, ell, g, flatten(affine(p, base, a, b), rng), family, "affine"))
    return out


@dataclass
class AuditInput:
    p: int
    ell: int
    pairs: list[tuple]  # anchor pair last; pair k is generator k
    depth: int
    witness_expected: bool = False  # known by hand (the 5-adic showcase)


def audit_cycle(rng: random.Random, strata: list[tuple[int, int, int, int]]) -> list[AuditInput]:
    """One paired set per stratum (p, ell, g, depth), then both showcases."""
    out = [AuditInput(p, ell, paired_set(rng, p, ell, g, False), depth) for p, ell, g, depth in strata]
    out.append(AuditInput(2, 7, showcase_pairs(*EIGHT_POINT_7ADIC_MIN), 6))
    out.append(AuditInput(2, 5, showcase_pairs(*SIX_POINT_5ADIC), 6, witness_expected=True))
    return out


def showcase_pairs(ell: int, points: list) -> list[tuple]:
    """The showcase's pairs as the benchmark's own cluster classes find them."""
    classes = even_classes([Fraction(x) if x != INF else INF for x in points], ell)
    return sorted((tuple(c) for c in classes), key=lambda c: INF in c)


@dataclass
class CliInput:
    text: str
    family: int | None  # documents of one family share the verdict kind
    label: str
    expect: str | None = None  # verdict kind known by construction


def _fmt(x) -> str:
    if x == INF:
        return INF
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _doc(p: int, ell: int, points: list, options: dict) -> str:
    return json.dumps({"p": p, "ell": ell, "points": [_fmt(x) for x in points], "options": options})


def _breaker(rng: random.Random, pairs: list[tuple], ell: int) -> list:
    """The set with one point moved so that the benchmark's own even-cluster
    classes no longer all have two members."""
    points = [x for pr in pairs for x in pr]
    while True:
        moved = list(points)
        k = rng.choice([i for i, x in enumerate(points) if x != INF])
        moved[k] = Fraction(rng.randint(-3 * ell**3, 3 * ell**3))
        if len(set(moved)) == len(moved) and any(len(c) != 2 for c in even_classes(moved, ell)):
            return moved


def _without_infinity(rng: random.Random, pairs: list[tuple]) -> list:
    """Points whose normalisation z -> 1/(z - c) (c the first point) gives
    the base set translated by t: c + 1/(b + t) for each finite b, and c."""
    points = [x for pr in pairs for x in pr if x != INF]
    while True:
        t = rng.randint(-20, 20)
        if all(b + t != 0 for b in points):
            break
    c = Fraction(rng.randint(-30, 30))
    moved = [c + 1 / (b + t) for b in points]
    rng.shuffle(moved)
    return [c] + moved


def cli_cycle(rng: random.Random) -> list[CliInput]:
    """Small documents: p = 2 bases with Nielsen-moved copies and copies
    without infinity; p = 3 bases with affine images; sets broken to fail
    the pairing; sets with two repeated values; and two documents again."""
    out: list[CliInput] = []
    family = 0

    def options(k: int, p: int) -> dict:
        opts = {"trace": True, "dot": "stage"}
        if k % 3 == 0:
            opts["verify_depth"] = 3 if p == 2 else 2
        return opts

    for ell in (2, 3, 5, 7):
        for g in (1, 2, 3, 4):
            base = paired_set(rng, 2, ell, g, g >= 3 and rng.random() < 0.5)
            out.append(CliInput(_doc(2, ell, flatten(base, rng), options(family, 2)), family, f"p2l{ell}g{g}"))
            if g >= 2:
                moved = nielsen(rng, 2, ell, base, 1)
                out.append(CliInput(_doc(2, ell, flatten(moved, rng), options(family + 1, 2)), family, "nielsen"))
            if g % 2 == 1:
                opts = dict(options(family + 2, 2), normalize_infinity=True)
                out.append(CliInput(_doc(2, ell, _without_infinity(rng, base), opts), family, "no_infinity"))
            family += 1
    for ell in (3, 7):
        for g in (2, 3):
            base = paired_set(rng, 3, ell, g, False)
            out.append(CliInput(_doc(3, ell, flatten(base, rng), options(family, 3)), family, f"p3l{ell}g{g}"))
            a, b = affine_coefficients(rng, ell)
            out.append(CliInput(_doc(3, ell, flatten(affine(3, base, a, b), rng), options(family + 1, 3)), family, "affine"))
            family += 1
    for ell in (3, 5):
        g = rng.randint(2, 4)
        base = paired_set(rng, 2, ell, g, False)
        out.append(CliInput(_doc(2, ell, _breaker(rng, base, ell), options(0, 2)), None, "breaker", "not_good"))
        points = [x for pr in base for x in pr]
        twice = rng.sample([x for x in points if x != INF], 2)
        redundant = points + twice
        rng.shuffle(redundant)
        out.append(CliInput(_doc(2, ell, redundant, options(1, 2)), None, "redundant", "redundant"))
    out.extend(rng.sample(out, 2))
    return out
