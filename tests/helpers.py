"""Shared fixtures: showcase configurations, random generators, invariants."""

from __future__ import annotations

import os
import random
import sys
from collections import Counter
from fractions import Fraction

import schottkyfold as sf
from schottkyfold.folding import targets

from reference import (above, delta, field_add, field_mul, field_sub, order_p_fixing,
                       skeleton_disc, transported_vertex_disc, verify_fold_conjugation)

# Showcase configurations used across the suite (5-adic and 7-adic, p = 2).
SIX_POINT_5ADIC = [7, 12, 0, 5, 1, "inf"]
EIGHT_POINT_7ADIC = [Fraction(1336, 3), -355, -110, 86, 0, 7, 1, "inf"]
EIGHT_POINT_7ADIC_MIN = [-7, 42, 112, -84, 0, 7, 1, "inf"]

# Dyadic (p = ell = 2) smoke configurations; separation radius 1.
DYADIC_FOUR = [0, 32, 1, "inf"]
DYADIC_SIX_FOLDING = [5, 133, 29, 157, 1, "inf"]
DYADIC_SIX_PLAIN = [0, 32, 1, 17, 3, "inf"]


def module_env():
    """The environment for a subprocess (``python -m schottkyfold``, a demo)
    to import the package under test."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sf.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def ctx5():
    return sf.field_context(2, 5)


def ctx7():
    return sf.field_context(2, 7)


def ctx2():
    return sf.field_context(2, 2)


def config(ctx, values):
    return sf.configuration(ctx, values)


def pair_list(pcfg):
    """The pairs in index order, each as an unordered set of exact points."""
    return [frozenset(pair) for pair in pcfg.pairs]


def pairing(pcfg):
    """The pairs as unordered point sets, compared by exact value."""
    return set(pair_list(pcfg))


def finite_values(cfg):
    """The finite point values, in input order: the values a skeleton built
    on the configuration names by position."""
    return tuple(pt.value for pt in cfg.points if not pt.is_infinity)


def target_disc(pcfg, i, j):
    """d_j(i), pair j's target disc seen from pair i, as (center position,
    radius in steps), or None: entry j of ``folding.targets``."""
    found = targets(pcfg, i)[j]
    return None if found is None else found[0]


def pushed_back(pcfg, i, j):
    """That target pushed back by rho toward pair i, or None."""
    found = targets(pcfg, i)[j]
    return None if found is None else found[1]


def pairs_as_sets(ctx, values_pairs):
    """Pairs of values ("inf" for infinity) as unordered sets of exact points."""
    return [frozenset(sf.configuration(ctx, pr).points) for pr in values_pairs]


def multiset(cfg):
    """The points of a configuration, counted by exact value."""
    return Counter(cfg.points)


def values_multiset(ctx, values):
    return multiset(sf.configuration(ctx, values))


# --------------------------------------------------------------------------
# counting calls
# --------------------------------------------------------------------------


def count_calls(monkeypatch, owner, name, everywhere=False):
    """Record the arguments of each call of a function through every binding
    of it in ``owner`` (a module or a class, a static method included), or,
    with ``everywhere``, in every schottkyfold module."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    owners = [owner]
    if everywhere:
        owners = [
            m
            for key, m in sys.modules.items()
            if key == "schottkyfold" or key.startswith("schottkyfold.")
        ]
    for m in owners:
        for key, value in list(vars(m).items()):
            if value is original:
                monkeypatch.setattr(m, key, counted)
            elif isinstance(value, staticmethod) and value.__func__ is original:
                monkeypatch.setattr(m, key, staticmethod(counted))
    return calls


def count_chain_walks(monkeypatch):
    """The arguments (skeleton, members) of each ``Skeleton.chain`` walk."""
    return count_calls(monkeypatch, sf.clusters.Skeleton, "chain")


def count_finite_pairs_built(monkeypatch):
    """The finite pairs of every skeleton paired, one entry per
    ``Skeleton.paired`` call."""
    built = []
    original = sf.clusters.Skeleton.paired

    def counted(sk, pairs):
        built.append(sum(len(pts) == 2 for pts in pairs))
        return original(sk, pairs)

    monkeypatch.setattr(sf.clusters.Skeleton, "paired", counted)
    return built


def count_cluster_records(monkeypatch):
    """The arguments of each ``clusters.Cluster`` record made."""
    return count_calls(monkeypatch, sf.clusters.Cluster, "__new__")


def recorded_inside(monkeypatch, owner, name, **counters):
    """Wrap ``owner.name`` so that what each counter (a list the helpers
    above fill) records during its calls is kept apart: returns, per
    counter, the entries recorded inside those calls."""
    inside = {key: [] for key in counters}
    original = getattr(owner, name)

    def call(*args, **kwargs):
        marks = {key: len(calls) for key, calls in counters.items()}
        try:
            return original(*args, **kwargs)
        finally:
            for key, calls in counters.items():
                inside[key] += calls[marks[key]:]

    monkeypatch.setattr(owner, name, call)
    return inside


# --------------------------------------------------------------------------
# random generation of properly paired configurations
# --------------------------------------------------------------------------


def random_paired_points(rng, ctx, g):
    """Random 2g+2 points (with infinity) clustered in rho-separated pairs.

    Builds a random laminar arrangement: pairs sit as cherries in their own
    residue branches, the finite partner of infinity lands either alone or
    inside a branch (creating an odd cluster), and occasionally one pair is
    split into two strays hosted next to two other cherries (creating two
    odd clusters).  Depth gaps stay above twice the separation radius.
    Returns (points, expected pairing as a set of frozensets of points).
    """
    ell = ctx.ell
    gap = int(2 * ctx.rho) + 1
    out_pairs: dict[int, list] = {}
    anchor_holder: list = []

    blocks = [("cherry", i) for i in range(g)]
    if g >= 3 and rng.random() < 0.4:
        si = blocks.pop()[1]
        ha = blocks.pop()[1]
        hb = blocks.pop()[1]
        blocks.append(("splitblock", si, ha, hb))
    blocks.append(("anchor",))
    rng.shuffle(blocks)

    def fresh_depth(level):
        return level + gap + rng.randint(0, 2)

    def place(group, base, level):
        if len(group) == 1:
            blk = group[0]
            if blk[0] == "cherry":
                d = fresh_depth(level)
                u = rng.randrange(1, ell) if ell > 2 else 1
                out_pairs[blk[1]] = [base, base + u * ell**d]
            elif blk[0] == "anchor":
                anchor_holder.append(base)
            else:
                _, si, ha, hb = blk
                r1, r2 = rng.sample(range(ell), 2)
                strays = []
                for host, r in ((ha, r1), (hb, r2)):
                    b1 = base + r * ell**level
                    s1, s2 = rng.sample(range(ell), 2)
                    cb = b1 + s1 * ell ** (level + 1)
                    d = fresh_depth(level + 2)
                    u = rng.randrange(1, ell) if ell > 2 else 1
                    out_pairs[host] = [cb, cb + u * ell**d]
                    strays.append(b1 + s2 * ell ** (level + 1))
                out_pairs[si] = strays
            return
        k = rng.randint(2, min(ell, len(group)))
        buckets = [[] for _ in range(k)]
        for idx, blk in enumerate(group):
            target = idx if idx < k else rng.randrange(k)
            buckets[target].append(blk)
        for bucket, r in zip(buckets, rng.sample(range(ell), k)):
            place(bucket, base + r * ell**level, level + 1)

    place(blocks, 0, 0)
    anchor = anchor_holder[0]

    points = []
    expected = set()
    for i in range(g):
        a, b = out_pairs[i]
        points.extend([a, b])
        expected.add(frozenset(sf.configuration(ctx, [a, b]).points))
    points.extend([anchor, "inf"])
    expected.add(frozenset(sf.configuration(ctx, [anchor, "inf"]).points))
    rng.shuffle(points)
    return points, expected


def sample_paired(rng, ctx, g):
    """A random properly paired configuration with its canonical pairing."""
    for _ in range(100):
        points, expected = random_paired_points(rng, ctx, g)
        cfg = sf.configuration(ctx, points)
        try:
            pcfg = sf.pair_up(cfg)
        except sf.PairingError:
            continue
        if pairing(pcfg) == expected:
            return cfg, pcfg
    raise AssertionError("random generator failed to produce a paired set")


# The seven test fields: p = 2 over ell = 2, 5, 7; split and ramified
# Q(zeta_3) and Q(zeta_5).
TEST_FIELDS = ((2, 2), (2, 5), (2, 7), (3, 3), (3, 7), (5, 5), (5, 11))


def affine_image(cfg, u, c):
    """The configuration moved by z -> u z + c (infinity stays)."""
    ctx = cfg.ctx
    return sf.Configuration(
        ctx,
        tuple(
            pt if pt.is_infinity else sf.finite(ctx, field_add(ctx, field_mul(ctx, u, pt.value), c))
            for pt in cfg.points
        ),
    )


def lowering_sets(seed, genera=(2, 3, 4)):
    """(ctx, configuration) in each test field: sampled paired sets with
    integer points, and their images under z -> (zeta / ell) z + zeta + 2/3,
    whose points have denominators and, for odd p, are not rational."""
    rng = random.Random(seed)
    for p, ell in TEST_FIELDS:
        ctx = sf.field_context(p, ell)
        u = field_mul(ctx, ctx.zeta, ctx.from_fraction(Fraction(1, ell)))
        c = field_add(ctx, ctx.zeta, ctx.from_fraction(Fraction(2, 3)))
        for g in genera:
            cfg, _ = sample_paired(rng, ctx, g)
            yield ctx, cfg
            yield ctx, affine_image(cfg, u, c)


def nielsen_move(pcfg, i, j, n=1):
    """The points with pair i replaced by its image under the n-th power of
    the order-p map fixing pair j, listed pair by pair: the generators
    change, the group does not, and folding undoes the move around j."""
    m = order_p_fixing(pcfg.ctx, *pcfg.pairs[j], n)
    points = [
        sf.apply(m, pt) if k == i else pt
        for k, pair in enumerate(pcfg.pairs)
        for pt in pair
    ]
    return sf.Configuration(pcfg.ctx, tuple(points))


def kadziela_points(rng, ctx, g):
    """Points satisfying the descending-valuation chain with disjoint pair
    discs: a_0 = 0, a_g = 1, b_g = infinity, strictly dropping pair levels."""
    ell = ctx.ell
    t = int(2 * ctx.rho) + 1
    levels = []
    lvl = rng.randint(1, 2)
    for _ in range(g - 1):
        levels.append(lvl)
        lvl += rng.randint(1, 2)
    levels.reverse()  # m_1 > m_2 > ... > m_{g-1} >= 1
    points = [0]
    # deep enough that the axis through 0 clears every other axis by > 2 rho
    m0 = (levels[0] if levels else 0) + t + rng.randint(0, 1)
    u = rng.randrange(1, ell) if ell > 2 else 1
    points.append(u * ell**m0)  # b_0 with v(b_0) > v(a_1)
    for m in levels:
        u = rng.randrange(1, ell) if ell > 2 else 1
        a = u * ell**m
        w = rng.randrange(1, ell) if ell > 2 else 1
        points.extend([a, a + w * ell ** (m + t + rng.randint(0, 1))])
    points.extend([1, "inf"])
    return points


# --------------------------------------------------------------------------
# invariants of a performed fold
# --------------------------------------------------------------------------


def check_fold_step(step):
    """Conjugation and distance-monotonicity invariants of one fold."""
    assert verify_fold_conjugation(step)

    ctx = step.before.ctx
    tree = sf.reduced_convex_hull(step.before)
    dt = skeleton_disc(step.before, pushed_back(step.before, step.i, step.j))
    anchor = next(
        pt.value for pt in step.before.pairs[step.i] if not pt.is_infinity
    )
    values = step.before.skeleton.values  # what v.cluster indexes

    def in_branch(disc):
        if disc.radius <= dt.radius:
            return False
        sep = ctx.valuation(field_sub(ctx, disc.center, anchor))
        return above(sep, dt.radius)

    distinguished = tree.distinguished()
    before_discs = [v.disc for v in distinguished]
    after_discs = [
        transported_vertex_disc(ctx, values, v.cluster, step.map)
        if in_branch(v.disc)
        else v.disc
        for v in distinguished
    ]
    strict = 0
    for i in range(len(before_discs)):
        for j in range(i + 1, len(before_discs)):
            d0 = delta(before_discs[i], before_discs[j])
            d1 = delta(after_discs[i], after_discs[j])
            assert d1 <= d0, "a fold increased a distinguished distance"
            if d1 < d0:
                strict += 1
    assert strict >= 1, "a fold must strictly decrease some distance"


def check_verdict_folds(verdict):
    for step in verdict.trace:
        check_fold_step(step)
