"""The folding algorithm: disc targets, the fold test, and the driver.

Given a paired configuration with infinity among its points, the driver
repeatedly looks for an index pair (i, j) and an exponent n such that
replacing the pairs hanging in the branch around pair i of the target
disc d_j(i) pushed back by rho (``targets(pcfg, i)[j]``, second half) by
their images under the n-th power of the order-p map fixing pair j brings
the configuration strictly closer together.  Each fold either keeps the
configuration properly paired (a *good* fold) or breaks the pairing,
which certifies that the input was not good.  The termination measure,
the axis gaps of every two pairs summed in steps of the discrete value
group (``Skeleton.pair_gaps``), strictly drops at every fold, and the
driver checks that it does, so the loop terminates.

Every valuation a pass reads comes from the skeleton's integers, and the
strong triangle inequality spares most of them: the skeleton values only
the differences it leaves open, and the fold test
(:func:`find_fold_exponent`) drops, unvalued, every pair whose cross
ratios' valuations already decide that the test fails.

The pass's other rules are closed forms on rows of the skeleton's step
matrix, with no walk through the cluster tree: one loop over j
(:func:`targets`) reads pair i's row once, comparing two entries with the
depths of the odd clusters through pair i (listed once per pair), for
every target and its push-back, and the branch (:func:`compute_I`)
compares entries of one row with the target's radius.  The branch holds
finite pairs only, so a fold maps no infinity (:func:`apply_folding`).

The pass's functions (:func:`targets`, :func:`select_target`,
:func:`compute_I`, :func:`find_fold_exponent`, :func:`fold_map` and
:func:`apply_folding`) take a ``pair_up`` result and read the skeleton it
holds (``pcfg.skeleton``); ``pair_up`` has checked its pairs, and they are
not checked again.

Outcomes:

* :class:`Good` -- no fold applies any more; the current configuration is
  optimal and is returned together with the full trace.
* :class:`NotGood` -- the input (or a folded successor) is not clustered in
  separated pairs, or a fold made two distinct inherited pairs share a
  point, a fixed point of both pairs' maps.  ``failure`` names the rule
  that broke, and ``trace`` holds the folds made before: empty when the
  input itself fails, and otherwise its last fold is the one that
  produced the failing set.
* :class:`Redundant` -- a configuration acquired an even number of repeated
  values, after a fold only from inherited pairs equal as sets; the
  underlying set generates the same groups.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from .clusters import Configuration, PairedConfiguration, pair_up
from .errors import InvalidInputError, PairingError, PairingFailure, RepeatedPointsError
from .projline import Mobius, image, integer_map, order_p_matrix
from .valfield import INF_STEPS, FieldContext, Val


class FoldWitness(NamedTuple):
    """The scan hit certifying a fold: index l and both sides of the test."""

    l: int
    lhs: Val
    rhs: Val


class FoldingStep(NamedTuple):
    i: int
    j: int
    n: int
    indices: frozenset[int]
    map: Mobius
    before: PairedConfiguration
    after: Configuration
    witness: FoldWitness


class Good(NamedTuple):
    s_min: PairedConfiguration
    trace: tuple[FoldingStep, ...]


class NotGood(NamedTuple):
    failure: PairingFailure
    trace: tuple[FoldingStep, ...]


class Redundant(NamedTuple):
    reduced: Configuration
    trace: tuple[FoldingStep, ...]


Verdict = Union[Good, NotGood, Redundant]


def targets(pcfg: PairedConfiguration, i: int) -> list:
    """Pair i's targets, for every j in one loop that reads pair i's row of
    the step matrix once: entry j is (d_j, tilde d_j), the target disc on
    pair j's axis and that disc pushed back by the separation radius rho,
    each as (center index, radius in steps), or None where undefined.

    The target: either the minimal odd clusters through both pairs coincide
    (then it is the minimal disc of pair j), or some odd cluster contains
    pair i together with exactly one point of pair j (then it is the
    minimal disc around pair i that reaches that point).  When pair j
    contains infinity its finite point is the one included.

    The second rule is read off row c, with c the centre of pair i's disc
    (radius r_i).  A cluster C of depth d is {z : v(z - x) >= d} for any
    member x, since the tree splits a cluster's points on "above its
    depth".  So with lo <= hi the entries of row c at pair j's points, an
    odd cluster through pair i holds exactly one of them iff some odd depth
    d of pair i's chain (``pair_odd_depths``) has lo < d <= hi; for the
    pair at infinity, iff some d <= hi, its finite point's entry.  The
    smallest disc around c holding the point at hi has radius min(r_i, hi),
    and it leaves the point at lo out, for lo < d and every chain depth d
    is at most r_i.  A disc around c reaching the point at lo would hold
    the point at hi too.  So the target is (c, min(r_i, hi)).

    The push-back walks a distance rho from the target disc point toward
    the vertex of pair i: either the walk stays below the join, the least
    disc holding both (shrink the radius by rho), or it crosses the join
    and descends toward pair i (radius 2 d(join) - d(target) + rho around
    pair i).  With rho = 0 it is the target disc itself.  A target of the
    second rule is centred at c with radius at most r_i, so it holds pair
    i's disc and is its own join: its push-back is (c, radius + rho), read
    with no entry of row c, whose own entry is ``INF_STEPS``.  A target of
    the first rule is centred at c_j, never at c: the pair at infinity,
    whose disc is centred at the first point of pair 0, has no odd cluster
    to share.
    """
    sk = pcfg.skeleton
    out: list = [None] * len(sk.pair_points)
    depths = sk.pair_odd_depths[i]
    # no odd cluster through pair i (always so for the pair at infinity)
    if not depths:
        return out
    rho, odd, pair_odd = pcfg.ctx.rho_steps, sk.pair_odd[i], sk.pair_odd
    c_i, r_i = sk.pair_discs[i]
    row = sk.smat[c_i]
    for j, pts in enumerate(sk.pair_points):
        if j == i:
            continue
        # pair_odd is None for the pair at infinity, and odd is not
        if odd == pair_odd[j]:
            center, radius = target = sk.pair_discs[j]
            jn = min(r_i, radius, row[center])
            if radius - jn > rho:
                out[j] = target, (center, radius - rho)
            else:
                out[j] = target, (c_i, 2 * jn - radius + rho)
            continue
        lo, hi = row[pts[0]], row[pts[-1]]
        if len(pts) == 1:
            lo = depths[-1] - 1  # below every depth
        elif lo > hi:
            lo, hi = hi, lo
        # the depths descend, so the first one up to hi decides
        for d in depths:
            if d <= hi:
                break
        if lo < d <= hi:
            # the join is the target itself, so the push-back widens it by rho
            radius = hi if hi < r_i else r_i
            out[j] = (c_i, radius), (c_i, radius + rho)
    return out


def select_target(pcfg: PairedConfiguration, i: int) -> tuple[int, tuple]:
    """The index j whose pushed-back target strictly contains the pair-i disc
    and is minimal under inclusion (ties go to the smallest index), with
    that target, read off one call of :func:`targets`.  Containment reads
    the entry of row c_i at the target's centre, except for a target
    centred at c_i itself, which holds c_i with no entry read.

    The pair at infinity always qualifies, so a target exists for every
    i < g.
    """
    sk = pcfg.skeleton
    c_i, r_i = sk.pair_discs[i]
    row, best = sk.smat[c_i], None
    for j, found in enumerate(targets(pcfg, i)):
        if found is None:
            continue
        center, radius = found[1]
        # proper containment of the pair-i disc, where a disc centred at c_i
        # needs no entry (its own is INF_STEPS); largest radius, then least j
        if (r_i > radius and (center == c_i or row[center] >= radius)
                and (best is None or radius > best[1][1])):
            best = j, found[1]
    if best is None:
        raise InvalidInputError(f"no folding target exists for index {i}")
    return best


def compute_I(pcfg: PairedConfiguration, i: int, target: tuple) -> frozenset[int]:
    """Indices of the pairs hanging in the branch of the pushed-back target
    (center index, radius in steps) around pair i: both points must be
    finite and strictly inside the residue branch through pair i, that is,
    both their entries in the row of pair i's first point exceed the
    target's radius.  Pair i's own first entry is ``INF_STEPS`` and is not
    compared.  RuntimeError if pair i is not among them: a target from
    :func:`select_target` never lies that deep."""
    sk = pcfg.skeleton
    row, level, out = sk.smat[sk.pair_points[i][0]], target[1], []
    for l, pts in enumerate(sk.pair_points):
        if len(pts) == 2 and row[pts[1]] > level and (l == i or row[pts[0]] > level):
            out.append(l)
    if i not in out:
        raise RuntimeError(f"pair {i} does not lie in its own branch")
    return frozenset(out)


def find_fold_exponent(
    pcfg: PairedConfiguration, i: int, j: int, I: frozenset[int]
) -> Optional[tuple[int, FoldWitness]]:
    """Scan for an exponent n and an index l outside j and the fold set
    ``I = compute_I(pcfg, i, target)`` verifying the fold test.

    The test compares v(r_l - zeta^n r_i) against v(r_l) + rho, where r_x
    is the cross ratio (c_x - a_j)/(c_x - b_j) of a finite representative
    c_x (denominators drop when b_j is infinity).  The inequality must
    hold for every representative choice of c_i and c_l: that is what
    moves the closeness statement from points up to the pair vertices.  (A
    single representative can fire by accident when p > 2; for p = 2 the
    choices always agree.)  The scan runs in ascending n then l, and the
    first hit is returned with the first representatives' two sides.

    Both sides are counted in steps of the value group, and no field
    element is divided.  With the skeleton's numerators A over the common
    denominator L, r_x = N_x / M_x for the integral N_x = A_c - A_a and
    M_x = A_c - A_b (M_x = L when b_j is infinity), so

        e v(r_l - zeta^n r_i) = e v(N_l M_i - zeta^n N_i M_l) - e v(M_l M_i),

    where zeta^n turns coefficients and e v(M_x) = smat[c][b] + e v(L).
    When M_x = L the numerator is L (N_l - zeta^n N_i) and one L cancels.
    The right side, e v(r_l) + e rho, is read off the step matrix:
    e v(r_x) = smat[c][a] - smat[c][b] (just smat[c][a] when b_j is
    infinity).  The step matrix is symmetric (smat[x][y] == smat[y][x],
    held by a test over the pinned documents and the census boxes), so
    every point's level is read off the two rows smat[a] and smat[b] of
    pair j, one subtraction per point.

    The strong triangle inequality settles most of the scan without a
    valuation.  v(zeta^n r_i) = v(r_i), so where v(r_l) and v(r_i) differ,
    v(r_l - zeta^n r_i) = min(v(r_l), v(r_i)) <= v(r_l) + rho, and the
    test fails for that choice at every n.  So a pair l whose
    representatives do not all share one e v(r_x) with pair i's is dropped
    before the scan, and when pair i's own two differ no l can pass.  The
    pairs l that pass are the candidates, in ascending l; the cross ratios
    (N_x, M_x) are formed for pair i and the candidates only, in one plain
    loop.  When every l is dropped the scan returns before the field
    context is read or pair i's ratios are formed or turned.  Each
    candidate's representatives are tried in two plain loops, pair i's
    outermost, and the first side that fails ends both.
    """
    sk = pcfg.skeleton
    points, smat = sk.pair_points, sk.smat
    a, b = points[j] if len(points[j]) == 2 else (points[j][0], None)
    # e v(r_x) = row_a[x] - row_b[x] (smat is symmetric), with a row of
    # zeros for the b_j at infinity
    row_a = smat[a]
    row_b = [0] * len(row_a) if b is None else smat[b]
    # a one-point pair (the pair at infinity) has pts[0] == pts[-1]
    first, last = points[i][0], points[i][-1]
    level = row_a[first] - row_b[first]
    if row_a[last] - row_b[last] != level:
        return None
    candidates = []
    for l, pts in enumerate(points):
        if (l != j and l not in I and row_a[pts[0]] - row_b[pts[0]] == level
                and row_a[pts[-1]] - row_b[pts[-1]] == level):
            candidates.append(l)
    if not candidates:
        return None
    ctx = pcfg.ctx
    ring, valuation, rhs = ctx.integers, ctx.integral_valuation, level + ctx.rho_steps
    sub, cross, zero, ints, den = ring.sub, ring.cross, ring.zero, sk.ints, sk.den_steps
    # (N_x, M_x, e v(M_x)) of each finite representative, pair i's first;
    # M_x is None when b_j is infinity
    A_a, A_b, reps = ints[a], None if b is None else ints[b], []
    for l in (i, *candidates):
        rep = []
        for x in points[l]:
            A_x = ints[x]
            rep.append((sub(A_x, A_a), None if b is None else sub(A_x, A_b), row_b[x] + den))
        reps.append(rep)
    reps_i, *reps = reps
    for n in range(1, ctx.p):
        turned = [(ring.rotate(n_i, n), m_i, vm_i) for n_i, m_i, vm_i in reps_i]
        for l, reps_l in zip(candidates, reps):
            # every pair of representatives, pair i's outermost; the first
            # failing side ends both loops
            sides = []
            for zn_i, m_i, vm_i in turned:
                for n_l, m_l, vm_l in reps_l:
                    if b is None:
                        top, below = sub(n_l, zn_i), den
                    else:
                        top = cross(n_l, m_i, zn_i, m_l)
                        below = vm_l + vm_i
                    lhs = INF_STEPS if top == zero else valuation(top) - below
                    if not lhs > rhs:
                        break
                    sides.append(lhs)
                else:
                    continue
                break
            else:
                return n, FoldWitness(l, ctx.val_of_steps(sides[0]), ctx.val_of_steps(rhs))
    return None


def fold_map(pcfg: PairedConfiguration, j: int, n: int) -> Mobius:
    """The n-th power of generator j, as :func:`~.oracle.word_matrix` gives
    it, built from the skeleton's numerators of pair j over its
    denominator L, so nothing is lowered again."""
    sk = pcfg.skeleton
    ints = [sk.ints[x] for x in sk.pair_points[j]]
    return integer_map(pcfg.ctx, *order_p_matrix(pcfg.ctx, ints, sk.den, n))


def apply_folding(
    pcfg: PairedConfiguration, I: frozenset[int], m: Mobius
) -> Configuration:
    """Replace the pairs in the fold set I by their images under the fold
    map m; others unchanged.

    I holds finite pairs only (:func:`compute_I` admits no pair with
    infinity), so each moved pair's two points are read off the skeleton
    as A / L and mapped by one :func:`~.projline.image` call on m's
    integer entries.  The result is flattened in pair-index order and may
    be a multiset.
    """
    ctx, sk, ent = pcfg.ctx, pcfg.skeleton, m.entries()
    ints, points = sk.ints, []
    for l, pair in enumerate(pcfg.pairs):
        if l in I:
            points += image(ctx, ent, map(ints.__getitem__, sk.pair_points[l]), sk.den)
        else:
            points += pair
    return Configuration(ctx, tuple(points))


def validate_input(ctx: FieldContext, cfg: Configuration) -> None:
    """InvalidInputError unless ``cfg`` lies in ``ctx`` (the one shared
    context, found by identity before contexts are compared), its size is
    even and >= 4 and infinity is among its points, found in one plain
    loop; a repeated infinity, like any repeated value, is left to the
    repeat count of ``run_algorithm``."""
    if cfg.ctx is not ctx and cfg.ctx != ctx:
        raise InvalidInputError(f"the configuration's field is {cfg.ctx!r}, not {ctx!r}")
    size = len(cfg.points)
    if size < 4 or size % 2 != 0:
        raise InvalidInputError("configuration must have even size >= 4")
    for pt in cfg.points:
        if pt.value is None:
            break
    else:
        raise InvalidInputError("configuration must contain the point at infinity")


def run_algorithm(ctx: FieldContext, cfg: Configuration) -> Verdict:
    """Run the folding loop to a verdict, recording every fold.

    Each pass re-pairs from scratch.  ``pair_up`` finds repeated points,
    infinity among them, while it builds its step matrix, and its
    RepeatedPointsError names their classes by position; each point is
    named by the first index of its class.  After a fold, two distinct
    inherited pairs that share a name give NotGood (SHARED_FIXED_POINT).
    Otherwise the classes are counted: an even number stops with
    Redundant, which keeps the first occurrences in order, and an odd
    number means the pairing is broken.  After a fold the pairs must sit
    at the positions handed down, compared by position, and the sum of the
    ``pair_gaps`` must drop, or RuntimeError.  Then i = 0..g-1 is scanned
    for a fold; a performed fold restarts the pass.  When no fold exists
    the configuration is optimal.
    """
    validate_input(ctx, cfg)
    trace: list[FoldingStep] = []
    current, measure = cfg, None
    while True:
        try:
            pcfg = pair_up(current)
        except RepeatedPointsError as exc:
            # each point named by the first index of its class; apply_folding
            # lists inherited pair k at positions (2k, 2k + 1), and the
            # distinct pairs meet when their sizes sum past their union's
            name = list(range(len(current.points)))
            for first, *others in exc.classes:
                for k in others:
                    name[k] = first
            pairs = {frozenset(name[k : k + 2]) for k in range(0, len(name), 2)}
            if trace and sum(map(len, pairs)) > len(frozenset().union(*pairs)):
                return NotGood(PairingFailure.SHARED_FIXED_POINT, tuple(trace))
            if len(exc.classes) % 2 == 0:
                reduced = [pt for k, pt in enumerate(current.points) if name[k] == k]
                return Redundant(current._replace(points=tuple(reduced)), tuple(trace))
            return NotGood(PairingFailure.NOT_CLUSTERED_IN_PAIRS, tuple(trace))
        except PairingError as exc:
            return NotGood(exc.failure, tuple(trace))
        # A fold is only good if the set stays clustered in the inherited
        # pairs.  Clusterings are unique, so a different canonical pairing
        # means the inherited labels lost separation (their tubes touch):
        # a bad folding, even though the bare point set pairs up again.
        # apply_folding lists inherited pair k at input positions (2k,
        # 2k + 1), infinity last, and each finite pair holds the input
        # positions of its points.
        g = pcfg.g
        if trace:
            for x, y in pcfg.skeleton.pair_points[:g]:
                if x // 2 != y // 2:
                    return NotGood(PairingFailure.NOT_SEPARATED, tuple(trace))
        previous, measure = measure, sum(pcfg.skeleton.pair_gaps)
        if previous is not None and measure >= previous:
            raise RuntimeError(f"termination measure did not drop: {previous} to {measure}")

        for i in range(g):
            j, target = select_target(pcfg, i)
            indices = compute_I(pcfg, i, target)
            found = find_fold_exponent(pcfg, i, j, indices)
            if found is None:
                continue
            n, witness = found
            m = fold_map(pcfg, j, n)
            after = apply_folding(pcfg, indices, m)
            trace.append(FoldingStep(i, j, n, indices, m, pcfg, after, witness))
            current = after
            break
        else:
            return Good(pcfg, tuple(trace))
