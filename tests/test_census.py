"""The census gate: every verdict of ``run_algorithm`` over six small boxes.

A box is every set {0, 1, inf, x, y, z} with integers x < y < z in
[-N, N], none of them 0 or 1, in one field.  Each box's count of good, not
good and redundant verdicts is pinned, and so is one sha256 over every
verdict: its kind, its fold count, the repr of S^min or of the reduced set,
and the failure.  About 7,000 sets run in about a second, so a change that
claims to keep every verdict is held to it here.  A change that alters a
verdict in these boxes updates the pin and names each set it changes.
"""

from __future__ import annotations

import hashlib
from itertools import combinations

import schottkyfold as sf

# (p, ell, N): (good, not good, redundant)
BOXES = {
    (2, 3, 12): (298, 1449, 24),
    (2, 2, 12): (8, 1759, 4),
    (2, 5, 12): (320, 1441, 10),
    (3, 7, 9): (56, 624, 0),
    (3, 3, 9): (27, 653, 0),
    (5, 11, 7): (0, 286, 0),
}
DIGEST = "1b4c305fbb2b9f46d9ccbc97e8b7c4111793999cbce153fd3ea93d5a36940b55"


def census_line(points, verdict) -> str:
    """One verdict as a line of the digest."""
    if isinstance(verdict, sf.Good):
        shown, failure = repr(verdict.s_min), ""
    elif isinstance(verdict, sf.Redundant):
        shown, failure = repr(verdict.reduced), ""
    else:
        shown, failure = "", verdict.failure.value
    kind = type(verdict).__name__
    return f"{points}|{kind}|{len(verdict.trace)}|{shown}|{failure}\n"


def census_sets(p, ell, n):
    """The box's sets {0, 1, inf, x, y, z}, as point lists in that order."""
    span = [x for x in range(-n, n + 1) if x not in (0, 1)]
    return [[0, 1, "inf", x, y, z] for x, y, z in combinations(span, 3)]


def test_census_of_six_boxes_keeps_every_verdict():
    digest = hashlib.sha256()
    for (p, ell, n), want in BOXES.items():
        ctx = sf.field_context(p, ell)
        tally = {sf.Good: 0, sf.NotGood: 0, sf.Redundant: 0}
        for points in census_sets(p, ell, n):
            verdict = sf.run_algorithm(ctx, sf.configuration(ctx, points))
            tally[type(verdict)] += 1
            digest.update(f"{p},{ell}|{census_line(points, verdict)}".encode())
        got = (tally[sf.Good], tally[sf.NotGood], tally[sf.Redundant])
        print(f"\n({p}, {ell}) at N = {n}: {got[0]} good, {got[1]} not good, {got[2]} redundant")
        assert got == want, (p, ell, n)
    print(f"census digest: {digest.hexdigest()}")
    assert digest.hexdigest() == DIGEST


def test_census_verdicts_survive_a_change_of_coordinates():
    # z -> 1/(z - c) carries a finite point c of the set to infinity and
    # infinity to 0; it conjugates the group, so the verdict's kind, its
    # failure and its fold count stay.  c runs through 0, 1, x, y, z in turn.
    def summary(verdict):
        return type(verdict), getattr(verdict, "failure", None), len(verdict.trace)

    moved = 0
    for p, ell, n in BOXES:
        ctx = sf.field_context(p, ell)
        for k, points in enumerate(census_sets(p, ell, n)):
            cfg = sf.configuration(ctx, points)
            c = [0, 1, *points[3:]][k % 5]
            m = sf.mobius(ctx, 0, 1, 1, -c)
            image = sf.Configuration(ctx, tuple(sf.apply(m, pt) for pt in cfg.points))
            assert summary(sf.run_algorithm(ctx, image)) == summary(sf.run_algorithm(ctx, cfg)), (
                p, ell, points, c,
            )
            moved += 1
    assert moved == sum(sum(counts) for counts in BOXES.values())
