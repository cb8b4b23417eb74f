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
DIGEST = "39b08aeac10287195d9558e99d55a07b8141e481275871c7c3161219054662bc"


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


def test_census_of_six_boxes_keeps_every_verdict():
    digest = hashlib.sha256()
    for (p, ell, n), want in BOXES.items():
        ctx = sf.field_context(p, ell)
        tally = {sf.Good: 0, sf.NotGood: 0, sf.Redundant: 0}
        span = [x for x in range(-n, n + 1) if x not in (0, 1)]
        for x, y, z in combinations(span, 3):
            points = [0, 1, "inf", x, y, z]
            verdict = sf.run_algorithm(ctx, sf.configuration(ctx, points))
            tally[type(verdict)] += 1
            digest.update(f"{p},{ell}|{census_line(points, verdict)}".encode())
        got = (tally[sf.Good], tally[sf.NotGood], tally[sf.Redundant])
        print(f"\n({p}, {ell}) at N = {n}: {got[0]} good, {got[1]} not good, {got[2]} redundant")
        assert got == want, (p, ell, n)
    print(f"census digest: {digest.hexdigest()}")
    assert digest.hexdigest() == DIGEST
