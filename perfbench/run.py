"""End-to-end and per-layer benchmark of schottkyfold.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload draws cycles of fresh inputs from its seed, as many as take
about ``--seconds`` on the reference machine, and runs them once in a
closed loop, one problem at a time, in one thread, through the program's
public entry points.  After every cycle the outputs are checked against
properties the method must have or against the benchmark's own arithmetic
(``arith``).

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` a
fixed number of cycles runs once untraced and once traced (``spans``), and
the per-layer metrics are printed.  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.  Details (samples,
verdict mix, layer shares) and traced spans go to perfbench/out/.  See
README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import arith  # noqa: E402
import corpus  # noqa: E402
from arith import INF  # noqa: E402

SETUP_STARTS = 21  # fresh interpreters per run, spread over it; setup_s is their median
# Times are reported at the machine speed at which the calibration kernel
# (kernel_s) takes this long: about the median speed of the machine the
# reference figures in README.md come from.
KERNEL_REF_S = 1.0e-3
EXIT_OF_KIND = {"good": 0, "not_good": 1, "redundant": 2}


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------


@dataclass
class Problem:
    call: Callable[[], object]  # the timed call into the program
    info: object  # the generated input it was built from


@dataclass
class Workload:
    name: str
    fields: list[tuple[int, int]]  # contexts built at set-up
    imports_cli: bool
    cycle_s: float  # sizes the corpus: a run holds ceil(seconds / cycle_s) cycles
    trace_cycles: int  # cycles in a traced run
    cycle: Callable  # (rng, sf, ctxs) -> list[Problem]
    check: Callable  # (sf, ctxs, problems, outputs) -> list of (index, reason)
    kind: Callable  # output -> verdict kind, for the mix and the traced pass


def tail_percentile(n: int) -> float:
    """The highest of the usual percentiles with at least ten of n samples
    beyond it."""
    for q in (99.0, 95.0, 90.0, 80.0, 75.0):
        if n - -(-n * q // 100) >= 10:
            return q
    raise ValueError(f"{n} problems are too few for a tail percentile (at least 40)")


def _kind(verdict) -> str:
    return {"Good": "good", "NotGood": "not_good", "Redundant": "redundant"}[type(verdict).__name__]


# -- fold workloads -----------------------------------------------------------

# One family per stratum (p, ell, g, strays) in each cycle.
FOLD_RATIONAL_STRATA = [(2, ell, 4, strays) for ell in (2, 3, 5, 7) for strays in (False, True)]

FOLD_CYCLOTOMIC_STRATA = [
    (p, ell, 3, strays) for p, ell in ((3, 7), (5, 11), (3, 3), (5, 5)) for strays in (False, True)
]


def fold_cycle(strata, max_moves: int):
    turns = itertools.count()

    def make(rng, sf, ctxs):
        problems = []
        for fi in corpus.fold_cycle(rng, strata, max_moves, next(turns)):
            ctx = ctxs[fi.p, fi.ell]
            cfg = sf.configuration(ctx, fi.points)
            problems.append(Problem((lambda ctx=ctx, cfg=cfg: sf.run_algorithm(ctx, cfg)), fi))
        return problems

    return make


class FoldChecker:
    """Family members agree on goodness; every Good S^min, run again, is
    Good with zero folds; a rational S^min is clustered in separated pairs
    by the benchmark's own cluster classes.

    Goodness, not the verdict kind, is what a Nielsen move or a change of
    coordinates must keep: whether a set that is not good ends as NotGood
    or as Redundant can depend on the order of its points (see CHANGES.md).
    Such splits are counted in ``splits`` and reported, not failed.
    """

    def __init__(self):
        self.splits = 0

    def __call__(self, sf, ctxs, problems, outputs):
        bad = []
        families: dict[int, list[int]] = {}
        for k, pr in enumerate(problems):
            families.setdefault(pr.info.family, []).append(k)
        for members in families.values():
            kinds = [_kind(outputs[k]) for k in members]
            for k, kind in zip(members[1:], kinds[1:]):
                if (kind == "good") != (kinds[0] == "good"):
                    bad.append((k, f"{problems[k].info.label} is {kind}, its base is {kinds[0]}"))
                elif kind != kinds[0]:
                    self.splits += 1
        rerun: dict = {}
        for k, (pr, verdict) in enumerate(zip(problems, outputs)):
            if not isinstance(verdict, sf.Good):
                continue
            ctx = ctxs[pr.info.p, pr.info.ell]
            s_min = verdict.s_min.configuration()
            key = (pr.info.p, pr.info.ell, tuple(sorted(map(repr, s_min.points))))
            if key not in rerun:
                again = sf.run_algorithm(ctx, s_min)
                rerun[key] = isinstance(again, sf.Good) and not again.trace
            if not rerun[key]:
                bad.append((k, "S^min run again is not Good with zero folds"))
            if pr.info.p == 2:
                pairs = [tuple(INF if pt.is_infinity else pt.value for pt in pair) for pair in verdict.s_min.pairs]
                if not arith.is_paired(pairs, 2, pr.info.ell):
                    bad.append((k, "S^min is not clustered in separated pairs"))
        return bad


# -- audit workload -------------------------------------------------------------

# (p, ell, g, depth) per cycle, then the two showcases.
AUDIT_STRATA = [
    (2, 3, 3, 6),
    (2, 7, 3, 6),
    (2, 2, 3, 6),
    (2, 5, 3, 7),
    (2, 5, 2, 7),
    (2, 7, 2, 7),
    (3, 7, 2, 4),
    (3, 3, 2, 4),
    (3, 7, 3, 3),
]


@dataclass
class AuditCase:
    inp: corpus.AuditInput
    folding_kind: str  # the folding verdict of the same set


def audit_cycle(rng, sf, ctxs):
    from schottkyfold.clusters import PairedConfiguration

    problems = []
    for ai in corpus.audit_cycle(rng, AUDIT_STRATA):
        ctx = ctxs[ai.p, ai.ell]
        pairs = tuple(tuple(sf.INFINITY if x == INF else sf.finite(ctx, x) for x in pr) for pr in ai.pairs)
        pcfg = PairedConfiguration(ctx, pairs)
        case = AuditCase(ai, _kind(sf.run_algorithm(ctx, pcfg.configuration())))
        problems.append(Problem((lambda pcfg=pcfg, depth=ai.depth: sf.schottky_audit(pcfg, depth)), case))
    return problems


def witness_is_not_loxodromic(ai: corpus.AuditInput, syllables) -> bool:
    """Multiply out the word with the benchmark's own rational 2x2 matrices
    and confirm 2 v(tr) >= v(det) with its own ell-adic valuation."""
    F = arith.Rat()
    m = None
    for idx, exp in syllables:
        a, b = ai.pairs[idx]
        factor = arith.order_p_map(F, a, b, exp)
        m = factor if m is None else arith.mat_mul(F, m, factor)
    tr, det = m[0] + m[3], m[0] * m[3] - m[1] * m[2]
    if det == 0:
        return False
    return tr == 0 or 2 * arith.vq(tr, ai.ell) >= arith.vq(det, ai.ell)


def audit_check(sf, ctxs, problems, outputs):
    """words_checked is positive and at most the benchmark's own count of
    words (equal to it when no witness is found); a set whose folding
    verdict is Good has no witness; a witness on a rational set is
    multiplied out and confirmed; the 5-adic showcase has one."""
    bad = []
    for k, (pr, result) in enumerate(zip(problems, outputs)):
        case = pr.info
        ai = case.inp
        g = len(ai.pairs) - 1
        bound = arith.gamma_word_count(g, ai.p, ai.depth)
        if not 0 < result.words_checked <= bound:
            bad.append((k, f"words_checked {result.words_checked} outside (0, {bound}]"))
        if result.witness is None:
            if result.words_checked != bound:
                bad.append((k, f"no witness after {result.words_checked} of {bound} words"))
            if ai.witness_expected:
                bad.append((k, "the 5-adic showcase gave no witness"))
            continue
        if case.folding_kind == "good":
            bad.append((k, "a set with folding verdict Good gave a witness"))
        word, _cls = result.witness
        if ai.p == 2 and not witness_is_not_loxodromic(ai, word.syllables):
            bad.append((k, "the witness word is loxodromic"))
    return bad


# -- cli workload -----------------------------------------------------------------


def cli_cycle(rng, sf, ctxs):
    from schottkyfold import cli

    def call(text):
        report, code = cli.run(cli.parse_problem(text))
        return cli.render_report(report), code

    return [Problem((lambda text=ci.text: call(text)), ci) for ci in corpus.cli_cycle(rng)]


def _cli_kind(output) -> str:
    return json.loads(output[0])["verdict"]["kind"]


class CliChecker:
    """Reports parse as JSON, exit codes match verdict kinds, kinds known by
    construction hold, families share a kind, a document run twice gives
    byte-identical reports, Good sets audit without a witness."""

    def __init__(self):
        self.digests: dict[str, str] = {}

    def __call__(self, sf, ctxs, problems, outputs):
        bad = []
        kinds: dict[int, str] = {}
        for k, (pr, (text, code)) in enumerate(zip(problems, outputs)):
            ci = pr.info
            try:
                report = json.loads(text)
                kind = report["verdict"]["kind"]
            except (ValueError, KeyError) as exc:
                bad.append((k, f"report does not parse: {exc}"))
                continue
            if EXIT_OF_KIND.get(kind) != code:
                bad.append((k, f"exit code {code} for verdict {kind}"))
            if ci.expect is not None and kind != ci.expect:
                bad.append((k, f"{ci.label} gave {kind}, expected {ci.expect}"))
            if ci.expect == "not_good" and report["verdict"].get("stage") != "initial":
                bad.append((k, "a broken pairing was not rejected at stage initial"))
            if ci.expect == "redundant":
                doc = json.loads(ci.text)
                if sorted(set(doc["points"])) != sorted(report["verdict"]["reduced"]):
                    bad.append((k, "reduced set is not the distinct input points"))
            if kind == "good" and report.get("audit") and report["audit"]["witness"] is not None:
                bad.append((k, "a Good set gave an audit witness"))
            if report.get("audit"):
                doc = json.loads(ci.text)
                g = len(doc["points"]) // 2 - 1
                bound = arith.gamma_word_count(g, doc["p"], report["audit"]["depth"])
                if not 0 < report["audit"]["words_checked"] <= bound:
                    bad.append((k, "audit words_checked out of range"))
            digest = hashlib.sha256(text.encode()).hexdigest()
            if self.digests.setdefault(ci.text, digest) != digest:
                bad.append((k, "a document run twice gave different reports"))
            if ci.family is not None:
                if kinds.setdefault(ci.family, kind) != kind:
                    bad.append((k, f"{ci.label} gave {kind}, its family {kinds[ci.family]}"))
        return bad


WORKLOADS = {
    "fold_rational": lambda: Workload(
        "fold_rational", [(2, 2), (2, 3), (2, 5), (2, 7)], False, 0.43, 16,
        fold_cycle(FOLD_RATIONAL_STRATA, 2), FoldChecker(), _kind,
    ),
    "fold_cyclotomic": lambda: Workload(
        "fold_cyclotomic", [(3, 7), (5, 11), (3, 3), (5, 5)], False, 0.9, 8,
        fold_cycle(FOLD_CYCLOTOMIC_STRATA, 1), FoldChecker(), _kind,
    ),
    "audit": lambda: Workload(
        "audit", sorted({(p, ell) for p, ell, _, _ in AUDIT_STRATA}), False, 2.1, 1,
        audit_cycle, audit_check, lambda r: "witness" if r.witness is not None else "no_witness",
    ),
    "cli_batch": lambda: Workload(
        "cli_batch", [(2, 2), (2, 3), (2, 5), (2, 7), (3, 3), (3, 7)], True, 1.05, 2,
        cli_cycle, CliChecker(), _cli_kind,
    ),
}


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------


def measure_setup(wl: Workload, starts: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to the program being ready:
    imported (with the CLI for cli_batch) and the field contexts built.
    Each start is scaled by the calibration kernel timed in that same
    interpreter once it is ready (the median of three)."""
    code = "\n".join(
        [
            "import sys, time",
            f"sys.path.insert(0, {SRC!r})",
            "import schottkyfold",
            "import schottkyfold.cli" if wl.imports_cli else "",
            f"ctxs = [schottkyfold.field_context(p, l) for p, l in {wl.fields!r}]",
            "ready = time.monotonic()",
            f"sys.path.insert(0, {HERE!r})",
            "from run import kernel_s",
            "print(repr(ready), repr(sorted(kernel_s() for _ in range(3))[1]))",
        ]
    )
    times = []
    for _ in range(starts):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-I", "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
        ready, kernel = map(float, proc.stdout.split())
        times.append((ready - t0) * KERNEL_REF_S / kernel)
    return times


def kernel_s() -> float:
    """Seconds the calibration kernel takes now: a fixed piece of pure-Python
    Fraction arithmetic, like the program's own work."""
    t0 = perf_counter()
    x = Fraction(1)
    for i in range(1, 120):
        x = x * Fraction(i + 1, i) + Fraction(1, i * i)
    return perf_counter() - t0


def time_calls(problems: list[Problem], tracer=None) -> tuple[list[float], list[float], list]:
    """Call each problem in turn; a call that raises returns its exception.

    Returns the scaled times, the raw wall times and the outputs.  The
    kernel is timed just before and just after each call, and the call's
    wall time is scaled by KERNEL_REF_S over their mean: the machine's
    speed swings cancel, the program's own cost stays.
    """
    scaled, raw, outputs = [], [], []
    for pr in problems:
        k0 = kernel_s()
        with tracer.span("bench.problem") if tracer else nullcontext():
            t0 = perf_counter()
            try:
                out = pr.call()
            except Exception as exc:  # a raising call is a failed problem
                out = exc
            wall = perf_counter() - t0
        k1 = kernel_s()
        raw.append(wall)
        scaled.append(wall * KERNEL_REF_S / ((k0 + k1) / 2))
        outputs.append(out)
    return scaled, raw, outputs


class Outcomes:
    """Per problem: its verdict kind, and failures."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.kinds: list = []
        self.failed: set[int] = set()
        self.reasons: list[str] = []

    def fail(self, number: int, reason: str) -> None:
        self.failed.add(number)
        self.reasons.append(reason)

    def record(self, sf, ctxs, first: int, problems: list[Problem], outputs: list) -> None:
        """Check one cycle's outputs; problems are numbered from ``first``."""
        ok = []
        for k, out in enumerate(outputs):
            if isinstance(out, Exception):
                self.fail(first + k, f"{type(out).__name__}: {out}")
                self.kinds.append(None)
            else:
                ok.append(k)
                self.kinds.append(self.wl.kind(out))
        for k, reason in self.wl.check(sf, ctxs, [problems[k] for k in ok], [outputs[k] for k in ok]):
            self.fail(first + ok[k], reason)

    def same_kinds(self, first: int, outputs: list) -> None:
        """The traced pass must give every problem the same verdict kind."""
        for k, out in enumerate(outputs):
            if isinstance(out, Exception):
                self.fail(first + k, f"{type(out).__name__}: {out}")
            elif self.kinds[first + k] is not None and self.wl.kind(out) != self.kinds[first + k]:
                self.fail(first + k, "the traced pass gave another verdict kind")

    def mix(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for kind in self.kinds:
            out[str(kind)] = out.get(str(kind), 0) + 1
        return out


def percentile(xs: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(xs)
    rank = max(1, -(-len(xs) * q // 100))
    return xs[int(rank) - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "schottkyfold", "__init__.py")):
        print(f"error: the program's sources are missing ({SRC})", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    wl = WORKLOADS[args.workload]()
    rng = random.Random(f"{wl.name}/{args.seed}")
    os.makedirs(OUT, exist_ok=True)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"

    if not args.trace:
        measure_setup(wl, 1)  # caches bytecode; not counted
    import schottkyfold as sf

    if wl.imports_cli:
        import schottkyfold.cli  # noqa: F401
    ctxs = {pl: sf.field_context(*pl) for pl in wl.fields}

    outcomes = Outcomes(wl)
    details: dict = {"workload": wl.name, "seed": args.seed, "trace": args.trace}
    if args.trace:
        metrics = traced_run(wl, sf, ctxs, rng, outcomes, details, tag)
    else:
        metrics = timed_run(wl, sf, ctxs, rng, outcomes, details, args.seconds)
        print(f"problem_tail_ms is p{details['tail_percentile']:g} of {details['timed_problems']} timed problems")

    attempted, failed = len(outcomes.kinds), len(outcomes.failed)
    details.update(attempted=attempted, failed=failed, failures=outcomes.reasons[:50], verdict_mix=outcomes.mix())
    if isinstance(wl.check, FoldChecker):
        details["kind_splits"] = wl.check.splits
    details["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(details, fh, indent=1)
    for reason in outcomes.reasons[:20]:
        print(f"FAILED: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def timed_run(wl: Workload, sf, ctxs, rng, outcomes: Outcomes, details: dict, seconds: float) -> dict:
    """Run the corpus, sized from ``seconds``, once, checking each cycle."""
    cycles: list[list[Problem]] = []
    while len(cycles) < seconds / wl.cycle_s or sum(map(len, cycles)) < 40:
        cycles.append(wl.cycle(rng, sf, ctxs))
    # The fresh starts are spread between the cycles, so that their median
    # sees the machine over the whole run rather than in one moment.
    setup_times: list[float] = []
    scaled: list[float] = []
    raw: list[float] = []
    t_start = perf_counter()
    for k, problems in enumerate(cycles):
        times, walls, outputs = time_calls(problems)
        outcomes.record(sf, ctxs, len(scaled), problems, outputs)
        scaled += times
        raw += walls
        starts = (k + 1) * SETUP_STARTS // len(cycles) - k * SETUP_STARTS // len(cycles)
        setup_times += measure_setup(wl, starts)
    ok = [t for k, t in enumerate(scaled) if k not in outcomes.failed] or scaled
    q = tail_percentile(len(scaled))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    details.update(
        cycles=len(cycles),
        loop_s=perf_counter() - t_start,
        wall_s=sum(raw),
        scaled_s=sum(scaled),
        wall_problems_per_s=len(raw) / sum(raw),
        wall_problem_p50_ms=statistics.median(raw) * 1e3,
        tail_percentile=q,
        timed_problems=len(ok),
        setup_starts_s=setup_times,
        problem_ms=[round(t * 1e3, 3) for t in scaled],
        problem_kinds=outcomes.kinds,
    )
    return {
        "problems_per_s": (len(ok) / sum(ok), "1/s"),
        "problem_p50_ms": (statistics.median(ok) * 1e3, "ms"),
        "problem_tail_ms": (percentile(ok, q) * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }


def traced_run(wl: Workload, sf, ctxs, rng, outcomes: Outcomes, details: dict, tag: str) -> dict:
    """A fixed set of cycles, once untraced and once traced.  The traced
    pass gives the per-layer metrics, the ratio of the two passes' timed
    wall time is the tracing overhead, and the two passes must agree."""
    import spans

    cycles = [wl.cycle(rng, sf, ctxs) for _ in range(wl.trace_cycles)]
    untraced_s = 0.0
    first = 0
    for problems in cycles:
        times, _, outputs = time_calls(problems)
        untraced_s += sum(times)
        outcomes.record(sf, ctxs, first, problems, outputs)
        first += len(problems)
    tracer = spans.Tracer()
    tracer.install()
    traced_s = 0.0
    traced = []
    try:
        with tracer.span("bench.run"):
            for problems in cycles:
                times, _, outputs = time_calls(problems, tracer)
                traced_s += sum(times)
                traced.append(outputs)
    finally:
        tracer.remove()
    first = 0
    for outputs in traced:
        outcomes.same_kinds(first, outputs)
        first += len(outputs)
    stats = tracer.aggregate()
    metrics = spans.layer_metrics(tracer, stats)
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    details["self_time_shares"] = spans.self_time_shares(stats)
    details["span_count"] = len(tracer.start)
    tracer.write(os.path.join(OUT, f"spans-{tag}.csv.gz"))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
