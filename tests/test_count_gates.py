"""The count gates of the fold loop, the report path and the audit:
operation counts that do not depend on the machine, read in one pass of
every pinned CLI document through ``parse_problem``, ``run`` (with a dot
prefix, so the hull runs; no file is written) and ``render_report``, from
a cleared ``field_context`` cache and an empty audit plan cache.

Each gate holds a limit, a ratio or an exact count, and each has a count
above 0 so that it cannot pass vacuously.  ``pytest tests/test_count_gates.py -s`` prints the
readings.
"""

from __future__ import annotations

import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import schottkyfold as sf
from schottkyfold import cli, folding, oracle, projline, valfield
from schottkyfold.projline import PPoint
from schottkyfold.valfield import FieldContext

from helpers import (count_cache_misses, count_calls, count_chain_walks, count_finite_pairs_built,
                     count_kernel_calls, recorded_inside)

DOCS = sorted((Path(__file__).parent / "expected" / "cli").glob("*.json"))

# valuing every difference in the skeleton and the fold scan took 736
VALUATION_LIMIT = 464
# turning pair i's cross ratios at every scan took 144
ROTATION_LIMIT = 114
# classifying every least rotation, inverses and powers included, took 119
CLASSIFIED_LIMIT = 77
# pair_up making each paired point anew, not handing over the input's, took
# 200; apply_folding mapping an infinity for every moved pair, finite ones
# too, and dropping it, took 39
POINT_LIMIT = 36
# the frames of schottkyfold functions entered inside run_algorithm, walking
# each cluster chain as a generator, comparing INF_STEPS on the step
# matrix's diagonal, reading Fraction properties and mapping an unused
# infinity per moved pair took 3,684, and running sub and rotate as ring
# methods, not compiled kernels (whose frames come from no package file),
# took 2,782
FRAME_LIMIT = 2570
# the frames of the compiled ring kernels (sub, rotate, cross and mul, their
# code from "<Z[zeta_p] name>") entered inside run_algorithm
KERNEL_FRAME_LIMIT = 500
# telling "inf" from a point, and a repeat of the first point, by comparing
# each with it took 288; refusing a repeated pair in the audit, and naming
# a repeat after a fold, by comparing and hashing points took 73
COMPARISON_LIMIT = 0


def _last(p, depth):
    """The longest length that holds a word of the audit at ``depth``."""
    return depth - depth % 2 if p == 2 else depth


@pytest.fixture(scope="module")
def counts():
    with pytest.MonkeyPatch.context() as mp:
        sf.field_context.cache_clear()
        contexts = count_calls(mp, FieldContext, "__init__")
        plans = count_cache_misses(mp, oracle, "_plan")
        schedules = count_calls(mp, oracle, "_schedule")
        scan = recorded_inside(mp, folding, "find_fold_exponent", rotations=count_kernel_calls(mp, "rotate"))
        scans = count_calls(mp, folding, "find_fold_exponent")
        points = count_calls(mp, PPoint, "__new__")
        comparisons = count_calls(mp, Fraction, "__eq__")
        # what the benchmark's tracer wraps but nothing on a program path
        # calls: a context's valuation and mul, and the map route apply
        unused = {
            "valuation": count_calls(mp, FieldContext, "valuation"),
            "mul": count_calls(mp, FieldContext, "mul"),
            "apply": count_calls(mp, projline, "apply", everywhere=True),
        }
        classify_calls = count_calls(mp, projline, "classify", everywhere=True)
        run = recorded_inside(mp, cli, "run", comparisons=comparisons, plans=plans, schedules=schedules,
                              classify=classify_calls, **unused)
        loop = recorded_inside(
            mp, folding, "run_algorithm",
            valuations=count_calls(mp, FieldContext, "integral_valuation"),
            walks=count_chain_walks(mp),
            pairs=count_finite_pairs_built(mp),
            points=points,
            targets=count_calls(mp, folding, "targets"),
            selects=count_calls(mp, folding, "select_target"),
        )
        audit = recorded_inside(
            mp, oracle, "schottky_audit",
            classified=count_calls(mp, oracle, "is_loxodromic"),
        )
        audits = count_calls(mp, oracle, "schottky_audit")
        fields, audited = set(), []
        for doc in DOCS:
            spec = cli.parse_problem(doc.read_text(encoding="utf-8"))
            report = cli.run(spec._replace(dot="unused"))[0]
            cli.render_report(report)
            fields.add((spec.p, spec.ell))
            if "audit" in report:
                audited.append(report["audit"])
        # one comparison, and one call of each unused route and of classify,
        # outside cli.run: the counters are live, so a reading inside it is
        # not vacuous
        assert Fraction(1, 2) == Fraction(2, 4)
        ctx = sf.field_context(spec.p, spec.ell)
        one = ctx.from_fraction(1)
        ctx.valuation(ctx.mul(one, one))
        pcfg = sf.PairedConfiguration(ctx, ((sf.finite(ctx, 0), sf.INFINITY),))
        s0 = sf.word_matrix(pcfg, sf.GroupWord(((0, 1),)))
        sf.classify(s0)
        sf.apply(s0, sf.finite(ctx, 1))
        # one pair is a shape no document audits
        sf.schottky_audit(pcfg, 2)
    # the rings built under the count keep its kernels
    sf.field_context.cache_clear()
    assert DOCS
    return {
        "valuations": len(loop["valuations"]),
        "rotations": len(scan["rotations"]),
        "scans": len(scans),
        "walks": len(loop["walks"]),
        "pairs": sum(loop["pairs"]),
        "points": len(loop["points"]),
        "comparisons": len(run["comparisons"]),
        "all comparisons": len(comparisons),
        **{f"{name} calls": len(run[name]) for name in unused},
        **{f"all {name} calls": len(calls) for name, calls in unused.items()},
        "classify calls": len(run["classify"]),
        "all classify calls": len(classify_calls),
        "witnesses": sum(record["witness"] is not None for record in audited),
        "relations": sum(len(record["relations"]) for record in audited),
        "audits with relations": sum(bool(record["relations"]) for record in audited),
        "runs": len(DOCS),
        "targets": len(loop["targets"]),
        "selects": len(loop["selects"]),
        "contexts": len(contexts),
        "classified": len(audit["classified"]),
        "audits": len(audits),
        "plans": len(run["plans"]),
        "all plans": len(plans),
        "schedules": len(run["schedules"]),
        "shapes": len({(pcfg.g + 1, pcfg.ctx.p, _last(pcfg.ctx.p, depth))
                       for pcfg, depth in audits}),
        "fields": len(fields),
    }


def test_valuations_in_the_fold_loop(counts):
    # the FieldContext.integral_valuation calls made inside run_algorithm
    # (the audit and the hull are not counted): the skeleton and the fold
    # scan value only the differences the strong triangle inequality
    # leaves open
    print(f"\n{counts['valuations']} valuations over {len(DOCS)} documents (limit {VALUATION_LIMIT})")
    assert counts["valuations"] <= VALUATION_LIMIT


def test_rotations_in_the_fold_scan(counts):
    # the rotate calls of both integer rings made inside find_fold_exponent:
    # the scan forms and turns pair i's cross ratios only when some pair l
    # shares their level
    print(f"\n{counts['rotations']} rotations in {counts['scans']} fold scans (limit {ROTATION_LIMIT})")
    assert counts["scans"] > 0
    assert counts["rotations"] <= ROTATION_LIMIT


def test_chain_walks_in_the_fold_loop(counts):
    # Skeleton.paired walks each finite pair's cluster chain once, and the
    # fold pass reads its targets, branches and separation margin off
    # step-matrix rows, so the walks never exceed the pairs
    print(f"\n{counts['walks']} chain walks for {counts['pairs']} finite pairs built")
    assert counts["pairs"] > 0
    assert counts["walks"] <= counts["pairs"]


def test_one_targets_loop_per_select_target(counts):
    # select_target finds the targets of pair i for every j in one targets
    # loop
    print(f"\n{counts['targets']} targets loops for {counts['selects']} select_target calls")
    assert counts["selects"] > 0
    assert counts["targets"] == counts["selects"]


def test_one_field_context_per_field(counts):
    # field_context hands out one shared context per field, where
    # validating in parse_problem and building again in run took two per
    # document
    print(f"\n{counts['contexts']} field contexts built for {counts['fields']} fields")
    assert counts["contexts"] <= counts["fields"]


def test_words_classified_in_the_audit(counts):
    # the is_loxodromic calls made inside schottky_audit: one word per
    # conjugacy class up to inversion, less the powers of shorter words of
    # the subgroup
    print(f"\n{counts['classified']} words classified in {counts['audits']} audits "
          f"(limit {CLASSIFIED_LIMIT})")
    assert counts["classified"] > 0
    assert counts["classified"] <= CLASSIFIED_LIMIT


def test_one_plan_per_audited_shape(counts):
    # the audit plans made inside cli.run, the plan cache's misses: the
    # walk's schedule of words and products is worked out once per
    # (generators, p, last) and replayed for every later set of that shape,
    # where each audit worked it out anew.  No document takes the relation
    # walk, whose plan would be a second one of its shape.  A schedule is
    # started by a walk that needs a level its plan lacks, so a shape whose
    # longest length is below 2 (the document audited at depth 1) starts
    # none
    print(f"\n{counts['plans']} audit plans built for {counts['shapes']} shapes in "
          f"{counts['audits']} audits, {counts['schedules']} schedules started")
    assert counts["all plans"] > counts["plans"] > 0
    assert counts["plans"] <= counts["shapes"]


def test_points_made_in_the_fold_loop(counts):
    # the PPoint records made inside run_algorithm: pair_up hands over the
    # configuration's own points, so only a fold makes new ones
    print(f"\n{counts['points']} PPoint records made in run_algorithm (limit {POINT_LIMIT})")
    assert counts["points"] <= POINT_LIMIT


def test_fraction_comparisons_in_cli_run(counts):
    # the Fraction.__eq__ calls made inside cli.run, the audit and the fold
    # loop included: the report path tells "inf" from a point by its type,
    # a repeat by the positions cluster_data finds equal, and the audit a
    # repeated pair by its numerators
    print(f"\n{counts['comparisons']} Fraction comparisons in {counts['runs']} cli.run calls "
          f"(limit {COMPARISON_LIMIT})")
    assert counts["all comparisons"] > counts["comparisons"]
    assert counts["comparisons"] <= COMPARISON_LIMIT


def test_no_unused_route_is_called_in_cli_run(counts):
    # the FieldContext.valuation, FieldContext.mul and projline.apply calls
    # made inside cli.run, the fold loop, the hull and the audit included:
    # the program values on integers (integral_valuation), multiplies in
    # the integer ring and maps points by image, so the tracer's wrappers
    # on these three count nothing
    routes = ("valuation", "mul", "apply")
    print("\n" + ", ".join(f"{counts[f'{name} calls']} {name}" for name in routes)
          + f" calls in {counts['runs']} cli.run calls (limit 0 each)")
    for name in routes:
        assert counts[f"all {name} calls"] > counts[f"{name} calls"] == 0, name


def test_classify_is_called_once_per_flagged_word_in_cli_run(counts):
    # the projline.classify calls made inside cli.run: the audit classifies
    # with it exactly the words its Newton polygon filter does not pass,
    # read off the reports: each witness, each relation, and for an audit
    # with relations the identity word that ended its skipping walk.  The
    # fold loop, the hull and the report classify nothing
    flagged = counts["witnesses"] + counts["relations"] + counts["audits with relations"]
    print(f"\n{counts['classify calls']} classify calls in {counts['runs']} cli.run calls for "
          f"{counts['witnesses']} witnesses and {counts['relations']} relations")
    assert flagged > 0
    assert counts["all classify calls"] > counts["classify calls"] == flagged


def test_only_the_fold_kernels_compile_in_cli_run(monkeypatch):
    # the straight-line kernels compiled inside cli.run (with a dot prefix,
    # so the hull runs) over the pinned documents that set no verify_depth,
    # from cleared caches: the fold path cross-multiplies (cross), divides
    # (mul, in the quotient), subtracts (sub) and turns by powers of zeta
    # (rotate), and a first lookup compiles the one kernel looked up, so the
    # audit's matmul and trace_mul compile nothing there.  A matmul lookup
    # after the runs compiles: the counter is live
    sf.field_context.cache_clear()
    valfield._straight_line_kernel.cache_clear()
    compiled = count_calls(monkeypatch, valfield, "_kernel_source")
    run = recorded_inside(monkeypatch, cli, "run", compiled=compiled)
    runs = 0
    for doc in DOCS:
        spec = cli.parse_problem(doc.read_text(encoding="utf-8"))
        if spec.verify_depth is None:
            cli.run(spec._replace(dot="unused"))
            runs += 1
    names = sorted({name for _, name in run["compiled"]})
    print(f"\n{len(run['compiled'])} kernels compiled in {runs} cli.run calls without an audit: "
          + ", ".join(f"{name} at p = {p}" for p, name in run["compiled"]))
    assert names == ["cross", "mul", "rotate", "sub"]
    p = run["compiled"][0][0]
    sf.field_context(p, p).integers.matmul
    assert compiled[len(run["compiled"]):] == [(p, "matmul")]


def test_package_frames_in_the_fold_loop(monkeypatch):
    # the Python frames of schottkyfold functions entered inside
    # run_algorithm (sys.setprofile "call" events: run_algorithm's own
    # frame, every function it reaches, and a generator at each resume),
    # over the pinned documents through cli.run, from cleared caches.
    # Comprehension frames are not counted, for Python 3.12 inlines them.
    # The compiled ring kernels' frames, whose code comes from no package
    # file, are counted beside them under their own limit (the module frame
    # that defines a kernel at its compile is not a call of it); the builtin
    # calls ("c_call" events) are printed beside both readings.  Each
    # counter is live: the package counter sees run_algorithm's own frame
    # once per run, and the kernel counter the cyclotomic documents' scans
    sf.field_context.cache_clear()
    valfield._straight_line_kernel.cache_clear()
    package = str(Path(sf.__file__).parent)
    comprehensions = {"<listcomp>", "<setcomp>", "<dictcomp>"}
    frames, kernel_frames, builtin_calls = Counter(), Counter(), []

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(package) and code.co_name not in comprehensions:
                frames[code.co_name] += 1
            elif code.co_filename.startswith("<Z[zeta_") and code.co_name != "<module>":
                kernel_frames[code.co_name] += 1
        elif event == "c_call":
            builtin_calls.append(arg)

    run_algorithm = folding.run_algorithm
    runs = []

    def profiled(*args):
        runs.append(args)
        outer = sys.getprofile()
        sys.setprofile(profile)
        try:
            return run_algorithm(*args)
        finally:
            sys.setprofile(outer)

    monkeypatch.setattr(folding, "run_algorithm", profiled)
    for doc in DOCS:
        spec = cli.parse_problem(doc.read_text(encoding="utf-8"))
        cli.run(spec._replace(dot="unused"))
    total, kernels = sum(frames.values()), sum(kernel_frames.values())
    print(f"\n{total} package frames (limit {FRAME_LIMIT}), {kernels} kernel frames "
          f"(limit {KERNEL_FRAME_LIMIT}: "
          + ", ".join(f"{name} {count}" for name, count in kernel_frames.most_common())
          + f") and {len(builtin_calls)} builtin calls in {len(runs)} run_algorithm calls")
    assert runs and frames["run_algorithm"] == len(runs)
    assert kernels > 0
    assert total <= FRAME_LIMIT
    assert kernels <= KERNEL_FRAME_LIMIT
