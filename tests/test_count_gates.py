"""The count gates of the fold loop, the report path and the audit:
operation counts that do not depend on the machine, read in one pass of
every pinned CLI document through ``parse_problem``, ``run`` (with a dot
prefix, so the hull runs; no file is written) and ``render_report``, from a
cleared ``field_context`` cache.

Each gate holds a limit or a ratio, and each has a count above 0 so that it
cannot pass vacuously.  ``pytest tests/test_count_gates.py -s`` prints the
readings.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest

import schottkyfold as sf
from schottkyfold import cli, folding, oracle, valfield
from schottkyfold.projline import PPoint
from schottkyfold.valfield import FieldContext

from helpers import (count_calls, count_chain_walks, count_cluster_records,
                     count_finite_pairs_built, recorded_inside)

DOCS = sorted((Path(__file__).parent / "expected" / "cli").glob("*.json"))

# valuing every difference in the skeleton and the fold scan took 736
VALUATION_LIMIT = 464
# turning pair i's cross ratios at every scan took 144
ROTATION_LIMIT = 114
# classifying every least rotation, inverses and powers included, took 119
CLASSIFIED_LIMIT = 77
# pair_up making each paired point anew, not handing over the input's, took 200
POINT_LIMIT = 39
# telling "inf" from a point, and a repeat of the first point, by comparing
# each with it took 288; refusing a repeated pair in the audit, and naming
# a repeat after a fold, by comparing and hashing points took 73
COMPARISON_LIMIT = 0


@pytest.fixture(scope="module")
def counts():
    with pytest.MonkeyPatch.context() as mp:
        sf.field_context.cache_clear()
        contexts = count_calls(mp, FieldContext, "__init__")
        scan = recorded_inside(
            mp, folding, "find_fold_exponent",
            rational=count_calls(mp, valfield._Integers, "rotate"),
            cyclotomic=count_calls(mp, valfield._CyclotomicIntegers, "rotate"),
        )
        scans = count_calls(mp, folding, "find_fold_exponent")
        records = count_cluster_records(mp)
        points = count_calls(mp, PPoint, "__new__")
        comparisons = count_calls(mp, Fraction, "__eq__")
        run = recorded_inside(mp, cli, "run", comparisons=comparisons)
        hull = recorded_inside(mp, cli, "reduced_convex_hull", records=records)
        loop = recorded_inside(
            mp, folding, "run_algorithm",
            valuations=count_calls(mp, FieldContext, "integral_valuation"),
            walks=count_chain_walks(mp),
            pairs=count_finite_pairs_built(mp),
            records=records,
            points=points,
            targets=count_calls(mp, folding, "targets"),
            selects=count_calls(mp, folding, "select_target"),
        )
        audit = recorded_inside(
            mp, oracle, "schottky_audit",
            classified=count_calls(mp, oracle, "is_loxodromic"),
        )
        audits = count_calls(mp, oracle, "schottky_audit")
        fields = set()
        for doc in DOCS:
            spec = cli.parse_problem(doc.read_text(encoding="utf-8"))
            cli.render_report(cli.run(spec._replace(dot="unused"))[0])
            fields.add((spec.p, spec.ell))
        # one comparison outside cli.run: the counter is live, so a reading
        # of 0 inside it is not vacuous
        assert Fraction(1, 2) == Fraction(2, 4)
    assert DOCS
    return {
        "valuations": len(loop["valuations"]),
        "rotations": len(scan["rational"]) + len(scan["cyclotomic"]),
        "scans": len(scans),
        "walks": len(loop["walks"]),
        "pairs": sum(loop["pairs"]),
        "loop records": len(loop["records"]),
        "hull records": len(hull["records"]),
        "points": len(loop["points"]),
        "comparisons": len(run["comparisons"]),
        "all comparisons": len(comparisons),
        "runs": len(DOCS),
        "targets": len(loop["targets"]),
        "selects": len(loop["selects"]),
        "contexts": len(contexts),
        "classified": len(audit["classified"]),
        "audits": len(audits),
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


def test_no_cluster_records_in_the_fold_loop(counts):
    # the fold pass reads the skeleton's flat tree and makes no Cluster
    # record, while the hull makes one for each vertex it keeps
    print(f"\n{counts['loop records']} Cluster records in run_algorithm, "
          f"{counts['hull records']} in reduced_convex_hull")
    assert counts["loop records"] == 0
    assert counts["hull records"] > 0


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
